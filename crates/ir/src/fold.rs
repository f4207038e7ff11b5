//! Constant folding and algebraic simplification of local-pure
//! expressions.
//!
//! The paper remarks that in explicitly parallel programs "the quality of
//! the scalar code is limited by the inability to move code around
//! parallelism primitives" (§1) — once the delay set tells the compiler
//! which motion is legal, ordinary scalar optimization applies. This
//! module provides the ordinary part: folding `1 + 2`, `x * 1`, `0 + x`,
//! `e - e`-style identities inside instructions, conditions, and
//! subscripts. Division and modulo fold only when the divisor is a
//! nonzero constant (folding must not hide a runtime trap).

use crate::arith::{self, Value};
use crate::cfg::{Cfg, Instr, Terminator};
use crate::expr::Expr;
use crate::ids::VarId;
use syncopt_frontend::ast::{BinOp, Type, UnOp};

/// Recursively folds an expression. Idempotent.
pub fn fold_expr(e: &Expr) -> Expr {
    let mut folded = e.clone();
    fold_in_place(&mut folded);
    folded
}

/// Folds `e` where it stands, children first, and says whether anything
/// was rewritten. An expression with nothing to fold is only read: no node
/// of it is rebuilt. Without a variable table no local is known to be an
/// `int`, so `x * 0` folds only for `x` built from constants, `MYPROC`
/// and `PROCS` (see [`fold_cfg`]).
pub fn fold_in_place(e: &mut Expr) -> bool {
    fold_typed(e, &|_| false)
}

/// Whether `e`, if it evaluates, evaluates to an `int`: an int literal,
/// `MYPROC`, `PROCS`, a local (or local-array element) that `int_local`
/// says is an `int`, or negation and arithmetic over such.
fn is_int(e: &Expr, int_local: &dyn Fn(VarId) -> bool) -> bool {
    match e {
        Expr::Int(_) | Expr::MyProc | Expr::Procs => true,
        Expr::Local(v) | Expr::LocalElem { array: v, .. } => int_local(*v),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => is_int(expr, int_local),
        Expr::Binary {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem,
            lhs,
            rhs,
        } => is_int(lhs, int_local) && is_int(rhs, int_local),
        _ => false,
    }
}

/// [`fold_in_place`] knowing which locals are `int`s.
fn fold_typed(e: &mut Expr, int_local: &dyn Fn(VarId) -> bool) -> bool {
    /// Moves an operand out of a node that is about to be replaced.
    fn take(e: &mut Expr) -> Expr {
        std::mem::replace(e, Expr::Int(0))
    }
    match e {
        Expr::Unary { op, expr } => {
            let changed = fold_typed(expr, int_local);
            if let Some(v) = Value::of_literal(expr).and_then(|v| arith::unop(*op, v).ok()) {
                *e = v.into();
                return true;
            }
            let folded = match (*op, &mut **expr) {
                // --x = x, !!x = x
                (
                    UnOp::Neg,
                    Expr::Unary {
                        op: UnOp::Neg,
                        expr: inner,
                    },
                )
                | (
                    UnOp::Not,
                    Expr::Unary {
                        op: UnOp::Not,
                        expr: inner,
                    },
                ) => take(inner),
                _ => return changed,
            };
            *e = folded;
            true
        }
        Expr::Binary { op, lhs, rhs } => {
            // Not `||`: both operands are folded.
            let changed = fold_typed(lhs, int_local) | fold_typed(rhs, int_local);
            let folded = match fold_binary(*op, lhs, rhs, int_local) {
                Folded::Const(value) => value,
                Folded::Lhs => take(lhs),
                Folded::Rhs => take(rhs),
                Folded::Neither => return changed,
            };
            *e = folded;
            true
        }
        Expr::LocalElem { index, .. } => fold_typed(index, int_local),
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Bool(_)
        | Expr::MyProc
        | Expr::Procs
        | Expr::Local(_) => false,
    }
}

/// What a binary node over two folded operands becomes.
enum Folded {
    /// A constant.
    Const(Expr),
    /// Its left operand.
    Lhs,
    /// Its right operand.
    Rhs,
    /// Itself: nothing applies.
    Neither,
}

fn fold_binary(op: BinOp, l: &Expr, r: &Expr, int_local: &dyn Fn(VarId) -> bool) -> Folded {
    use BinOp::*;
    use Folded::{Const, Lhs, Neither, Rhs};
    // Constant operands: whatever the machine computes, unless it faults.
    if let (Some(a), Some(b)) = (Value::of_literal(l), Value::of_literal(r)) {
        if let Ok(v) = arith::binop(op, a, b) {
            return Const(v.into());
        }
    }
    // Algebraic identities (trap-free operands only: folding away a
    // division would be wrong, but every identity below keeps or drops a
    // *pure* side). Where both sides match a rule, the left one is kept,
    // as the first alternative of each pattern below reads.
    match (op, l, r) {
        // x + 0, x - 0, x * 1, x / 1, b && true, b || false.
        (Add | Sub, _, Expr::Int(0))
        | (Mul | Div, _, Expr::Int(1))
        | (And, _, Expr::Bool(true))
        | (Or, _, Expr::Bool(false)) => Lhs,
        // 0 + x, 1 * x, true && b, false || b.
        (Add, Expr::Int(0), _)
        | (Mul, Expr::Int(1), _)
        | (And, Expr::Bool(true), _)
        | (Or, Expr::Bool(false), _) => Rhs,
        // x * 0, 0 * x — only when x cannot trap and is an int: a double
        // times 0 is the double 0.0 (and NaN or ±0.0 for NaN or ±inf).
        (Mul, x, Expr::Int(0)) | (Mul, Expr::Int(0), x) if !may_trap(x) && is_int(x, int_local) => {
            Const(Expr::Int(0))
        }
        // b && false / b || true — only when b cannot trap.
        (And, x, Expr::Bool(false)) | (And, Expr::Bool(false), x) if !may_trap(x) => {
            Const(Expr::Bool(false))
        }
        (Or, x, Expr::Bool(true)) | (Or, Expr::Bool(true), x) if !may_trap(x) => {
            Const(Expr::Bool(true))
        }
        _ => Neither,
    }
}

/// Whether evaluating the expression can fault at runtime.
pub fn may_trap(e: &Expr) -> bool {
    match e {
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Bool(_)
        | Expr::MyProc
        | Expr::Procs
        | Expr::Local(_) => false,
        Expr::LocalElem { .. } => true, // bounds check
        Expr::Unary { expr, .. } => may_trap(expr),
        Expr::Binary { op, lhs, rhs } => {
            let divisorish = matches!(op, BinOp::Div | BinOp::Rem)
                && !matches!(rhs.as_ref(), Expr::Int(v) if *v != 0);
            divisorish || may_trap(lhs) || may_trap(rhs)
        }
    }
}

/// Folds every expression in the CFG in place: assignment values, shared
/// indices, put sources, work costs, and branch conditions. Branches whose
/// condition folds to a constant become unconditional jumps.
pub fn fold_cfg(cfg: &mut Cfg) -> usize {
    let Cfg { blocks, vars, .. } = cfg;
    let int_local = |v: VarId| vars.info(v).ty == Type::Int;
    let touch_with = |e: &mut Expr, changes: &mut usize| {
        *changes += usize::from(fold_typed(e, &int_local));
    };
    let mut changes = 0;
    for block in blocks.iter_mut() {
        for instr in &mut block.instrs {
            match instr {
                Instr::AssignLocal { value, .. } => touch_with(value, &mut changes),
                Instr::AssignLocalElem { index, value, .. } => {
                    touch_with(index, &mut changes);
                    touch_with(value, &mut changes);
                }
                Instr::Work { cost } => touch_with(cost, &mut changes),
                Instr::GetShared { src, .. } | Instr::GetInit { src, .. } => {
                    if let Some(i) = &mut src.index {
                        touch_with(i, &mut changes);
                    }
                }
                Instr::PutShared { dst, src, .. }
                | Instr::PutInit { dst, src, .. }
                | Instr::StoreInit { dst, src, .. } => {
                    if let Some(i) = &mut dst.index {
                        touch_with(i, &mut changes);
                    }
                    touch_with(src, &mut changes);
                }
                Instr::Post { index, .. } | Instr::Wait { index, .. } => {
                    if let Some(i) = index {
                        touch_with(i, &mut changes);
                    }
                }
                Instr::SyncCtr { .. }
                | Instr::Barrier { .. }
                | Instr::LockAcq { .. }
                | Instr::LockRel { .. } => {}
            }
        }
        let term = &mut block.term;
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = term
        {
            let changed = fold_typed(cond, &int_local);
            // A constant condition counts as a change even when it was
            // written as one.
            match cond {
                Expr::Bool(true) => {
                    *term = Terminator::Goto(*then_bb);
                    changes += 1;
                }
                Expr::Bool(false) => {
                    *term = Terminator::Goto(*else_bb);
                    changes += 1;
                }
                _ => changes += usize::from(changed),
            }
        }
    }
    // Folding conditions can strand access positions if it changed reachable
    // structure; positions themselves are untouched (no instruction moved).
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn folds_integer_arithmetic() {
        assert_eq!(
            fold_expr(&bin(BinOp::Add, Expr::Int(1), Expr::Int(2))),
            Expr::Int(3)
        );
        assert_eq!(
            fold_expr(&bin(BinOp::Mul, Expr::Int(4), Expr::Int(8))),
            Expr::Int(32)
        );
        assert_eq!(
            fold_expr(&bin(BinOp::Rem, Expr::Int(-1), Expr::Int(8))),
            Expr::Int(7)
        );
        assert_eq!(
            fold_expr(&bin(BinOp::Lt, Expr::Int(1), Expr::Int(2))),
            Expr::Bool(true)
        );
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let e = bin(BinOp::Div, Expr::Int(1), Expr::Int(0));
        assert_eq!(fold_expr(&e), e, "must keep the trapping division");
        let m = bin(BinOp::Rem, Expr::Int(1), Expr::Int(0));
        assert_eq!(fold_expr(&m), m);
    }

    #[test]
    fn identities() {
        let x = Expr::Local(VarId(3));
        assert_eq!(fold_expr(&bin(BinOp::Add, x.clone(), Expr::Int(0))), x);
        assert_eq!(fold_expr(&bin(BinOp::Mul, Expr::Int(1), x.clone())), x);
        assert_eq!(fold_expr(&bin(BinOp::Sub, x.clone(), Expr::Int(0))), x);
        assert_eq!(fold_expr(&bin(BinOp::Div, x.clone(), Expr::Int(1))), x);
        // `x * 0` is `0` only for an int `x`: without a variable table a
        // local's type is unknown, and a double times 0 is not the int 0.
        let x_times_0 = bin(BinOp::Mul, x.clone(), Expr::Int(0));
        assert_eq!(fold_expr(&x_times_0), x_times_0);
        assert_eq!(
            fold_expr(&bin(BinOp::Mul, Expr::Int(0), Expr::MyProc)),
            Expr::Int(0)
        );
    }

    #[test]
    fn times_zero_folds_for_int_locals_only() {
        let cfg = |src: &str| {
            let mut cfg =
                crate::lower::lower_main(&syncopt_frontend::prepare_program(src).unwrap()).unwrap();
            fold_cfg(&mut cfg);
            crate::print::cfg_to_string(&cfg)
        };
        let int = cfg("shared int X; fn main() { int i; i = MYPROC; X = i * 0; }");
        assert!(int.contains("X = 0"), "{int}");
        let double = cfg("shared double D; fn main() { double d; d = 1.5; D = d * 0; }");
        assert!(double.contains("d * 0"), "{double}");
    }

    #[test]
    fn trapping_subterms_block_zeroing() {
        // (a / b) * 0 must not fold: the division may trap.
        let div = bin(BinOp::Div, Expr::Local(VarId(0)), Expr::Local(VarId(1)));
        let e = bin(BinOp::Mul, div.clone(), Expr::Int(0));
        assert_eq!(fold_expr(&e), bin(BinOp::Mul, div, Expr::Int(0)));
    }

    #[test]
    fn nested_folding_and_double_negation() {
        let e = Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(Expr::Local(VarId(2))),
            }),
        };
        assert_eq!(fold_expr(&e), Expr::Local(VarId(2)));
        let deep = bin(
            BinOp::Add,
            bin(BinOp::Mul, Expr::Int(2), Expr::Int(3)),
            bin(BinOp::Sub, Expr::Int(10), Expr::Int(4)),
        );
        assert_eq!(fold_expr(&deep), Expr::Int(12));
    }

    #[test]
    fn fold_is_idempotent() {
        let e = bin(
            BinOp::Add,
            bin(BinOp::Mul, Expr::MyProc, Expr::Int(1)),
            bin(BinOp::Add, Expr::Int(2), Expr::Int(3)),
        );
        let once = fold_expr(&e);
        assert_eq!(fold_expr(&once), once);
        assert_eq!(once, bin(BinOp::Add, Expr::MyProc, Expr::Int(5)));
    }

    #[test]
    fn fold_cfg_simplifies_instructions_and_branches() {
        use crate::lower::lower_main;
        use syncopt_frontend::prepare_program;
        let src = r#"
            shared int A[8];
            fn main() {
                int v;
                v = 2 * 3 + 0;
                A[MYPROC * 1] = v + 1 * 0 + 6;
                if (1 < 2) { work(4 + 4); }
            }
        "#;
        let mut cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let changes = fold_cfg(&mut cfg);
        assert!(changes >= 3, "{changes}");
        // The branch became a goto.
        let branches = cfg
            .block_ids()
            .filter(|&b| matches!(cfg.block(b).term, Terminator::Branch { .. }))
            .count();
        assert_eq!(branches, 0);
        // Idempotent.
        assert_eq!(fold_cfg(&mut cfg), 0);
        cfg.validate().unwrap();
    }
}
