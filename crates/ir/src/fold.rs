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
use syncopt_frontend::ast::{BinOp, UnOp};

/// Recursively folds an expression. Idempotent.
pub fn fold_expr(e: &Expr) -> Expr {
    let mut folded = e.clone();
    fold_in_place(&mut folded);
    folded
}

/// Folds `e` where it stands, children first, and says whether anything
/// was rewritten. An expression with nothing to fold is only read: no node
/// of it is rebuilt.
pub fn fold_in_place(e: &mut Expr) -> bool {
    /// Moves an operand out of a node that is about to be replaced.
    fn take(e: &mut Expr) -> Expr {
        std::mem::replace(e, Expr::Int(0))
    }
    match e {
        Expr::Unary { op, expr } => {
            let changed = fold_in_place(expr);
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
            let changed = fold_in_place(lhs) | fold_in_place(rhs);
            let folded = match fold_binary(*op, lhs, rhs) {
                Folded::Const(value) => value,
                Folded::Lhs => take(lhs),
                Folded::Rhs => take(rhs),
                Folded::Neither => return changed,
            };
            *e = folded;
            true
        }
        Expr::LocalElem { index, .. } => fold_in_place(index),
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

fn fold_binary(op: BinOp, l: &Expr, r: &Expr) -> Folded {
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
        // x * 0, 0 * x — only when x cannot trap.
        (Mul, x, Expr::Int(0)) | (Mul, Expr::Int(0), x) if !may_trap(x) => Const(Expr::Int(0)),
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
    fn touch_with(e: &mut Expr, changes: &mut usize) {
        *changes += usize::from(fold_in_place(e));
    }
    let mut changes = 0;
    for bi in 0..cfg.blocks.len() {
        let b = crate::ids::BlockId::from_index(bi);
        for instr in &mut cfg.block_mut(b).instrs {
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
        let term = &mut cfg.block_mut(b).term;
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = term
        {
            let changed = fold_in_place(cond);
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

/// The folder as it was before it worked in place: it rebuilds every node
/// of the tree, folded or not. Kept as what the in-place folder is compared
/// against.
#[cfg(test)]
mod reference {
    use super::may_trap;
    use crate::arith::{self, Value};
    use crate::expr::Expr;
    use syncopt_frontend::ast::{BinOp, UnOp};

    pub(super) fn fold_expr(e: &Expr) -> Expr {
        match e {
            Expr::Unary { op, expr } => {
                let inner = fold_expr(expr);
                if let Some(v) = Value::of_literal(&inner).and_then(|v| arith::unop(*op, v).ok()) {
                    return v.into();
                }
                match (op, &inner) {
                    // --x = x
                    (
                        UnOp::Neg,
                        Expr::Unary {
                            op: UnOp::Neg,
                            expr,
                        },
                    ) => (**expr).clone(),
                    (
                        UnOp::Not,
                        Expr::Unary {
                            op: UnOp::Not,
                            expr,
                        },
                    ) => (**expr).clone(),
                    _ => Expr::Unary {
                        op: *op,
                        expr: Box::new(inner),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = fold_expr(lhs);
                let r = fold_expr(rhs);
                fold_binary(*op, l, r)
            }
            Expr::LocalElem { array, index } => Expr::LocalElem {
                array: *array,
                index: Box::new(fold_expr(index)),
            },
            other => other.clone(),
        }
    }

    fn fold_binary(op: BinOp, l: Expr, r: Expr) -> Expr {
        use BinOp::*;
        if let (Some(a), Some(b)) = (Value::of_literal(&l), Value::of_literal(&r)) {
            if let Ok(v) = arith::binop(op, a, b) {
                return v.into();
            }
        }
        // Algebraic identities (trap-free operands only: folding away a
        // division would be wrong, but every identity below keeps or drops a
        // *pure* side).
        match (op, &l, &r) {
            // x + 0, 0 + x, x - 0.
            (Add, x, Expr::Int(0)) | (Add, Expr::Int(0), x) | (Sub, x, Expr::Int(0)) => {
                return x.clone()
            }
            // x * 1, 1 * x.
            (Mul, x, Expr::Int(1)) | (Mul, Expr::Int(1), x) => return x.clone(),
            // x * 0, 0 * x — only when x cannot trap.
            (Mul, x, Expr::Int(0)) | (Mul, Expr::Int(0), x) if !may_trap(x) => return Expr::Int(0),
            // x / 1.
            (Div, x, Expr::Int(1)) => return x.clone(),
            // b && true / b || false.
            (And, x, Expr::Bool(true)) | (And, Expr::Bool(true), x) => return x.clone(),
            (Or, x, Expr::Bool(false)) | (Or, Expr::Bool(false), x) => return x.clone(),
            // b && false / b || true — only when b cannot trap.
            (And, x, Expr::Bool(false)) | (And, Expr::Bool(false), x) if !may_trap(x) => {
                return Expr::Bool(false)
            }
            (Or, x, Expr::Bool(true)) | (Or, Expr::Bool(true), x) if !may_trap(x) => {
                return Expr::Bool(true)
            }
            _ => {}
        }
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }
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
        assert_eq!(
            fold_expr(&bin(BinOp::Mul, x.clone(), Expr::Int(0))),
            Expr::Int(0)
        );
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

    /// A random expression over every node kind, constants weighted so that
    /// each folding rule fires often, division by zero included.
    fn random_expr(next: &mut impl FnMut() -> u64, depth: u32) -> Expr {
        let leaf = |next: &mut dyn FnMut() -> u64| match next() % 9 {
            0 => Expr::Int(0),
            1 => Expr::Int(1),
            2 => Expr::Int((next() % 7) as i64 - 3),
            3 => Expr::Bool(next().is_multiple_of(2)),
            4 => Expr::Float((next() % 3) as f64 - 1.0),
            5 => Expr::MyProc,
            6 => Expr::Procs,
            _ => Expr::Local(VarId((next() % 3) as u32)),
        };
        if depth == 0 || next().is_multiple_of(4) {
            return leaf(next);
        }
        match next() % 8 {
            0 => Expr::Unary {
                op: if next().is_multiple_of(2) {
                    UnOp::Neg
                } else {
                    UnOp::Not
                },
                expr: Box::new(random_expr(next, depth - 1)),
            },
            1 => Expr::LocalElem {
                array: VarId(7),
                index: Box::new(random_expr(next, depth - 1)),
            },
            _ => {
                const OPS: [BinOp; 13] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ];
                bin(
                    OPS[(next() % 13) as usize],
                    random_expr(next, depth - 1),
                    random_expr(next, depth - 1),
                )
            }
        }
    }

    #[test]
    fn folding_in_place_is_folding_by_rebuilding() {
        let mut state = 0x5eed_f01du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut rewritten, mut untouched) = (0, 0);
        for trial in 0..20_000 {
            let e = random_expr(&mut next, 1 + trial % 6);
            let expected = reference::fold_expr(&e);
            let mut folded = e.clone();
            let changed = fold_in_place(&mut folded);
            // Compared as text: a folded `0.0 / 0.0` is a NaN, which `==`
            // finds unequal to itself.
            let text = |e: &Expr| format!("{e:?}");
            assert_eq!(text(&folded), text(&expected), "trial {trial}: {e:?}");
            assert_eq!(changed, expected != e, "trial {trial}: {e:?}");
            assert_eq!(
                text(&fold_expr(&e)),
                text(&expected),
                "trial {trial}: {e:?}"
            );
            assert!(!fold_in_place(&mut folded), "trial {trial}: not idempotent");
            if changed {
                rewritten += 1;
            } else {
                untouched += 1;
            }
        }
        assert!(
            rewritten > 2_000 && untouched > 2_000,
            "{rewritten} / {untouched}"
        );
    }
}
