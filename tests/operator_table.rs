//! Every operator over the edge values of each kind, through the public
//! entry of each module that evaluates it: the constant folder
//! (`fold_expr`), the analysis's branch guards (`access_proc_sets`), the
//! simulator (`value::eval`) and litmus (`extract_traces`). All four must
//! compute what the simulator computes. Where the simulator faults, the
//! guards answer "unknown", litmus reports the simulator's own message and
//! the folder leaves the operation in place.

use syncopt::core::guards::{access_proc_sets, ProcSet};
use syncopt::frontend::ast::{BinOp, UnOp};
use syncopt::frontend::prepare_program;
use syncopt::ir::arith::Value;
use syncopt::ir::cfg::{Cfg, Terminator};
use syncopt::ir::expr::Expr;
use syncopt::ir::fold::fold_expr;
use syncopt::ir::lower::lower_main;
use syncopt::ir::vars::VarTable;
use syncopt::machine::litmus::{extract_traces, TraceOp};
use syncopt::machine::value::{eval, ProcEnv};

const BINOPS: [BinOp; 13] = [
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

fn operands() -> Vec<Expr> {
    let ints = [i64::MIN, i64::MIN + 1, -2, -1, 0, 1, i64::MAX].map(Expr::Int);
    let doubles = [-1.5, 0.0, 2.5].map(Expr::Float);
    let bools = [false, true].map(Expr::Bool);
    ints.into_iter().chain(doubles).chain(bools).collect()
}

/// Whether the type checker admits the operation: only these can reach
/// the folder from source. On the others its algebraic identities may
/// keep a literal side where the simulator faults (`true + 0`).
fn well_typed(e: &Expr) -> bool {
    let kind = |e: &Expr| match e {
        Expr::Int(_) => 'i',
        Expr::Float(_) => 'd',
        _ => 'b',
    };
    match e {
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => kind(expr) != 'b',
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => kind(expr) == 'b',
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => kind(lhs) == 'b' && kind(rhs) == 'b',
            BinOp::Rem => kind(lhs) == 'i' && kind(rhs) == 'i',
            _ => kind(lhs) != 'b' && kind(rhs) != 'b',
        },
        _ => unreachable!("only operations are tabled"),
    }
}

fn cases() -> Vec<Expr> {
    let ops = operands();
    let mut cases = Vec::new();
    for op in [UnOp::Neg, UnOp::Not] {
        for v in &ops {
            cases.push(Expr::Unary {
                op,
                expr: Box::new(v.clone()),
            });
        }
    }
    for op in BINOPS {
        for l in &ops {
            for r in &ops {
                cases.push(Expr::Binary {
                    op,
                    lhs: Box::new(l.clone()),
                    rhs: Box::new(r.clone()),
                });
            }
        }
    }
    cases
}

/// One value, NaN and the sign of zero included.
fn same(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn not(e: Expr) -> Expr {
    Expr::Unary {
        op: UnOp::Not,
        expr: Box::new(e),
    }
}

/// A condition that holds exactly when `e` evaluates to `v`.
fn equals(e: &Expr, v: Value) -> Expr {
    let cmp = |op, rhs: Expr| Expr::Binary {
        op,
        lhs: Box::new(e.clone()),
        rhs: Box::new(rhs),
    };
    match v {
        Value::Bool(true) => e.clone(),
        Value::Bool(false) => not(e.clone()),
        Value::Double(d) if d.is_nan() => cmp(BinOp::Ne, e.clone()),
        _ => cmp(BinOp::Eq, v.into()),
    }
}

/// `if (cond) { X = 1; } else { X = 2; }` on one processor.
fn branch_on(template: &Cfg, cond: Expr) -> Cfg {
    let mut cfg = template.clone();
    let entry = cfg.entry;
    let Terminator::Branch { cond: c, .. } = &mut cfg.block_mut(entry).term else {
        panic!("the template opens with its branch");
    };
    *c = cond;
    cfg
}

#[test]
fn fold_guards_simulator_and_litmus_agree_on_every_operator() {
    let template = lower_main(
        &prepare_program("shared int X; fn main() { if (MYPROC == 0) { X = 1; } else { X = 2; } }")
            .unwrap(),
    )
    .unwrap();
    let env = ProcEnv::new(0, 1, &VarTable::new());
    let (mut computed, mut faulted) = (0, 0);
    for e in cases() {
        let folded = fold_expr(&e);
        match eval(&e, &env) {
            Ok(v) => {
                computed += 1;
                // The folder computes it.
                let f = Value::of_literal(&folded);
                assert!(
                    f.is_some_and(|f| same(f, v)),
                    "{e:?}: folded {folded:?}, ran {v:?}"
                );
                // The guard holds on the `then` side only.
                let cfg = branch_on(&template, equals(&e, v));
                assert_eq!(
                    access_proc_sets(&cfg, Some(1)),
                    [ProcSet::Ids(vec![0]), ProcSet::Ids(vec![])],
                    "{e:?}: guard of {v:?}"
                );
                // Litmus takes the `then` side.
                let traces = extract_traces(&cfg, 1).unwrap_or_else(|err| panic!("{e:?}: {err}"));
                assert!(
                    matches!(traces[0][..], [TraceOp::Write { val: 1, .. }]),
                    "{e:?}: litmus took {traces:?}"
                );
            }
            Err(fault) => {
                faulted += 1;
                // The folder leaves it (only typeck-admitted operations
                // reach it).
                if well_typed(&e) {
                    assert_eq!(folded, e, "{e:?}: folded where the simulator faults");
                }
                // The guard is unknown: both sides stay possible.
                let cfg = branch_on(&template, e.clone());
                assert_eq!(
                    access_proc_sets(&cfg, Some(1)),
                    [ProcSet::Ids(vec![0]), ProcSet::Ids(vec![0])],
                    "{e:?}: guard where the simulator faults"
                );
                // Litmus faults as the simulator does.
                let err = extract_traces(&cfg, 1).expect_err(&format!("{e:?}"));
                assert_eq!(err, fault, "{e:?}");
            }
        }
    }
    // Every case ran, and both outcomes are common.
    assert_eq!(computed + faulted, 2 * 12 + 13 * 12 * 12);
    assert!(computed > 1_000 && faulted > 500, "{computed} / {faulted}");
}
