//! Pretty printer for `minisplit` ASTs.
//!
//! The output is valid `minisplit` source: `parse(pretty(p))` produces an AST
//! equal to `p` up to spans. Used by the round-trip tests and the examples.

use crate::ast::{Decl, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind};
use std::fmt::Write;

/// Renders a whole program as source text.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for decl in &program.decls {
        writeln!(out, "{}", decl_to_string(decl)).unwrap();
    }
    for func in &program.functions {
        out.push_str(&function_to_string(func));
    }
    out
}

/// Renders a single global declaration.
pub fn decl_to_string(decl: &Decl) -> String {
    match decl {
        Decl::SharedScalar { name, ty, .. } => format!("shared {ty} {name};"),
        Decl::SharedArray { name, ty, len, .. } => format!("shared {ty} {name}[{len}];"),
        Decl::Flag { name, .. } => format!("flag {name};"),
        Decl::FlagArray { name, len, .. } => format!("flag {name}[{len}];"),
        Decl::Lock { name, .. } => format!("lock {name};"),
    }
}

/// Renders a function definition.
pub fn function_to_string(func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .map(|p| format!("{} {}", p.ty, p.name))
        .collect();
    writeln!(out, "fn {}({}) {{", func.name, params.join(", ")).unwrap();
    for stmt in &func.body {
        write_stmt(&mut out, stmt, 1);
    }
    writeln!(out, "}}").unwrap();
    out
}

fn write_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    let pad = "    ".repeat(depth);
    match &stmt.kind {
        StmtKind::LocalDecl {
            name,
            ty,
            len,
            init,
        } => match (len, init) {
            (Some(n), _) => writeln!(out, "{pad}{ty} {name}[{n}];").unwrap(),
            (None, Some(e)) => writeln!(out, "{pad}{ty} {name} = {};", expr_to_string(e)).unwrap(),
            (None, None) => writeln!(out, "{pad}{ty} {name};").unwrap(),
        },
        StmtKind::Assign { lhs, rhs } => {
            writeln!(
                out,
                "{pad}{} = {};",
                lvalue_to_string(lhs),
                expr_to_string(rhs)
            )
            .unwrap();
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            writeln!(out, "{pad}if ({}) {{", expr_to_string(cond)).unwrap();
            for s in then_branch {
                write_stmt(out, s, depth + 1);
            }
            if else_branch.is_empty() {
                writeln!(out, "{pad}}}").unwrap();
            } else {
                writeln!(out, "{pad}}} else {{").unwrap();
                for s in else_branch {
                    write_stmt(out, s, depth + 1);
                }
                writeln!(out, "{pad}}}").unwrap();
            }
        }
        StmtKind::While { cond, body } => {
            writeln!(out, "{pad}while ({}) {{", expr_to_string(cond)).unwrap();
            for s in body {
                write_stmt(out, s, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            writeln!(
                out,
                "{pad}for ({}; {}; {}) {{",
                inline_assign(init),
                expr_to_string(cond),
                inline_assign(step)
            )
            .unwrap();
            for s in body {
                write_stmt(out, s, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        StmtKind::Barrier => writeln!(out, "{pad}barrier;").unwrap(),
        StmtKind::Post { flag, index } => match index {
            Some(e) => writeln!(out, "{pad}post {flag}[{}];", expr_to_string(e)).unwrap(),
            None => writeln!(out, "{pad}post {flag};").unwrap(),
        },
        StmtKind::Wait { flag, index } => match index {
            Some(e) => writeln!(out, "{pad}wait {flag}[{}];", expr_to_string(e)).unwrap(),
            None => writeln!(out, "{pad}wait {flag};").unwrap(),
        },
        StmtKind::Lock { lock } => writeln!(out, "{pad}lock {lock};").unwrap(),
        StmtKind::Unlock { lock } => writeln!(out, "{pad}unlock {lock};").unwrap(),
        StmtKind::Work { cost } => writeln!(out, "{pad}work({});", expr_to_string(cost)).unwrap(),
        StmtKind::Call { name, args } => {
            let args: Vec<String> = args.iter().map(expr_to_string).collect();
            writeln!(out, "{pad}{name}({});", args.join(", ")).unwrap();
        }
        StmtKind::Return => writeln!(out, "{pad}return;").unwrap(),
        StmtKind::Block(stmts) => {
            writeln!(out, "{pad}{{").unwrap();
            for s in stmts {
                write_stmt(out, s, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
    }
}

fn inline_assign(stmt: &Stmt) -> String {
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            format!("{} = {}", lvalue_to_string(lhs), expr_to_string(rhs))
        }
        other => panic!("for-loop header must be an assignment, got {other:?}"),
    }
}

/// Renders an lvalue.
pub fn lvalue_to_string(lvalue: &LValue) -> String {
    match lvalue {
        LValue::Var { name, .. } => name.clone(),
        LValue::ArrayElem { name, index, .. } => format!("{name}[{}]", expr_to_string(index)),
    }
}

/// Renders an expression with full parenthesization of nested operations.
pub fn expr_to_string(expr: &Expr) -> String {
    match &expr.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        ExprKind::BoolLit(v) => v.to_string(),
        ExprKind::Var(name) => name.clone(),
        ExprKind::ArrayElem { name, index } => format!("{name}[{}]", expr_to_string(index)),
        ExprKind::MyProc => "MYPROC".to_string(),
        ExprKind::Procs => "PROCS".to_string(),
        ExprKind::Unary { op, expr } => format!("{op}({})", expr_to_string(expr)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", expr_to_string(lhs), expr_to_string(rhs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    /// Strips spans by re-parsing: two ASTs are "equal" if they print the same.
    fn round_trip(src: &str) {
        let p1 = parse_program(src).unwrap();
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        assert_eq!(
            printed,
            program_to_string(&p2),
            "pretty-print not a fixpoint"
        );
    }

    #[test]
    fn round_trips_declarations() {
        round_trip("shared int X; shared double A[16]; flag f; flag g[4]; lock l;");
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            r#"
            shared int A[32];
            fn main() {
                int i;
                for (i = 0; i < 32; i = i + 1) {
                    if (i % 2 == 0) { A[i] = -i; } else { A[i] = i * i; }
                }
                while (i > 0) { i = i - 1; }
            }
            "#,
        );
    }

    #[test]
    fn round_trips_sync_and_calls() {
        round_trip(
            r#"
            flag f[8]; lock l;
            fn helper(int n, double x) { work(n); }
            fn main() {
                barrier;
                post f[MYPROC];
                wait f[(MYPROC + 1) % PROCS];
                lock l; unlock l;
                helper(3, 2.5);
                { return; }
            }
            "#,
        );
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        round_trip("fn main() { double d; d = 2.0; d = 0.5; }");
    }

    #[test]
    fn expr_parenthesization_preserves_shape() {
        let p = parse_program("fn main() { int x; x = 1 + 2 * 3 - 4; }").unwrap();
        let printed = program_to_string(&p);
        assert!(printed.contains("((1 + (2 * 3)) - 4)"), "{printed}");
    }
}
