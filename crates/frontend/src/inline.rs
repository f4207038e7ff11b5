//! Call inlining.
//!
//! `minisplit` functions are statement-level procedures; the analyses in
//! `syncopt-core` are whole-program, so before lowering we inline every call
//! into `main`. Callee locals and parameters are renamed with a unique
//! suffix — `{name}__{callee}_{n}`, `n` counting calls, skipping any `n`
//! whose names the program already uses — and parameters become
//! initialized locals (call-by-value).
//!
//! Restrictions: recursion is rejected, and `return` is only permitted in
//! `main` (an inlined `return` would need a structured jump the AST lacks).

use crate::ast::{Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind};
use crate::error::FrontendError;
use crate::span::Span;
use std::collections::{HashMap, HashSet};

/// Inlines all calls, returning a program whose only function is `main`.
///
/// # Errors
///
/// Returns an error if the program has no `main`, if `main` takes
/// parameters, if any call chain is recursive, or if an inlined function
/// contains `return`.
pub fn inline_program(program: &Program) -> Result<Program, FrontendError> {
    let Some(main) = program.function("main") else {
        return Err(FrontendError::inline(
            Span::dummy(),
            "program has no `main` function",
        ));
    };
    if !main.params.is_empty() {
        return Err(FrontendError::inline(
            main.span,
            "`main` must not take parameters",
        ));
    }
    let mut ctx = Inliner {
        program,
        stack: vec!["main".to_string()],
        counter: 0,
        taken: None,
    };
    let body = ctx.inline_stmts(&main.body, &HashMap::new(), true)?;
    Ok(Program {
        decls: program.decls.clone(),
        functions: vec![Function {
            name: "main".to_string(),
            params: Vec::new(),
            body,
            span: main.span,
        }],
    })
}

struct Inliner<'a> {
    program: &'a Program,
    stack: Vec<String>,
    counter: u64,
    /// Every identifier of the program that a fresh name could equal —
    /// those containing `__` — collected on the first call.
    taken: Option<HashSet<&'a str>>,
}

impl<'a> Inliner<'a> {
    fn inline_stmts(
        &mut self,
        stmts: &[Stmt],
        renames: &HashMap<String, String>,
        in_main: bool,
    ) -> Result<Vec<Stmt>, FrontendError> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            self.inline_stmt(stmt, renames, in_main, &mut out)?;
        }
        Ok(out)
    }

    fn inline_stmt(
        &mut self,
        stmt: &Stmt,
        renames: &HashMap<String, String>,
        in_main: bool,
        out: &mut Vec<Stmt>,
    ) -> Result<(), FrontendError> {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::Call { name, args } => {
                if self.stack.iter().any(|f| f == name) {
                    return Err(FrontendError::inline(
                        span,
                        format!("recursive call to `{name}` cannot be inlined"),
                    ));
                }
                let callee = self
                    .program
                    .function(name)
                    .ok_or_else(|| {
                        FrontendError::inline(span, format!("call to unknown function `{name}`"))
                    })?
                    .clone();
                // Fresh names for parameters and all locals of the callee:
                // distinct calls differ in `n`, and no fresh name may equal
                // an identifier the program already has.
                let program = self.program;
                let taken = self
                    .taken
                    .get_or_insert_with(|| identifiers_with_infix(program));
                let mut callee_renames: HashMap<String, String> = HashMap::new();
                loop {
                    self.counter += 1;
                    let suffix = format!("__{}_{}", name, self.counter);
                    callee_renames.clear();
                    for param in &callee.params {
                        callee_renames
                            .insert(param.name.clone(), format!("{}{}", param.name, suffix));
                    }
                    collect_local_decls(&callee.body, &mut |n| {
                        callee_renames
                            .entry(n.to_string())
                            .or_insert_with(|| format!("{n}{suffix}"));
                    });
                    if !callee_renames
                        .values()
                        .any(|fresh| taken.contains(fresh.as_str()))
                    {
                        break;
                    }
                }

                // Bind arguments (evaluated in the caller's scope).
                for (param, arg) in callee.params.iter().zip(args) {
                    out.push(Stmt::new(
                        StmtKind::LocalDecl {
                            name: callee_renames[&param.name].clone(),
                            ty: param.ty,
                            len: None,
                            init: Some(rename_expr(arg, renames)),
                        },
                        span,
                    ));
                }

                self.stack.push(name.clone());
                let body = self.inline_stmts(&callee.body, &callee_renames, false)?;
                self.stack.pop();
                out.push(Stmt::new(StmtKind::Block(body), span));
                Ok(())
            }
            StmtKind::Return => {
                if in_main {
                    out.push(Stmt::new(StmtKind::Return, span));
                    Ok(())
                } else {
                    Err(FrontendError::inline(
                        span,
                        "`return` inside an inlined function is not supported",
                    ))
                }
            }
            StmtKind::LocalDecl {
                name,
                ty,
                len,
                init,
            } => {
                let name = renames.get(name).cloned().unwrap_or_else(|| name.clone());
                out.push(Stmt::new(
                    StmtKind::LocalDecl {
                        name,
                        ty: *ty,
                        len: *len,
                        init: init.as_ref().map(|e| rename_expr(e, renames)),
                    },
                    span,
                ));
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                out.push(Stmt::new(
                    StmtKind::Assign {
                        lhs: rename_lvalue(lhs, renames),
                        rhs: rename_expr(rhs, renames),
                    },
                    span,
                ));
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let kind = StmtKind::If {
                    cond: rename_expr(cond, renames),
                    then_branch: self.inline_stmts(then_branch, renames, in_main)?,
                    else_branch: self.inline_stmts(else_branch, renames, in_main)?,
                };
                out.push(Stmt::new(kind, span));
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let kind = StmtKind::While {
                    cond: rename_expr(cond, renames),
                    body: self.inline_stmts(body, renames, in_main)?,
                };
                out.push(Stmt::new(kind, span));
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut init_v = Vec::new();
                self.inline_stmt(init, renames, in_main, &mut init_v)?;
                let mut step_v = Vec::new();
                self.inline_stmt(step, renames, in_main, &mut step_v)?;
                debug_assert_eq!(init_v.len(), 1);
                debug_assert_eq!(step_v.len(), 1);
                let kind = StmtKind::For {
                    init: Box::new(init_v.pop().expect("one init statement")),
                    cond: rename_expr(cond, renames),
                    step: Box::new(step_v.pop().expect("one step statement")),
                    body: self.inline_stmts(body, renames, in_main)?,
                };
                out.push(Stmt::new(kind, span));
                Ok(())
            }
            StmtKind::Post { flag, index } => {
                out.push(Stmt::new(
                    StmtKind::Post {
                        flag: flag.clone(),
                        index: index.as_ref().map(|e| rename_expr(e, renames)),
                    },
                    span,
                ));
                Ok(())
            }
            StmtKind::Wait { flag, index } => {
                out.push(Stmt::new(
                    StmtKind::Wait {
                        flag: flag.clone(),
                        index: index.as_ref().map(|e| rename_expr(e, renames)),
                    },
                    span,
                ));
                Ok(())
            }
            StmtKind::Work { cost } => {
                out.push(Stmt::new(
                    StmtKind::Work {
                        cost: rename_expr(cost, renames),
                    },
                    span,
                ));
                Ok(())
            }
            StmtKind::Block(stmts) => {
                let inner = self.inline_stmts(stmts, renames, in_main)?;
                out.push(Stmt::new(StmtKind::Block(inner), span));
                Ok(())
            }
            StmtKind::Barrier | StmtKind::Lock { .. } | StmtKind::Unlock { .. } => {
                out.push(stmt.clone());
                Ok(())
            }
        }
    }
}

/// Every identifier of `program` containing `__`, the infix of every fresh
/// name: global declarations, functions, parameters, locals and every name
/// a statement or expression mentions.
fn identifiers_with_infix(program: &Program) -> HashSet<&str> {
    fn expr<'p>(e: &'p Expr, out: &mut HashSet<&'p str>) {
        match &e.kind {
            ExprKind::Var(name) => note(name, out),
            ExprKind::ArrayElem { name, index } => {
                note(name, out);
                expr(index, out);
            }
            ExprKind::Unary { expr: inner, .. } => expr(inner, out),
            ExprKind::Binary { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            _ => {}
        }
    }
    fn stmts<'p>(body: &'p [Stmt], out: &mut HashSet<&'p str>) {
        for stmt in body {
            match &stmt.kind {
                StmtKind::LocalDecl { name, init, .. } => {
                    note(name, out);
                    init.iter().for_each(|e| expr(e, out));
                }
                StmtKind::Assign { lhs, rhs } => {
                    note(lhs.name(), out);
                    if let LValue::ArrayElem { index, .. } = lhs {
                        expr(index, out);
                    }
                    expr(rhs, out);
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    expr(cond, out);
                    stmts(then_branch, out);
                    stmts(else_branch, out);
                }
                StmtKind::While { cond, body } => {
                    expr(cond, out);
                    stmts(body, out);
                }
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    stmts(std::slice::from_ref(init), out);
                    expr(cond, out);
                    stmts(std::slice::from_ref(step), out);
                    stmts(body, out);
                }
                StmtKind::Post { flag, index } | StmtKind::Wait { flag, index } => {
                    note(flag, out);
                    index.iter().for_each(|e| expr(e, out));
                }
                StmtKind::Lock { lock } | StmtKind::Unlock { lock } => note(lock, out),
                StmtKind::Work { cost } => expr(cost, out),
                StmtKind::Call { name, args } => {
                    note(name, out);
                    args.iter().for_each(|e| expr(e, out));
                }
                StmtKind::Block(body) => stmts(body, out),
                StmtKind::Barrier | StmtKind::Return => {}
            }
        }
    }
    fn note<'p>(name: &'p str, out: &mut HashSet<&'p str>) {
        if name.contains("__") {
            out.insert(name);
        }
    }
    let mut out = HashSet::new();
    for decl in &program.decls {
        note(decl.name(), &mut out);
    }
    for f in &program.functions {
        note(&f.name, &mut out);
        for p in &f.params {
            note(&p.name, &mut out);
        }
        stmts(&f.body, &mut out);
    }
    out
}

/// Calls `f` with the name of every local declaration in `stmts`, recursively.
fn collect_local_decls(stmts: &[Stmt], f: &mut impl FnMut(&str)) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::LocalDecl { name, .. } => f(name),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_local_decls(then_branch, f);
                collect_local_decls(else_branch, f);
            }
            StmtKind::While { body, .. } => collect_local_decls(body, f),
            StmtKind::For {
                init, step, body, ..
            } => {
                collect_local_decls(std::slice::from_ref(init), f);
                collect_local_decls(std::slice::from_ref(step), f);
                collect_local_decls(body, f);
            }
            StmtKind::Block(stmts) => collect_local_decls(stmts, f),
            _ => {}
        }
    }
}

fn rename_expr(expr: &Expr, renames: &HashMap<String, String>) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Var(name) => {
            ExprKind::Var(renames.get(name).cloned().unwrap_or_else(|| name.clone()))
        }
        ExprKind::ArrayElem { name, index } => ExprKind::ArrayElem {
            name: renames.get(name).cloned().unwrap_or_else(|| name.clone()),
            index: Box::new(rename_expr(index, renames)),
        },
        ExprKind::Unary { op, expr: inner } => ExprKind::Unary {
            op: *op,
            expr: Box::new(rename_expr(inner, renames)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(rename_expr(lhs, renames)),
            rhs: Box::new(rename_expr(rhs, renames)),
        },
        other => other.clone(),
    };
    Expr::new(kind, expr.span)
}

fn rename_lvalue(lvalue: &LValue, renames: &HashMap<String, String>) -> LValue {
    match lvalue {
        LValue::Var { name, span } => LValue::Var {
            name: renames.get(name).cloned().unwrap_or_else(|| name.clone()),
            span: *span,
        },
        LValue::ArrayElem { name, index, span } => LValue::ArrayElem {
            name: renames.get(name).cloned().unwrap_or_else(|| name.clone()),
            index: Box::new(rename_expr(index, renames)),
            span: *span,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::prepare_program;
    use crate::pretty::program_to_string;

    #[test]
    fn inlines_simple_call() {
        let src = r#"
            shared int X;
            fn bump(int amount) { X = X + amount; }
            fn main() { bump(2); bump(3); }
        "#;
        let prog = prepare_program(src).unwrap();
        assert_eq!(prog.functions.len(), 1);
        let printed = program_to_string(&prog);
        assert!(!printed.contains("bump("), "call not inlined:\n{printed}");
        assert!(printed.contains("amount__bump_1"), "{printed}");
        assert!(printed.contains("amount__bump_2"), "{printed}");
    }

    #[test]
    fn inlines_nested_calls() {
        let src = r#"
            shared int X;
            fn inner(int v) { X = v; }
            fn outer(int v) { inner(v + 1); }
            fn main() { outer(5); }
        "#;
        let prog = prepare_program(src).unwrap();
        let printed = program_to_string(&prog);
        assert!(printed.contains("X = v__inner"), "{printed}");
    }

    #[test]
    fn renames_callee_locals() {
        let src = r#"
            shared int X;
            fn f() { int t; t = 1; X = t; }
            fn main() { int t; t = 9; f(); X = t; }
        "#;
        let prog = prepare_program(src).unwrap();
        let printed = program_to_string(&prog);
        assert!(printed.contains("t__f_1"), "{printed}");
    }

    /// A caller local spelled like the first fresh name used to be
    /// captured: `helper`'s `x` became the caller's `x__helper_1`.
    #[test]
    fn fresh_names_avoid_the_programs_own_identifiers() {
        let src = r#"
            shared int Y[8];
            fn helper(int x) { Y[MYPROC] = x; }
            fn main() { int x__helper_1; x__helper_1 = 7; helper(1); Y[MYPROC] = x__helper_1; }
        "#;
        let prog = prepare_program(src).unwrap();
        let printed = program_to_string(&prog);
        assert!(printed.contains("int x__helper_2 = 1;"), "{printed}");
        assert!(printed.contains("Y[MYPROC] = x__helper_2;"), "{printed}");
        assert!(printed.contains("Y[MYPROC] = x__helper_1;"), "{printed}");
    }

    #[test]
    fn rejects_recursion() {
        let src = "fn f() { f(); } fn main() { f(); }";
        let err = prepare_program(src).unwrap_err();
        assert!(err.message().contains("recursive"), "{err}");

        let mutual = "fn a() { b(); } fn b() { a(); } fn main() { a(); }";
        assert!(prepare_program(mutual).is_err());
    }

    #[test]
    fn rejects_return_in_inlined_function() {
        let src = "fn f() { return; } fn main() { f(); }";
        let err = prepare_program(src).unwrap_err();
        assert!(err.message().contains("return"), "{err}");
    }

    #[test]
    fn allows_return_in_main() {
        prepare_program("fn main() { return; }").unwrap();
    }

    #[test]
    fn rejects_missing_main() {
        let err = prepare_program("fn f() { }").unwrap_err();
        assert!(err.message().contains("main"), "{err}");
    }

    #[test]
    fn inlined_function_with_loops_and_sync() {
        let src = r#"
            shared double A[16]; flag f;
            fn phase(int base) {
                int i;
                for (i = 0; i < 4; i = i + 1) { A[base + i] = 1.0; }
                barrier;
            }
            fn main() {
                phase(0);
                if (MYPROC == 0) { post f; } else { wait f; }
                phase(4);
            }
        "#;
        let prog = prepare_program(src).unwrap();
        let printed = program_to_string(&prog);
        assert!(printed.contains("i__phase_1"), "{printed}");
        assert!(printed.contains("i__phase_2"), "{printed}");
        // Re-check the inlined program to make sure it is still well-typed.
        crate::typeck::check(&prog).unwrap();
    }
}
