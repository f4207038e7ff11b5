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
//!
//! The program is inlined by move: `main` and the declarations pass through
//! untouched, and only `Call` statements are replaced, in place, by renamed
//! copies of their callees. A call-free program allocates nothing.

use crate::ast::{Decl, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind};
use crate::error::FrontendError;
use crate::span::Span;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Fresh names by the callee-local names they replace.
type Renames = HashMap<String, String>;

/// Inlines all calls, returning a program whose only function is `main`.
///
/// An owned program is moved through; a borrowed one is copied first.
///
/// # Errors
///
/// Returns an error if the program has no `main`, if `main` takes
/// parameters, if any call chain is recursive, or if an inlined function
/// contains `return`.
pub fn inline_program<'p>(program: impl Into<Cow<'p, Program>>) -> Result<Program, FrontendError> {
    let Program {
        decls,
        mut functions,
    } = program.into().into_owned();
    let Some(at) = functions.iter().position(|f| f.name == "main") else {
        return Err(FrontendError::inline(
            Span::dummy(),
            "program has no `main` function",
        ));
    };
    if !functions[at].params.is_empty() {
        return Err(FrontendError::inline(
            functions[at].span,
            "`main` must not take parameters",
        ));
    }
    if has_call(&functions[at].body) {
        let mut body = std::mem::take(&mut functions[at].body);
        let mut ctx = Inliner {
            taken: identifiers_with_infix(&decls, &functions, &body),
            functions: &functions,
            stack: vec!["main"],
            counter: 0,
        };
        ctx.inline_stmts(&mut body, &Renames::new(), true)?;
        functions[at].body = body;
    }
    functions.swap(0, at);
    functions.truncate(1);
    Ok(Program { decls, functions })
}

impl From<Program> for Cow<'_, Program> {
    fn from(program: Program) -> Self {
        Cow::Owned(program)
    }
}

impl<'p> From<&'p Program> for Cow<'p, Program> {
    fn from(program: &'p Program) -> Self {
        Cow::Borrowed(program)
    }
}

struct Inliner<'a> {
    /// The program's functions, `main`'s body taken out.
    functions: &'a [Function],
    stack: Vec<&'a str>,
    counter: u64,
    /// Every identifier of the program that a fresh name could equal —
    /// those containing `__`.
    taken: HashSet<String>,
}

impl<'a> Inliner<'a> {
    /// Renames `stmts` in place and replaces each call among them by the
    /// bound arguments and a block holding the callee's renamed body.
    fn inline_stmts(
        &mut self,
        stmts: &mut Vec<Stmt>,
        renames: &Renames,
        in_main: bool,
    ) -> Result<(), FrontendError> {
        if !stmts
            .iter()
            .any(|stmt| matches!(stmt.kind, StmtKind::Call { .. }))
        {
            return stmts
                .iter_mut()
                .try_for_each(|stmt| self.inline_stmt(stmt, renames, in_main));
        }
        let old = std::mem::take(stmts);
        stmts.reserve(old.len());
        for stmt in old {
            match stmt.kind {
                StmtKind::Call { name, args } => {
                    self.inline_call(&name, args, stmt.span, renames, stmts)?;
                }
                kind => {
                    let mut stmt = Stmt::new(kind, stmt.span);
                    self.inline_stmt(&mut stmt, renames, in_main)?;
                    stmts.push(stmt);
                }
            }
        }
        Ok(())
    }

    fn inline_call(
        &mut self,
        name: &str,
        args: Vec<Expr>,
        span: Span,
        renames: &Renames,
        out: &mut Vec<Stmt>,
    ) -> Result<(), FrontendError> {
        if self.stack.contains(&name) {
            return Err(FrontendError::inline(
                span,
                format!("recursive call to `{name}` cannot be inlined"),
            ));
        }
        let functions = self.functions;
        let callee = functions.iter().find(|f| f.name == name).ok_or_else(|| {
            FrontendError::inline(span, format!("call to unknown function `{name}`"))
        })?;
        // Fresh names for parameters and all locals of the callee:
        // distinct calls differ in `n`, and no fresh name may equal
        // an identifier the program already has.
        let mut callee_renames = Renames::new();
        loop {
            self.counter += 1;
            let suffix = format!("__{}_{}", name, self.counter);
            callee_renames.clear();
            for param in &callee.params {
                callee_renames.insert(param.name.clone(), format!("{}{}", param.name, suffix));
            }
            collect_local_decls(&callee.body, &mut |n| {
                callee_renames
                    .entry(n.to_string())
                    .or_insert_with(|| format!("{n}{suffix}"));
            });
            if !callee_renames
                .values()
                .any(|fresh| self.taken.contains(fresh))
            {
                break;
            }
        }

        // Bind arguments (evaluated in the caller's scope).
        for (param, mut arg) in callee.params.iter().zip(args) {
            rename_expr(&mut arg, renames);
            out.push(Stmt::new(
                StmtKind::LocalDecl {
                    name: callee_renames[&param.name].clone(),
                    ty: param.ty,
                    len: None,
                    init: Some(arg),
                },
                span,
            ));
        }

        self.stack.push(&callee.name);
        let mut body = callee.body.clone();
        self.inline_stmts(&mut body, &callee_renames, false)?;
        self.stack.pop();
        out.push(Stmt::new(StmtKind::Block(body), span));
        Ok(())
    }

    /// Renames `stmt` in place and inlines the calls nested in it.
    fn inline_stmt(
        &mut self,
        stmt: &mut Stmt,
        renames: &Renames,
        in_main: bool,
    ) -> Result<(), FrontendError> {
        match &mut stmt.kind {
            StmtKind::Call { .. } => {
                // Only a `for` header holds a statement outside a list, and
                // the parser puts an assignment there; a call would become
                // a block.
                let call = std::mem::replace(&mut stmt.kind, StmtKind::Block(Vec::new()));
                let mut block = vec![Stmt::new(call, stmt.span)];
                self.inline_stmts(&mut block, renames, in_main)?;
                stmt.kind = StmtKind::Block(block);
            }
            StmtKind::Return if !in_main => {
                return Err(FrontendError::inline(
                    stmt.span,
                    "`return` inside an inlined function is not supported",
                ));
            }
            StmtKind::LocalDecl { name, init, .. } => {
                rename(name, renames);
                if let Some(init) = init {
                    rename_expr(init, renames);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Var { name, .. } => rename(name, renames),
                    LValue::ArrayElem { name, index, .. } => {
                        rename(name, renames);
                        rename_expr(index, renames);
                    }
                }
                rename_expr(rhs, renames);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                rename_expr(cond, renames);
                self.inline_stmts(then_branch, renames, in_main)?;
                self.inline_stmts(else_branch, renames, in_main)?;
            }
            StmtKind::While { cond, body } => {
                rename_expr(cond, renames);
                self.inline_stmts(body, renames, in_main)?;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.inline_stmt(init, renames, in_main)?;
                self.inline_stmt(step, renames, in_main)?;
                rename_expr(cond, renames);
                self.inline_stmts(body, renames, in_main)?;
            }
            StmtKind::Post { index, .. } | StmtKind::Wait { index, .. } => {
                if let Some(index) = index {
                    rename_expr(index, renames);
                }
            }
            StmtKind::Work { cost } => rename_expr(cost, renames),
            StmtKind::Block(stmts) => self.inline_stmts(stmts, renames, in_main)?,
            StmtKind::Return
            | StmtKind::Barrier
            | StmtKind::Lock { .. }
            | StmtKind::Unlock { .. } => {}
        }
        Ok(())
    }
}

/// Whether any statement of `stmts`, at any depth, is a call.
fn has_call(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|stmt| match &stmt.kind {
        StmtKind::Call { .. } => true,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => has_call(then_branch) || has_call(else_branch),
        StmtKind::While { body, .. } | StmtKind::Block(body) => has_call(body),
        StmtKind::For {
            init, step, body, ..
        } => {
            has_call(std::slice::from_ref(init))
                || has_call(std::slice::from_ref(step))
                || has_call(body)
        }
        _ => false,
    })
}

/// Every identifier of the program containing `__`, the infix of every fresh
/// name: global declarations, functions, parameters, locals and every name
/// a statement or expression mentions. `main_body` stands in for the body
/// of `main`, taken out of `functions`.
fn identifiers_with_infix(
    decls: &[Decl],
    functions: &[Function],
    main_body: &[Stmt],
) -> HashSet<String> {
    fn expr(e: &Expr, out: &mut HashSet<String>) {
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
    fn stmts(body: &[Stmt], out: &mut HashSet<String>) {
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
    fn note(name: &str, out: &mut HashSet<String>) {
        if name.contains("__") {
            out.insert(name.to_owned());
        }
    }
    let mut out = HashSet::new();
    for decl in decls {
        note(decl.name(), &mut out);
    }
    for f in functions {
        note(&f.name, &mut out);
        for p in &f.params {
            note(&p.name, &mut out);
        }
        stmts(&f.body, &mut out);
    }
    stmts(main_body, &mut out);
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

fn rename(name: &mut String, renames: &Renames) {
    if let Some(fresh) = renames.get(name.as_str()) {
        name.clone_from(fresh);
    }
}

fn rename_expr(expr: &mut Expr, renames: &Renames) {
    if renames.is_empty() {
        return;
    }
    match &mut expr.kind {
        ExprKind::Var(name) => rename(name, renames),
        ExprKind::ArrayElem { name, index } => {
            rename(name, renames);
            rename_expr(index, renames);
        }
        ExprKind::Unary { expr: inner, .. } => rename_expr(inner, renames),
        ExprKind::Binary { lhs, rhs, .. } => {
            rename_expr(lhs, renames);
            rename_expr(rhs, renames);
        }
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::MyProc
        | ExprKind::Procs => {}
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
