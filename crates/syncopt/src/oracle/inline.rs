//! The call inliner as it was before it moved the program through: every
//! statement of `main` and every callee is rebuilt, renamed or not. Kept as
//! what `syncopt_frontend::inline` is compared against.

use std::collections::{HashMap, HashSet};
use syncopt_frontend::ast::{Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind};
use syncopt_frontend::error::FrontendError;
use syncopt_frontend::span::Span;

/// Inlines all calls, returning a program whose only function is `main`.
///
/// # Errors
///
/// Returns an error if the program has no `main`, if `main` takes
/// parameters, if any call chain is recursive, or if an inlined function
/// contains `return`.
pub(super) fn inline_program(program: &Program) -> Result<Program, FrontendError> {
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
