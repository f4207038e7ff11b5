//! Type checker for `minisplit`.
//!
//! Enforces the language restrictions of the paper's source language (§2):
//! shared data is reachable only through declared shared scalars and
//! distributed arrays, synchronization objects (`flag`, `lock`) are not data,
//! and there are no pointers at all. Integer-to-double widening is the only
//! implicit conversion.

use crate::ast::{
    BinOp, Decl, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind, Type, UnOp,
};
use crate::error::FrontendError;
use crate::span::Span;
use std::collections::HashMap;

/// Classification of a name visible inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    SharedScalar(Type),
    SharedArray(Type),
    Flag,
    FlagArray,
    Lock,
    Local(Type),
    LocalArray(Type),
}

/// Type checks `program`.
///
/// # Errors
///
/// Returns the first type error found: duplicate declarations, unknown or
/// misused names, type mismatches, bad call arity, or use of a
/// synchronization object as data.
pub fn check(program: &Program) -> Result<(), FrontendError> {
    let ctx = ProgramContext::build(program)?;
    for func in &program.functions {
        ctx.check_function(func)?;
    }
    Ok(())
}

/// The program-level facts a function body's type checking depends on:
/// the global declaration table plus every function signature. Building
/// the context performs the program-level checks (duplicate declarations,
/// duplicate or shadowing functions); [`check`] then checks each function
/// against it.
struct ProgramContext<'a> {
    program: &'a Program,
    globals: HashMap<&'a str, Binding>,
}

impl<'a> ProgramContext<'a> {
    /// Builds the context, performing all program-level checks.
    ///
    /// # Errors
    ///
    /// Returns duplicate-declaration, duplicate-function, or
    /// global-shadowing errors.
    fn build(program: &'a Program) -> Result<Self, FrontendError> {
        let mut globals: HashMap<&str, Binding> = HashMap::new();
        for decl in &program.decls {
            let binding = match decl {
                Decl::SharedScalar { ty, .. } => Binding::SharedScalar(*ty),
                Decl::SharedArray { ty, .. } => Binding::SharedArray(*ty),
                Decl::Flag { .. } => Binding::Flag,
                Decl::FlagArray { .. } => Binding::FlagArray,
                Decl::Lock { .. } => Binding::Lock,
            };
            if globals.insert(decl.name(), binding).is_some() {
                return Err(FrontendError::ty(
                    decl.span(),
                    format!("duplicate global declaration of `{}`", decl.name()),
                ));
            }
        }

        let mut seen_fns: HashMap<&str, Span> = HashMap::new();
        for func in &program.functions {
            if seen_fns.insert(&func.name, func.span).is_some() {
                return Err(FrontendError::ty(
                    func.span,
                    format!("duplicate function `{}`", func.name),
                ));
            }
            if globals.contains_key(func.name.as_str()) {
                return Err(FrontendError::ty(
                    func.span,
                    format!("function `{}` shadows a global declaration", func.name),
                ));
            }
        }
        Ok(ProgramContext { program, globals })
    }

    /// Type checks one function against this context.
    ///
    /// # Errors
    ///
    /// Returns the first type error in the function body.
    fn check_function(&self, func: &Function) -> Result<(), FrontendError> {
        Checker {
            program: self.program,
            globals: &self.globals,
            locals: HashMap::new(),
        }
        .check_function(func)
    }
}

struct Checker<'a> {
    program: &'a Program,
    globals: &'a HashMap<&'a str, Binding>,
    locals: HashMap<String, Binding>,
}

impl<'a> Checker<'a> {
    fn check_function(&mut self, func: &Function) -> Result<(), FrontendError> {
        for param in &func.params {
            if !param.ty.is_data() {
                return Err(FrontendError::ty(
                    param.span,
                    format!("parameter `{}` must be int or double", param.name),
                ));
            }
            if self
                .locals
                .insert(param.name.clone(), Binding::Local(param.ty))
                .is_some()
            {
                return Err(FrontendError::ty(
                    param.span,
                    format!("duplicate parameter `{}`", param.name),
                ));
            }
        }
        self.check_stmts(&func.body)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.locals
            .get(name)
            .copied()
            .or_else(|| self.globals.get(name).copied())
    }

    fn check_stmts(&mut self, stmts: &[Stmt]) -> Result<(), FrontendError> {
        for stmt in stmts {
            self.check_stmt(stmt)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<(), FrontendError> {
        match &stmt.kind {
            StmtKind::LocalDecl {
                name,
                ty,
                len,
                init,
            } => {
                if self.globals.contains_key(name.as_str()) {
                    return Err(FrontendError::ty(
                        stmt.span,
                        format!("local `{name}` shadows a global declaration"),
                    ));
                }
                if let Some(init) = init {
                    let init_ty = self.expr_type(init)?;
                    self.require_assignable(*ty, init_ty, init.span)?;
                }
                let binding = if len.is_some() {
                    Binding::LocalArray(*ty)
                } else {
                    Binding::Local(*ty)
                };
                if self.locals.insert(name.clone(), binding).is_some() {
                    return Err(FrontendError::ty(
                        stmt.span,
                        format!("duplicate local declaration of `{name}`"),
                    ));
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                let lhs_ty = self.lvalue_type(lhs)?;
                let rhs_ty = self.expr_type(rhs)?;
                self.require_assignable(lhs_ty, rhs_ty, rhs.span)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.require_bool(cond)?;
                self.check_stmts(then_branch)?;
                self.check_stmts(else_branch)
            }
            StmtKind::While { cond, body } => {
                self.require_bool(cond)?;
                self.check_stmts(body)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.check_stmt(init)?;
                self.require_bool(cond)?;
                self.check_stmt(step)?;
                self.check_stmts(body)
            }
            StmtKind::Barrier | StmtKind::Return => Ok(()),
            StmtKind::Post { flag, index } | StmtKind::Wait { flag, index } => {
                match (self.lookup(flag), index) {
                    (Some(Binding::Flag), None) => Ok(()),
                    (Some(Binding::FlagArray), Some(idx)) => {
                        let t = self.expr_type(idx)?;
                        if t != Type::Int {
                            return Err(FrontendError::ty(
                                idx.span,
                                format!("flag index must be int, found {t}"),
                            ));
                        }
                        Ok(())
                    }
                    (Some(Binding::Flag), Some(idx)) => Err(FrontendError::ty(
                        idx.span,
                        format!("`{flag}` is a scalar flag and cannot be indexed"),
                    )),
                    (Some(Binding::FlagArray), None) => Err(FrontendError::ty(
                        stmt.span,
                        format!("`{flag}` is a flag array and requires an index"),
                    )),
                    (Some(_), _) => Err(FrontendError::ty(
                        stmt.span,
                        format!("`{flag}` is not a flag"),
                    )),
                    (None, _) => Err(FrontendError::ty(
                        stmt.span,
                        format!("unknown flag `{flag}`"),
                    )),
                }
            }
            StmtKind::Lock { lock } | StmtKind::Unlock { lock } => match self.lookup(lock) {
                Some(Binding::Lock) => Ok(()),
                Some(_) => Err(FrontendError::ty(
                    stmt.span,
                    format!("`{lock}` is not a lock"),
                )),
                None => Err(FrontendError::ty(
                    stmt.span,
                    format!("unknown lock `{lock}`"),
                )),
            },
            StmtKind::Work { cost } => {
                let t = self.expr_type(cost)?;
                if t != Type::Int {
                    return Err(FrontendError::ty(
                        cost.span,
                        format!("work cost must be int, found {t}"),
                    ));
                }
                Ok(())
            }
            StmtKind::Call { name, args } => {
                let Some(callee) = self.program.function(name) else {
                    return Err(FrontendError::ty(
                        stmt.span,
                        format!("call to unknown function `{name}`"),
                    ));
                };
                if callee.params.len() != args.len() {
                    return Err(FrontendError::ty(
                        stmt.span,
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            callee.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (param, arg) in callee.params.iter().zip(args) {
                    let arg_ty = self.expr_type(arg)?;
                    self.require_assignable(param.ty, arg_ty, arg.span)?;
                }
                Ok(())
            }
            StmtKind::Block(stmts) => self.check_stmts(stmts),
        }
    }

    fn lvalue_type(&self, lvalue: &LValue) -> Result<Type, FrontendError> {
        match lvalue {
            LValue::Var { name, span } => match self.lookup(name) {
                Some(Binding::Local(ty) | Binding::SharedScalar(ty)) => Ok(ty),
                Some(Binding::SharedArray(_) | Binding::LocalArray(_)) => Err(FrontendError::ty(
                    *span,
                    format!("array `{name}` must be indexed"),
                )),
                Some(Binding::Flag | Binding::FlagArray | Binding::Lock) => Err(FrontendError::ty(
                    *span,
                    format!("synchronization object `{name}` cannot be assigned"),
                )),
                None => Err(FrontendError::ty(
                    *span,
                    format!("unknown variable `{name}`"),
                )),
            },
            LValue::ArrayElem { name, index, span } => {
                let idx_ty = self.expr_type(index)?;
                if idx_ty != Type::Int {
                    return Err(FrontendError::ty(
                        index.span,
                        format!("array index must be int, found {idx_ty}"),
                    ));
                }
                match self.lookup(name) {
                    Some(Binding::SharedArray(ty) | Binding::LocalArray(ty)) => Ok(ty),
                    Some(_) => Err(FrontendError::ty(
                        *span,
                        format!("`{name}` is not an array"),
                    )),
                    None => Err(FrontendError::ty(*span, format!("unknown array `{name}`"))),
                }
            }
        }
    }

    fn expr_type(&self, expr: &Expr) -> Result<Type, FrontendError> {
        match &expr.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::FloatLit(_) => Ok(Type::Double),
            ExprKind::BoolLit(_) => Ok(Type::Bool),
            ExprKind::MyProc | ExprKind::Procs => Ok(Type::Int),
            ExprKind::Var(name) => match self.lookup(name) {
                Some(Binding::Local(ty) | Binding::SharedScalar(ty)) => Ok(ty),
                Some(Binding::SharedArray(_) | Binding::LocalArray(_)) => Err(FrontendError::ty(
                    expr.span,
                    format!("array `{name}` must be indexed"),
                )),
                Some(Binding::Flag | Binding::FlagArray | Binding::Lock) => Err(FrontendError::ty(
                    expr.span,
                    format!("synchronization object `{name}` is not data"),
                )),
                None => Err(FrontendError::ty(
                    expr.span,
                    format!("unknown variable `{name}`"),
                )),
            },
            ExprKind::ArrayElem { name, index } => {
                let idx_ty = self.expr_type(index)?;
                if idx_ty != Type::Int {
                    return Err(FrontendError::ty(
                        index.span,
                        format!("array index must be int, found {idx_ty}"),
                    ));
                }
                match self.lookup(name) {
                    Some(Binding::SharedArray(ty) | Binding::LocalArray(ty)) => Ok(ty),
                    Some(_) => Err(FrontendError::ty(
                        expr.span,
                        format!("`{name}` is not an array"),
                    )),
                    None => Err(FrontendError::ty(
                        expr.span,
                        format!("unknown array `{name}`"),
                    )),
                }
            }
            ExprKind::Unary { op, expr: inner } => {
                let t = self.expr_type(inner)?;
                match op {
                    UnOp::Neg if t.is_numeric() => Ok(t),
                    UnOp::Not if t == Type::Bool => Ok(Type::Bool),
                    UnOp::Neg => Err(FrontendError::ty(inner.span, format!("cannot negate {t}"))),
                    UnOp::Not => Err(FrontendError::ty(
                        inner.span,
                        format!("`!` requires bool, found {t}"),
                    )),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr_type(lhs)?;
                let rt = self.expr_type(rhs)?;
                if op.is_logical() {
                    if lt != Type::Bool || rt != Type::Bool {
                        return Err(FrontendError::ty(
                            expr.span,
                            format!("`{op}` requires bool operands, found {lt} and {rt}"),
                        ));
                    }
                    return Ok(Type::Bool);
                }
                if !lt.is_numeric() || !rt.is_numeric() {
                    return Err(FrontendError::ty(
                        expr.span,
                        format!("`{op}` requires numeric operands, found {lt} and {rt}"),
                    ));
                }
                if *op == BinOp::Rem && (lt != Type::Int || rt != Type::Int) {
                    return Err(FrontendError::ty(expr.span, "`%` requires int operands"));
                }
                if op.is_comparison() {
                    Ok(Type::Bool)
                } else if lt == Type::Double || rt == Type::Double {
                    Ok(Type::Double)
                } else {
                    Ok(Type::Int)
                }
            }
        }
    }

    fn require_bool(&self, cond: &Expr) -> Result<(), FrontendError> {
        let t = self.expr_type(cond)?;
        if t != Type::Bool {
            return Err(FrontendError::ty(
                cond.span,
                format!("condition must be bool, found {t}"),
            ));
        }
        Ok(())
    }

    fn require_assignable(&self, dst: Type, src: Type, span: Span) -> Result<(), FrontendError> {
        let ok = dst == src || (dst == Type::Double && src == Type::Int);
        if ok {
            Ok(())
        } else {
            Err(FrontendError::ty(
                span,
                format!("cannot assign {src} to {dst}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::check_program;

    fn err(src: &str) -> String {
        check_program(src)
            .expect_err("expected a type error")
            .message()
            .to_string()
    }

    #[test]
    fn accepts_well_typed_program() {
        let src = r#"
            shared int X;
            shared double A[64];
            flag f;
            lock l;
            fn main() {
                int i = 0;
                double t;
                while (i < 10) {
                    t = A[i] * 2;
                    A[i] = t + X;
                    i = i + 1;
                }
                if (MYPROC == 0) { post f; } else { wait f; }
                lock l;
                X = X + 1;
                unlock l;
                barrier;
            }
        "#;
        check_program(src).unwrap();
    }

    #[test]
    fn int_widens_to_double_but_not_reverse() {
        check_program("fn main() { double d; d = 1; }").unwrap();
        assert!(err("fn main() { int i; i = 1.5; }").contains("cannot assign"));
    }

    #[test]
    fn rejects_duplicate_globals() {
        assert!(err("shared int X; shared double X;").contains("duplicate"));
    }

    #[test]
    fn rejects_duplicate_functions_and_shadowing() {
        assert!(err("fn f() {} fn f() {}").contains("duplicate function"));
        assert!(err("shared int f; fn f() {}").contains("shadows"));
        assert!(err("shared int X; fn main() { int X; }").contains("shadows"));
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(err("fn main() { x = 1; }").contains("unknown variable"));
        assert!(err("fn main() { int y; y = z; }").contains("unknown variable"));
        assert!(err("fn main() { post f; }").contains("unknown flag"));
        assert!(err("fn main() { lock l; }").contains("unknown lock"));
        assert!(err("fn main() { g(); }").contains("unknown function"));
    }

    #[test]
    fn rejects_sync_objects_as_data() {
        assert!(err("flag f; fn main() { int x; x = f; }").contains("not data"));
        assert!(err("lock l; fn main() { l = 1; }").contains("cannot be assigned"));
    }

    #[test]
    fn rejects_bad_flag_indexing() {
        assert!(err("flag f; fn main() { post f[0]; }").contains("cannot be indexed"));
        assert!(err("flag f[4]; fn main() { wait f; }").contains("requires an index"));
        assert!(err("flag f[4]; fn main() { post f[1.5]; }").contains("must be int"));
    }

    #[test]
    fn rejects_array_misuse() {
        assert!(err("shared int A[4]; fn main() { A = 1; }").contains("must be indexed"));
        assert!(err("shared int A[4]; fn main() { int x; x = A; }").contains("must be indexed"));
        assert!(err("shared int X; fn main() { X[0] = 1; }").contains("is not an array"));
        assert!(err("shared int A[4]; fn main() { A[1.5] = 1; }").contains("must be int"));
    }

    #[test]
    fn rejects_bad_conditions_and_operators() {
        assert!(err("fn main() { if (1) { } }").contains("must be bool"));
        assert!(err("fn main() { while (2.0) { } }").contains("must be bool"));
        assert!(err("fn main() { int x; x = 1 && 2; }").contains("requires bool"));
        assert!(err("fn main() { int x; x = !1; }").contains("requires bool"));
        assert!(err("fn main() { double d; d = 1.5 % 2.0; }").contains("requires int"));
        assert!(err("fn main() { int x; x = -true; }").contains("cannot negate"));
    }

    #[test]
    fn rejects_bad_calls() {
        assert!(err("fn f(int a) {} fn main() { f(); }").contains("expects 1 argument"));
        assert!(err("fn f(int a) {} fn main() { f(1.5); }").contains("cannot assign"));
        check_program("fn f(double a) {} fn main() { f(1); }").unwrap();
    }

    #[test]
    fn rejects_bad_work_cost() {
        assert!(err("fn main() { work(1.5); }").contains("must be int"));
    }

    #[test]
    fn local_arrays_type_check() {
        check_program("fn main() { int buf[8]; buf[0] = 1; int x; x = buf[3]; }").unwrap();
        assert!(err("fn main() { int buf[8]; buf = 1; }").contains("must be indexed"));
    }

    #[test]
    fn comparison_yields_bool_and_mixed_arith_widens() {
        check_program("fn main() { double d; d = 1 + 2.5; if (d < 3) { } }").unwrap();
    }
}
