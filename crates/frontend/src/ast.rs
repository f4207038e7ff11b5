//! Abstract syntax tree for `minisplit`.
//!
//! The AST deliberately mirrors the restrictions the paper places on its
//! source language (§2): the global address space is reachable only through
//! shared scalars and distributed arrays, all shared accesses are blocking,
//! and synchronization is expressed with dedicated constructs (`barrier`,
//! `post`/`wait`, `lock`/`unlock`) so the analysis can recognize it.

use crate::span::Span;
use std::fmt;

/// A scalar value type, or one of the two synchronization-object types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// Boolean (expressions only; no `bool` variables in the source).
    Bool,
    /// Event variable usable with `post` / `wait`.
    Flag,
    /// Mutual-exclusion variable usable with `lock` / `unlock`.
    Lock,
}

impl Type {
    /// Whether this type can be stored in a variable or array element.
    pub fn is_data(self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    /// Whether this is a numeric type (participates in arithmetic).
    pub fn is_numeric(self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    /// The type's source-level keyword (what [`fmt::Display`] prints).
    pub fn name(self) -> &'static str {
        match self {
            Type::Int => "int",
            Type::Double => "double",
            Type::Bool => "bool",
            Type::Flag => "flag",
            Type::Lock => "lock",
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A whole translation unit: global declarations plus functions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Global declarations: shared scalars/arrays, flags, locks.
    pub decls: Vec<Decl>,
    /// Function definitions; execution starts at `main`.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global declaration by name.
    pub fn decl(&self, name: &str) -> Option<&Decl> {
        self.decls.iter().find(|d| d.name() == name)
    }
}

/// A global declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `shared int X;` — a scalar in the global address space.
    SharedScalar {
        /// Variable name.
        name: String,
        /// Element type (`int` or `double`).
        ty: Type,
        /// Source location.
        span: Span,
    },
    /// `shared double A[1024];` — a distributed array (block layout).
    SharedArray {
        /// Array name.
        name: String,
        /// Element type (`int` or `double`).
        ty: Type,
        /// Number of elements.
        len: u64,
        /// Source location.
        span: Span,
    },
    /// `flag f;` — an event variable for `post` / `wait`.
    Flag {
        /// Flag name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// `flag f[16];` — an array of event variables, indexed dynamically.
    FlagArray {
        /// Flag array name.
        name: String,
        /// Number of flags.
        len: u64,
        /// Source location.
        span: Span,
    },
    /// `lock l;` — a mutual-exclusion variable.
    Lock {
        /// Lock name.
        name: String,
        /// Source location.
        span: Span,
    },
}

impl Decl {
    /// The declared name.
    pub fn name(&self) -> &str {
        match self {
            Decl::SharedScalar { name, .. }
            | Decl::SharedArray { name, .. }
            | Decl::Flag { name, .. }
            | Decl::FlagArray { name, .. }
            | Decl::Lock { name, .. } => name,
        }
    }

    /// The source span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::SharedScalar { span, .. }
            | Decl::SharedArray { span, .. }
            | Decl::Flag { span, .. }
            | Decl::FlagArray { span, .. }
            | Decl::Lock { span, .. } => *span,
        }
    }
}

/// A function definition. `minisplit` functions are statement-level
/// procedures (no return values); calls are inlined before lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Formal parameters (passed by value).
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the definition.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (`int` or `double`).
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Convenience constructor.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration, e.g. `int i;` or `double t = 0.0;` or a
    /// local array `int buf[16];`.
    LocalDecl {
        /// Variable name.
        name: String,
        /// Element type.
        ty: Type,
        /// `Some(len)` for a local array.
        len: Option<u64>,
        /// Optional initializer (scalars only).
        init: Option<Expr>,
    },
    /// Assignment to a variable or array element.
    Assign {
        /// Left-hand side.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `if (cond) { ... } else { ... }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements executed when true.
        then_branch: Vec<Stmt>,
        /// Statements executed when false (may be empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { ... }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) { ... }` — sugar for a while loop.
    For {
        /// Initialization assignment (e.g. `i = 0`).
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Step assignment (e.g. `i = i + 1`).
        step: Box<Stmt>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Global `barrier;`.
    Barrier,
    /// `post f;` or `post f[e];` — signal an event variable.
    Post {
        /// Flag name.
        flag: String,
        /// Optional index for flag arrays.
        index: Option<Expr>,
    },
    /// `wait f;` or `wait f[e];` — block until the event is posted.
    Wait {
        /// Flag name.
        flag: String,
        /// Optional index for flag arrays.
        index: Option<Expr>,
    },
    /// `lock l;` — acquire a lock.
    Lock {
        /// Lock name.
        lock: String,
    },
    /// `unlock l;` — release a lock.
    Unlock {
        /// Lock name.
        lock: String,
    },
    /// `work(e);` — abstract local computation costing `e` cycles in the
    /// simulator. Lets kernels model computation without numerics.
    Work {
        /// Cycle cost expression.
        cost: Expr,
    },
    /// Call to another `minisplit` function (inlined before lowering).
    Call {
        /// Callee name.
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// Early exit from the current function.
    Return,
    /// A braced block introducing no scope semantics beyond grouping.
    Block(Vec<Stmt>),
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable (shared or local — resolved during checking).
    Var {
        /// Variable name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// An array element (shared distributed array or local array).
    ArrayElem {
        /// Array name.
        name: String,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl LValue {
    /// The variable or array name being assigned.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var { name, .. } | LValue::ArrayElem { name, .. } => name,
        }
    }

    /// The source span of the lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var { span, .. } | LValue::ArrayElem { span, .. } => *span,
        }
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression computes.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Convenience constructor.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// An integer literal with a dummy span (for synthesized code).
    pub fn int(v: i64) -> Self {
        Expr::new(ExprKind::IntLit(v), Span::dummy())
    }

    /// A variable reference with a dummy span (for synthesized code).
    pub fn var(name: impl Into<String>) -> Self {
        Expr::new(ExprKind::Var(name.into()), Span::dummy())
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// Variable reference (shared scalar, local, or parameter).
    Var(String),
    /// Array element read.
    ArrayElem {
        /// Array name.
        name: String,
        /// Index expression.
        index: Box<Expr>,
    },
    /// The executing processor's id, in `0..PROCS`.
    MyProc,
    /// The number of processors.
    Procs,
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator takes boolean operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_predicates() {
        assert!(Type::Int.is_data());
        assert!(Type::Double.is_numeric());
        assert!(!Type::Flag.is_data());
        assert!(!Type::Bool.is_data());
        assert!(!Type::Lock.is_numeric());
    }

    #[test]
    fn program_lookup() {
        let prog = Program {
            decls: vec![Decl::SharedScalar {
                name: "X".into(),
                ty: Type::Int,
                span: Span::dummy(),
            }],
            functions: vec![Function {
                name: "main".into(),
                params: vec![],
                body: vec![],
                span: Span::dummy(),
            }],
        };
        assert!(prog.function("main").is_some());
        assert!(prog.function("other").is_none());
        assert_eq!(prog.decl("X").map(Decl::name), Some("X"));
        assert!(prog.decl("Y").is_none());
    }

    #[test]
    fn operator_display() {
        assert_eq!(BinOp::Le.to_string(), "<=");
        assert_eq!(UnOp::Not.to_string(), "!");
        assert!(BinOp::Le.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn lvalue_accessors() {
        let lv = LValue::ArrayElem {
            name: "A".into(),
            index: Box::new(Expr::int(3)),
            span: Span::new(1, 5),
        };
        assert_eq!(lv.name(), "A");
        assert_eq!(lv.span(), Span::new(1, 5));
    }
}
