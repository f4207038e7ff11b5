//! IR expressions.
//!
//! After lowering, expressions are *local-pure*: they mention only constants,
//! local variables, local array elements, and the SPMD built-ins `MYPROC`
//! and `PROCS`. Shared reads are hoisted into `GetShared` instructions.

use crate::ids::VarId;
use std::fmt;
use syncopt_frontend::ast::{BinOp, UnOp};

/// A local-pure expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer constant.
    Int(i64),
    /// Floating constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// Read of a local scalar (or compiler temporary).
    Local(VarId),
    /// Read of a local array element.
    LocalElem {
        /// The local array.
        array: VarId,
        /// Element index.
        index: Box<Expr>,
    },
    /// The executing processor id.
    MyProc,
    /// The processor count.
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

impl Expr {
    /// Calls `f` on this expression and then on every sub-expression,
    /// operands left to right.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Bool(_)
            | Expr::Local(_)
            | Expr::MyProc
            | Expr::Procs => {}
            Expr::LocalElem { index, .. } => index.walk(f),
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
        }
    }

    /// Calls `f` on every variable read by this expression.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::MyProc | Expr::Procs => {}
            Expr::Local(v) => f(*v),
            Expr::LocalElem { array, index } => {
                f(*array);
                index.for_each_var(f);
            }
            Expr::Unary { expr, .. } => expr.for_each_var(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.for_each_var(f);
                rhs.for_each_var(f);
            }
        }
    }

    /// Collects the set of variables read, in first-use order without
    /// duplicates.
    pub fn vars_used(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.for_each_var(&mut |v| {
            if !out.contains(&v) {
                out.push(v);
            }
        });
        out
    }

    /// Whether the expression reads `var`.
    pub fn uses_var(&self, var: VarId) -> bool {
        let mut found = false;
        self.for_each_var(&mut |v| found |= v == var);
        found
    }

    /// Whether the expression is a compile-time constant (no variable,
    /// `MYPROC`, or `PROCS` reference).
    pub fn is_const(&self) -> bool {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => true,
            Expr::MyProc | Expr::Procs | Expr::Local(_) | Expr::LocalElem { .. } => false,
            Expr::Unary { expr, .. } => expr.is_const(),
            Expr::Binary { lhs, rhs, .. } => lhs.is_const() && rhs.is_const(),
        }
    }

    /// Structural size (node count), used by cost heuristics.
    pub fn size(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::MyProc | Expr::Procs => 1,
            Expr::Local(_) => 1,
            Expr::LocalElem { index, .. } => 1 + index.size(),
            Expr::Unary { expr, .. } => 1 + expr.size(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.size() + rhs.size(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => write!(f, "{v}"),
            Expr::Bool(v) => write!(f, "{v}"),
            Expr::Local(v) => write!(f, "{v}"),
            Expr::LocalElem { array, index } => write!(f, "{array}[{index}]"),
            Expr::MyProc => write!(f, "MYPROC"),
            Expr::Procs => write!(f, "PROCS"),
            Expr::Unary { op, expr } => write!(f, "{op}({expr})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
        }
    }
}

/// A reference to a shared location: a shared scalar (`index == None`) or a
/// distributed array element.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRef {
    /// The shared variable.
    pub var: VarId,
    /// Element index for arrays.
    pub index: Option<Expr>,
}

impl SharedRef {
    /// A reference to a shared scalar.
    pub fn scalar(var: VarId) -> Self {
        SharedRef { var, index: None }
    }

    /// A reference to a distributed array element.
    pub fn element(var: VarId, index: Expr) -> Self {
        SharedRef {
            var,
            index: Some(index),
        }
    }
}

impl fmt::Display for SharedRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.index {
            Some(idx) => write!(f, "{}[{idx}]", self.var),
            None => write!(f, "{}", self.var),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn vars_used_deduplicates() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Local(v(1))),
            rhs: Box::new(Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(Expr::Local(v(1))),
                rhs: Box::new(Expr::Local(v(2))),
            }),
        };
        assert_eq!(e.vars_used(), vec![v(1), v(2)]);
        assert!(e.uses_var(v(2)));
        assert!(!e.uses_var(v(3)));
    }

    #[test]
    fn local_elem_uses_array_and_index_vars() {
        let e = Expr::LocalElem {
            array: v(5),
            index: Box::new(Expr::Local(v(6))),
        };
        assert_eq!(e.vars_used(), vec![v(5), v(6)]);
    }

    #[test]
    fn const_detection() {
        let c = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Int(1)),
            rhs: Box::new(Expr::Int(2)),
        };
        assert!(c.is_const());
        assert!(!Expr::MyProc.is_const());
        assert!(!Expr::Local(v(0)).is_const());
    }

    #[test]
    fn display_forms() {
        let e = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::MyProc),
            rhs: Box::new(Expr::Int(4)),
        };
        assert_eq!(e.to_string(), "(MYPROC * 4)");
        assert_eq!(SharedRef::scalar(v(2)).to_string(), "v2");
        assert_eq!(SharedRef::element(v(3), Expr::Int(7)).to_string(), "v3[7]");
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::Int(1)),
                rhs: Box::new(Expr::Local(v(0))),
            }),
        };
        assert_eq!(e.size(), 4);
    }
}
