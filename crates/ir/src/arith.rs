//! The one scalar semantics of `minisplit` expressions: constant folding,
//! the analysis's guard evaluation, the simulator and litmus all compute
//! operators with [`unop`] and [`binop`], and walk expressions with
//! [`eval`], so they cannot disagree about a value. `int` arithmetic
//! wraps (`i64::MIN / -1 == -i64::MIN == i64::MIN`), `%` is Euclidean
//! (`i64::MIN % -1 == 0`), an `int` meeting a `double` widens, and `/` or
//! `%` by an `int` zero is an [`ArithError`], as is an operand of the
//! wrong kind.

use crate::expr::Expr;
use crate::ids::VarId;
use std::fmt;
use syncopt_frontend::ast::{BinOp, Type, UnOp};

/// A scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean (expression results only).
    Bool(bool),
}

impl Value {
    /// The zero value of a type.
    pub fn zero(ty: Type) -> Value {
        match ty {
            Type::Double => Value::Double(0.0),
            _ => Value::Int(0),
        }
    }

    /// The value of a literal, `None` for any other expression.
    pub fn of_literal(e: &Expr) -> Option<Value> {
        match *e {
            Expr::Int(v) => Some(Value::Int(v)),
            Expr::Float(v) => Some(Value::Double(v)),
            Expr::Bool(v) => Some(Value::Bool(v)),
            _ => None,
        }
    }

    /// Interprets the value as an integer; any other kind is an error.
    #[inline]
    pub fn as_int(self) -> Result<i64, ArithError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(ArithError::ExpectedInt(other)),
        }
    }

    /// Interprets the value as a boolean; any other kind is an error.
    #[inline]
    pub fn as_bool(self) -> Result<bool, ArithError> {
        match self {
            Value::Bool(v) => Ok(v),
            other => Err(ArithError::ExpectedBool(other)),
        }
    }

    /// Numeric view for mixed arithmetic.
    #[inline]
    fn as_f64(self) -> Result<f64, ArithError> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Double(v) => Ok(v),
            Value::Bool(_) => Err(ArithError::BoolInArithmetic),
        }
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Expr {
        match v {
            Value::Int(v) => Expr::Int(v),
            Value::Double(v) => Expr::Float(v),
            Value::Bool(v) => Expr::Bool(v),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Why an operator has no value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArithError {
    /// `int / 0`.
    DivisionByZero,
    /// `int % 0`.
    ModuloByZero,
    /// `-bool`.
    NegateBool,
    /// A boolean operand of an arithmetic or comparison operator.
    BoolInArithmetic,
    /// A non-integer where an integer is required.
    ExpectedInt(Value),
    /// A non-boolean where a boolean is required.
    ExpectedBool(Value),
}

impl fmt::Display for ArithError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithError::DivisionByZero => f.write_str("division by zero"),
            ArithError::ModuloByZero => f.write_str("modulo by zero"),
            ArithError::NegateBool => f.write_str("cannot negate bool"),
            ArithError::BoolInArithmetic => f.write_str("boolean used in arithmetic"),
            ArithError::ExpectedInt(v) => write!(f, "expected int, got {v:?}"),
            ArithError::ExpectedBool(v) => write!(f, "expected bool, got {v:?}"),
        }
    }
}

/// Applies a unary operator; an operand of the wrong kind is an error.
#[inline(always)]
pub fn unop(op: UnOp, v: Value) -> Result<Value, ArithError> {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Double(d) => Ok(Value::Double(-d)),
            Value::Bool(_) => Err(ArithError::NegateBool),
        },
        UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
    }
}

/// Applies a binary operator; an operand of the wrong kind, and `/` or `%`
/// by an `int` zero, are errors. Both operands are already values: `&&`
/// and `||` short-circuit only the check of the right operand's kind.
// Always inlined: a shared out-of-line copy returns through memory.
#[inline(always)]
pub fn binop(op: BinOp, l: Value, r: Value) -> Result<Value, ArithError> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(l.as_bool()? && r.as_bool()?)),
        Or => Ok(Value::Bool(l.as_bool()? || r.as_bool()?)),
        Rem => {
            let (a, b) = (l.as_int()?, r.as_int()?);
            if b == 0 {
                return Err(ArithError::ModuloByZero);
            }
            Ok(Value::Int(a.wrapping_rem_euclid(b)))
        }
        _ => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Div if b == 0 => return Err(ArithError::DivisionByZero),
                Div => Value::Int(a.wrapping_div(b)),
                Eq => Value::Bool(a == b),
                Ne => Value::Bool(a != b),
                Lt => Value::Bool(a < b),
                Le => Value::Bool(a <= b),
                Gt => Value::Bool(a > b),
                Ge => Value::Bool(a >= b),
                And | Or | Rem => unreachable!("handled above"),
            }),
            _ => {
                let (a, b) = (l.as_f64()?, r.as_f64()?);
                Ok(match op {
                    Add => Value::Double(a + b),
                    Sub => Value::Double(a - b),
                    Mul => Value::Double(a * b),
                    Div => Value::Double(a / b),
                    Eq => Value::Bool(a == b),
                    Ne => Value::Bool(a != b),
                    Lt => Value::Bool(a < b),
                    Le => Value::Bool(a <= b),
                    Gt => Value::Bool(a > b),
                    Ge => Value::Bool(a >= b),
                    And | Or | Rem => unreachable!("handled above"),
                })
            }
        },
    }
}

/// A leaf whose value is not in the expression itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// `MYPROC`.
    MyProc,
    /// `PROCS`.
    Procs,
    /// A local scalar.
    Local(VarId),
    /// An element of a local array, at an evaluated index.
    LocalElem(VarId, i64),
}

/// Evaluates `expr`, operands left to right, with `read` giving the
/// value of each [`Leaf`]. The first failure, a leaf's or an operator's,
/// is the result.
pub fn eval<E: From<ArithError>>(
    expr: &Expr,
    read: &impl Fn(Leaf) -> Result<Value, E>,
) -> Result<Value, E> {
    match expr {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Double(*v)),
        Expr::Bool(v) => Ok(Value::Bool(*v)),
        Expr::MyProc => read(Leaf::MyProc),
        Expr::Procs => read(Leaf::Procs),
        Expr::Local(v) => read(Leaf::Local(*v)),
        Expr::LocalElem { array, index } => {
            let idx = eval(index, read)?.as_int()?;
            read(Leaf::LocalElem(*array, idx))
        }
        Expr::Unary { op, expr } => Ok(unop(*op, eval(expr, read)?)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, read)?;
            let r = eval(rhs, read)?;
            Ok(binop(*op, l, r)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: i64 = i64::MIN;

    #[test]
    fn int_arithmetic_wraps_at_the_limits() {
        let int = |op, a, b| binop(op, Value::Int(a), Value::Int(b));
        assert_eq!(int(BinOp::Div, MIN, -1), Ok(Value::Int(MIN)));
        assert_eq!(int(BinOp::Rem, MIN, -1), Ok(Value::Int(0)));
        assert_eq!(unop(UnOp::Neg, Value::Int(MIN)), Ok(Value::Int(MIN)));
        assert_eq!(int(BinOp::Add, i64::MAX, 1), Ok(Value::Int(MIN)));
        assert_eq!(int(BinOp::Rem, -1, 8), Ok(Value::Int(7)));
        assert_eq!(int(BinOp::Div, 1, 0), Err(ArithError::DivisionByZero));
        assert_eq!(int(BinOp::Rem, 1, 0), Err(ArithError::ModuloByZero));
    }

    #[test]
    fn errors_keep_the_simulators_text() {
        let text = |r: Result<Value, ArithError>| r.unwrap_err().to_string();
        assert_eq!(
            text(binop(BinOp::Add, Value::Bool(true), Value::Int(1))),
            "boolean used in arithmetic"
        );
        assert_eq!(
            text(unop(UnOp::Neg, Value::Bool(true))),
            "cannot negate bool"
        );
        assert_eq!(
            text(binop(BinOp::Rem, Value::Double(1.5), Value::Int(1))),
            "expected int, got Double(1.5)"
        );
        assert_eq!(
            text(unop(UnOp::Not, Value::Int(3))),
            "expected bool, got Int(3)"
        );
        assert_eq!(
            binop(BinOp::Mul, Value::Int(2), Value::Double(1.5)),
            Ok(Value::Double(3.0))
        );
    }
}
