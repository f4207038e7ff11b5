//! Runtime values and local-pure expression evaluation.

use std::error::Error;
use std::fmt;
use syncopt_ir::arith::{self, ArithError, Leaf};
use syncopt_ir::expr::Expr;
use syncopt_ir::ids::VarId;
use syncopt_ir::vars::{VarKind, VarTable};

pub use syncopt_ir::arith::Value;

/// A runtime error in the simulator.
///
/// The message is boxed so the error is one pointer: a
/// `Result<Value, SimError>`, what every expression evaluation returns,
/// stays two words and comes back in registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    // `Box<str>` would be two words; the double indirection is the point.
    #[allow(clippy::box_collection)]
    message: Box<String>,
}

impl SimError {
    /// Creates an error with `message`.
    pub fn new(message: impl Into<String>) -> Self {
        SimError {
            message: Box::new(message.into()),
        }
    }

    /// The error description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl Error for SimError {}

impl From<ArithError> for SimError {
    #[cold]
    fn from(e: ArithError) -> Self {
        SimError::new(e.to_string())
    }
}

/// One `VarId`'s storage on one processor.
#[derive(Debug, Clone)]
enum Slot {
    /// Shared data, a flag or a lock: lives in shared memory, not here.
    NotLocal,
    Scalar(Value),
    Array(Vec<Value>),
}

/// Per-processor local storage, dense by the `VarId` the IR guarantees:
/// a local read is one bounds-checked index, never a hash probe.
#[derive(Debug, Clone)]
pub struct ProcEnv {
    /// This processor's id.
    pub myproc: i64,
    /// Total processor count.
    pub procs: i64,
    slots: Vec<Slot>,
}

impl ProcEnv {
    /// Creates an environment with all locals zero-initialized.
    pub fn new(myproc: u32, procs: u32, vars: &VarTable) -> Self {
        let slots = vars
            .iter()
            .map(|(_, info)| match info.kind {
                VarKind::Local => Slot::Scalar(Value::zero(info.ty)),
                VarKind::LocalArray { len } => {
                    Slot::Array(vec![Value::zero(info.ty); len as usize])
                }
                _ => Slot::NotLocal,
            })
            .collect();
        ProcEnv {
            myproc: myproc as i64,
            procs: procs as i64,
            slots,
        }
    }

    /// Reads a leaf of an expression on this processor; fails as
    /// [`ProcEnv::load`] and [`ProcEnv::load_elem`] do.
    #[inline]
    pub fn read(&self, leaf: Leaf) -> Result<Value, SimError> {
        match leaf {
            Leaf::MyProc => Ok(Value::Int(self.myproc)),
            Leaf::Procs => Ok(Value::Int(self.procs)),
            Leaf::Local(var) => self.load(var),
            Leaf::LocalElem(var, idx) => self.load_elem(var, idx),
        }
    }

    /// Reads a local scalar.
    ///
    /// # Errors
    ///
    /// Fails if `var` is not a local scalar.
    pub fn load(&self, var: VarId) -> Result<Value, SimError> {
        match self.slots.get(var.index()) {
            Some(Slot::Scalar(v)) => Ok(*v),
            _ => Err(not_a_local(var, "scalar")),
        }
    }

    /// Writes a local scalar.
    ///
    /// # Errors
    ///
    /// Fails if `var` is not a local scalar.
    pub fn store(&mut self, var: VarId, value: Value) -> Result<(), SimError> {
        match self.slots.get_mut(var.index()) {
            Some(Slot::Scalar(slot)) => {
                *slot = value;
                Ok(())
            }
            _ => Err(not_a_local(var, "scalar")),
        }
    }

    /// Reads a local array element.
    ///
    /// # Errors
    ///
    /// Fails on unknown arrays or out-of-bounds indices.
    pub fn load_elem(&self, var: VarId, idx: i64) -> Result<Value, SimError> {
        let Some(Slot::Array(arr)) = self.slots.get(var.index()) else {
            return Err(not_a_local(var, "array"));
        };
        usize::try_from(idx)
            .ok()
            .and_then(|i| arr.get(i))
            .copied()
            .ok_or_else(|| local_index_out_of_bounds(var, idx))
    }

    /// Writes a local array element.
    ///
    /// # Errors
    ///
    /// Fails on unknown arrays or out-of-bounds indices.
    pub fn store_elem(&mut self, var: VarId, idx: i64, value: Value) -> Result<(), SimError> {
        let Some(Slot::Array(arr)) = self.slots.get_mut(var.index()) else {
            return Err(not_a_local(var, "array"));
        };
        let slot = usize::try_from(idx)
            .ok()
            .and_then(|i| arr.get_mut(i))
            .ok_or_else(|| local_index_out_of_bounds(var, idx))?;
        *slot = value;
        Ok(())
    }
}

#[cold]
fn not_a_local(var: VarId, what: &str) -> SimError {
    SimError::new(format!("{var} is not a local {what}"))
}

#[cold]
fn local_index_out_of_bounds(var: VarId, idx: i64) -> SimError {
    SimError::new(format!("local index {idx} out of bounds for {var}"))
}

/// Evaluates a local-pure expression on `env`'s processor.
///
/// # Errors
///
/// Fails on type confusion, unknown variables, out-of-bounds local array
/// indices, or division by zero.
pub fn eval(expr: &Expr, env: &ProcEnv) -> Result<Value, SimError> {
    arith::eval(expr, &|leaf| env.read(leaf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::ast::{BinOp, Type, UnOp};
    use syncopt_ir::vars::VarInfo;

    #[test]
    fn an_evaluation_result_is_two_words() {
        assert_eq!(std::mem::size_of::<SimError>(), 8);
        assert_eq!(std::mem::size_of::<Result<Value, SimError>>(), 16);
        let e = SimError::new("division by zero");
        assert_eq!(e.message(), "division by zero");
        assert_eq!(e.to_string(), "simulation error: division by zero");
    }

    fn env() -> (ProcEnv, VarId, VarId) {
        let mut vars = VarTable::new();
        let s = vars.push(VarInfo {
            name: "s".into(),
            kind: VarKind::Local,
            ty: Type::Int,
        });
        let a = vars.push(VarInfo {
            name: "a".into(),
            kind: VarKind::LocalArray { len: 4 },
            ty: Type::Double,
        });
        (ProcEnv::new(3, 8, &vars), s, a)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn myproc_and_procs() {
        let (env, _, _) = env();
        assert_eq!(eval(&Expr::MyProc, &env).unwrap(), Value::Int(3));
        assert_eq!(eval(&Expr::Procs, &env).unwrap(), Value::Int(8));
    }

    #[test]
    fn locals_default_to_zero_and_are_mutable() {
        let (mut env, s, a) = env();
        assert_eq!(env.load(s).unwrap(), Value::Int(0));
        env.store(s, Value::Int(7)).unwrap();
        assert_eq!(eval(&Expr::Local(s), &env).unwrap(), Value::Int(7));
        assert_eq!(env.load_elem(a, 2).unwrap(), Value::Double(0.0));
        env.store_elem(a, 2, Value::Double(1.5)).unwrap();
        let e = Expr::LocalElem {
            array: a,
            index: Box::new(Expr::Int(2)),
        };
        assert_eq!(eval(&e, &env).unwrap(), Value::Double(1.5));
    }

    #[test]
    fn integer_arithmetic() {
        let (env, _, _) = env();
        assert_eq!(
            eval(&bin(BinOp::Add, Expr::Int(2), Expr::Int(3)), &env).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval(&bin(BinOp::Rem, Expr::Int(-1), Expr::Int(8)), &env).unwrap(),
            Value::Int(7),
            "rem_euclid keeps processor indices positive"
        );
        assert!(eval(&bin(BinOp::Div, Expr::Int(1), Expr::Int(0)), &env).is_err());
        assert!(eval(&bin(BinOp::Rem, Expr::Int(1), Expr::Int(0)), &env).is_err());
    }

    #[test]
    fn mixed_arithmetic_widens() {
        let (env, _, _) = env();
        assert_eq!(
            eval(&bin(BinOp::Mul, Expr::Int(2), Expr::Float(1.5)), &env).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            eval(&bin(BinOp::Lt, Expr::Float(0.5), Expr::Int(1)), &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn logic_and_comparison() {
        let (env, _, _) = env();
        let t = Expr::Bool(true);
        let f = Expr::Bool(false);
        assert_eq!(
            eval(&bin(BinOp::And, t.clone(), f.clone()), &env).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&bin(BinOp::Or, t.clone(), f.clone()), &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(
                &Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(f)
                },
                &env
            )
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn type_errors_are_reported() {
        let (env, _, _) = env();
        assert!(eval(&bin(BinOp::Add, Expr::Bool(true), Expr::Int(1)), &env).is_err());
        assert!(Value::Double(1.0).as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn out_of_bounds_local_array() {
        let (env, _, a) = env();
        assert!(env.load_elem(a, 4).is_err());
        assert!(env.load_elem(a, -1).is_err());
    }

    /// The dense table answers every wrong-kind id, id past the table and
    /// bad index with the message the hashed locals gave, and never
    /// panics or touches a neighbouring slot.
    #[test]
    fn misused_ids_and_indices_keep_their_error_text() {
        let mut vars = VarTable::new();
        let mut push = |name: &str, kind| {
            vars.push(VarInfo {
                name: name.into(),
                kind,
                ty: Type::Int,
            })
        };
        let shared = push("X", VarKind::SharedScalar);
        let shared_arr = push("A", VarKind::SharedArray { len: 4 });
        let flag = push("F", VarKind::Flag);
        let lock = push("l", VarKind::Lock);
        let s = push("s", VarKind::Local);
        let a = push("a", VarKind::LocalArray { len: 3 });
        let past = VarId(a.0 + 1);
        let far = VarId(u32::MAX);
        let mut env = ProcEnv::new(0, 2, &vars);
        let msg = |r: Result<Value, SimError>| r.unwrap_err().message().to_string();
        let unit = |r: Result<(), SimError>| r.unwrap_err().message().to_string();

        for var in [shared, shared_arr, flag, lock, a, past, far] {
            let text = format!("{var} is not a local scalar");
            assert_eq!(msg(env.load(var)), text);
            assert_eq!(unit(env.store(var, Value::Int(1))), text);
            assert_eq!(msg(eval(&Expr::Local(var), &env)), text);
        }
        for var in [shared, shared_arr, flag, lock, s, past, far] {
            let text = format!("{var} is not a local array");
            assert_eq!(msg(env.load_elem(var, 0)), text);
            assert_eq!(unit(env.store_elem(var, 0, Value::Int(1))), text);
        }
        for idx in [-1, 3, i64::MIN, i64::MAX] {
            let text = format!("local index {idx} out of bounds for {a}");
            assert_eq!(msg(env.load_elem(a, idx)), text);
            assert_eq!(unit(env.store_elem(a, idx, Value::Int(1))), text);
        }
        // None of the refused writes landed anywhere.
        assert_eq!(env.load(s).unwrap(), Value::Int(0));
        for idx in 0..3 {
            assert_eq!(env.load_elem(a, idx).unwrap(), Value::Int(0));
        }
    }
}

#[cfg(test)]
mod fold_consistency {
    //! Cross-module property: `syncopt_ir::fold` must be semantics
    //! preserving w.r.t. this evaluator — for any expression that
    //! evaluates successfully, the folded expression evaluates to the
    //! same value.

    use super::*;
    use syncopt_core::corpus::SplitMix64;
    use syncopt_frontend::ast::BinOp;
    use syncopt_ir::fold::fold_expr;

    /// An integer expression at most `depth` operators deep.
    fn random_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
        if depth == 0 || rng.below(3) == 0 {
            return match rng.below(3) {
                0 => Expr::Int(rng.below(40) as i64 - 20),
                1 => Expr::MyProc,
                _ => Expr::Procs,
            };
        }
        const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem];
        Expr::Binary {
            op: OPS[rng.below(5) as usize],
            lhs: Box::new(random_expr(rng, depth - 1)),
            rhs: Box::new(random_expr(rng, depth - 1)),
        }
    }

    #[test]
    fn folding_preserves_evaluation() {
        let mut rng = SplitMix64::new(0x5eed_f01d);
        for _ in 0..256 {
            let e = random_expr(&mut rng, 4);
            let env = ProcEnv::new(rng.below(8) as u32, 8, &VarTable::new());
            let folded = fold_expr(&e);
            // Idempotence.
            assert_eq!(fold_expr(&folded), folded);
            match eval(&e, &env) {
                Ok(v) => {
                    let fv = eval(&folded, &env);
                    assert_eq!(fv.ok(), Some(v), "fold changed value of {e:?}");
                }
                // Identities only discard trap-free sides, so the folded
                // expression must trap too.
                Err(_) => assert!(eval(&folded, &env).is_err(), "fold hid a trap in {e:?}"),
            }
        }
    }
}
