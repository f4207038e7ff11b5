//! Predicate-aware conflict refinement.
//!
//! SPMD programs constantly branch on `MYPROC` (`if (MYPROC == 0) {...}`,
//! `if (MYPROC % 4 == r) {...}`): the guarded code executes on a *subset*
//! of the processors. Treating every access site as executed by every
//! processor (the plain Shasha–Snir reading) manufactures conflicts that
//! cannot happen — e.g. a write under `MYPROC == 0` can never self-conflict
//! because only one processor runs it.
//!
//! This module computes, for every access site, the set of processors that
//! can execute it, by collecting the *processor-pure* branch conditions
//! (expressions over `MYPROC`, `PROCS`, and constants only) that dominate
//! the site, and — when the machine size is known — evaluating them for
//! each processor id. The conflict set then requires a *distinct* pair of
//! processors satisfying both sides' guards, and, for affine subscripts,
//! an actual index collision at some such pair.
//!
//! This is an extension beyond the 1995 paper (which relies on the
//! conservative conflict set being sound); it follows the same principle
//! as its affine subscript handling and is exercised by the evaluation
//! kernels' owner-computes guards.

use crate::affine::{
    affine_may_conflict_cross_proc, local_coeff_gcd, to_affine, Affine, Candidates, CollisionSolver,
};
use syncopt_frontend::ast::BinOp;
use syncopt_ir::arith::{eval, ArithError, Leaf, Value};
use syncopt_ir::cfg::{Cfg, Terminator};
use syncopt_ir::dom::Dominators;
use syncopt_ir::expr::Expr;

/// The processors that may execute an access site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcSet {
    /// Unconstrained (or not analyzable).
    Any,
    /// Exactly these processor ids, ascending and duplicate-free.
    Ids(Vec<i64>),
}

impl ProcSet {
    /// Concrete candidate ids, when enumerable. With a known machine size
    /// `Any` is `0..procs`.
    pub(crate) fn candidates(&self, procs: Option<u32>) -> Option<Candidates<'_>> {
        match self {
            ProcSet::Ids(ids) => {
                debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
                Some(Candidates::Ids(ids))
            }
            ProcSet::Any => procs.map(|p| Candidates::Range(i64::from(p))),
        }
    }

    /// Whether some processor pair `p ≠ q` has `p` allowed here and `q`
    /// allowed in `other` (assuming at least two processors exist).
    pub fn exists_distinct_pair(&self, other: &ProcSet, procs: Option<u32>) -> bool {
        match (self.candidates(procs), other.candidates(procs)) {
            (Some(a), Some(b)) => a.exists_distinct_pair(&b),
            (Some(a), None) | (None, Some(a)) => a.len() > 0,
            (None, None) => true,
        }
    }

    /// Whether the site can execute at all.
    pub fn is_empty(&self, procs: Option<u32>) -> bool {
        matches!(self.candidates(procs), Some(ids) if ids.len() == 0)
    }
}

/// Whether `e` mentions only `MYPROC`, `PROCS`, and constants.
fn processor_pure(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::MyProc | Expr::Procs => true,
        Expr::Local(_) | Expr::LocalElem { .. } => false,
        Expr::Unary { expr, .. } => processor_pure(expr),
        Expr::Binary { lhs, rhs, .. } => processor_pure(lhs) && processor_pure(rhs),
    }
}

/// A guard that reads `PROCS` without a machine size or a local, or that
/// faults. Zero-sized, so an evaluation result stays two words.
struct Unknown;

impl From<ArithError> for Unknown {
    fn from(_: ArithError) -> Self {
        Unknown
    }
}

/// The processor-pure branch conditions gating each block: `(cond, side)`
/// means the block only executes when `cond` evaluates to `side`.
fn block_gates<'a>(cfg: &'a Cfg, dom: &Dominators) -> Vec<Vec<(&'a Expr, bool)>> {
    let preds = cfg.predecessors();
    let mut gates: Vec<Vec<(&Expr, bool)>> = vec![Vec::new(); cfg.num_blocks()];
    for x in cfg.block_ids() {
        let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = &cfg.block(x).term
        else {
            continue;
        };
        if !processor_pure(cond) {
            continue;
        }
        for (target, side) in [(*then_bb, true), (*else_bb, false)] {
            // Entering `target` implies the branch decided `side` — sound
            // only when `x` is the sole way in.
            if preds.of(target) != [x] {
                continue;
            }
            for b in cfg.block_ids() {
                if dom.dominates(target, b) {
                    gates[b.index()].push((cond, side));
                }
            }
        }
    }
    gates
}

/// The [`ProcSet`] of every block that holds an access site (`Any` for
/// the others). `proc_steps` grows by one per processor id a gate set is
/// evaluated for.
pub(crate) fn block_proc_sets(
    cfg: &Cfg,
    dom: &Dominators,
    procs: Option<u32>,
    proc_steps: &mut u64,
) -> Vec<ProcSet> {
    let gates = block_gates(cfg, dom);
    let mut sets = vec![ProcSet::Any; cfg.num_blocks()];
    let mut done = vec![false; cfg.num_blocks()];
    for (_, info) in cfg.accesses.iter() {
        let b = info.pos.block.index();
        if !std::mem::replace(&mut done[b], true) {
            sets[b] = proc_set_of_gates(&gates[b], procs, proc_steps);
        }
    }
    sets
}

/// Computes the [`ProcSet`] of every access site.
pub fn access_proc_sets(cfg: &Cfg, procs: Option<u32>) -> Vec<ProcSet> {
    let blocks = block_proc_sets(cfg, &Dominators::compute(cfg), procs, &mut 0);
    cfg.accesses
        .iter()
        .map(|(_, info)| blocks[info.pos.block.index()].clone())
        .collect()
}

fn proc_set_of_gates(gates: &[(&Expr, bool)], procs: Option<u32>, proc_steps: &mut u64) -> ProcSet {
    if gates.is_empty() {
        return ProcSet::Any;
    }
    if let Some(n) = procs {
        // Evaluate every gate for every processor id.
        *proc_steps += u64::from(n);
        let ids: Vec<i64> = (0..n as i64)
            .filter(|&p| {
                gates.iter().all(|(cond, side)| {
                    let value = eval(cond, &|leaf| match leaf {
                        Leaf::MyProc => Ok(Value::Int(p)),
                        Leaf::Procs => procs.map(|n| Value::Int(n.into())).ok_or(Unknown),
                        Leaf::Local(_) | Leaf::LocalElem(..) => Err(Unknown),
                    });
                    match value {
                        Ok(Value::Bool(b)) => b == *side,
                        // Unevaluable gate: keep the processor (sound).
                        _ => true,
                    }
                })
            })
            .collect();
        return ProcSet::Ids(ids);
    }
    // Machine size unknown: only the `MYPROC == k` singleton pattern is
    // representable.
    for (cond, side) in gates {
        if !side {
            continue;
        }
        if let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = cond
        {
            let k = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::MyProc, Expr::Int(k)) | (Expr::Int(k), Expr::MyProc) => Some(*k),
                _ => None,
            };
            if let Some(k) = k {
                return ProcSet::Ids(vec![k]);
            }
        }
    }
    ProcSet::Any
}

/// Could two array subscripts collide for some *distinct* pair of
/// processors allowed by the guards? Falls back to the guard-free affine
/// tests when the candidate sets cannot be enumerated.
pub fn indices_may_collide(
    e1: &Expr,
    e2: &Expr,
    g1: &ProcSet,
    g2: &ProcSet,
    procs: Option<u32>,
) -> bool {
    affine_indices_may_collide(
        to_affine(e1).as_ref(),
        to_affine(e2).as_ref(),
        g1,
        g2,
        procs,
        &mut CollisionSolver::default(),
    )
}

/// [`indices_may_collide`] over subscripts already put in affine form
/// (`None` where [`to_affine`] gave up). Linear in the candidate sets: no
/// processor *pair* is ever enumerated.
pub(crate) fn affine_indices_may_collide(
    a1: Option<&Affine>,
    a2: Option<&Affine>,
    g1: &ProcSet,
    g2: &ProcSet,
    procs: Option<u32>,
    solver: &mut CollisionSolver,
) -> bool {
    let (Some(c1), Some(c2)) = (g1.candidates(procs), g2.candidates(procs)) else {
        return match (a1, a2) {
            (Some(a1), Some(a2)) => affine_may_conflict_cross_proc(a1, a2, procs, solver),
            _ => true,
        };
    };
    match (a1, a2) {
        (Some(a1), Some(a2)) if !a1.has_locals() && !a2.has_locals() => {
            solver.exact(a1, a2, c1, c2)
        }
        (Some(a1), Some(a2)) => {
            // Loop-variant terms: modular congruence on the invariant part.
            let m = local_coeff_gcd(a1, a2);
            if m > 1 {
                solver.modular(a1, a2, m, c1, c2)
            } else {
                c1.exists_distinct_pair(&c2)
            }
        }
        _ => c1.exists_distinct_pair(&c2),
    }
}

/// The processor-pair enumeration the linear solvers replaced, kept as the
/// reference they are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn ids_of(g: &ProcSet, procs: Option<u32>) -> Option<Vec<i64>> {
        match g {
            ProcSet::Ids(ids) => Some(ids.clone()),
            ProcSet::Any => procs.map(|p| (0..p as i64).collect()),
        }
    }

    pub(crate) fn exists_distinct_pair(g1: &ProcSet, g2: &ProcSet, procs: Option<u32>) -> bool {
        match (ids_of(g1, procs), ids_of(g2, procs)) {
            (Some(a), Some(b)) => a.iter().any(|p| b.iter().any(|q| p != q)),
            (Some(a), None) | (None, Some(a)) => !a.is_empty(),
            (None, None) => true,
        }
    }

    pub(crate) fn indices_may_collide(
        e1: &Expr,
        e2: &Expr,
        g1: &ProcSet,
        g2: &ProcSet,
        procs: Option<u32>,
    ) -> bool {
        let (Some(c1), Some(c2)) = (ids_of(g1, procs), ids_of(g2, procs)) else {
            return crate::affine::may_conflict_cross_proc_bounded(Some(e1), Some(e2), procs);
        };
        let at = |a: &Affine, p: i64| i128::from(a.konst) + i128::from(a.myproc) * i128::from(p);
        let any_pair = |hit: &dyn Fn(i64, i64) -> bool| {
            c1.iter().any(|&p| c2.iter().any(|&q| p != q && hit(p, q)))
        };
        match (to_affine(e1), to_affine(e2)) {
            (Some(a1), Some(a2)) if !a1.has_locals() && !a2.has_locals() => {
                any_pair(&|p, q| at(&a1, p) == at(&a2, q))
            }
            (Some(a1), Some(a2)) => {
                let m = local_coeff_gcd(&a1, &a2);
                if m > 1 {
                    any_pair(&|p, q| (at(&a1, p) - at(&a2, q)).rem_euclid(m) == 0)
                } else {
                    exists_distinct_pair(g1, g2, procs)
                }
            }
            _ => exists_distinct_pair(g1, g2, procs),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::access::AccessKind;
    use syncopt_ir::lower::lower_main;

    fn sets(src: &str, procs: Option<u32>) -> (Cfg, Vec<ProcSet>) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let s = access_proc_sets(&cfg, procs);
        (cfg, s)
    }

    #[test]
    fn unguarded_accesses_are_any() {
        let (_, s) = sets("shared int X; fn main() { X = 1; }", None);
        assert_eq!(s, vec![ProcSet::Any]);
    }

    #[test]
    fn myproc_eq_guard_is_singleton_without_machine_size() {
        let (_, s) = sets(
            "shared int X; fn main() { if (MYPROC == 3) { X = 1; } }",
            None,
        );
        assert_eq!(s, vec![ProcSet::Ids(vec![3])]);
    }

    #[test]
    fn else_side_enumerates_with_machine_size() {
        let (cfg, s) = sets(
            "shared int X; shared int Y; fn main() { if (MYPROC == 0) { X = 1; } else { Y = 1; } }",
            Some(4),
        );
        let wx = cfg
            .accesses
            .iter()
            .position(|(_, i)| {
                i.kind == AccessKind::Write && cfg.vars.info(i.var.unwrap()).name == "X"
            })
            .unwrap();
        let wy = cfg
            .accesses
            .iter()
            .position(|(_, i)| cfg.vars.info(i.var.unwrap()).name == "Y")
            .unwrap();
        assert_eq!(s[wx], ProcSet::Ids(vec![0]));
        assert_eq!(s[wy], ProcSet::Ids(vec![1, 2, 3]));
    }

    #[test]
    fn modulo_guards_enumerate() {
        let (_, s) = sets(
            "shared int X; fn main() { if (MYPROC % 3 == 1) { X = 1; } }",
            Some(8),
        );
        assert_eq!(s, vec![ProcSet::Ids(vec![1, 4, 7])]);
    }

    #[test]
    fn nested_guards_intersect() {
        let (_, s) = sets(
            r#"
            shared int X;
            fn main() {
                if (MYPROC < 4) {
                    if (MYPROC % 2 == 0) { X = 1; }
                }
            }
            "#,
            Some(8),
        );
        assert_eq!(s, vec![ProcSet::Ids(vec![0, 2])]);
    }

    #[test]
    fn data_dependent_guards_are_any() {
        let (_, s) = sets(
            r#"
            shared int X;
            fn main() {
                int v; v = X;
                if (v > 0) { X = 1; }
            }
            "#,
            Some(4),
        );
        // The write's guard depends on data: Any.
        assert_eq!(s[1], ProcSet::Any);
    }

    #[test]
    fn distinct_pair_logic() {
        let a = ProcSet::Ids(vec![0]);
        let b = ProcSet::Ids(vec![0]);
        let c = ProcSet::Ids(vec![1]);
        let any = ProcSet::Any;
        assert!(!a.exists_distinct_pair(&b, None), "same singleton");
        assert!(a.exists_distinct_pair(&c, None));
        assert!(a.exists_distinct_pair(&any, None));
        assert!(any.exists_distinct_pair(&any, None));
        let empty = ProcSet::Ids(vec![]);
        assert!(!empty.exists_distinct_pair(&any, None));
        assert!(empty.is_empty(None));
    }

    /// A random subscript `k + m·MYPROC (+ c·i)` and a random guard set,
    /// drawn small enough that hits and misses are both common.
    pub(crate) fn random_site(
        rng: &mut crate::corpus::SplitMix64,
        procs: Option<u32>,
    ) -> (Expr, ProcSet) {
        use syncopt_ir::ids::VarId;
        let small = |rng: &mut crate::corpus::SplitMix64, span: u64| {
            rng.below(span) as i64 - (span / 2) as i64
        };
        let bin = |op, l: Expr, r: Expr| Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        };
        let mut e = bin(
            BinOp::Add,
            Expr::Int(small(rng, 24)),
            bin(BinOp::Mul, Expr::Int(small(rng, 9)), Expr::MyProc),
        );
        if rng.below(3) == 0 {
            let coeff = [0, 1, 2, 4, 6, -4][rng.below(6) as usize];
            e = bin(
                BinOp::Add,
                e,
                bin(BinOp::Mul, Expr::Int(coeff), Expr::Local(VarId(1))),
            );
        }
        let width = u64::from(procs.unwrap_or(9));
        let g = match rng.below(5) {
            0 => ProcSet::Any,
            1 => ProcSet::Ids(vec![]),
            2 => ProcSet::Ids(vec![rng.below(width.max(1)) as i64]),
            _ => ProcSet::Ids((0..width as i64).filter(|_| rng.below(2) == 0).collect()),
        };
        (e, g)
    }

    #[test]
    fn linear_solvers_agree_with_the_pair_enumeration() {
        let mut rng = crate::corpus::SplitMix64::new(16);
        for case in 0..40_000 {
            let procs = [None, Some(1), Some(2), Some(3), Some(7), Some(16)][case % 6];
            let (e1, g1) = random_site(&mut rng, procs);
            let (e2, g2) = random_site(&mut rng, procs);
            assert_eq!(
                indices_may_collide(&e1, &e2, &g1, &g2, procs),
                reference::indices_may_collide(&e1, &e2, &g1, &g2, procs),
                "{e1:?} under {g1:?} vs {e2:?} under {g2:?} at {procs:?}"
            );
            assert_eq!(
                g1.exists_distinct_pair(&g2, procs),
                reference::exists_distinct_pair(&g1, &g2, procs),
                "{g1:?} vs {g2:?} at {procs:?}"
            );
        }
    }

    #[test]
    fn exact_index_collision_with_guards() {
        // write A[MYPROC] under MYPROC==0 vs read A[0] under MYPROC!=0.
        let e_w = Expr::MyProc;
        let e_r = Expr::Int(0);
        let g_w = ProcSet::Ids(vec![0]);
        let g_r = ProcSet::Ids(vec![1, 2, 3]);
        assert!(indices_may_collide(&e_w, &e_r, &g_w, &g_r, Some(4)));
        // But A[MYPROC] under MYPROC==0 vs A[1] under MYPROC!=0: 0 ≠ 1.
        let e_r1 = Expr::Int(1);
        assert!(!indices_may_collide(&e_w, &e_r1, &g_w, &g_r, Some(4)));
    }
}
