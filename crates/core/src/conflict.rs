//! Conflict-set construction (the `C` of `P ∪ C`, §3–§4).
//!
//! `C` conservatively approximates the cross-processor interferences: all
//! unordered pairs of access sites `{a1, a2}` such that two *different*
//! processors could touch the same location through them, with at least one
//! side modifying it. In an SPMD program every site is executed by every
//! processor, so a site can conflict **with itself** (e.g. two processors
//! writing the same shared scalar through the same statement).
//!
//! Following Shasha & Snir, synchronization operations are modeled as
//! conflicting accesses to their synchronization object; §5 then *orients*
//! conflict edges using synchronization semantics. We therefore store the
//! conflict set as a **directed** relation: initially symmetric, with
//! directions removed as precedence information accrues (step 5 of the §5.1
//! algorithm).

use crate::affine::{to_affine, Affine, CollisionSolver, SubscriptTable};
use crate::guards::{affine_indices_may_collide, block_proc_sets, ProcSet};
use syncopt_ir::access::{AccessInfo, AccessKind};
use syncopt_ir::cfg::{Cfg, Predecessors};
use syncopt_ir::dom::Dominators;
use syncopt_ir::ids::AccessId;
use syncopt_ir::order::{BitMatrix, BitSet};

/// The (directed) conflict relation over access sites.
#[derive(Debug, Clone)]
pub struct ConflictSet {
    n: usize,
    directed: BitMatrix,
    /// The sites whose processor set is assumed rather than evaluated
    /// (see [`ConflictSet::guard_assumed`]).
    assumed: BitSet,
}

/// What one conflict-set construction cost — the part of the analysis
/// that scales with the machine width rather than the program text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Same-object site pairs whose guards (and subscripts) were tested.
    pub pair_tests: u64,
    /// Processor ids visited: one per id a guard is evaluated for, one per
    /// candidate a collision test steps through.
    pub proc_steps: u64,
}

/// One access site as the pair test sees it: its guard and subscript are
/// worked out once per site, not once per pair.
struct Site<'a> {
    info: &'a AccessInfo,
    guard: &'a ProcSet,
    /// The subscript in affine form, when it has one.
    affine: Option<Affine>,
}

impl ConflictSet {
    /// Builds the conflict set for `cfg` (symmetric: both directions set).
    pub fn build(cfg: &Cfg) -> Self {
        Self::build_bounded(cfg, None)
    }

    /// [`ConflictSet::build`] with a known processor count, enabling the
    /// modular subscript disambiguation of
    /// [`crate::affine::may_conflict_cross_proc_bounded`].
    pub fn build_bounded(cfg: &Cfg, procs: Option<u32>) -> Self {
        let preds = cfg.predecessors();
        Self::build_counted(cfg, procs, &preds, &Dominators::compute(cfg)).0
    }

    /// [`ConflictSet::build_bounded`] over already-computed predecessor
    /// lists and dominators,
    /// additionally handing on the per-site subscript forms it worked out
    /// (interned, for the same-processor tests of code generation) and
    /// reporting the work done.
    pub fn build_counted(
        cfg: &Cfg,
        procs: Option<u32>,
        preds: &Predecessors,
        dom: &Dominators,
    ) -> (Self, SubscriptTable, ConflictStats) {
        let n = cfg.accesses.len();
        let mut directed = BitMatrix::new(n);
        let mut test = PairTest {
            procs,
            pair_tests: 0,
            solver: CollisionSolver::default(),
        };
        let mut assumed_blocks = BitSet::new(cfg.num_blocks());
        let guards = block_proc_sets(
            cfg,
            preds,
            dom,
            procs,
            &mut test.solver.proc_steps,
            &mut assumed_blocks,
        );
        let mut assumed = BitSet::new(n);
        if !assumed_blocks.is_empty() {
            for (a, info) in cfg.accesses.iter() {
                if assumed_blocks.contains(info.pos.block.index()) {
                    assumed.insert(a.index());
                }
            }
        }
        let sites: Vec<Site<'_>> = cfg
            .accesses
            .iter()
            .map(|(_, info)| Site {
                info,
                guard: &guards[info.pos.block.index()],
                affine: info.index.as_ref().and_then(to_affine),
            })
            .collect();
        // Only sites naming the same object (or no object: barriers) can
        // conflict, so pairs are formed within one object's sites.
        // Each site as `(1 + variable) << 32 | site`, barriers first.
        let mut by_object: Vec<u64> = (0..n)
            .map(|i| (sites[i].info.var.map_or(0, |v| u64::from(v.0) + 1) << 32) | i as u64)
            .collect();
        by_object.sort_unstable();
        for object in by_object.chunk_by(|i, j| i >> 32 == j >> 32) {
            for (k, &i) in object.iter().enumerate() {
                let i = i as u32 as usize;
                for &j in &object[k..] {
                    let j = j as u32 as usize;
                    if test.sites_conflict(&sites[i], &sites[j]) {
                        directed.set(i, j);
                        directed.set(j, i);
                    }
                }
            }
        }
        let stats = ConflictStats {
            pair_tests: test.pair_tests,
            proc_steps: test.solver.proc_steps,
        };
        let subscripts = SubscriptTable::build(n, |i| {
            let s = &sites[i];
            (s.info.var, s.info.index.as_ref(), s.affine.as_ref())
        });
        let set = ConflictSet {
            n,
            directed,
            assumed,
        };
        (set, subscripts, stats)
    }

    /// An empty conflict set over `n` accesses (used by tests).
    pub fn empty(n: usize) -> Self {
        ConflictSet {
            n,
            directed: BitMatrix::new(n),
            assumed: BitSet::new(n),
        }
    }

    /// Whether `a`'s guard did not evaluate for some processor (it
    /// faults, say), so the processors taken to run `a` — and with them
    /// `a`'s conflicts — are assumed, not computed.
    pub fn guard_assumed(&self, a: AccessId) -> bool {
        self.assumed.contains(a.index())
    }

    /// Number of access sites covered.
    pub fn num_accesses(&self) -> usize {
        self.n
    }

    /// Whether the directed conflict edge `a → b` is present (meaning an
    /// execution where `a`'s instance is ordered before `b`'s instance can
    /// be part of a violation path).
    pub fn edge(&self, a: AccessId, b: AccessId) -> bool {
        self.directed.get(a.index(), b.index())
    }

    /// Whether `a` and `b` conflict in at least one direction.
    pub fn conflicts(&self, a: AccessId, b: AccessId) -> bool {
        self.edge(a, b) || self.edge(b, a)
    }

    /// Removes the directed edge `a → b` (because synchronization guarantees
    /// `b`'s instances never race ahead of `a` — step 5 of §5.1).
    pub fn remove_direction(&mut self, a: AccessId, b: AccessId) {
        self.directed.clear(a.index(), b.index());
    }

    /// The directed successors of `a` (all `b` with edge `a → b`).
    pub fn succs(&self, a: AccessId) -> Vec<AccessId> {
        self.succ_ones(a).map(AccessId::from_index).collect()
    }

    /// The indices of `a`'s directed successors, ascending.
    pub fn succ_ones(&self, a: AccessId) -> impl Iterator<Item = usize> + '_ {
        self.directed.row_ones(a.index())
    }

    /// The directed predecessors of `a` (all `b` with edge `b → a`).
    pub fn preds(&self, a: AccessId) -> Vec<AccessId> {
        (0..self.n)
            .filter(|&j| self.directed.get(j, a.index()))
            .map(AccessId::from_index)
            .collect()
    }

    /// Both directions folded onto the upper triangle: `(i, j)` with
    /// `i ≤ j` set iff `i` and `j` conflict in at least one direction.
    fn upper_triangle(&self) -> BitMatrix {
        let mut upper = BitMatrix::new(self.n);
        for i in 0..self.n {
            for j in self.directed.row_ones(i) {
                upper.set(i.min(j), i.max(j));
            }
        }
        upper
    }

    /// Number of unordered conflicting pairs: each `(i, j)` with `i ≤ j`
    /// from row `i`, and each `(j, i)` with `j < i` whose reverse is
    /// absent from row `i`.
    pub fn num_unordered_pairs(&self) -> usize {
        (0..self.n)
            .map(|i| {
                self.directed
                    .row_ones(i)
                    .filter(|&j| j >= i || !self.directed.get(j, i))
                    .count()
            })
            .sum()
    }

    /// All unordered conflicting pairs `(a, b)` with `a ≤ b`.
    pub fn unordered_pairs(&self) -> Vec<(AccessId, AccessId)> {
        let upper = self.upper_triangle();
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in upper.row_ones(i) {
                out.push((AccessId::from_index(i), AccessId::from_index(j)));
            }
        }
        out
    }

    /// Whether every edge `a → b` has its reverse `b → a` — true of a
    /// freshly built set, the precondition of the `D_SS` rows.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|a| self.directed.row_ones(a).all(|b| self.directed.get(b, a)))
    }

    /// Number of directed edges currently present.
    pub fn num_directed_edges(&self) -> usize {
        self.directed.count_ones()
    }

    /// The raw bitset row of `a`'s directed successors, for word-parallel
    /// consumers (the back-path oracle).
    pub fn succ_row_words(&self, a: AccessId) -> &[u64] {
        self.directed.row_words(a.index())
    }
}

/// The per-pair conflict test of one build, with its counters.
struct PairTest {
    procs: Option<u32>,
    pair_tests: u64,
    solver: CollisionSolver,
}

impl PairTest {
    /// Do two access *sites* naming the same object conflict (executed by
    /// different processors)?
    fn sites_conflict(&mut self, a: &Site<'_>, b: &Site<'_>) -> bool {
        use AccessKind::*;
        debug_assert_eq!(a.info.var, b.info.var, "pairs are formed per object");
        match (a.info.kind, b.info.kind) {
            // Barriers are global events: every barrier site interferes
            // with every other (and itself).
            (Barrier, Barrier) => true,
            // Plain data accesses: same variable, at least one write,
            // indices may coincide on two *distinct* processors allowed by
            // the guards.
            (Read, Read) => false,
            (Read | Write, Read | Write) => a.info.var.is_some() && self.guarded_collision(a, b),
            // Event operations: a post modifies the event; two waits only
            // observe it.
            (Wait, Wait) => false,
            (Post | Wait, Post | Wait) => self.guarded_collision(a, b),
            // Lock operations on the same lock all modify it (guards still
            // apply: a lock op under `MYPROC == 0` cannot race with itself).
            (LockAcq | LockRel, LockAcq | LockRel) => self.distinct_pair(a, b),
            // Mixed kinds touch different objects.
            _ => false,
        }
    }

    /// Whether two distinct processors can run `a` and `b` at all.
    fn distinct_pair(&mut self, a: &Site<'_>, b: &Site<'_>) -> bool {
        self.pair_tests += 1;
        a.guard.exists_distinct_pair(b.guard, self.procs)
    }

    /// Guard-aware location collision test for two same-variable accesses.
    fn guarded_collision(&mut self, a: &Site<'_>, b: &Site<'_>) -> bool {
        if !self.distinct_pair(a, b) {
            return false;
        }
        match (&a.info.index, &b.info.index) {
            (Some(_), Some(_)) => affine_indices_may_collide(
                a.affine.as_ref(),
                b.affine.as_ref(),
                a.guard,
                b.guard,
                self.procs,
                &mut self.solver,
            ),
            // Scalars: the guard test above is the whole story. (A shape
            // mismatch cannot happen for same-variable accesses; it would
            // be a conflict too.)
            _ => true,
        }
    }
}

/// The build as it was when every guarded test enumerated processor
/// pairs, kept as the reference [`ConflictSet::build_bounded`] is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::guards::{access_proc_sets, reference as pairs};

    pub(crate) fn build_bounded(cfg: &Cfg, procs: Option<u32>) -> ConflictSet {
        let n = cfg.accesses.len();
        let mut directed = BitMatrix::new(n);
        let infos: Vec<_> = cfg.accesses.iter().map(|(_, info)| info).collect();
        let guards = access_proc_sets(cfg, procs);
        for i in 0..n {
            for j in i..n {
                if sites_conflict(infos[i], infos[j], &guards[i], &guards[j], procs) {
                    directed.set(i, j);
                    directed.set(j, i);
                }
            }
        }
        ConflictSet {
            n,
            directed,
            assumed: BitSet::new(n),
        }
    }

    fn sites_conflict(
        a: &AccessInfo,
        b: &AccessInfo,
        ga: &ProcSet,
        gb: &ProcSet,
        procs: Option<u32>,
    ) -> bool {
        use AccessKind::*;
        match (a.kind, b.kind) {
            (Barrier, Barrier) => true,
            (Read, Read) => false,
            (Read | Write, Read | Write) => {
                a.var == b.var && a.var.is_some() && guarded_collision(a, b, ga, gb, procs)
            }
            (Wait, Wait) => false,
            (Post | Wait, Post | Wait) => a.var == b.var && guarded_collision(a, b, ga, gb, procs),
            (LockAcq | LockRel, LockAcq | LockRel) => {
                a.var == b.var && pairs::exists_distinct_pair(ga, gb, procs)
            }
            _ => false,
        }
    }

    fn guarded_collision(
        a: &AccessInfo,
        b: &AccessInfo,
        ga: &ProcSet,
        gb: &ProcSet,
        procs: Option<u32>,
    ) -> bool {
        if !pairs::exists_distinct_pair(ga, gb, procs) {
            return false;
        }
        match (&a.index, &b.index) {
            (Some(e1), Some(e2)) => pairs::indices_may_collide(e1, e2, ga, gb, procs),
            (None, None) => true,
            _ => crate::affine::may_conflict_cross_proc_bounded(
                a.index.as_ref(),
                b.index.as_ref(),
                procs,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn conflicts_of(src: &str) -> (Cfg, ConflictSet) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let c = ConflictSet::build(&cfg);
        (cfg, c)
    }

    fn ids(cfg: &Cfg) -> Vec<AccessId> {
        cfg.accesses.ids().collect()
    }

    #[test]
    fn flag_example_conflicts() {
        // The paper's Figure 1 program.
        let (cfg, c) = conflicts_of(
            r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Flag; v = Data; }
            }
            "#,
        );
        let a = ids(&cfg);
        // a0=Write Data, a1=Write Flag, a2=Read Flag, a3=Read Data.
        assert!(c.conflicts(a[0], a[3]), "write/read Data");
        assert!(c.conflicts(a[1], a[2]), "write/read Flag");
        assert!(!c.conflicts(a[0], a[1]), "different variables");
        assert!(!c.conflicts(a[2], a[3]), "different variables");
        // The `MYPROC == 0` guard means only one processor writes: the
        // predicate refinement removes the write's self-conflict.
        assert!(!c.conflicts(a[0], a[0]));
        // Reads never self-conflict.
        assert!(!c.conflicts(a[2], a[2]));
    }

    #[test]
    fn unguarded_writes_self_conflict() {
        let (cfg, c) = conflicts_of("shared int X; fn main() { X = MYPROC; }");
        let a = ids(&cfg);
        assert!(c.conflicts(a[0], a[0]));
    }

    #[test]
    fn guards_disambiguate_same_processor_sites() {
        // Both writes only execute on processor 0: no cross-processor
        // conflict between them.
        let (cfg, c) = conflicts_of(
            r#"
            shared int X;
            fn main() {
                if (MYPROC == 0) { X = 1; }
                work(5);
                if (MYPROC == 0) { X = 2; }
            }
            "#,
        );
        let a = ids(&cfg);
        assert!(!c.conflicts(a[0], a[1]));
        // But different-guard writes do conflict.
        let (cfg2, c2) = conflicts_of(
            r#"
            shared int X;
            fn main() {
                if (MYPROC == 0) { X = 1; }
                if (MYPROC == 1) { X = 2; }
            }
            "#,
        );
        let b = ids(&cfg2);
        assert!(c2.conflicts(b[0], b[1]));
        let _ = cfg2;
    }

    #[test]
    fn owner_computes_writes_do_not_conflict() {
        let (cfg, c) = conflicts_of("shared int A[64]; fn main() { A[MYPROC] = 1; }");
        let a = ids(&cfg);
        assert!(!c.conflicts(a[0], a[0]), "A[MYPROC] is per-processor");
    }

    #[test]
    fn neighbor_read_conflicts_with_owner_write() {
        let (cfg, c) = conflicts_of(
            "shared int A[64]; fn main() { int v; A[MYPROC] = 1; v = A[MYPROC + 1]; }",
        );
        let a = ids(&cfg);
        assert!(c.conflicts(a[0], a[1]));
    }

    #[test]
    fn reads_never_conflict() {
        let (cfg, c) = conflicts_of("shared int X; fn main() { int v; v = X; v = X; }");
        let a = ids(&cfg);
        assert!(!c.conflicts(a[0], a[1]));
        assert_eq!(c.unordered_pairs().len(), 0);
    }

    #[test]
    fn sync_objects_conflict_appropriately() {
        let (cfg, c) = conflicts_of(
            r#"
            flag f; flag g; lock l;
            fn main() {
                if (MYPROC == 0) { post f; } else { wait f; wait g; }
                lock l; unlock l;
            }
            "#,
        );
        let a = ids(&cfg);
        // a0=post f, a1=wait f, a2=wait g, a3=lock, a4=unlock.
        assert!(c.conflicts(a[0], a[1]), "post/wait same flag");
        assert!(!c.conflicts(a[0], a[2]), "different flags");
        assert!(!c.conflicts(a[1], a[1]), "wait/wait no conflict");
        assert!(c.conflicts(a[3], a[4]), "lock ops on same lock");
        assert!(c.conflicts(a[3], a[3]), "acquire self-conflicts");
        assert!(!c.conflicts(a[0], a[3]), "flag vs lock");
    }

    #[test]
    fn barriers_conflict_with_each_other() {
        let (cfg, c) = conflicts_of("fn main() { barrier; barrier; }");
        let a = ids(&cfg);
        assert!(c.conflicts(a[0], a[1]));
        assert!(c.conflicts(a[0], a[0]));
    }

    #[test]
    fn data_and_sync_do_not_conflict() {
        let (cfg, c) = conflicts_of("shared int X; flag f; fn main() { X = 1; post f; barrier; }");
        let a = ids(&cfg);
        assert!(!c.conflicts(a[0], a[1]));
        assert!(!c.conflicts(a[0], a[2]));
        assert!(!c.conflicts(a[1], a[2]));
    }

    #[test]
    fn direction_removal() {
        let (cfg, mut c) = conflicts_of("shared int X; fn main() { int v; X = 1; v = X; }");
        let a = ids(&cfg);
        assert!(c.edge(a[0], a[1]) && c.edge(a[1], a[0]));
        let before = c.num_directed_edges();
        c.remove_direction(a[1], a[0]);
        assert!(c.edge(a[0], a[1]));
        assert!(!c.edge(a[1], a[0]));
        assert!(c.conflicts(a[0], a[1]), "still conflicting one-way");
        assert_eq!(c.num_directed_edges(), before - 1);
        // The write keeps its self-conflict edge (same site, two procs).
        assert_eq!(c.succs(a[0]), vec![a[0], a[1]]);
        assert!(c.succs(a[1]).is_empty());
        assert_eq!(c.preds(a[1]), vec![a[0]]);
    }

    #[test]
    fn flag_arrays_disambiguate_by_index() {
        let (cfg, c) = conflicts_of(
            r#"
            flag f[16];
            fn main() {
                post f[MYPROC];
                wait f[MYPROC];
                wait f[0];
            }
            "#,
        );
        let a = ids(&cfg);
        // post f[MYPROC] vs wait f[MYPROC] on different procs: indices differ.
        assert!(!c.conflicts(a[0], a[1]));
        // post f[MYPROC] vs wait f[0]: processor 0's post matches.
        assert!(c.conflicts(a[0], a[2]));
    }
}
