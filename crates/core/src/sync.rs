//! Synchronization-aware delay-set refinement — the paper's main
//! contribution (§5).
//!
//! The algorithm (§5.1, extended with barriers §5.2 and locks §5.3):
//!
//! 1. compute the dominator tree;
//! 2. compute the initial delay set `D1` by restricting back-path detection
//!    to pairs including a synchronization access;
//! 3. seed the precedence relation `R` with matching post→wait edges and
//!    (aligned) barrier episode edges;
//! 4. grow `R` to a fixpoint: transitivity, plus chaining through `D1`
//!    edges anchored by dominance (`a1 dom b1`, `[a1,b1] ∈ D1`,
//!    `(b1,b2) ∈ R`, `[b2,a2] ∈ D1`, `b2 dom a2` ⇒ `(a1,a2) ∈ R`);
//! 5. orient the conflict set: drop direction `a2 → a1` whenever
//!    `(a1, a2) ∈ R`;
//! 6. recompute the delay set on `P ∪ C1`, additionally removing from each
//!    back-path query the accesses that precedence or lock guarding
//!    disqualifies. The final `D` is that union `D1`; only the pairs of
//!    `D_SS ∖ D1` can change it, and only they are asked.
//!
//! **Assumptions inherited from the paper:** each event variable is posted
//! at most once per matching wait (footnote 2 of §5.1), and barriers used
//! for precedence actually line up at runtime (checked dynamically by
//! `syncopt-machine`, mirroring the paper's two-version compilation).

use crate::affine::may_match_any_proc;
use crate::barrier::{aligned_barriers_with, barrier_precedence_edges, BarrierPolicy};
use crate::base::AnalysisBase;
use crate::conflict::ConflictSet;
use crate::cycle::{delay_set_over, BackPathOracle, DelayOptions, DelayQueryStats, MirrorClosure};
use crate::delay::DelaySet;
use crate::obs::{AnalysisCounter as C, AnalysisCounters};
use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::dom::Dominators;
use syncopt_ir::ids::AccessId;
use syncopt_ir::order::{BitMatrix, BitSet};

/// The precedence relation `R`: `(a1, a2) ∈ R` means synchronization
/// guarantees `a1`'s instances complete before `a2`'s instances initiate
/// (so the conflict direction `a2 → a1` cannot appear in a race).
#[derive(Debug, Clone)]
pub struct Precedence {
    n: usize,
    m: BitMatrix,
}

impl Precedence {
    /// An empty relation over `n` accesses.
    pub fn new(n: usize) -> Self {
        Precedence {
            n,
            m: BitMatrix::new(n),
        }
    }

    /// Inserts `(a, b)`. Returns whether it was new.
    pub fn insert(&mut self, a: AccessId, b: AccessId) -> bool {
        if self.m.get(a.index(), b.index()) {
            false
        } else {
            self.m.set(a.index(), b.index());
            true
        }
    }

    /// Whether `(a, b)` is present.
    pub fn contains(&self, a: AccessId, b: AccessId) -> bool {
        self.m.get(a.index(), b.index())
    }

    /// All pairs.
    pub fn pairs(&self) -> Vec<(AccessId, AccessId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in self.m.row_ones(i) {
                out.push((AccessId::from_index(i), AccessId::from_index(j)));
            }
        }
        out
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.m.count_ones()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw successor row of `a` (`{w : (a, w) ∈ R}`) as bitset words,
    /// for word-parallel consumers (the step-6 removal callback).
    pub fn row_words(&self, a: AccessId) -> &[u64] {
        self.m.row_words(a.index())
    }

    /// The transposed relation: `(a, b)` present iff `(b, a) ∈ R`. Row `v`
    /// of the transpose is `{w : (w, v) ∈ R}` — the predecessor set the
    /// step-6 removal callback ORs in one pass.
    pub fn transpose(&self) -> Precedence {
        let mut t = Precedence::new(self.n);
        for i in 0..self.n {
            for j in self.m.row_ones(i) {
                t.m.set(j, i);
            }
        }
        t
    }
}

/// Options for the §5 analysis ([`AnalysisBase::refine`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncOptions {
    /// How barrier alignment is established.
    pub barrier_policy: BarrierPolicy,
    /// Known processor count, if the program is compiled for a fixed
    /// machine size (enables modular subscript disambiguation).
    pub procs: Option<u32>,
    /// Worker threads for the step-6 candidate loop (0 and 1 both mean
    /// serial; results are bit-identical for every value).
    pub threads: usize,
}

/// What the synchronization analysis produces besides the refined delay
/// set, which [`AnalysisBase::refine`] returns beside it. `D1` and the lock
/// guards it reads are the base's ([`AnalysisBase::d1`],
/// [`AnalysisBase::guards`]).
#[derive(Debug, Clone)]
pub struct SyncAnalysis {
    /// The precedence relation after the fixpoint.
    pub precedence: Precedence,
    /// Barrier sites considered aligned.
    pub aligned_barriers: Vec<AccessId>,
    /// The conflict set after step-5 orientation: a direction `a2 → a1`
    /// is removed whenever `(a1, a2) ∈ R`. Pairs that keep both
    /// directions are the conflicts synchronization could not order —
    /// the raw material of [`crate::races`].
    pub oriented: ConflictSet,
    /// Work counters for the observability report (the `sync.*` ones).
    pub counters: AnalysisCounters,
}

/// Synchronization sites the analysis must pretend are absent.
///
/// The redundancy probe of the lint engine ([`crate::lint`]) re-runs the
/// §5 pipeline with one site's seed edges withheld and compares the
/// outcome against the full analysis: excluded waits lose their
/// post→wait precedence edges, excluded barriers drop out of the
/// aligned set before the episode edges are built. Seeds only shrink,
/// so the excluded run is conservative: its precedence relation is a
/// subset of the full one, and its delay set a superset.
#[derive(Debug, Clone, Default)]
pub struct SyncExclusion {
    /// Barrier sites removed from the aligned set before step 3.
    pub barriers: Vec<AccessId>,
    /// Wait sites whose post→wait seed edges are withheld.
    pub waits: Vec<AccessId>,
}

impl SyncExclusion {
    /// Whether nothing is excluded (the plain analysis).
    pub fn is_empty(&self) -> bool {
        self.barriers.is_empty() && self.waits.is_empty()
    }
}

impl AnalysisBase {
    /// §5.1 steps 3–6 over this base: seeds `R` (minus the sites in
    /// `excl`), grows it, orients the conflict set and recomputes the
    /// delay set. Nothing the base holds is built again. Returns the
    /// refinement's artifacts and the refined delay set (`D1` ∪ step 6).
    ///
    /// `opts.barrier_policy` may differ from the policy the base was built
    /// with (the base does not depend on it); `opts.procs` must not.
    pub fn refine(
        &self,
        cfg: &Cfg,
        opts: &SyncOptions,
        excl: &SyncExclusion,
    ) -> (SyncAnalysis, DelaySet) {
        let (r, aligned, mut counters) = self.precedence(cfg, opts, excl);
        // Step 2 happened in the base: D1 is D_SS restricted to pairs
        // with a synchronization side, so no query is left to count.
        counters.set(C::SyncD1Pairs, self.d1.len() as u64);
        counters.set(C::SyncD1BackpathQueries, 0);
        counters.set(C::SyncD1PrunedCandidates, 0);

        // Step 5: orient conflict edges.
        let mut oriented = self.conflicts.clone();
        let edges_before = oriented.num_directed_edges() as u64;
        for (a1, a2) in r.pairs() {
            oriented.remove_direction(a2, a1);
        }
        let directions_removed = edges_before - oriented.num_directed_edges() as u64;
        counters.set(C::SyncConflictDirectionsRemoved, directions_removed);

        // Step 6: final delay set with per-pair removals.
        let (mut delay, step6_stats) = self.recompute(&oriented, directions_removed > 0, &r, opts);
        delay.union_with(&self.d1);
        counters.set(C::SyncCandidatePairs, step6_stats.candidates);
        counters.set(C::SyncPrunedCandidates, step6_stats.pruned_candidates);
        counters.set(C::SyncBackpathQueries, step6_stats.backpath_queries);
        counters.set(C::SyncBfsFallbacks, step6_stats.bfs_fallbacks);
        counters.set(C::SyncRemovedBackpathNodes, step6_stats.removed_nodes);
        counters.set(C::SyncRefinedPairs, delay.len() as u64);
        counters.set(C::SyncOracleBuilds, step6_stats.oracle_builds);
        counters.set(C::SyncOracleSccs, step6_stats.sccs);
        counters.set(C::SyncClosureWordOrs, step6_stats.closure_word_ors);

        let sync = SyncAnalysis {
            precedence: r,
            aligned_barriers: aligned,
            oriented,
            counters,
        };
        (sync, delay)
    }

    /// Step 6 without `D1`: the pairs of `D_SS ∖ D1` that keep a back-path
    /// on `P ∪ oriented` once the accesses `r` or a common lock
    /// disqualifies are removed. The answer is a subset of `D_SS`
    /// (orientation and removals only cut paths) and is unioned with `D1`,
    /// so no other pair is asked. Unless step 5 removed a direction, the
    /// mirror copy is the base's, condensed already.
    fn recompute(
        &self,
        oriented: &ConflictSet,
        reoriented: bool,
        r: &Precedence,
        opts: &SyncOptions,
    ) -> (DelaySet, DelayQueryStats) {
        let candidates = self.delay_ss.minus(&self.d1);
        if candidates.is_empty() {
            return (candidates, DelayQueryStats::default());
        }
        let rebuilt = reoriented.then(|| MirrorClosure::build(oriented, &self.po));
        let closure = rebuilt.as_ref().unwrap_or(&self.closure);
        let oracle = BackPathOracle::oriented(&self.conflicts, oriented, r, &self.po, closure);
        // The removal set, word-parallel: successors of u in R,
        // predecessors of v in R (transposed row), and same-lock accesses —
        // with u and v themselves masked back out.
        let r_transposed = r.transpose();
        let removals = |u: AccessId, v: AccessId, out: &mut BitSet| {
            // w always after u, or always before v: cannot lie on a
            // back-path (whose accesses run after v and before u).
            out.union_words(r.row_words(u));
            out.union_words(r_transposed.row_words(v));
            self.guards.mark_removable_for_pair(u, v, out);
            out.remove(u.index());
            out.remove(v.index());
        };
        let step6 = DelayOptions {
            removals: Some(Box::new(removals)),
            threads: opts.threads,
        };
        let (delay, mut stats) = delay_set_over(&oracle, &candidates, &step6);
        if let Some(closure) = &rebuilt {
            stats.add_oracle_build(closure.build_stats());
        }
        (delay, stats)
    }

    /// §5.1 steps 3–4 alone: the precedence relation seeded from the
    /// post→wait edges and the aligned barriers (minus `excl`) and grown
    /// to its fixpoint, the aligned barrier sites, and the counters of
    /// both steps.
    pub(crate) fn precedence(
        &self,
        cfg: &Cfg,
        opts: &SyncOptions,
        excl: &SyncExclusion,
    ) -> (Precedence, Vec<AccessId>, AnalysisCounters) {
        let mut counters = AnalysisCounters::default();
        let (mut r, aligned) = self.seed_precedence(cfg, opts, excl, &mut counters);
        let seeded = r.len() as u64;
        grow_precedence(&self.anchors, &mut r);
        counters.set(C::SyncPrecedencePairs, r.len() as u64);
        counters.set(C::SyncPrecedenceDerived, r.len() as u64 - seeded);
        (r, aligned, counters)
    }

    /// Step 3: `R` holding only the matching post→wait edges and the
    /// aligned-barrier episode edges, and the aligned barrier sites.
    pub(crate) fn seed_precedence(
        &self,
        cfg: &Cfg,
        opts: &SyncOptions,
        excl: &SyncExclusion,
        counters: &mut AnalysisCounters,
    ) -> (Precedence, Vec<AccessId>) {
        let mut r = Precedence::new(cfg.accesses.len());
        let pw: Vec<(AccessId, AccessId)> = post_wait_edges(cfg)
            .into_iter()
            .filter(|(_, w)| !excl.waits.contains(w))
            .collect();
        counters.set(C::SyncPostWaitEdges, pw.len() as u64);
        for (p, w) in pw {
            r.insert(p, w);
        }
        let aligned: Vec<AccessId> = aligned_barriers_with(cfg, opts.barrier_policy, &self.pdom)
            .into_iter()
            .filter(|b| !excl.barriers.contains(b))
            .collect();
        counters.set(C::SyncAlignedBarriers, aligned.len() as u64);
        let be = barrier_precedence_edges(&self.po, &aligned);
        counters.set(C::SyncBarrierEdges, be.len() as u64);
        for (b1, b2) in be {
            r.insert(b1, b2);
        }
        (r, aligned)
    }
}

/// Matching post→wait precedence edges (step 3). A wait gets an edge only
/// when exactly one post site can release it — with several candidate
/// producers we cannot tell at compile time which instance will run first.
pub(crate) fn post_wait_edges(cfg: &Cfg) -> Vec<(AccessId, AccessId)> {
    let posts: Vec<(AccessId, &syncopt_ir::access::AccessInfo)> = cfg
        .accesses
        .iter()
        .filter(|(_, i)| i.kind == AccessKind::Post)
        .collect();
    let waits: Vec<(AccessId, &syncopt_ir::access::AccessInfo)> = cfg
        .accesses
        .iter()
        .filter(|(_, i)| i.kind == AccessKind::Wait)
        .collect();
    let mut out = Vec::new();
    for (w, wi) in &waits {
        let matching: Vec<AccessId> = posts
            .iter()
            .filter(|(_, pi)| {
                pi.var == wi.var && may_match_any_proc(pi.index.as_ref(), wi.index.as_ref())
            })
            .map(|(p, _)| *p)
            .collect();
        if let [only] = matching.as_slice() {
            out.push((*only, *w));
        }
    }
    out
}

/// The `D1` pairs step 4 chains through, with their dominance anchors
/// already decided — they depend on the program alone, not on the seeds,
/// so one computation serves every refinement of a base.
///
/// The producer-side anchor requires `b1` to **postdominate** `a1`: every
/// execution of `a1` is followed by the synchronization point `b1`, whose
/// delay edge then orders `a1`'s completion before `b1`. (The paper's text
/// says "`a1` dominates `b1`"; for its straight-line Figure 5 both
/// relations coincide, but postdominance is the direction that stays sound
/// when `a1` sits inside a branch — e.g. a guarded boundary read followed
/// by a barrier.) The consumer side keeps dominance: `b2 dom a2` ensures
/// every `a2` execution was preceded by the synchronization `b2`.
#[derive(Debug, Clone)]
pub struct D1Anchors {
    /// Row `a1` = `{b1 ≠ a1 : [a1, b1] ∈ D1, b1 postdom a1}`.
    producer: BitMatrix,
    /// Row `b2` = `{a2 ≠ b2 : [b2, a2] ∈ D1, b2 dom a2}`.
    consumer: BitMatrix,
}

impl D1Anchors {
    /// Classifies every `D1` pair once.
    pub fn compute(cfg: &Cfg, dom: &Dominators, pdom: &Dominators, d1: &DelaySet) -> Self {
        let n = cfg.accesses.len();
        let mut anchors = D1Anchors {
            producer: BitMatrix::new(n),
            consumer: BitMatrix::new(n),
        };
        for (x, y) in d1.pairs() {
            if x == y {
                continue;
            }
            let (px, py) = (cfg.accesses.info(x).pos, cfg.accesses.info(y).pos);
            let y_postdominates_x = if px.block == py.block {
                py.instr >= px.instr
            } else {
                pdom.dominates(py.block, px.block)
            };
            if y_postdominates_x {
                anchors.producer.set(x.index(), y.index());
            }
            if dom.pos_dominates(px, py) {
                anchors.consumer.set(x.index(), y.index());
            }
        }
        anchors
    }
}

/// Step-4 fixpoint: transitivity plus dominance-anchored chaining through
/// `D1`, as row ORs. For every `x`, until nothing changes:
///
/// * transitivity — `R(x, z)` adds `R`'s row of `z` to `x`'s;
/// * producer half-rule — `x →D1 b1` (anchored) adds `R`'s row of `b1`;
/// * consumer half-rule — `R(x, b2)` adds the anchored `D1` row of `b2`.
///
/// None of them derives the self pair `(x, x)`. The rules are monotone, so
/// the fixpoint is the same whatever order they fire in.
fn grow_precedence(anchors: &D1Anchors, r: &mut Precedence) {
    let n = r.n;
    let mut before = BitSet::new(n);
    let mut changed = true;
    while changed {
        changed = false;
        for x in 0..n {
            before.clear();
            before.union_words(r.m.row_words(x));
            for z in before.iter_ones() {
                r.m.or_row(x, z);
                r.m.or_row_words(x, anchors.consumer.row_words(z));
            }
            for b1 in anchors.producer.row_ones(x) {
                r.m.or_row(x, b1);
            }
            if !before.contains(x) {
                r.m.clear(x, x);
            }
            changed |= r.m.row_words(x) != before.words();
        }
    }
}

/// The step-4 fixpoint as three nested loops over single pairs — what
/// [`grow_precedence`] replaced, kept as the reference it is tested
/// against.
#[cfg(test)]
pub(crate) fn grow_precedence_reference(
    cfg: &Cfg,
    dom: &Dominators,
    pdom: &Dominators,
    d1: &DelaySet,
    r: &mut Precedence,
) {
    let pos = |a: AccessId| cfg.accesses.info(a).pos;
    let pos_postdom = |later: syncopt_ir::ids::Position, earlier: syncopt_ir::ids::Position| {
        if later.block == earlier.block {
            later.instr >= earlier.instr
        } else {
            pdom.dominates(later.block, earlier.block)
        }
    };
    let ids: Vec<AccessId> = cfg.accesses.ids().collect();
    let mut changed = true;
    while changed {
        changed = false;
        // Transitivity.
        for &x in &ids {
            for &z in &ids {
                if !r.contains(x, z) {
                    continue;
                }
                for &y in &ids {
                    if x != y && r.contains(z, y) && r.insert(x, y) {
                        changed = true;
                    }
                }
            }
        }
        // Producer half-rule: a1 →D1 b1 (b1 postdom a1), R(b1, a2).
        for &a1 in &ids {
            for &b1 in &ids {
                if a1 == b1 || !d1.contains(a1, b1) || !pos_postdom(pos(b1), pos(a1)) {
                    continue;
                }
                for &a2 in &ids {
                    if a2 != a1 && r.contains(b1, a2) && r.insert(a1, a2) {
                        changed = true;
                    }
                }
            }
        }
        // Consumer half-rule: R(a1, b2), b2 →D1 a2 (b2 dom a2).
        for &b2 in &ids {
            for &a2 in &ids {
                if b2 == a2 || !d1.contains(b2, a2) || !dom.pos_dominates(pos(b2), pos(a2)) {
                    continue;
                }
                for &a1 in &ids {
                    if a1 != a2 && r.contains(a1, b2) && r.insert(a1, a2) {
                        changed = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::shasha_snir;
    use crate::{analyze_with, Analysis};
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn run(src: &str) -> (Cfg, Analysis, DelaySet) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let ss = shasha_snir(&cfg);
        let sa = analyze_with(&cfg, &SyncOptions::default());
        (cfg, sa, ss)
    }

    fn find(cfg: &Cfg, kind: AccessKind, var: &str) -> AccessId {
        cfg.accesses
            .iter()
            .find(|(_, i)| {
                i.kind == kind && i.var.map(|v| cfg.vars.info(v).name == var).unwrap_or(false)
            })
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no {kind:?} access on {var}"))
    }

    /// Figure 5: post-wait synchronization removes the data-access delays.
    #[test]
    fn figure5_postwait_removes_data_delays() {
        let src = r#"
            shared int X; shared int Y; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) {
                    X = 1;      // a1
                    Y = 2;      // a2
                    post F;     // a3
                } else {
                    wait F;     // a4
                    v = Y;      // a5
                    v = X;      // a6
                }
            }
        "#;
        let (cfg, sa, ss) = run(src);
        let a1 = find(&cfg, AccessKind::Write, "X");
        let a2 = find(&cfg, AccessKind::Write, "Y");
        let a3 = find(&cfg, AccessKind::Post, "F");
        let a4 = find(&cfg, AccessKind::Wait, "F");
        let a5 = find(&cfg, AccessKind::Read, "Y");
        let a6 = find(&cfg, AccessKind::Read, "X");

        // Shasha–Snir alone delays the data pairs.
        assert!(ss.contains(a1, a2), "D_SS has the producer data delay");
        assert!(ss.contains(a5, a6), "D_SS has the consumer data delay");

        // D1 keeps the delays against the synchronization accesses.
        assert!(sa.d1.contains(a1, a3));
        assert!(sa.d1.contains(a2, a3));
        assert!(sa.d1.contains(a4, a5));
        assert!(sa.d1.contains(a4, a6));

        // R derives the cross-processor orderings.
        assert!(sa.sync.precedence.contains(a3, a4), "direct post→wait edge");
        assert!(sa.sync.precedence.contains(a1, a5), "inferred write→read");
        assert!(sa.sync.precedence.contains(a1, a6));
        assert!(sa.sync.precedence.contains(a2, a5));

        // The refined delay set drops the data-data delays.
        assert!(
            !sa.delay_sync.contains(a1, a2),
            "pipelining of X,Y writes allowed"
        );
        assert!(
            !sa.delay_sync.contains(a5, a6),
            "overlap of Y,X reads allowed"
        );

        // Refinement only removes delays, never invents new ones.
        assert!(sa.delay_sync.is_subset_of(&ss));
        assert!(sa.delay_sync.len() < ss.len());
    }

    /// Barrier phases: accesses in different phases need no delays.
    #[test]
    fn barrier_separates_phases() {
        let src = r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC + 1] = 1;   // phase 1 write (conflicts with reader)
                barrier;
                v = A[MYPROC];       // phase 2 read of neighbor's slot
                v = A[MYPROC + 2];
            }
        "#;
        let (cfg, sa, ss) = run(src);
        let w = find(&cfg, AccessKind::Write, "A");
        let reads: Vec<AccessId> = cfg
            .accesses
            .iter()
            .filter(|(_, i)| i.kind == AccessKind::Read)
            .map(|(id, _)| id)
            .collect();
        // Unrefined analysis delays the write against the barrier and the
        // barrier against the reads (kept in D1)...
        let b = find_barrier(&cfg);
        assert!(sa.d1.contains(w, b));
        // ... and the refined set orders write-before-read through the
        // barrier, so no read→read or write→read data delays remain.
        for &rd in &reads {
            assert!(
                sa.sync.precedence.contains(w, rd),
                "barrier should order {w} before {rd}"
            );
        }
        assert!(sa.delay_sync.is_subset_of(&ss));
        assert!(
            !sa.delay_sync.contains(reads[0], reads[1]),
            "phase-2 reads may overlap"
        );
    }

    fn find_barrier(cfg: &Cfg) -> AccessId {
        cfg.accesses
            .iter()
            .find(|(_, i)| i.kind == AccessKind::Barrier)
            .unwrap()
            .0
    }

    /// §5.3: accesses inside a critical region may overlap with each other.
    #[test]
    fn lock_guarded_accesses_overlap() {
        let src = r#"
            shared int X; shared int Y; lock l;
            fn main() {
                int v;
                lock l;
                v = X;      // guarded read
                Y = v + 1;  // guarded write (different variable)
                X = v + 2;  // guarded write
                unlock l;
            }
        "#;
        let (cfg, sa, ss) = run(src);
        let l = cfg.vars.by_name("l").unwrap();
        assert_eq!(sa.guards.guarded_by(l).len(), 3);
        let ry = find(&cfg, AccessKind::Read, "X");
        let wy = find(&cfg, AccessKind::Write, "Y");
        // Shasha–Snir delays the guarded pair (self-conflicting writes make
        // cycles through other processors' critical sections)...
        assert!(ss.contains(ry, wy));
        // ...but the lock rule removes same-lock accesses from back-paths.
        assert!(
            !sa.delay_sync.contains(ry, wy),
            "guarded accesses should overlap: {:?}",
            sa.delay_sync.pairs()
        );
        assert!(sa.delay_sync.is_subset_of(&ss));
    }

    #[test]
    fn unsynchronized_program_is_unchanged() {
        let src = r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Flag; v = Data; }
            }
        "#;
        let (cfg, sa, ss) = run(src);
        // No synchronization constructs: D1 is empty, R is empty, and the
        // refined set equals D_SS.
        assert!(sa.d1.is_empty());
        assert!(sa.sync.precedence.is_empty());
        assert_eq!(sa.delay_sync.pairs(), ss.pairs());
        assert_eq!(cfg.accesses.len(), 4);
    }

    #[test]
    fn multiple_posts_defeat_matching() {
        let src = r#"
            shared int X; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; post F; }
                else if (MYPROC == 1) { X = 2; post F; }
                else { wait F; v = X; }
            }
        "#;
        let (cfg, sa, _ss) = run(src);
        // Two candidate posts: no post→wait precedence edge.
        let w = find(&cfg, AccessKind::Wait, "F");
        let posts: Vec<AccessId> = cfg
            .accesses
            .iter()
            .filter(|(_, i)| i.kind == AccessKind::Post)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(posts.len(), 2);
        for p in posts {
            assert!(!sa.sync.precedence.contains(p, w));
        }
    }

    #[test]
    fn flag_array_posts_match_by_index() {
        let src = r#"
            shared int A[64]; flag F[64];
            fn main() {
                int v;
                A[MYPROC] = 1;
                post F[MYPROC];
                wait F[MYPROC + 1];
                v = A[MYPROC + 1];
            }
        "#;
        let (cfg, sa, ss) = run(src);
        let p = find(&cfg, AccessKind::Post, "F");
        let w = find(&cfg, AccessKind::Wait, "F");
        assert!(sa.sync.precedence.contains(p, w));
        let wr = find(&cfg, AccessKind::Write, "A");
        let rd = find(&cfg, AccessKind::Read, "A");
        assert!(sa.sync.precedence.contains(wr, rd));
        assert!(sa.delay_sync.is_subset_of(&ss));
        // Producer may pipeline its write with the post's... no: the write
        // must complete before the post (that is exactly D1).
        assert!(sa.delay_sync.contains(wr, p));
        // But the consumer's read needs no delay against its own write.
        assert!(!sa.delay_sync.contains(wr, rd) || ss.contains(wr, rd));
    }

    /// Figure 6: synchronization analysis disqualifies accesses from
    /// appearing in back-paths. The producer writes X then posts; the
    /// consumer waits then writes Y and finally X. Without the removal
    /// rule, the consumer's trailing X-write gives the producer pair
    /// (WriteX, Post) extra back-paths; with R computed, accesses ordered
    /// after the post cannot appear on a path that must *precede* it.
    #[test]
    fn figure6_accesses_disqualified_from_back_paths() {
        let src = r#"
            shared int X; shared int Y; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) {
                    X = 1;       // a1
                    v = Y;       // a2 (read Y)
                    post F;      // a3
                } else {
                    wait F;      // a4
                    Y = 2;       // a5 (conflicts with a2)
                    X = 3;       // a6 (conflicts with a1)
                }
            }
        "#;
        let (cfg, sa, ss) = run(src);
        let a1 = find(&cfg, AccessKind::Write, "X");
        let a2 = find(&cfg, AccessKind::Read, "Y");
        let a5 = find(&cfg, AccessKind::Write, "Y");
        let a6 = cfg
            .accesses
            .iter()
            .filter(|(_, i)| {
                i.kind == AccessKind::Write
                    && i.var.map(|v| cfg.vars.info(v).name == "X").unwrap_or(false)
            })
            .map(|(id, _)| id)
            .nth(1)
            .unwrap();
        // R orders the producer accesses before the consumer's.
        assert!(sa.sync.precedence.contains(a1, a6));
        assert!(sa.sync.precedence.contains(a2, a5) || sa.sync.precedence.contains(a1, a5));
        // The producer's data pair (a1, a2) needed a delay under D_SS
        // (back-path through the consumer's writes)...
        assert!(ss.contains(a1, a2), "D_SS: {:?}", ss.pairs());
        // ...which the refined analysis removes: the consumer accesses are
        // ordered after the post and cannot appear in a back-path to a1.
        assert!(
            !sa.delay_sync.contains(a1, a2),
            "refined: {:?}",
            sa.delay_sync.pairs()
        );
    }

    #[test]
    fn refined_delay_is_always_subset_of_shasha_snir() {
        for src in [
            "shared int X; fn main() { int v; X = 1; v = X; barrier; X = 2; }",
            r#"
            shared int X; shared int Y; flag F; lock l;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; post F; } else { wait F; v = X; }
                lock l; Y = 1; unlock l;
                barrier;
                v = Y;
            }
            "#,
            r#"
            shared double G[128];
            fn main() {
                int i; double t;
                for (i = 0; i < 4; i = i + 1) {
                    t = G[MYPROC + i];
                    G[MYPROC] = t;
                    barrier;
                }
            }
            "#,
        ] {
            let (_cfg, sa, ss) = run(src);
            assert!(
                sa.delay_sync.is_subset_of(&ss),
                "refinement must shrink: {src}"
            );
        }
    }
}
