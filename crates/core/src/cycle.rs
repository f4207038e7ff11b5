//! SPMD cycle detection — the back-path algorithm (§4, and the authors'
//! LCPC'94 SPMD reduction, reference 11).
//!
//! A delay `(u, v)` is required for a program edge `u ≤_P v` iff the graph
//! `P ∪ C` contains a *back-path* from `v` to `u` whose interior lies on
//! other processors. Because the program is SPMD, two copies of the program
//! suffice: a violation cycle spanning any number of processors folds onto
//!
//! * the **home copy** holding only `u` and `v`, and
//! * the **mirror copy** holding the remote accesses, connected internally
//!   by program-order edges (`P`, the remote processor executes the same
//!   code) and by conflict edges (`C`, for cycles through ≥ 3 processors).
//!
//! So `(u, v)` is a delay iff there exist accesses `x`, `y` with directed
//! conflict edges `v → x` and `y → u` such that `x = y` or `y'` is
//! reachable from `x'` inside the mirror copy.
//!
//! We check for *any* back-path rather than Shasha & Snir's *simple* paths
//! (testing simple paths is NP-hard in general). This yields a sufficient,
//! possibly slightly larger delay set — the standard practical compromise,
//! and exact for the two-processor patterns the paper's figures exercise.
//!
//! # Rows, not queries (see docs/PERFORMANCE.md §1)
//!
//! * The mirror copy is condensed over `S ∪ C`, where `S` is the sparse
//!   skeleton of `P` ([`ProgramOrder::skeleton`], `S⁺ = P`): same
//!   reachability, O(n + |C|) edges instead of O(n²). Its condensation
//!   keeps one **ancestor row** per component
//!   ([`syncopt_ir::order::Ancestors`]), `Anc(K) = {w : w ⇝ K}`.
//! * **`D_SS` is three rows ANDed per `u`.** §4's `C` is symmetric, so a
//!   conflict edge and its reverse put both ends in one cyclic component:
//!   `v → x ⇝ y → u` exists iff `v ⇝ u`, and
//!   `(u, v) ∈ D_SS ⟺ u <_P v ∧ u, v ∈ HasC ∧ v ∈ Anc(u)`
//!   ([`MirrorClosure::delay_ss`]). No pair is asked anything.
//! * **Step 6 asks only what `D_SS` kept** ([`delay_set_over`]): per `u`
//!   one row `S_u` of everything that reaches a conflict predecessor of
//!   `u`, per candidate `v` one word-intersection with `v`'s conflict
//!   successors; the removal set is built, and the BFS of
//!   [`BackPathOracle::query`] run, only for candidates that pass.
//! * The candidate loop shards deterministically over row ranges and runs
//!   on `std::thread::scope` threads when [`DelayOptions::threads`] > 1.

use crate::conflict::ConflictSet;
use crate::delay::DelaySet;
use crate::sync::Precedence;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::AccessId;
use syncopt_ir::order::{
    Ancestors, BitMatrix, BitSet, Csr, Graph, GraphScratch, ProgramOrder, ReachStats,
};

/// Options controlling one [`delay_set_over`] run.
#[derive(Default)]
pub struct DelayOptions<'a> {
    /// Per-candidate node removal: given the candidate `(u, v)`, marks
    /// access sites that cannot appear on a back-path and must be excluded
    /// from the mirror copy (§5.1 step 6 refinement, §5.3 lock rule) in
    /// the provided scratch bitset (cleared before each call).
    #[allow(clippy::type_complexity)]
    pub removals: Option<&'a (dyn Fn(AccessId, AccessId, &mut BitSet) + Sync)>,
    /// Worker threads for the candidate loop (0 and 1 both mean serial).
    /// Results are bit-identical for every thread count: shards cover
    /// disjoint `u`-ranges and merge in fixed order.
    pub threads: usize,
}

/// Everything derived from one mirror copy `S ∪ C` that a back-path
/// question reads: the condensation with its ancestor rows and the
/// conflict fan-in/out bitsets. It owns no reference to the graph it was
/// built from, so the analysis base can keep it beside the conflict set
/// and the program order.
#[derive(Debug, Clone)]
pub struct MirrorClosure {
    /// `Anc` per component of the mirror copy (no removals).
    anc: Ancestors,
    /// The accesses with ≥ 1 directed conflict successor, and those with
    /// ≥ 1 predecessor — the candidate-pruning oracle. For a symmetric `C`
    /// both are `HasC`.
    has_succ: BitSet,
    has_pred: BitSet,
}

impl MirrorClosure {
    /// Condenses the mirror copy of `po ∪ conflicts` over the skeleton of
    /// `po`. A program-order self-pair is not an edge (the skeleton's
    /// self-loops are dropped, as the diagonal of `P` always was); a
    /// self-conflict is. The condensation runs in `scratch`.
    pub fn build(conflicts: &ConflictSet, po: &ProgramOrder, scratch: &mut GraphScratch) -> Self {
        let n = conflicts.num_accesses();
        let anc = scratch.ancestors_of(&Mirror {
            skeleton: po.skeleton(),
            conflicts,
        });
        let mut has_succ = BitSet::new(n);
        let mut has_pred = BitSet::new(n);
        for a in 0..n {
            let row = conflicts.succ_row_words(AccessId::from_index(a));
            if row.iter().any(|&w| w != 0) {
                has_succ.insert(a);
                has_pred.union_words(row);
            }
        }
        MirrorClosure {
            anc,
            has_succ,
            has_pred,
        }
    }

    /// The accesses that reach `y` in the mirror copy, ascending.
    #[cfg(test)]
    pub(crate) fn ancestors_of(&self, y: usize) -> Vec<usize> {
        let words = self.anc.of(y);
        (0..self.has_succ.universe())
            .filter(|&x| words[x / 64] & (1 << (x % 64)) != 0)
            .collect()
    }

    /// Work counters from building the closure (components found, words
    /// ORed pushing the ancestor rows).
    pub fn build_stats(&self) -> ReachStats {
        self.anc.stats()
    }

    /// The Shasha–Snir set of the **symmetric** conflict set this closure
    /// was built from, row by row: for `u ∈ HasC`,
    /// `D_SS[u] = P[u] ∩ HasC ∩ Anc(u)`.
    ///
    /// Why: with `C` symmetric, `x ∈ C[v]` gives the cycle `v → x → v`, so
    /// `v`'s conflict neighbours share its component. A back-path
    /// `v → x ⇝ y → u` therefore exists iff `v ⇝ u` with `u`, `v` both
    /// having a conflict: `v → x ⇝ y → u` is such a walk, and from
    /// `v ⇝ u` any `x ∈ C[v]`, `y ∈ C[u]` give `x → v ⇝ u → y`.
    ///
    /// The counters keep their old meaning where one is left:
    /// `candidates` is `|P|`, `pruned_candidates` the pairs outside
    /// `HasC × HasC`; every other pair is decided by its row, so
    /// `backpath_queries` is 0.
    pub fn delay_ss(&self, po: &ProgramOrder) -> (DelaySet, DelayQueryStats) {
        let has_c = self.has_succ.words();
        let n = self.has_succ.universe();
        let mut m = BitMatrix::new(n);
        let mut stats = DelayQueryStats::default();
        let mut decided = 0u64;
        for u in 0..n {
            let p = po.succ_row_words(AccessId::from_index(u));
            stats.candidates += p.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            if has_c[u / 64] & (1 << (u % 64)) == 0 {
                continue;
            }
            let row = p.iter().zip(has_c).zip(self.anc.of(u));
            for (d, ((p, h), a)) in m.row_words_mut(u).iter_mut().zip(row) {
                decided += u64::from((p & h).count_ones());
                *d = p & h & a;
            }
        }
        let delay = DelaySet::from_matrix(m);
        stats.pruned_candidates = stats.candidates - decided;
        stats.delays_found = delay.len() as u64;
        (delay, stats)
    }
}

/// The mirror copy `S ∪ C` as the condensation walks it, with no edge
/// list built: each node's skeleton successors (its program-order
/// self-loop dropped), then its conflict successors ascending.
struct Mirror<'a> {
    skeleton: &'a Csr,
    conflicts: &'a ConflictSet,
}

impl Graph for Mirror<'_> {
    fn num_nodes(&self) -> usize {
        self.conflicts.num_accesses()
    }

    /// A cursor below the skeleton's length indexes it; past it, it is
    /// that length plus the first conflict column left to scan.
    #[inline]
    fn next_successor(&self, x: usize, cursor: u32) -> Option<(usize, u32)> {
        let skeleton = self.skeleton.successors(x);
        let mut at = cursor as usize;
        while let Some(&y) = skeleton.get(at) {
            at += 1;
            if y as usize != x {
                return Some((y as usize, at as u32));
            }
        }
        let row = self.conflicts.succ_row_words(AccessId::from_index(x));
        let column = at - skeleton.len();
        let mut wi = column / 64;
        let mut word = row.get(wi)? & (!0 << (column % 64));
        while word == 0 {
            wi += 1;
            word = *row.get(wi)?;
        }
        let y = wi * 64 + word.trailing_zeros() as usize;
        Some((y, (skeleton.len() + y + 1) as u32))
    }

    #[inline]
    fn for_each_successor(&self, x: usize, mut f: impl FnMut(usize)) {
        for &y in self.skeleton.successors(x) {
            if y as usize != x {
                f(y as usize);
            }
        }
        let row = self.conflicts.succ_row_words(AccessId::from_index(x));
        for (wi, &word) in row.iter().enumerate() {
            ones(wi, word).for_each(&mut f);
        }
    }
}

/// The mirror-copy graph with its [`MirrorClosure`]: answers back-path
/// queries.
pub struct BackPathOracle<'a> {
    /// The directed conflict edges the mirror copy follows.
    conflicts: &'a ConflictSet,
    /// The symmetric set `conflicts` was oriented from, and the precedence
    /// relation that oriented it (step 5 drops `a2 → a1` for
    /// `(a1, a2) ∈ R`), so `Cpred(u) = C[u] ∖ R[u]` needs no transpose.
    unoriented: &'a ConflictSet,
    precedence: Option<&'a Precedence>,
    po: &'a ProgramOrder,
    closure: &'a MirrorClosure,
    n: usize,
}

/// Reusable per-worker scratch for [`BackPathOracle::query`] — all
/// allocations happen once, none in the per-candidate hot loop.
pub struct BackPathScratch {
    /// The removal set for the next query; cleared and refilled by the
    /// driver before each call.
    pub removed: BitSet,
    /// `Cpred(u)` of the candidate row being asked.
    preds: BitSet,
    /// `S_u`: every access that is, or reaches, a member of `preds`.
    reaches_u: BitSet,
    /// Components already ORed into a row (dedup marker).
    comps: BitSet,
    /// The sets of a query that has removals to check, made at the first.
    bfs: Option<Bfs>,
    /// Queries that fell back to the blocked-node BFS (removals cut the
    /// cached reachability).
    pub bfs_fallbacks: u64,
}

/// The sets of one back-path query with removals.
struct Bfs {
    starts: BitSet,
    ends: BitSet,
    seen: BitSet,
    queue: Vec<usize>,
}

impl<'a> BackPathOracle<'a> {
    /// The oracle over a **symmetric** conflict set and the closure built
    /// from it.
    pub fn new(
        conflicts: &'a ConflictSet,
        po: &'a ProgramOrder,
        closure: &'a MirrorClosure,
    ) -> Self {
        BackPathOracle {
            conflicts,
            unoriented: conflicts,
            precedence: None,
            po,
            closure,
            n: conflicts.num_accesses(),
        }
    }

    /// The oracle over `oriented`, the symmetric `unoriented` with the
    /// direction `a2 → a1` removed for every `(a1, a2) ∈ precedence`
    /// (§5.1 step 5), and a closure built from `oriented` — or from
    /// `unoriented` when orientation removed nothing.
    pub fn oriented(
        unoriented: &'a ConflictSet,
        oriented: &'a ConflictSet,
        precedence: &'a Precedence,
        po: &'a ProgramOrder,
        closure: &'a MirrorClosure,
    ) -> Self {
        BackPathOracle {
            conflicts: oriented,
            unoriented,
            precedence: Some(precedence),
            po,
            closure,
            n: oriented.num_accesses(),
        }
    }

    /// A scratch sized for this oracle; one per worker thread.
    pub fn scratch(&self) -> BackPathScratch {
        BackPathScratch {
            removed: BitSet::new(self.n),
            preds: BitSet::new(self.n),
            reaches_u: BitSet::new(self.n),
            comps: BitSet::new(self.closure.anc.num_components()),
            bfs: None,
            bfs_fallbacks: 0,
        }
    }

    /// Whether `v` has at least one directed conflict successor (a
    /// back-path's first hop).
    pub fn has_conflict_succ(&self, v: AccessId) -> bool {
        self.closure.has_succ.contains(v.index())
    }

    /// Whether `u` has at least one directed conflict predecessor (a
    /// back-path's last hop).
    pub fn has_conflict_pred(&self, u: AccessId) -> bool {
        self.closure.has_pred.contains(u.index())
    }

    /// `out = Cpred(u)`, the directed conflict predecessors of `u`.
    fn preds_into(&self, u: AccessId, out: &mut BitSet) {
        out.clear();
        out.union_words(self.unoriented.succ_row_words(u));
        if let Some(r) = self.precedence {
            out.subtract_words(r.row_words(u));
        }
    }

    /// `out = set ∪ ⋃_{y ∈ set} Anc(y)`: everything that is, or reaches,
    /// a member of `set`.
    fn reaching_into(&self, set: &BitSet, comps: &mut BitSet, out: &mut BitSet) {
        out.clear();
        out.union_words(set.words());
        comps.clear();
        for y in set.iter_ones() {
            let c = self.closure.anc.component(y);
            if !comps.contains(c) {
                comps.insert(c);
                out.union_words(self.closure.anc.of_component(c));
            }
        }
    }

    /// Whether a back-path from `v` to `u` exists, excluding the accesses
    /// in `scratch.removed` from the mirror copy.
    pub fn query(&self, u: AccessId, v: AccessId, scratch: &mut BackPathScratch) -> bool {
        self.preds_into(u, &mut scratch.preds);
        self.query_from_preds(v, scratch)
    }

    /// [`BackPathOracle::query`] with `scratch.preds` already `Cpred(u)`.
    fn query_from_preds(&self, v: AccessId, scratch: &mut BackPathScratch) -> bool {
        let n = self.n;
        let Bfs {
            starts,
            ends,
            seen,
            queue,
        } = scratch.bfs.get_or_insert_with(|| Bfs {
            starts: BitSet::new(n),
            ends: BitSet::new(n),
            seen: BitSet::new(n),
            queue: Vec::with_capacity(n),
        });
        // starts = conflict succs of v, minus removed.
        starts.assign_and_not(self.conflicts.succ_row_words(v), &scratch.removed);
        if starts.is_empty() {
            return false;
        }
        // ends = conflict preds of u, minus removed.
        ends.assign_and_not(scratch.preds.words(), &scratch.removed);
        if ends.is_empty() {
            return false;
        }
        // Direct two-conflict-edge path through a single remote access.
        if starts.intersects(ends) {
            return true;
        }
        // Ancestor rows: ∃ y ∈ ends with starts ∩ Anc(y) ≠ ∅.
        scratch.comps.clear();
        let mut reachable = false;
        for y in ends.iter_ones() {
            let c = self.closure.anc.component(y);
            if !scratch.comps.contains(c) {
                scratch.comps.insert(c);
                if starts.intersects_words(self.closure.anc.of_component(c)) {
                    reachable = true;
                    break;
                }
            }
        }
        if scratch.removed.is_empty() || !reachable {
            // No removals: the rows are exact. With removals, a path
            // absent from the *unrestricted* graph cannot appear in the
            // restricted one.
            return reachable;
        }
        // Removals might cut every cached path: BFS avoiding removed
        // nodes.
        scratch.bfs_fallbacks += 1;
        seen.clear();
        queue.clear();
        for x in starts.iter_ones() {
            seen.insert(x);
            queue.push(x);
        }
        let mut qi = 0;
        while qi < queue.len() {
            let node = queue[qi];
            qi += 1;
            if ends.contains(node) {
                return true;
            }
            expand(
                self.conflicts,
                self.po,
                node,
                seen,
                &scratch.removed,
                queue,
                |_| {},
            );
        }
        false
    }

    /// Convenience wrapper over [`BackPathOracle::query`] with a removal
    /// slice (tests and one-off callers; the driver uses the scratch form).
    pub fn has_back_path(&self, u: AccessId, v: AccessId, removed: &[AccessId]) -> bool {
        let mut scratch = self.scratch();
        for r in removed {
            scratch.removed.insert(r.index());
        }
        self.query(u, v, &mut scratch)
    }
}

/// The set bits of `bits`, word `wi` of a row, as column indices.
fn ones(wi: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            wi * 64 + b
        })
    })
}

/// Pushes the not-yet-seen, unblocked mirror successors of `node` —
/// program-order ∪ conflict edges, ascending — onto `queue`.
fn expand(
    conflicts: &ConflictSet,
    po: &ProgramOrder,
    node: usize,
    seen: &mut BitSet,
    blocked: &BitSet,
    queue: &mut Vec<usize>,
    mut visit: impl FnMut(usize),
) {
    let a = AccessId::from_index(node);
    let (p, c) = (po.succ_row_words(a), conflicts.succ_row_words(a));
    for (wi, (p, c)) in p.iter().zip(c).enumerate() {
        let mut fresh = (p | c) & !seen.words()[wi] & !blocked.words()[wi];
        while fresh != 0 {
            let next = wi * 64 + fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            seen.insert(next);
            queue.push(next);
            visit(next);
        }
    }
}

/// One concrete back-path from `v` to `u` in the mirror copy of
/// `po ∪ conflicts` avoiding `removed`: the interior access chain
/// `[x, …, y]` with conflict edges `v → x` and `y → u`, or `None` when no
/// back-path exists.
///
/// The chain is a shortest path and deterministic — BFS over the full `P`
/// rows visits nodes in ascending id order — so it can serve as a pinned,
/// replayable provenance witness (`syncoptc explain`). It needs no
/// closure.
pub fn witness(
    conflicts: &ConflictSet,
    po: &ProgramOrder,
    u: AccessId,
    v: AccessId,
    removed: &[AccessId],
) -> Option<Vec<AccessId>> {
    let n = conflicts.num_accesses();
    let mut blocked = BitSet::new(n);
    for r in removed {
        blocked.insert(r.index());
    }
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut seen = BitSet::new(n);
    seen.assign_and_not(conflicts.succ_row_words(v), &blocked);
    let mut queue: Vec<usize> = seen.iter_ones().collect();
    let mut qi = 0;
    while qi < queue.len() {
        let node = queue[qi];
        qi += 1;
        if conflicts.edge(AccessId::from_index(node), u) {
            let mut chain = vec![AccessId::from_index(node)];
            let mut cur = node;
            while parent[cur] != usize::MAX {
                cur = parent[cur];
                chain.push(AccessId::from_index(cur));
            }
            chain.reverse();
            return Some(chain);
        }
        expand(
            conflicts,
            po,
            node,
            &mut seen,
            &blocked,
            &mut queue,
            |next| {
                parent[next] = node;
            },
        );
    }
    None
}

/// What one delay-set computation did — the raw material of the pipeline
/// observability report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayQueryStats {
    /// Ordered pairs considered: every program pair for `D_SS`, the
    /// candidate set for [`delay_set_over`].
    pub candidates: u64,
    /// Candidates pruned because `v` has no conflict successor or `u` has
    /// no conflict predecessor (no possible back-path).
    pub pruned_candidates: u64,
    /// Candidates that reached the `S_u` filter of [`delay_set_over`]
    /// (0 for `D_SS`, which is decided by rows).
    pub backpath_queries: u64,
    /// Queries that fell back to the blocked-node BFS.
    pub bfs_fallbacks: u64,
    /// Mirror-copy nodes excluded across all removal callbacks (§5.1
    /// step 6 / §5.3 lock rule) — built only for candidates that passed
    /// the filter.
    pub removed_nodes: u64,
    /// Delay pairs found.
    pub delays_found: u64,
    /// Mirror copies condensed.
    pub oracle_builds: u64,
    /// SCCs found while condensing the mirror copy.
    pub sccs: u64,
    /// `u64` words ORed pushing the ancestor rows.
    pub closure_word_ors: u64,
}

impl DelayQueryStats {
    /// Sums `other` into `self` (shard merge; all fields are additive).
    pub fn accumulate(&mut self, other: &DelayQueryStats) {
        self.candidates += other.candidates;
        self.pruned_candidates += other.pruned_candidates;
        self.backpath_queries += other.backpath_queries;
        self.bfs_fallbacks += other.bfs_fallbacks;
        self.removed_nodes += other.removed_nodes;
        self.delays_found += other.delays_found;
        self.oracle_builds += other.oracle_builds;
        self.sccs += other.sccs;
        self.closure_word_ors += other.closure_word_ors;
    }

    /// Books one mirror-closure build.
    pub fn add_oracle_build(&mut self, build: ReachStats) {
        self.oracle_builds += 1;
        self.sccs += build.sccs;
        self.closure_word_ors += build.closure_word_ors;
    }
}

/// The Shasha–Snir delay set `D_SS` of a **symmetric** conflict set (as
/// [`ConflictSet::build`] makes it): the rows of
/// [`MirrorClosure::delay_ss`].
pub fn compute_delay_set(conflicts: &ConflictSet, po: &ProgramOrder) -> DelaySet {
    compute_delay_set_counted(conflicts, po).0
}

/// [`compute_delay_set`], additionally reporting the work done.
pub fn compute_delay_set_counted(
    conflicts: &ConflictSet,
    po: &ProgramOrder,
) -> (DelaySet, DelayQueryStats) {
    debug_assert!(conflicts.is_symmetric(), "D_SS rows need a symmetric C");
    let closure = MirrorClosure::build(conflicts, po, &mut GraphScratch::default());
    let (delay, mut stats) = closure.delay_ss(po);
    stats.add_oracle_build(closure.build_stats());
    (delay, stats)
}

/// Back-path detection over `oracle` for the pairs of `candidates` outside
/// `except` only — §5.1 step 6 asks the pairs of `D_SS ∖ D1`, because its answer is a
/// subset of `D_SS` (removals and orientation only cut paths) that is
/// unioned with `D1` anyway.
///
/// Per candidate row `u`: one row `S_u = Cpred(u) ∪ ⋃_{y ∈ Cpred(u)} Anc(y)`;
/// per candidate `v`: one word-intersection `Csucc(v) ∩ S_u`, which is the
/// unrestricted answer. Only a candidate that passes builds its removal
/// set and, when that is non-empty, asks [`BackPathOracle::query`].
///
/// With `opts.threads > 1` the candidate rows are split into contiguous
/// shards processed by scoped worker threads; shard results merge in fixed
/// shard order, so the delay set and every counter are bit-identical to a
/// serial run. The caller books the oracle's build.
pub fn delay_set_over(
    oracle: &BackPathOracle<'_>,
    candidates: &DelaySet,
    except: Option<&DelaySet>,
    opts: &DelayOptions<'_>,
) -> (DelaySet, DelayQueryStats) {
    let n = oracle.n;
    // One shard: candidate rows `u ∈ range`, its own scratch and outputs.
    let run_shard = |lo: usize, hi: usize| -> (DelaySet, DelayQueryStats) {
        let mut scratch = oracle.scratch();
        let mut out = DelaySet::new(n);
        let mut stats = DelayQueryStats::default();
        for ui in lo..hi {
            let (row, skip) = (candidates.row_words(ui), except.map(|e| e.row_words(ui)));
            let word = |wi: usize| row[wi] & !skip.map_or(0, |skip| skip[wi]);
            let asked: u64 = (0..row.len())
                .map(|wi| u64::from(word(wi).count_ones()))
                .sum();
            if asked == 0 {
                continue;
            }
            stats.candidates += asked;
            let u = AccessId::from_index(ui);
            // Pruning: every back-path re-enters u over a conflict edge.
            if !oracle.has_conflict_pred(u) {
                stats.pruned_candidates += asked;
                continue;
            }
            oracle.preds_into(u, &mut scratch.preds);
            oracle.reaching_into(&scratch.preds, &mut scratch.comps, &mut scratch.reaches_u);
            for vi in (0..row.len()).flat_map(|wi| ones(wi, word(wi))) {
                let v = AccessId::from_index(vi);
                if !oracle.has_conflict_succ(v) {
                    stats.pruned_candidates += 1;
                    continue;
                }
                stats.backpath_queries += 1;
                if !scratch
                    .reaches_u
                    .intersects_words(oracle.conflicts.succ_row_words(v))
                {
                    continue;
                }
                scratch.removed.clear();
                if let Some(f) = &opts.removals {
                    f(u, v, &mut scratch.removed);
                }
                stats.removed_nodes += scratch.removed.count_ones() as u64;
                if scratch.removed.is_empty() || oracle.query_from_preds(v, &mut scratch) {
                    stats.delays_found += 1;
                    out.insert(u, v);
                }
            }
        }
        stats.bfs_fallbacks = scratch.bfs_fallbacks;
        (out, stats)
    };

    let threads = opts.threads.clamp(1, n.max(1));
    if threads <= 1 {
        run_shard(0, n)
    } else {
        let chunk = n.div_ceil(threads);
        let shards = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let run = &run_shard;
                    s.spawn(move || run(lo, hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("delay-set shard panicked"))
                .collect::<Vec<_>>()
        });
        // Merge in fixed shard order: shards cover disjoint u-rows, so
        // the union is identical for any thread count.
        let mut out = DelaySet::new(n);
        let mut stats = DelayQueryStats::default();
        for (shard_out, shard_stats) in &shards {
            out.union_with(shard_out);
            stats.accumulate(shard_stats);
        }
        (out, stats)
    }
}

/// The Shasha–Snir delay set: all-pairs back-path detection on the
/// unoriented conflict set.
pub fn shasha_snir(cfg: &Cfg) -> DelaySet {
    shasha_snir_bounded(cfg, None)
}

/// [`shasha_snir`] with a known processor count (modular subscript
/// disambiguation).
pub fn shasha_snir_bounded(cfg: &Cfg, procs: Option<u32>) -> DelaySet {
    let conflicts = ConflictSet::build_bounded(cfg, procs);
    let po = ProgramOrder::compute(cfg, &mut GraphScratch::default());
    compute_delay_set(&conflicts, &po)
}

/// The naive reference oracle — a direct transcription of the original
/// per-query BFS implementation, retained for differential testing only.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    /// Naive options: same knobs, `Vec`-based removals.
    #[derive(Default)]
    pub struct NaiveOptions<'a> {
        pub only_sync_pairs: bool,
        #[allow(clippy::type_complexity)]
        pub removals: Option<Box<dyn Fn(AccessId, AccessId) -> Vec<AccessId> + 'a>>,
    }

    /// Per-query BFS over the mirror copy, `Vec::contains` scans and all.
    fn has_back_path_naive(
        cfg: &Cfg,
        conflicts: &ConflictSet,
        mirror_adj: &[Vec<usize>],
        u: AccessId,
        v: AccessId,
        removed: &[AccessId],
    ) -> bool {
        let starts: Vec<AccessId> = conflicts
            .succs(v)
            .into_iter()
            .filter(|x| !removed.contains(x))
            .collect();
        if starts.is_empty() {
            return false;
        }
        let ends: Vec<AccessId> = conflicts
            .preds(u)
            .into_iter()
            .filter(|y| !removed.contains(y))
            .collect();
        if ends.is_empty() {
            return false;
        }
        for &x in &starts {
            if ends.contains(&x) {
                return true;
            }
        }
        let n = cfg.accesses.len();
        let mut blocked = vec![false; n];
        for r in removed {
            blocked[r.index()] = true;
        }
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for x in &starts {
            seen[x.index()] = true;
            queue.push(x.index());
        }
        let mut qi = 0;
        while qi < queue.len() {
            let node = queue[qi];
            qi += 1;
            if ends.iter().any(|y| y.index() == node) {
                return true;
            }
            for &next in &mirror_adj[node] {
                if !seen[next] && !blocked[next] {
                    seen[next] = true;
                    queue.push(next);
                }
            }
        }
        false
    }

    /// The mirror copy as adjacency lists, every pair of `P` an edge:
    /// `x → y` for `x <_P y` with `x ≠ y`, and for every conflict edge.
    pub fn mirror_lists(conflicts: &ConflictSet, po: &ProgramOrder) -> Vec<Vec<usize>> {
        let n = conflicts.num_accesses();
        let mut mirror_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (x, adj) in mirror_adj.iter_mut().enumerate() {
            let xa = AccessId::from_index(x);
            for y in 0..n {
                let ya = AccessId::from_index(y);
                let p_edge = x != y && po.access_precedes(xa, ya);
                let c_edge = conflicts.edge(xa, ya);
                if p_edge || c_edge {
                    adj.push(y);
                }
            }
        }
        mirror_adj
    }

    /// The original all-pairs driver: no pruning, no caching, no threads.
    pub fn compute_delay_set_naive(
        cfg: &Cfg,
        conflicts: &ConflictSet,
        po: &ProgramOrder,
        opts: &NaiveOptions<'_>,
    ) -> DelaySet {
        let n = cfg.accesses.len();
        let mirror_adj = mirror_lists(conflicts, po);
        let mut out = DelaySet::new(n);
        let is_sync: Vec<bool> = cfg
            .accesses
            .iter()
            .map(|(_, info)| info.kind.is_sync())
            .collect();
        for u in cfg.accesses.ids() {
            for v in cfg.accesses.ids() {
                if !po.access_precedes(u, v) {
                    continue;
                }
                if opts.only_sync_pairs && !is_sync[u.index()] && !is_sync[v.index()] {
                    continue;
                }
                let removed = match &opts.removals {
                    Some(f) => f(u, v),
                    None => Vec::new(),
                };
                if has_back_path_naive(cfg, conflicts, &mirror_adj, u, v, &removed) {
                    out.insert(u, v);
                }
            }
        }
        out
    }

    /// The witness search as the oracle used to run it: BFS over the
    /// adjacency lists, ascending, parents recorded on first sight.
    pub fn witness_naive(
        conflicts: &ConflictSet,
        mirror_adj: &[Vec<usize>],
        u: AccessId,
        v: AccessId,
        removed: &[AccessId],
    ) -> Option<Vec<AccessId>> {
        let n = mirror_adj.len();
        let blocked = |x: usize| removed.contains(&AccessId::from_index(x));
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for x in conflicts.succ_ones(v).filter(|&x| !blocked(x)) {
            seen[x] = true;
            queue.push(x);
        }
        let mut qi = 0;
        while qi < queue.len() {
            let node = queue[qi];
            qi += 1;
            if conflicts.edge(AccessId::from_index(node), u) {
                let mut chain = vec![node];
                while parent[*chain.last().unwrap()] != usize::MAX {
                    chain.push(parent[*chain.last().unwrap()]);
                }
                return Some(chain.into_iter().rev().map(AccessId::from_index).collect());
            }
            for &next in &mirror_adj[node] {
                if !seen[next] && !blocked(next) {
                    seen[next] = true;
                    parent[next] = node;
                    queue.push(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::access::AccessKind;
    use syncopt_ir::lower::lower_main;

    fn delays(src: &str) -> (Cfg, DelaySet) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let d = shasha_snir(&cfg);
        (cfg, d)
    }

    /// Finds the n-th access id (in program order of the table).
    fn a(cfg: &Cfg, i: usize) -> AccessId {
        cfg.accesses.ids().nth(i).unwrap()
    }

    #[test]
    fn figure1_flag_idiom_requires_both_delays() {
        // Figure 1: the figure-eight. Producer writes Data then Flag;
        // consumer reads Flag then Data. Both program edges need delays.
        let (cfg, d) = delays(
            r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Flag; v = Data; }
            }
            "#,
        );
        // a0 = Write Data, a1 = Write Flag, a2 = Read Flag, a3 = Read Data.
        assert!(d.contains(a(&cfg, 0), a(&cfg, 1)), "write side delay");
        assert!(d.contains(a(&cfg, 2), a(&cfg, 3)), "read side delay");
    }

    #[test]
    fn figure4_no_cycle_no_delay() {
        // Figure 4: both processors touch Data and then Flag in the *same*
        // order (writer writes both, reader reads both). P ∪ C has no
        // figure-eight, so no delay constraints are required.
        let (cfg, d) = delays(
            r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Data; v = Flag; }
            }
            "#,
        );
        assert_eq!(cfg.accesses.len(), 4);
        assert!(d.is_empty(), "unexpected delays: {:?}", d.pairs());
    }

    #[test]
    fn independent_variables_need_no_delay() {
        // Each processor works on its own array slot: no conflicts at all.
        let (cfg, d) = delays("shared int A[64]; fn main() { A[MYPROC] = 1; A[MYPROC] = 2; }");
        assert!(d.is_empty(), "unexpected delays: {:?}", d.pairs());
        assert_eq!(cfg.accesses.len(), 2);
    }

    #[test]
    fn racy_accumulate_requires_delays() {
        // Two unsynchronized writes to the same scalar from all processors,
        // interleaved with reads — classic cycle.
        let (_cfg, d) =
            delays("shared int X; shared int Y; fn main() { int v; X = 1; v = Y; Y = 2; }");
        assert!(!d.is_empty());
    }

    #[test]
    fn three_processor_cycle_detected() {
        // A cycle that needs ≥3 processors: proc 0 writes X reads Y, proc 1
        // writes Y reads Z, proc 2 writes Z reads X. As SPMD all branches
        // exist; the mirror-copy C edges make the multi-hop path visible.
        let (cfg, d) = delays(
            r#"
            shared int X; shared int Y; shared int Z;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; v = Y; }
                else if (MYPROC == 1) { Y = 1; v = Z; }
                else { Z = 1; v = X; }
            }
            "#,
        );
        // The write-X-then-read-Y edge needs a delay: back-path
        // v=readY →C writeY' →P readZ' →C writeZ'' →P readX'' →C writeX=u.
        let wx = cfg
            .accesses
            .iter()
            .find(|(_, i)| i.kind == AccessKind::Write && cfg.vars.info(i.var.unwrap()).name == "X")
            .unwrap()
            .0;
        let ry = cfg
            .accesses
            .iter()
            .find(|(_, i)| i.kind == AccessKind::Read && cfg.vars.info(i.var.unwrap()).name == "Y")
            .unwrap()
            .0;
        assert!(d.contains(wx, ry));
    }

    #[test]
    fn loop_carried_self_delay() {
        // A read and write of the same scalar inside a loop: successive
        // iterations are ordered both ways, and both delay directions hold.
        let (cfg, d) = delays(
            r#"
            shared int X;
            fn main() {
                int i; int v;
                for (i = 0; i < 4; i = i + 1) { v = X; X = v + 1; }
            }
            "#,
        );
        let read = cfg
            .accesses
            .iter()
            .find(|(_, i)| i.kind == AccessKind::Read)
            .unwrap()
            .0;
        let write = cfg
            .accesses
            .iter()
            .find(|(_, i)| i.kind == AccessKind::Write)
            .unwrap()
            .0;
        assert!(d.contains(read, write));
        assert!(d.contains(write, read), "loop-carried direction");
    }

    #[test]
    fn sync_pair_restriction_filters_data_pairs() {
        let src = r#"
            shared int Data; shared int Flag; flag f;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; post f; Flag = 1; }
                else { v = Flag; wait f; v = Data; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let mut sync_sites = BitSet::new(cfg.accesses.len());
        for (id, info) in cfg.accesses.iter() {
            if info.kind.is_sync() {
                sync_sites.insert(id.index());
            }
        }
        let d_ss = compute_delay_set(&conflicts, &po);
        let d1 = d_ss.touching(&sync_sites);
        let reference = naive::compute_delay_set_naive(
            &cfg,
            &conflicts,
            &po,
            &naive::NaiveOptions {
                only_sync_pairs: true,
                removals: None,
            },
        );
        assert_eq!(d1.pairs(), reference.pairs());
        let is_sync = |x: AccessId| cfg.accesses.info(x).kind.is_sync();
        assert!(!d1.is_empty());
        for (u, v) in d1.pairs() {
            assert!(is_sync(u) || is_sync(v), "non-sync pair ({u}, {v}) in D1");
        }
    }

    #[test]
    fn removals_can_break_back_paths() {
        let src = r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Flag; v = Data; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        // Removing the consumer-side reads destroys every back-path for the
        // producer edge (Write Data, Write Flag).
        let all: Vec<AccessId> = cfg.accesses.ids().collect();
        let reads: Vec<AccessId> = all
            .iter()
            .copied()
            .filter(|&x| cfg.accesses.info(x).kind == AccessKind::Read)
            .collect();
        let closure = MirrorClosure::build(&conflicts, &po, &mut GraphScratch::default());
        let (d_ss, _) = closure.delay_ss(&po);
        let remove_reads = |_: AccessId, _: AccessId, out: &mut BitSet| {
            for r in &reads {
                out.insert(r.index());
            }
        };
        let (d, stats) = delay_set_over(
            &BackPathOracle::new(&conflicts, &po, &closure),
            &d_ss,
            None,
            &DelayOptions {
                removals: Some(&remove_reads),
                threads: 0,
            },
        );
        let writes: Vec<AccessId> = all
            .iter()
            .copied()
            .filter(|&x| cfg.accesses.info(x).kind == AccessKind::Write)
            .collect();
        assert!(d_ss.contains(writes[0], writes[1]));
        assert!(!d.contains(writes[0], writes[1]));
        assert!(d.is_subset_of(&d_ss));
        assert_eq!(stats.candidates, d_ss.len() as u64);
    }

    #[test]
    fn pruning_skips_conflict_free_candidates_without_changing_results() {
        // Owner-computed array accesses have no conflicts; the interleaved
        // scalar pair does. Pruned candidates must not change the answer.
        let src = r#"
            shared int A[64]; shared int X;
            fn main() {
                int v;
                A[MYPROC] = 1;
                v = A[MYPROC];
                X = v;
                A[MYPROC] = 2;
                v = X;
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let (d, stats) = compute_delay_set_counted(&conflicts, &po);
        assert!(stats.pruned_candidates > 0, "{stats:?}");
        assert!(stats.candidates > stats.pruned_candidates, "{stats:?}");
        // D_SS is read off rows: nothing is asked pair by pair.
        assert_eq!(stats.backpath_queries, 0);
        assert_eq!(stats.delays_found, d.len() as u64);
        let reference =
            naive::compute_delay_set_naive(&cfg, &conflicts, &po, &naive::NaiveOptions::default());
        assert_eq!(d.pairs(), reference.pairs());
    }

    #[test]
    fn threaded_driver_is_bit_deterministic() {
        let src = r#"
            shared int X; shared int Y; shared int Z; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; Y = 2; post F; }
                else { wait F; v = Y; Z = v; v = X; v = Z; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let closure = MirrorClosure::build(&conflicts, &po, &mut GraphScratch::default());
        let oracle = BackPathOracle::new(&conflicts, &po, &closure);
        let (d_ss, _) = closure.delay_ss(&po);
        // Remove the even accesses other than the pair, so candidates that
        // pass the filter fall back to the BFS.
        let remove_evens = |u: AccessId, v: AccessId, out: &mut BitSet| {
            for x in 0..out.universe() {
                if x % 2 == 0 && x != u.index() && x != v.index() {
                    out.insert(x);
                }
            }
        };
        let run = |threads: usize| {
            delay_set_over(
                &oracle,
                &d_ss,
                None,
                &DelayOptions {
                    removals: Some(&remove_evens),
                    threads,
                },
            )
        };
        let (serial, serial_stats) = run(1);
        assert!(serial_stats.bfs_fallbacks > 0, "{serial_stats:?}");
        for threads in 2..=4 {
            let (threaded, threaded_stats) = run(threads);
            assert_eq!(serial.pairs(), threaded.pairs(), "threads={threads}");
            assert_eq!(serial_stats, threaded_stats, "threads={threads}");
        }
    }

    /// Without removals a query is the row bit: `v → x ⇝ y → u` exists
    /// exactly for the pairs `D_SS` holds.
    #[test]
    fn unrestricted_queries_answer_what_the_rows_hold() {
        let src = r#"
            shared int X; shared int Y; shared int A[64]; flag F;
            fn main() {
                int v; int i;
                A[MYPROC] = 1;
                for (i = 0; i < 3; i = i + 1) { X = i; v = Y; }
                if (MYPROC == 0) { Y = 1; post F; } else { wait F; v = X; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let closure = MirrorClosure::build(&conflicts, &po, &mut GraphScratch::default());
        let oracle = BackPathOracle::new(&conflicts, &po, &closure);
        let (d_ss, _) = closure.delay_ss(&po);
        assert!(!d_ss.is_empty());
        for u in cfg.accesses.ids() {
            for v in cfg.accesses.ids().filter(|&v| po.access_precedes(u, v)) {
                assert_eq!(
                    oracle.has_back_path(u, v, &[]),
                    d_ss.contains(u, v),
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn oracle_stats_report_sccs_and_closure_work() {
        // The owner write is a component of its own, which pushes its row
        // down to the scalar's.
        let src =
            "shared int X; shared int A[64]; fn main() { int v; A[MYPROC] = 1; X = 1; v = X; }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conflicts = ConflictSet::build(&cfg);
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let (_, stats) = compute_delay_set_counted(&conflicts, &po);
        assert_eq!(stats.oracle_builds, 1);
        assert!(stats.sccs >= 1);
        assert!(stats.closure_word_ors > 0);
    }
}
