//! The analysis base: everything about `P ∪ C` that the precedence seeds do
//! not change.
//!
//! The §4 set `D_SS` and the §5.1 step-2 set `D1` are back-path detection
//! over the *same* graph, and steps 3–6 only orient and prune that graph.
//! So the conflict set (with the interned subscript table its construction
//! leaves behind), the program order, the dominator trees, the condensed
//! mirror copy, `D_SS` itself, `D1` (its pairs with a synchronization side)
//! and the lock guards are built once per CFG, here, and every consumer —
//! [`AnalysisBase::refine`] for the full analysis and for each redundancy
//! probe of the lint engine, the race classifier's barrier-free re-run,
//! `explain`'s witnesses — reads them from the one [`AnalysisBase`] the
//! [`crate::Analysis`] carries.

use crate::affine::SubscriptTable;
use crate::conflict::ConflictSet;
use crate::cycle::MirrorClosure;
use crate::delay::DelaySet;
use crate::locks::{compute_lock_guards, LockGuards};
use crate::obs::{AnalysisCounter as C, AnalysisCounters};
use crate::sync::{D1Anchors, SyncOptions};
use syncopt_ir::cfg::Cfg;
use syncopt_ir::dom::Dominators;
use syncopt_ir::order::{BitSet, ProgramOrder};

/// The seed-independent half of an analysis (see the module docs).
#[derive(Debug, Clone)]
pub struct AnalysisBase {
    /// The conflict set `C` (unoriented).
    pub conflicts: ConflictSet,
    /// Every access's subscript in interned affine form: what code
    /// generation's same-processor location tests read.
    pub subscripts: SubscriptTable,
    /// Program order `P`, at block and at access level.
    pub po: ProgramOrder,
    /// Dominators of the CFG.
    pub dom: Dominators,
    /// Postdominators of the CFG.
    pub pdom: Dominators,
    /// The condensation of the unoriented mirror copy with its ancestor
    /// rows: what `D_SS` was read from, and what step 6 reads again when
    /// orientation removes no direction.
    pub closure: MirrorClosure,
    /// Shasha–Snir delay set (baseline, §4).
    pub delay_ss: DelaySet,
    /// §5.1 step-2 delay set: the pairs of `D_SS` with a synchronization
    /// access on either side.
    pub d1: DelaySet,
    /// The `D1` pairs step 4 chains through.
    pub anchors: D1Anchors,
    /// Lock guard information (§5.3).
    pub guards: LockGuards,
    /// Work counters of the build (the `conflict.*` and `cycle.*` ones).
    pub counters: AnalysisCounters,
}

impl AnalysisBase {
    /// Builds the base for `cfg`. Of `opts` only the processor count
    /// matters; the barrier policy and the thread count enter at
    /// [`AnalysisBase::refine`].
    pub fn build(cfg: &Cfg, opts: &SyncOptions) -> Self {
        let mut counters = AnalysisCounters::default();
        let dom = Dominators::compute(cfg);
        let pdom = Dominators::compute_post(cfg);
        let (conflicts, subscripts, conflict_stats) =
            ConflictSet::build_counted(cfg, opts.procs, &dom);
        counters.set(C::ConflictPairs, conflicts.num_unordered_pairs() as u64);
        counters.set(
            C::ConflictDirectedEdges,
            conflicts.num_directed_edges() as u64,
        );
        counters.set(C::ConflictPairTests, conflict_stats.pair_tests);
        counters.set(C::ConflictProcSteps, conflict_stats.proc_steps);

        let po = ProgramOrder::compute(cfg);
        // The rows of `D_SS` rest on §4's lemma, which needs `C` symmetric
        // (see `MirrorClosure::delay_ss`).
        debug_assert!(
            conflicts.is_symmetric(),
            "a fresh conflict set is symmetric"
        );
        let closure = MirrorClosure::build(&conflicts, &po);
        let (delay_ss, mut ss_stats) = closure.delay_ss(&po);
        ss_stats.add_oracle_build(closure.build_stats());
        counters.set(C::CycleCandidatePairs, ss_stats.candidates);
        counters.set(C::CyclePrunedCandidates, ss_stats.pruned_candidates);
        counters.set(C::CycleBackpathQueries, ss_stats.backpath_queries);
        counters.set(C::CycleBfsFallbacks, ss_stats.bfs_fallbacks);
        counters.set(C::CycleOracleBuilds, ss_stats.oracle_builds);
        counters.set(C::CycleSccs, ss_stats.sccs);
        counters.set(C::CycleClosureWordOrs, ss_stats.closure_word_ors);

        let mut sync_sites = BitSet::new(cfg.accesses.len());
        for (id, info) in cfg.accesses.iter() {
            if info.kind.is_sync() {
                sync_sites.insert(id.index());
            }
        }
        let d1 = delay_ss.touching(&sync_sites);
        let anchors = D1Anchors::compute(cfg, &dom, &pdom, &d1);
        let guards = compute_lock_guards(cfg, &dom, &d1);
        AnalysisBase {
            conflicts,
            subscripts,
            po,
            dom,
            pdom,
            closure,
            delay_ss,
            d1,
            anchors,
            guards,
            counters,
        }
    }
}
