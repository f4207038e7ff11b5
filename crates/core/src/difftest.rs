//! Differential tests: every fast path of the analysis against the
//! reference it replaced, over random programs, the five evaluation
//! kernels and the scaling generators.
//!
//! * the row form of the back-path analysis — `D_SS` and `D1` read off
//!   ancestor rows, step 6 asking only `D_SS ∖ D1` behind its `S_u`
//!   filter — against the naive per-query BFS ([`crate::cycle::naive`]),
//!   together with the `R` and the oriented `C` it runs on, under every
//!   single-site exclusion the lint engine probes and every thread count;
//! * the condensation of the sparse mirror copy `S ∪ C` against the
//!   closure of the full one, `P ∪ C`, and the witness search against
//!   the list-based BFS it used to be;
//! * the linear guarded-collision solvers against the processor-pair
//!   enumeration ([`crate::conflict::reference`]);
//! * the row-OR precedence fixpoint against the triple loop;
//! * every consumer of the shared [`AnalysisBase`] against a cold run.
//!
//! The random programs come from the shared seeded corpus in
//! [`crate::corpus`], so every run exercises the same programs with no
//! external crates and no flakiness.

use crate::conflict::{self, ConflictSet};
use crate::corpus::{corpus_program, CORPUS_SEEDS};
use crate::cycle::{naive, witness, MirrorClosure};
use crate::obs::AnalysisCounters;
use crate::sync::{
    grow_precedence_reference, post_wait_edges, Precedence, SyncAnalysis, SyncExclusion,
    SyncOptions,
};
use crate::{analyze_with, classify_races, detect_races, AnalysisBase, DelaySet};
use syncopt_frontend::prepare_program;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::AccessId;
use syncopt_ir::lower::lower_main;
use syncopt_ir::order::{reachability_counted, Csr, ProgramOrder};
use syncopt_kernels::scaling::{generate, ScalingIdiom, ScalingParams};

fn lower(src: &str) -> Cfg {
    lower_main(&prepare_program(src).unwrap_or_else(|e| panic!("generator bug: {e}\n{src}")))
        .unwrap_or_else(|e| panic!("generator bug: {e}\n{src}"))
}

/// Every single-site exclusion the lint engine could probe, plus none.
fn exclusions(cfg: &Cfg, sync: &SyncAnalysis) -> Vec<SyncExclusion> {
    let mut out = vec![SyncExclusion::default()];
    for &b in &sync.aligned_barriers {
        out.push(SyncExclusion {
            barriers: vec![b],
            waits: vec![],
        });
    }
    for (_, w) in post_wait_edges(cfg) {
        out.push(SyncExclusion {
            barriers: vec![],
            waits: vec![w],
        });
    }
    out
}

/// The condensation of `S ∪ conflicts` reaches exactly what the closure
/// of the full mirror copy `P ∪ conflicts` reaches: `x ∈ Anc(y)` iff
/// `x ⇝ y` through every pair of `P`.
fn assert_condensation_matches(conflicts: &ConflictSet, po: &ProgramOrder, label: &str) {
    let n = conflicts.num_accesses();
    let full = naive::mirror_lists(conflicts, po);
    let (reach, _) = reachability_counted(&Csr::from_edges(n, |edge| {
        for (x, succs) in full.iter().enumerate() {
            succs.iter().for_each(|&y| edge(x, y));
        }
    }));
    let closure = MirrorClosure::build(conflicts, po);
    for y in 0..n {
        let column: Vec<usize> = (0..n).filter(|&x| reach.get(x, y)).collect();
        assert_eq!(
            closure.ancestors_of(y),
            column,
            "{label}: what reaches {y} in the mirror copy"
        );
    }
}

/// The step-6 removal set of `(u, v)` as a list, the way the naive driver
/// and `explain` take it.
fn removal_list(base: &AnalysisBase, r: &Precedence, u: AccessId, v: AccessId) -> Vec<AccessId> {
    let n = base.conflicts.num_accesses();
    let mut out: Vec<AccessId> = (0..n)
        .map(AccessId::from_index)
        .filter(|&w| w != u && w != v && (r.contains(u, w) || r.contains(w, v)))
        .collect();
    for w in base.guards.removable_for_pair(u, v) {
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

/// One refinement against the references: `R` by the triple loop, `C`
/// oriented pair by pair, and the refined delay set as the naive
/// per-query BFS over **every** program pair, unioned with `D1`.
fn assert_refinement_matches_naive(
    cfg: &Cfg,
    base: &AnalysisBase,
    opts: &SyncOptions,
    excl: &SyncExclusion,
    label: &str,
) {
    let n = cfg.accesses.len();
    let (sync, delay) = base.refine(cfg, opts, excl);
    let (mut r, _) = base.seed_precedence(cfg, opts, excl, &mut AnalysisCounters::default());
    grow_precedence_reference(cfg, &base.dom, &base.pdom, &base.d1, &mut r);
    assert_eq!(sync.precedence.pairs(), r.pairs(), "{label}: R");
    for a in (0..n).map(AccessId::from_index) {
        for b in (0..n).map(AccessId::from_index) {
            assert_eq!(
                sync.oriented.edge(a, b),
                base.conflicts.edge(a, b) && !r.contains(b, a),
                "{label}: oriented {a} → {b}"
            );
        }
    }
    let mut slow = naive::compute_delay_set_naive(
        cfg,
        &sync.oriented,
        &base.po,
        &naive::NaiveOptions {
            only_sync_pairs: false,
            removals: Some(Box::new(|u, v| removal_list(base, &r, u, v))),
        },
    );
    slow.union_with(&base.d1);
    assert_eq!(delay.pairs(), slow.pairs(), "{label}: refined delay set");
    for threads in [2, 3] {
        let (threaded, threaded_delay) = base.refine(cfg, &SyncOptions { threads, ..*opts }, excl);
        assert_eq!(
            threaded_delay.pairs(),
            delay.pairs(),
            "{label}: threads={threads}"
        );
        assert_eq!(
            threaded.counters, sync.counters,
            "{label}: threads={threads}"
        );
    }
}

/// The rows of one program at one width against the naive references:
/// `D_SS`, `D1`, both condensations, the witnesses `explain` prints, and
/// every refinement the lint engine can ask for.
fn assert_rows_match_naive(cfg: &Cfg, opts: &SyncOptions, label: &str) {
    let base = AnalysisBase::build(cfg, opts);
    let (conflicts, po) = (&base.conflicts, &base.po);
    let plain = naive::NaiveOptions::default();
    let d_ss = naive::compute_delay_set_naive(cfg, conflicts, po, &plain);
    assert_eq!(base.delay_ss.pairs(), d_ss.pairs(), "{label}: D_SS");
    let sync_only = naive::NaiveOptions {
        only_sync_pairs: true,
        removals: None,
    };
    let d1 = naive::compute_delay_set_naive(cfg, conflicts, po, &sync_only);
    assert_eq!(base.d1.pairs(), d1.pairs(), "{label}: D1 != filter(D_SS)");
    assert_condensation_matches(conflicts, po, label);

    let (full, full_delay) = base.refine(cfg, opts, &SyncExclusion::default());
    assert_condensation_matches(&full.oriented, po, &format!("{label} (oriented)"));
    let (lists, oriented_lists) = (
        naive::mirror_lists(conflicts, po),
        naive::mirror_lists(&full.oriented, po),
    );
    for (u, v) in base.delay_ss.pairs() {
        assert_eq!(
            witness(conflicts, po, u, v, &[]),
            naive::witness_naive(conflicts, &lists, u, v, &[]),
            "{label}: D_SS witness of ({u}, {v})"
        );
    }
    for (u, v) in full_delay.pairs() {
        let removed = removal_list(&base, &full.precedence, u, v);
        assert_eq!(
            witness(&full.oriented, po, u, v, &removed),
            naive::witness_naive(&full.oriented, &oriented_lists, u, v, &removed),
            "{label}: refined witness of ({u}, {v})"
        );
    }
    for excl in exclusions(cfg, &full) {
        assert_refinement_matches_naive(
            cfg,
            &base,
            opts,
            &excl,
            &format!("{label} under {excl:?}"),
        );
    }
}

fn with_procs(procs: Option<u32>) -> SyncOptions {
    SyncOptions {
        procs,
        ..SyncOptions::default()
    }
}

#[test]
fn random_programs_match_naive_reference() {
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let cfg = lower(&src);
        for procs in [None, Some(2), Some(3), Some(4), Some(5), Some(8)] {
            let label = format!("seed {seed} procs {procs:?}\n{src}");
            assert_rows_match_naive(&cfg, &with_procs(procs), &label);
        }
    }
}

#[test]
fn evaluation_kernels_match_naive_reference() {
    for procs in [4, 16, 64, 256] {
        for kernel in syncopt_kernels::all_kernels(procs) {
            let label = format!("{} p{procs}", kernel.name);
            assert_rows_match_naive(&lower(&kernel.source), &with_procs(Some(procs)), &label);
        }
    }
}

/// The scaling idioms along their unroll axis (the flag idiom's
/// trajectory ends at 64; 128 is one step past it).
#[test]
fn scaling_idioms_match_naive_reference() {
    for (idiom, procs) in [(ScalingIdiom::Stencil, 16), (ScalingIdiom::Flag, 4)] {
        for unroll in [4, 8, 16, 32, 64, 128] {
            let p = ScalingParams {
                idiom,
                unroll,
                procs,
            };
            let cfg = lower(&generate(&p).source);
            assert_rows_match_naive(&cfg, &with_procs(Some(procs)), &p.id());
        }
    }
}

// ---- the conflict set: linear solvers vs processor-pair enumeration -------

fn assert_conflicts_match_reference(cfg: &Cfg, procs: Option<u32>, label: &str) {
    let fast = ConflictSet::build_bounded(cfg, procs);
    let slow = conflict::reference::build_bounded(cfg, procs);
    for a in cfg.accesses.ids() {
        assert_eq!(
            fast.succ_row_words(a),
            slow.succ_row_words(a),
            "{label}: conflict row of {a} at procs {procs:?}"
        );
    }
}

const WIDTHS: [u32; 8] = [2, 3, 4, 7, 16, 64, 256, 1024];

#[test]
fn conflict_sets_of_kernels_and_generators_match_the_pair_enumeration() {
    for procs in WIDTHS {
        for kernel in syncopt_kernels::all_kernels(procs) {
            let label = format!("{} p{procs}", kernel.name);
            assert_conflicts_match_reference(&lower(&kernel.source), Some(procs), &label);
        }
        for (idiom, unroll) in [
            (ScalingIdiom::Stencil, 4),
            (ScalingIdiom::Stencil, 16),
            (ScalingIdiom::Flag, 4),
            (ScalingIdiom::Flag, 16),
        ] {
            let p = ScalingParams {
                idiom,
                unroll,
                procs,
            };
            assert_conflicts_match_reference(&lower(&generate(&p).source), Some(procs), &p.id());
        }
    }
}

#[test]
fn conflict_sets_of_corpus_programs_match_the_pair_enumeration() {
    for seed in 0..600 {
        let src = corpus_program(seed);
        let cfg = lower(&src);
        for procs in [None, Some(2), Some(4), Some(5), Some(8)] {
            assert_conflicts_match_reference(&cfg, procs, &format!("seed {seed}\n{src}"));
        }
    }
}

#[test]
fn conflict_sets_of_guard_shapes_match_the_pair_enumeration() {
    let shapes = [
        // `MYPROC == k` on both sides, same and different k, and else-sides.
        "shared int A[64]; fn main() { int v;
             if (MYPROC == 0) { A[MYPROC] = 1; A[3] = 1; } else { v = A[0]; v = A[MYPROC]; }
             if (MYPROC == 3) { A[MYPROC] = 2; } else { A[MYPROC + 1] = 2; } }",
        // Residue classes.
        "shared int A[64]; fn main() { int v;
             if (MYPROC % 4 == 1) { A[MYPROC] = 1; A[MYPROC + 4] = 1; }
             if (MYPROC % 4 == 3) { v = A[MYPROC - 2]; v = A[MYPROC + 2]; }
             if (MYPROC % 2 == 0) { A[MYPROC + 1] = 3; } else { A[MYPROC - 1] = 3; } }",
        // Guards no processor satisfies, and nested intersections.
        "shared int A[64]; shared int X; fn main() {
             if (MYPROC > 5000) { A[0] = 1; X = 1; }
             if (MYPROC < 0) { A[MYPROC] = 1; }
             if (MYPROC < 4) { if (MYPROC % 2 == 0) { A[2 * MYPROC] = 1; X = 2; } }
             A[0] = 2; X = 3; }",
        // One side constant (m2 == 0), hit and miss, under guards.
        "shared int A[64]; fn main() { int v;
             A[6] = 1; v = A[4 * MYPROC + 2]; v = A[4 * MYPROC + 3];
             if (MYPROC == 1) { v = A[6]; A[5] = 1; }
             if (MYPROC != 1) { A[4 * MYPROC + 2] = 1; } }",
        // Negative and non-dividing coefficients.
        "shared int A[256]; fn main() { int v;
             A[100 - MYPROC] = 1; v = A[MYPROC + 90]; v = A[100 - 2 * MYPROC];
             A[3 * MYPROC] = 1; v = A[2 * MYPROC + 1]; v = A[6 * MYPROC + 3];
             v = A[0 - 3 * MYPROC + 30]; }",
        // Loop-variant subscripts whose local coefficients share a factor.
        "shared int A[1024]; fn main() { int i; int v;
             for (i = 0; i < 4; i = i + 1) {
                 A[i * 8 + MYPROC] = 1; v = A[i * 8 + MYPROC + 1]; v = A[i * 16 + MYPROC + 8];
                 A[4 * i + 2 * MYPROC] = 1; v = A[4 * i + 2 * MYPROC + 1];
                 if (MYPROC % 2 == 0) { v = A[i * 8 + MYPROC + 2]; }
                 if (MYPROC == 2) { A[i * 8] = 1; }
             } }",
        // Locks and events under guards.
        "flag F[16]; lock l; shared int X; fn main() {
             if (MYPROC == 0) { lock l; X = 1; unlock l; post F[MYPROC]; }
             if (MYPROC == 0) { lock l; X = 2; unlock l; }
             if (MYPROC % 2 == 1) { wait F[MYPROC - 1]; lock l; X = 3; unlock l; } }",
    ];
    for src in shapes {
        let cfg = lower(src);
        for procs in [
            None,
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(7),
            Some(16),
            Some(64),
        ] {
            assert_conflicts_match_reference(&cfg, procs, src);
        }
    }
}

// ---- the precedence fixpoint: row ORs vs the triple loop -------------------

fn assert_fixpoints_agree(cfg: &Cfg, opts: &SyncOptions, label: &str) {
    let base = AnalysisBase::build(cfg, opts);
    let (full, _) = base.refine(cfg, opts, &SyncExclusion::default());
    for excl in exclusions(cfg, &full) {
        let (fast, _, _) = base.precedence(cfg, opts, &excl);
        let (mut slow, _) =
            base.seed_precedence(cfg, opts, &excl, &mut AnalysisCounters::default());
        grow_precedence_reference(cfg, &base.dom, &base.pdom, &base.d1, &mut slow);
        assert_eq!(fast.pairs(), slow.pairs(), "{label}: R under {excl:?}");
    }
}

#[test]
fn row_or_precedence_fixpoint_matches_the_triple_loop() {
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let opts = SyncOptions {
            procs: Some(4),
            ..SyncOptions::default()
        };
        assert_fixpoints_agree(&lower(&src), &opts, &format!("seed {seed}\n{src}"));
    }
    for kernel in syncopt_kernels::all_kernels(8) {
        let opts = SyncOptions {
            procs: Some(8),
            ..SyncOptions::default()
        };
        assert_fixpoints_agree(&lower(&kernel.source), &opts, kernel.name);
    }
}

// ---- consumers of the shared base vs a cold run ----------------------------

fn assert_same_sync(
    (a, a_delay): &(SyncAnalysis, DelaySet),
    (b, b_delay): &(SyncAnalysis, DelaySet),
    label: &str,
) {
    assert_eq!(
        a.precedence.pairs(),
        b.precedence.pairs(),
        "{label}: precedence"
    );
    assert_eq!(a.aligned_barriers, b.aligned_barriers, "{label}: aligned");
    assert_eq!(a_delay.pairs(), b_delay.pairs(), "{label}: delay");
    assert_eq!(a.counters, b.counters, "{label}: counters");
    for x in (0..a.oriented.num_accesses()).map(AccessId::from_index) {
        assert_eq!(
            a.oriented.succ_row_words(x),
            b.oriented.succ_row_words(x),
            "{label}: oriented row {x}"
        );
    }
}

fn assert_base_serves_cold_results(cfg: &Cfg, opts: &SyncOptions, label: &str) {
    let analysis = analyze_with(cfg, opts);
    let cold_base = AnalysisBase::build(cfg, opts);
    assert_eq!(analysis.d1.pairs(), cold_base.d1.pairs(), "{label}: d1");
    // A lint probe over the analysis's base is the cold excluded analysis.
    for excl in exclusions(cfg, &analysis.sync) {
        let warm = analysis.base.refine(cfg, opts, &excl);
        let cold = cold_base.refine(cfg, opts, &excl);
        assert_same_sync(&warm, &cold, &format!("{label} under {excl:?}"));
    }
    // Classifying from the analysis is detecting from scratch.
    let warm = classify_races(cfg, &analysis, opts);
    let cold = detect_races(cfg, opts);
    assert_eq!(warm.races, cold.races, "{label}: races");
    assert_eq!(warm.ordered, cold.ordered, "{label}: ordered pairs");
}

#[test]
fn the_shared_base_serves_what_a_cold_run_computes() {
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let opts = SyncOptions {
            procs: Some(4),
            ..SyncOptions::default()
        };
        assert_base_serves_cold_results(&lower(&src), &opts, &format!("seed {seed}\n{src}"));
    }
    for kernel in syncopt_kernels::all_kernels(8) {
        let opts = SyncOptions {
            procs: Some(8),
            ..SyncOptions::default()
        };
        assert_base_serves_cold_results(&lower(&kernel.source), &opts, kernel.name);
    }
}

#[test]
fn one_analysis_builds_each_base_artifact_once() {
    let kernel = &syncopt_kernels::all_kernels(8)[0];
    let analysis = analyze_with(&lower(&kernel.source), &SyncOptions::default());
    // One condensation for D_SS (none for D1), and one for step 6 only
    // when orientation removed a direction and step 6 has a pair to ask.
    let get = |key| analysis.metrics.get(key);
    assert_eq!(get("cycle.oracle_builds"), 1);
    assert_eq!(get("cycle.backpath_queries"), 0);
    assert_eq!(
        get("sync.oracle_builds"),
        u64::from(get("sync.conflict_directions_removed") > 0 && get("sync.candidate_pairs") > 0)
    );
    assert_eq!(analysis.metrics.get("sync.d1_backpath_queries"), 0);
    // Step 6 is asked D_SS ∖ D1 and nothing else.
    assert_eq!(
        analysis.metrics.get("sync.candidate_pairs"),
        (analysis.delay_ss.len() - analysis.d1.len()) as u64
    );
    assert_eq!(
        analysis.metrics.get("sync.d1_pairs"),
        analysis.d1.len() as u64
    );
}
