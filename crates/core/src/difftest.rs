//! Differential tests: every fast path of the analysis against the
//! reference it replaced, over random programs, the five evaluation
//! kernels and the scaling generators.
//!
//! * the SCC/bitset back-path oracle against the naive per-query BFS
//!   ([`crate::cycle::naive`]);
//! * the linear guarded-collision solvers against the processor-pair
//!   enumeration ([`crate::conflict::reference`]);
//! * `D1` as a filter of `D_SS` against the sync-restricted candidate loop;
//! * the row-OR precedence fixpoint against the triple loop;
//! * every consumer of the shared [`AnalysisBase`] against a cold run.
//!
//! The random programs come from the shared seeded corpus in
//! [`crate::corpus`], so every run exercises the same programs with no
//! external crates and no flakiness.

use crate::conflict::{self, ConflictSet};
use crate::corpus::{corpus_program, CORPUS_SEEDS};
use crate::cycle::{compute_delay_set_counted, naive, BackPathOracle, DelayOptions};
use crate::obs::Counters;
use crate::sync::{
    analyze_sync, analyze_sync_excluding, grow_precedence_reference, post_wait_edges, SyncAnalysis,
    SyncExclusion, SyncOptions,
};
use crate::{analyze_with, classify_races, detect_races, AnalysisBase};
use syncopt_frontend::prepare_program;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::AccessId;
use syncopt_ir::lower::lower_main;
use syncopt_ir::order::ProgramOrder;
use syncopt_kernels::scaling::{generate, ScalingIdiom, ScalingParams};

fn lower(src: &str) -> Cfg {
    lower_main(&prepare_program(src).unwrap_or_else(|e| panic!("generator bug: {e}\n{src}")))
        .unwrap_or_else(|e| panic!("generator bug: {e}\n{src}"))
}

/// Asserts the fast and naive drivers agree on `cfg` for plain,
/// sync-restricted, and removal-bearing computations.
fn assert_equivalent(cfg: &Cfg, label: &str) {
    let po = ProgramOrder::compute(cfg);
    let conflicts = ConflictSet::build(cfg);

    // Plain Shasha–Snir (symmetric conflicts, no removals).
    let (fast, _) = compute_delay_set_counted(&conflicts, &po, &DelayOptions::default());
    let slow =
        naive::compute_delay_set_naive(cfg, &conflicts, &po, &naive::NaiveOptions::default());
    assert_eq!(fast.pairs(), slow.pairs(), "{label}: D_SS divergence");

    // D1 — the base filters D_SS; the reference restricts the candidates.
    let base = AnalysisBase::build(cfg, &SyncOptions::default());
    let d1_slow = naive::compute_delay_set_naive(
        cfg,
        &conflicts,
        &po,
        &naive::NaiveOptions {
            only_sync_pairs: true,
            removals: None,
        },
    );
    assert_eq!(base.delay_ss.pairs(), slow.pairs(), "{label}: base D_SS");
    assert_eq!(
        base.d1.pairs(),
        d1_slow.pairs(),
        "{label}: D1 != filter(D_SS)"
    );

    // Oriented conflicts + the §5.1-step-6 removal rule, both drivers
    // deriving removals from the same precedence relation.
    let sa = analyze_sync(cfg, &SyncOptions::default());
    let oriented = sa.oriented.clone();
    let n = cfg.accesses.len();
    let r_fast = sa.precedence.clone();
    let r_fast_t = r_fast.transpose();
    let guards_fast = sa.guards.clone();
    let (fast, _) = compute_delay_set_counted(
        &oriented,
        &po,
        &DelayOptions {
            removals: Some(Box::new(move |u, v, out| {
                out.union_words(r_fast.row_words(u));
                out.union_words(r_fast_t.row_words(v));
                guards_fast.mark_removable_for_pair(u, v, out);
                out.remove(u.index());
                out.remove(v.index());
            })),
            threads: 0,
        },
    );
    let r_slow = sa.precedence.clone();
    let guards_slow = sa.guards.clone();
    let slow = naive::compute_delay_set_naive(
        cfg,
        &oriented,
        &po,
        &naive::NaiveOptions {
            only_sync_pairs: false,
            removals: Some(Box::new(move |u, v| {
                let mut out = Vec::new();
                for idx in 0..n {
                    let w = AccessId::from_index(idx);
                    if w != u && w != v && (r_slow.contains(u, w) || r_slow.contains(w, v)) {
                        out.push(w);
                    }
                }
                for w in guards_slow.removable_for_pair(u, v) {
                    if w != u && w != v && !out.contains(&w) {
                        out.push(w);
                    }
                }
                out
            })),
        },
    );
    assert_eq!(fast.pairs(), slow.pairs(), "{label}: removal divergence");

    // Threaded runs must be byte-identical to serial.
    for threads in 2..=4 {
        let (threaded, _) = compute_delay_set_counted(
            &conflicts,
            &po,
            &DelayOptions {
                threads,
                ..DelayOptions::default()
            },
        );
        let (serial, _) = compute_delay_set_counted(&conflicts, &po, &DelayOptions::default());
        assert_eq!(
            serial.pairs(),
            threaded.pairs(),
            "{label}: threads={threads} divergence"
        );
    }
}

#[test]
fn random_programs_match_naive_reference() {
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let cfg = lower(&src);
        assert_equivalent(&cfg, &format!("seed {seed}\n{src}"));
    }
}

#[test]
fn evaluation_kernels_match_naive_reference() {
    for kernel in syncopt_kernels::all_kernels(4) {
        let cfg = lower(&kernel.source);
        assert_equivalent(&cfg, kernel.name);
    }
}

#[test]
fn scaling_idioms_match_naive_reference() {
    for idiom in [ScalingIdiom::Stencil, ScalingIdiom::Flag] {
        let p = ScalingParams {
            idiom,
            unroll: 8,
            procs: 4,
        };
        let cfg = lower(&generate(&p).source);
        assert_equivalent(&cfg, &p.id());
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

fn assert_fixpoints_agree(cfg: &Cfg, opts: &SyncOptions, label: &str) {
    let base = AnalysisBase::build(cfg, opts);
    let full = base.refine(cfg, opts, &SyncExclusion::default());
    for excl in exclusions(cfg, &full) {
        let (fast, _, _) = base.precedence(cfg, opts, &excl);
        let (mut slow, _) = base.seed_precedence(cfg, opts, &excl, &mut Counters::new());
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

fn assert_same_sync(a: &SyncAnalysis, b: &SyncAnalysis, label: &str) {
    assert_eq!(a.d1.pairs(), b.d1.pairs(), "{label}: d1");
    assert_eq!(
        a.precedence.pairs(),
        b.precedence.pairs(),
        "{label}: precedence"
    );
    assert_eq!(a.aligned_barriers, b.aligned_barriers, "{label}: aligned");
    assert_eq!(a.delay.pairs(), b.delay.pairs(), "{label}: delay");
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
    // A lint probe over the analysis's base is the cold excluded analysis.
    for excl in exclusions(cfg, &analysis.sync) {
        let warm = analysis.base.refine(cfg, opts, &excl);
        let cold = analyze_sync_excluding(cfg, opts, &excl);
        assert_same_sync(&warm, &cold, &format!("{label} under {excl:?}"));
    }
    // Classifying from the analysis is detecting from scratch.
    let warm = classify_races(cfg, &analysis, opts);
    let cold = detect_races(cfg, opts);
    assert_eq!(warm.races, cold.races, "{label}: races");
    assert_eq!(warm.ordered, cold.ordered, "{label}: ordered pairs");
    // The base's oracle finds the witnesses `explain` used to find with
    // an oracle of its own.
    let (conflicts, po) = (
        ConflictSet::build_bounded(cfg, opts.procs),
        ProgramOrder::compute(cfg),
    );
    let (warm, cold) = (analysis.base.oracle(), BackPathOracle::new(&conflicts, &po));
    for (u, v) in analysis.delay_ss.pairs() {
        assert_eq!(
            warm.witness(u, v, &[]),
            cold.witness(u, v, &[]),
            "{label}: witness of ({u}, {v})"
        );
    }
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
    // One closure for D_SS (none for D1), one for step 6.
    assert_eq!(analysis.metrics.get("cycle.oracle_builds"), 1);
    assert_eq!(analysis.metrics.get("sync.oracle_builds"), 1);
    assert_eq!(analysis.metrics.get("sync.d1_backpath_queries"), 0);
    assert_eq!(
        analysis.metrics.get("sync.d1_pairs"),
        analysis.d1.len() as u64
    );
}
