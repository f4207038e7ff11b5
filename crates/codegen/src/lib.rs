#![warn(missing_docs)]

//! Code generation and communication optimization (§6–§7 of the paper).
//!
//! [`optimize`] consumes a source CFG (blocking shared accesses) plus the
//! analysis results from `syncopt-core`, and produces a target CFG using
//! Split-C style split-phase operations. What it does, in order:
//!
//! 1. **split** — every blocking access becomes `get_ctr`/`put_ctr`
//!    followed immediately by `sync_ctr` (always legal);
//! 2. **remote-access elimination** (level `Full`) — four sweeps over the
//!    freshly split CFG: redundant-`get` reuse within a block, the same
//!    across dominated blocks, put→get value forwarding, and write-back
//!    elimination of overwritten `put`s; then **cleanup**: constant
//!    folding, dead-code removal including *dead communication* (gets whose
//!    destination is never read);
//! 3. **message pipelining** — `sync_ctr`s are pushed forward through the
//!    CFG and initiations pulled backward, bounded by delay edges and local
//!    def-use constraints;
//! 4. **two-way → one-way conversion** (level `OneWay` and up) — a `put`
//!    whose syncs all land at barriers becomes an unacknowledged `store`.
//!
//! The passes ask a handful of questions per instruction pair — is there a
//! delay edge, is it the same location on this processor, is the
//! destination live — and each is an integer or bit test on a fact worked
//! out once: the delay set is a bit matrix, subscripts are the interned
//! classes of the analysis's `SubscriptTable`, dominators and block
//! reachability come with the analysis (no pass adds or removes a block),
//! the counter table, the loop structure and the iteration-injective
//! accesses are dense tables built once per call and lent to every pass,
//! and liveness is one bit-row fixpoint per cleanup round.
//!
//! [`fences`] is the weak-memory backend: fence insertion covering a delay
//! set for weakly-ordered shared-memory machines (§9).
//!
//! The optimization levels mirror the paper's Figure 12 bars: the baseline
//! runs the same pipeline constrained by the Shasha–Snir delay set, the
//! optimized versions use the synchronization-refined set.

mod cleanup;
mod context;
mod elim;
pub mod fences;
mod motion;
mod oneway;
mod split;

use context::{steps, Ctx, LoopFacts};
use syncopt_core::Analysis;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::dom::Dominators;

/// How far to optimize. Each level includes the previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Keep blocking accesses exactly as lowered (reference semantics).
    Blocking,
    /// Split-phase conversion + sync motion + initiation motion.
    #[default]
    Pipelined,
    /// Pipelined plus put→store conversion at barriers.
    OneWay,
    /// OneWay plus remote-access elimination.
    Full,
}

/// Which delay set constrains the motion passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayChoice {
    /// The Shasha–Snir baseline `D_SS` (paper's "unoptimized" bar).
    ShashaSnir,
    /// The synchronization-refined delay set (§5).
    #[default]
    SyncRefined,
}

/// Counters describing what the optimizer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Blocking reads converted to split-phase gets.
    pub gets_split: usize,
    /// Blocking writes converted to split-phase puts.
    pub puts_split: usize,
    /// How many instruction slots all `sync_ctr`s moved forward, summed.
    pub sync_moves: usize,
    /// `sync_ctr` copies merged (rule 2b of §6).
    pub syncs_merged: usize,
    /// How many instruction slots initiations moved backward, summed.
    pub init_moves: usize,
    /// Puts converted to one-way stores.
    pub puts_to_stores: usize,
    /// Redundant gets replaced by local copies.
    pub gets_eliminated: usize,
    /// Overwritten puts removed (write-back).
    pub puts_eliminated: usize,
    /// Dead local assignments removed by cleanup.
    pub dead_locals_removed: usize,
    /// Gets whose destination was never read, removed with their syncs.
    pub dead_gets_removed: usize,
    /// Expressions simplified by constant folding.
    pub exprs_folded: usize,
}

/// The result of optimizing a program.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The transformed CFG (target IR).
    pub cfg: Cfg,
    /// What happened.
    pub stats: OptStats,
    /// The level that was applied.
    pub level: OptLevel,
}

/// The per-call context of optimizing `source` under `choice`.
fn context_for<'a>(
    source: &'a Cfg,
    analysis: &'a Analysis,
    choice: DelayChoice,
    ctrs: split::CtrMap,
) -> Ctx<'a> {
    Ctx {
        delay: match choice {
            DelayChoice::ShashaSnir => &analysis.delay_ss,
            DelayChoice::SyncRefined => &analysis.delay_sync,
        },
        subs: &analysis.subscripts,
        accesses: &source.accesses,
        dom: &analysis.dom,
        po: &analysis.po,
        ctrs,
    }
}

/// Runs the optimization pipeline at `level`, constrained by `delay`.
///
/// `analysis` must have been computed on `cfg` (same access table).
///
/// # Panics
///
/// Panics if `analysis` was computed for a different CFG (access-count
/// mismatch).
pub fn optimize(cfg: &Cfg, analysis: &Analysis, level: OptLevel, choice: DelayChoice) -> Optimized {
    assert_eq!(
        analysis.delay_ss.num_accesses(),
        cfg.accesses.len(),
        "analysis does not match this CFG"
    );
    let mut stats = OptStats::default();
    if level == OptLevel::Blocking {
        return Optimized {
            cfg: cfg.clone(),
            stats,
            level,
        };
    }
    let (mut out, ctrs) = split::split_phase(cfg, &mut stats);
    let ctx = context_for(cfg, analysis, choice, ctrs);
    // Elimination runs first, on the freshly split CFG where each
    // initiation still has its sync adjacent (the passes rely on that
    // layout to drop the right sync copies).
    let mut folded_dom = None;
    if level >= OptLevel::Full {
        let mut sweeps = elim::Sweeps::new(&ctx, out.vars.len());
        sweeps.reuse_gets(&mut out, &mut stats);
        elim::reuse_gets_across_blocks(&mut out, &ctx, &mut stats);
        // Forwarding may turn a get into a local assignment, which in turn
        // can unblock write-back elimination of the forwarded put.
        sweeps.forward_put_values(&mut out, &mut stats);
        sweeps.drop_overwritten_puts(&mut out, &mut stats);
        // A branch folded to a jump is the one edge code generation ever
        // changes; only then are the analysis's dominators not `out`'s.
        if cleanup::remove_dead_code(&mut out, &mut stats) {
            steps::count(|s| s.dominator_builds += 1);
            folded_dom = Some(Dominators::compute(&out));
        }
    }
    let loops = LoopFacts::build(&out, folded_dom.as_ref().unwrap_or(ctx.dom), &ctx);
    motion::move_syncs(&mut out, &ctx, &loops, &mut stats);
    motion::move_initiations(&mut out, &ctx, &loops, &mut stats);
    if level >= OptLevel::OneWay {
        oneway::convert_one_way(&mut out, &mut stats);
    }
    out.recompute_access_positions();
    debug_assert_eq!(out.validate(), Ok(()));
    Optimized {
        cfg: out,
        stats,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_core::{analyze, analyze_with, SyncOptions};
    use syncopt_frontend::prepare_program;
    use syncopt_ir::cfg::Instr;
    use syncopt_ir::lower::lower_main;

    fn pipeline(src: &str, level: OptLevel, choice: DelayChoice) -> Optimized {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        optimize(&cfg, &analysis, level, choice)
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Instr) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    /// Split + sync motion + initiation motion (+ one-way conversion) with
    /// no elimination, for the pass modules' own tests.
    pub(crate) fn motion_pipeline(
        source: &Cfg,
        analysis: &Analysis,
        choice: DelayChoice,
        one_way: bool,
    ) -> (Cfg, OptStats) {
        let mut stats = OptStats::default();
        let (mut cfg, ctrs) = split::split_phase(source, &mut stats);
        let ctx = context_for(source, analysis, choice, ctrs);
        let loops = LoopFacts::build(&cfg, ctx.dom, &ctx);
        motion::move_syncs(&mut cfg, &ctx, &loops, &mut stats);
        motion::move_initiations(&mut cfg, &ctx, &loops, &mut stats);
        if one_way {
            oneway::convert_one_way(&mut cfg, &mut stats);
        }
        cfg.recompute_access_positions();
        (cfg, stats)
    }

    #[test]
    fn blocking_level_is_identity() {
        let src = "shared int X; fn main() { int v; v = X; X = v + 1; }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let opt = optimize(
            &cfg,
            &analysis,
            OptLevel::Blocking,
            DelayChoice::SyncRefined,
        );
        assert_eq!(opt.cfg, cfg);
        assert_eq!(opt.stats, OptStats::default());
    }

    #[test]
    fn pipelined_level_splits_all_accesses() {
        let opt = pipeline(
            "shared int X; shared int Y; fn main() { int v; v = X; Y = v; }",
            OptLevel::Pipelined,
            DelayChoice::SyncRefined,
        );
        assert_eq!(opt.stats.gets_split, 1);
        assert_eq!(opt.stats.puts_split, 1);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::GetShared { .. })), 0);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::PutShared { .. })), 0);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::SyncCtr { .. })), 2);
    }

    #[test]
    fn one_way_conversion_at_barrier() {
        // A put whose sync can ride to the barrier becomes a store.
        let opt = pipeline(
            r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC + 1] = 7;
                work(100);
                barrier;
                v = A[MYPROC];
            }
            "#,
            OptLevel::OneWay,
            DelayChoice::SyncRefined,
        );
        assert_eq!(opt.stats.puts_to_stores, 1, "stats: {:?}", opt.stats);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::StoreInit { .. })), 1);
        assert_eq!(count(&opt.cfg, |i| matches!(i, Instr::PutInit { .. })), 0);
    }

    #[test]
    fn baseline_delay_choice_is_more_constrained() {
        // Post-wait protected producer/consumer: the refined set lets the
        // producer's two puts overlap; the baseline forces a sync between.
        let src = r#"
            shared int X; shared int Y; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; Y = 2; post F; }
                else { wait F; v = Y; v = X; }
            }
        "#;
        let base = pipeline(src, OptLevel::Pipelined, DelayChoice::ShashaSnir);
        let opt = pipeline(src, OptLevel::Pipelined, DelayChoice::SyncRefined);
        assert!(
            opt.stats.sync_moves > base.stats.sync_moves,
            "refined should move syncs further: base {:?} vs opt {:?}",
            base.stats,
            opt.stats
        );
    }

    /// The subscript questions and the liveness visits of one `Full`
    /// compile of `src` for 16 processors.
    fn steps_of(src: &str) -> steps::Steps {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze_with(
            &cfg,
            &SyncOptions {
                procs: Some(16),
                ..SyncOptions::default()
            },
        );
        steps::take();
        optimize(&cfg, &analysis, OptLevel::Full, DelayChoice::SyncRefined);
        steps::take()
    }

    /// Four times the text may cost five times the steps, not sixteen:
    /// every pass is a sweep. The passes before they shared one context
    /// asked a quadratic number of subscript questions.
    #[test]
    fn optimizer_work_is_linear_in_the_program_text() {
        use syncopt_kernels::scaling::{generate, ScalingIdiom, ScalingParams};
        let stencil = |unroll| {
            generate(&ScalingParams {
                idiom: ScalingIdiom::Stencil,
                unroll,
                procs: 16,
            })
            .source
        };
        let (small, large) = (steps_of(&stencil(32)), steps_of(&stencil(128)));
        assert!(small.subscript_tests > 0 && small.liveness_visits > 0);
        assert!(
            large.subscript_tests <= 5 * small.subscript_tests,
            "subscript tests: {small:?} -> {large:?}"
        );
        assert!(
            large.liveness_visits <= 5 * small.liveness_visits,
            "liveness visits: {small:?} -> {large:?}"
        );
        for steps in [small, large] {
            assert_eq!(
                steps.liveness_solves, steps.cleanup_rounds,
                "liveness is solved once per cleanup round"
            );
            assert_eq!(steps.dominator_builds, 0, "the analysis's dominators serve");
        }
    }

    /// A constant branch is the one way code generation changes an edge;
    /// the dominators are rebuilt then, and only then.
    #[test]
    fn a_folded_branch_rebuilds_the_dominators() {
        let src = r#"
            shared int A[64];
            fn main() {
                int i; int v;
                v = A[MYPROC + 1];
                while (2 < 1) { A[MYPROC] = v; }
                work(v);
            }
        "#;
        assert_eq!(steps_of(src).dominator_builds, 1);
    }
}
