#![warn(missing_docs)]

//! Delay-set analysis for explicitly parallel SPMD programs.
//!
//! This crate is the reproduction of the analysis half of *Optimizing
//! Parallel Programs with Explicit Synchronization* (Krishnamurthy &
//! Yelick, PLDI 1995):
//!
//! * [`conflict`] — the conflict set `C` with affine subscript
//!   disambiguation ([`affine`]);
//! * [`cycle`] — Shasha–Snir cycle detection specialized to SPMD programs
//!   (the two-copy back-path construction), producing the baseline delay
//!   set `D_SS`;
//! * [`sync`] — the paper's contribution: refining the delay set with
//!   post-wait precedence, barrier alignment ([`barrier`]), and lock
//!   mutual exclusion ([`locks`]);
//! * [`base`] — the part of all that which is built once per CFG and
//!   shared by the refinement, the race classifier, the lint probes and
//!   `explain`.
//!
//! The one-stop entry point is [`analyze`]:
//!
//! ```
//! use syncopt_frontend::prepare_program;
//! use syncopt_ir::lower::lower_main;
//! use syncopt_core::analyze;
//!
//! let src = r#"
//!     shared int X; flag F;
//!     fn main() {
//!         int v;
//!         if (MYPROC == 0) { X = 1; post F; }
//!         else { wait F; v = X; }
//!     }
//! "#;
//! let cfg = lower_main(&prepare_program(src)?)?;
//! let analysis = analyze(&cfg);
//! // Synchronization analysis never grows the delay set.
//! assert!(analysis.delay_sync.is_subset_of(&analysis.delay_ss));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod affine;
pub mod barrier;
pub mod base;
pub mod cache;
pub mod conflict;
pub mod corpus;
pub mod cycle;
pub mod delay;
pub mod diag;
#[cfg(test)]
mod difftest;
pub mod explain;
pub mod guards;
pub mod lint;
pub mod locks;
pub mod obs;
pub mod races;
pub mod sync;
pub mod warnings;

pub use barrier::BarrierPolicy;
pub use base::AnalysisBase;
pub use cache::{ArtifactCache, CacheStats, KindStats};
pub use conflict::ConflictSet;
pub use cycle::shasha_snir;
pub use delay::DelaySet;
pub use diag::{apply_severity_overrides, sort_diagnostics, Diagnostic, Severity, KNOWN_CODES};
pub use explain::{
    explain, DropReason, DroppedPair, ExplainReport, KeptPair, SyncFact, EXPLAIN_SCHEMA,
};
pub use lint::{run_lints, FenceCheck, LintInput, LintReport, LINT_SCHEMA};
pub use obs::{AnalysisCounters, PhaseTimings, ANALYSIS_COUNTER_NAMES};
pub use races::{
    classify_races, detect_races, race_diagnostics, Confidence, RaceAnalysis, RaceReport,
};
pub use sync::{Precedence, SyncAnalysis, SyncOptions};
pub use warnings::{sync_warnings, warning_diagnostics, SyncWarning};

use syncopt_ir::cfg::Cfg;

/// Combined result of running both the baseline and the refined analysis.
///
/// Dereferences to its [`AnalysisBase`], so the seed-independent artifacts
/// read as fields of the analysis (`analysis.conflicts`,
/// `analysis.delay_ss`).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The seed-independent artifacts: conflict set, program order,
    /// dominators, the `D_SS` oracle, `D_SS`, `D1`, lock guards.
    pub base: AnalysisBase,
    /// Synchronization-refined delay set (§5).
    pub delay_sync: DelaySet,
    /// The detailed synchronization-analysis artifacts (the refined delay
    /// set is [`Analysis::delay_sync`]).
    pub sync: SyncAnalysis,
    /// Work counters from every analysis stage (`conflict.*`, `cycle.*`,
    /// `sync.*`, `delay.*`), for the pipeline observability report: every
    /// counter of [`ANALYSIS_COUNTER_NAMES`], each written once.
    pub metrics: AnalysisCounters,
}

impl std::ops::Deref for Analysis {
    type Target = AnalysisBase;

    fn deref(&self) -> &AnalysisBase {
        &self.base
    }
}

impl Analysis {
    /// Summary counters for reporting (delay-set sizes per kernel).
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            accesses: self.delay_ss.num_accesses(),
            conflict_pairs: self.conflicts.num_unordered_pairs(),
            delay_ss: self.delay_ss.len(),
            delay_sync: self.delay_sync.len(),
            precedence_pairs: self.sync.precedence.len(),
            aligned_barriers: self.sync.aligned_barriers.len(),
        }
    }
}

crate::counter_struct! {
    /// Summary counters of an [`Analysis`].
    pub struct AnalysisStats: usize {
        /// Number of access sites.
        accesses,
        /// Number of unordered conflicting pairs.
        conflict_pairs,
        /// Size of the Shasha–Snir delay set.
        delay_ss,
        /// Size of the refined delay set.
        delay_sync,
        /// Size of the precedence relation.
        precedence_pairs,
        /// Number of statically aligned barriers.
        aligned_barriers,
    }
}

/// Runs conflict construction, Shasha–Snir cycle detection, and the
/// synchronization-aware refinement with default options.
pub fn analyze(cfg: &Cfg) -> Analysis {
    analyze_with(cfg, &SyncOptions::default())
}

/// [`analyze`] for a program compiled for a fixed machine size: the known
/// processor count enables modular subscript disambiguation.
pub fn analyze_for(cfg: &Cfg, procs: u32) -> Analysis {
    analyze_with(
        cfg,
        &SyncOptions {
            procs: Some(procs),
            ..SyncOptions::default()
        },
    )
}

/// [`analyze`] with explicit options (e.g. the barrier policy): builds the
/// [`AnalysisBase`] once and refines it.
pub fn analyze_with(cfg: &Cfg, opts: &SyncOptions) -> Analysis {
    use obs::AnalysisCounter as C;
    let mut scratch =
        syncopt_ir::order::GraphScratch::with_capacity(cfg.accesses.len().max(cfg.num_blocks()));
    let base = AnalysisBase::build(cfg, opts, &mut scratch);
    let (sync, delay_sync) = base.refine(cfg, opts, &sync::SyncExclusion::default(), &mut scratch);
    let mut metrics = base.counters;
    metrics.merge(&sync.counters);
    metrics.set(C::DelaySsPairs, base.delay_ss.len() as u64);
    metrics.set(C::DelayRefinedPairs, delay_sync.len() as u64);
    metrics.set(
        C::DelayPairsDropped,
        base.delay_ss.len().saturating_sub(delay_sync.len()) as u64,
    );
    Analysis {
        base,
        delay_sync,
        sync,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    #[test]
    fn analyze_produces_consistent_stats() {
        let src = r#"
            shared int X; shared int Y; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; Y = 2; post F; }
                else { wait F; v = Y; v = X; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let a = analyze(&cfg);
        let s = a.stats();
        assert_eq!(s.accesses, cfg.accesses.len());
        assert!(s.delay_sync <= s.delay_ss);
        assert!(s.precedence_pairs > 0);
        assert!(a.delay_sync.is_subset_of(&a.delay_ss));
    }

    /// Every analysis writes each declared counter exactly once (a second
    /// write trips a debug assertion), over the corpus, the kernels and
    /// both barrier policies.
    #[test]
    fn every_analysis_writes_each_declared_counter() {
        let sources = (1..=220).map(corpus::corpus_program).chain(
            syncopt_kernels::all_kernels(4)
                .into_iter()
                .map(|k| k.source),
        );
        for src in sources {
            let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
            for barrier_policy in [BarrierPolicy::Static, BarrierPolicy::AssumeAligned] {
                let opts = SyncOptions {
                    barrier_policy,
                    procs: Some(4),
                    ..SyncOptions::default()
                };
                let a = analyze_with(&cfg, &opts);
                let missing: Vec<&str> = a.metrics.missing().collect();
                assert!(missing.is_empty(), "{missing:?} never written for\n{src}");
                assert_eq!(
                    a.metrics.get("delay.refined_pairs"),
                    a.delay_sync.len() as u64
                );
            }
        }
    }

    #[test]
    fn barrier_policy_changes_results() {
        // A barrier under a MYPROC branch: Static refuses it, AssumeAligned
        // uses it.
        let src = r#"
            shared int X;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; barrier; } else { barrier; v = X; }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let conservative = analyze_with(
            &cfg,
            &SyncOptions {
                barrier_policy: BarrierPolicy::Static,
                ..SyncOptions::default()
            },
        );
        let optimistic = analyze_with(
            &cfg,
            &SyncOptions {
                barrier_policy: BarrierPolicy::AssumeAligned,
                ..SyncOptions::default()
            },
        );
        assert_eq!(conservative.stats().aligned_barriers, 0);
        assert_eq!(optimistic.stats().aligned_barriers, 2);
        assert!(optimistic.delay_sync.len() <= conservative.delay_sync.len());
    }
}
