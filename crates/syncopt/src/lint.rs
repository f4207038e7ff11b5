//! Pipeline-level glue for the synchronization lint engine.
//!
//! The core passes ([`syncopt_core::lint`]) are pure analysis; this
//! module wires them to the codegen side: for every optimization level
//! it optimizes the program, exports the live delay pairs and planned
//! fences ([`syncopt_codegen::fences::export_fence_sites`]), and hands
//! the lot to [`syncopt_core::run_lints`] so the fence-coverage
//! verifier can check each level's output.

use syncopt_codegen::fences::{export_fence_sites, FenceSites};
use syncopt_codegen::{optimize, DelayChoice, OptLevel};
use syncopt_core::lint::FenceCheck;
use syncopt_core::{analyze_with, run_lints, Analysis, LintInput, LintReport, SyncOptions};
use syncopt_ir::cfg::Cfg;

/// The optimization levels the fence-coverage verifier checks.
pub const FENCE_LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];

/// A stable lowercase label for an optimization level (used in lint
/// messages and the JSON report).
pub use crate::report::level_label;

/// One optimization level's fence-verification artifacts: the optimized
/// CFG and the exported fence sites for it.
#[derive(Debug)]
pub struct FenceArtifacts {
    /// Level label (see [`level_label`]).
    pub label: &'static str,
    /// The optimized target CFG.
    pub cfg: Cfg,
    /// Live delay pairs and planned fences on that CFG.
    pub sites: FenceSites,
}

/// Optimizes `cfg` at every level in [`FENCE_LEVELS`] and exports the
/// fence-verification artifacts for each.
pub fn fence_artifacts(cfg: &Cfg, analysis: &Analysis) -> Vec<FenceArtifacts> {
    FENCE_LEVELS
        .iter()
        .map(|&level| {
            let opt = optimize(cfg, analysis, level, DelayChoice::SyncRefined);
            let sites = export_fence_sites(&opt.cfg, &analysis.delay_sync);
            FenceArtifacts {
                label: level_label(level),
                cfg: opt.cfg,
                sites,
            }
        })
        .collect()
}

/// Runs the full lint suite over an already-computed analysis,
/// including fence-coverage verification at every optimization level.
pub fn lint_with_analysis(cfg: &Cfg, analysis: &Analysis, opts: &SyncOptions) -> LintReport {
    let artifacts = fence_artifacts(cfg, analysis);
    let checks: Vec<FenceCheck<'_>> = artifacts
        .iter()
        .map(|a| FenceCheck {
            label: a.label,
            cfg: &a.cfg,
            delay: &a.sites.delay,
            fences: &a.sites.plan.fences,
        })
        .collect();
    run_lints(&LintInput {
        cfg,
        analysis,
        opts,
        fence_checks: &checks,
    })
}

/// Analyzes `cfg` with `opts` and runs the full lint suite.
pub fn lint_cfg(cfg: &Cfg, opts: &SyncOptions) -> LintReport {
    let analysis = analyze_with(cfg, opts);
    lint_with_analysis(cfg, &analysis, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn lint(src: &str) -> LintReport {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        lint_cfg(
            &cfg,
            &SyncOptions {
                procs: Some(4),
                ..SyncOptions::default()
            },
        )
    }

    #[test]
    fn kernels_have_no_fence_errors_at_any_level() {
        for kernel in syncopt_kernels::all_kernels(4) {
            let report = lint(&kernel.source);
            assert_eq!(report.fence_levels.len(), FENCE_LEVELS.len());
            let f001 = report
                .diagnostics
                .iter()
                .filter(|d| d.code == "F001")
                .count();
            assert_eq!(f001, 0, "{}: unexpected F001", kernel.name);
        }
    }

    #[test]
    fn lint_report_is_deterministic_across_threads() {
        let src = syncopt_kernels::all_kernels(4)
            .into_iter()
            .next()
            .unwrap()
            .source;
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let base = lint_cfg(
            &cfg,
            &SyncOptions {
                procs: Some(4),
                threads: 1,
                ..SyncOptions::default()
            },
        );
        let wide = lint_cfg(
            &cfg,
            &SyncOptions {
                procs: Some(4),
                threads: 4,
                ..SyncOptions::default()
            },
        );
        assert_eq!(
            base.to_json(&src, "k.ms", 4).to_string(),
            wide.to_json(&src, "k.ms", 4).to_string()
        );
    }
}
