#![warn(missing_docs)]

//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): `table1`, `fig12`, `fig13`,
//! `litmus`, `delay_sizes`.

pub mod sweep;

use syncopt::{DelayChoice, OptLevel, Syncopt, SyncoptError};
use syncopt_kernels::Kernel;
use syncopt_machine::{EngineKind, MachineConfig, SimOutputs, SimResult};

/// The three Figure 12 configurations, in the paper's bar order.
pub const FIGURE12_LEVELS: [(&str, OptLevel, DelayChoice); 3] = [
    ("unoptimized", OptLevel::Pipelined, DelayChoice::ShashaSnir),
    ("pipelined", OptLevel::Pipelined, DelayChoice::SyncRefined),
    ("one-way", OptLevel::OneWay, DelayChoice::SyncRefined),
];

/// Compiles a kernel at the given level and simulates it.
///
/// # Errors
///
/// Propagates pipeline errors.
///
/// # Panics
///
/// Panics if the kernel was generated for a different processor count than
/// `config.procs`.
pub fn run_kernel(
    kernel: &Kernel,
    config: &MachineConfig,
    level: OptLevel,
    choice: DelayChoice,
) -> Result<SimResult, SyncoptError> {
    assert_eq!(
        kernel.procs, config.procs,
        "kernel generated for a different machine size"
    );
    Ok(Syncopt::new(&kernel.source)
        .level(level)
        .delay(choice)
        .run(config)?
        .sim)
}

/// Like [`run_kernel`], but skips extraction of the final memory image
/// and barrier sequences ([`SimOutputs::lean`]) — the figure harnesses
/// only read cycle and message counts, so sweeping hundreds of
/// configurations does not pay for outputs nobody formats.
///
/// # Errors
///
/// Propagates pipeline errors.
///
/// # Panics
///
/// Panics if the kernel was generated for a different processor count than
/// `config.procs`.
pub fn run_kernel_lean(
    kernel: &Kernel,
    config: &MachineConfig,
    level: OptLevel,
    choice: DelayChoice,
) -> Result<SimResult, SyncoptError> {
    assert_eq!(
        kernel.procs, config.procs,
        "kernel generated for a different machine size"
    );
    let compiled = Syncopt::new(&kernel.source)
        .procs(config.procs)
        .level(level)
        .delay(choice)
        .compile()?;
    Ok(syncopt_machine::simulate_configured(
        &compiled.optimized.cfg,
        config,
        EngineKind::Calendar,
        SimOutputs::lean(),
    )?)
}

/// Renders a row of fixed-width right-aligned columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a simple ASCII horizontal bar of `frac` (0..=1) out of `width`.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.2) * width as f64).round() as usize;
    "#".repeat(n.min(width + width / 5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_kernels::all_kernels;

    #[test]
    fn figure12_levels_are_ordered_unopt_first() {
        assert_eq!(FIGURE12_LEVELS[0].0, "unoptimized");
        assert_eq!(FIGURE12_LEVELS[2].1, OptLevel::OneWay);
    }

    #[test]
    fn run_kernel_executes_every_kernel_small() {
        let config = MachineConfig::cm5(4);
        for kernel in all_kernels(4) {
            for (name, level, choice) in FIGURE12_LEVELS {
                let r = run_kernel(&kernel, &config, level, choice)
                    .unwrap_or_else(|e| panic!("{} at {name}: {e}", kernel.name));
                assert!(r.exec_cycles > 0);
            }
        }
    }

    #[test]
    fn optimization_monotonically_helps_on_kernels() {
        let config = MachineConfig::cm5(4);
        for kernel in all_kernels(4) {
            let unopt = run_kernel(
                &kernel,
                &config,
                OptLevel::Pipelined,
                DelayChoice::ShashaSnir,
            )
            .unwrap();
            let oneway =
                run_kernel(&kernel, &config, OptLevel::OneWay, DelayChoice::SyncRefined).unwrap();
            assert!(
                oneway.exec_cycles <= unopt.exec_cycles,
                "{}: one-way {} vs unopt {}",
                kernel.name,
                oneway.exec_cycles,
                unopt.exec_cycles
            );
            // Memory must be identical between levels.
            assert_eq!(unopt.memory, oneway.memory, "{}", kernel.name);
        }
    }

    #[test]
    fn lean_runner_matches_full_runner_timing() {
        let config = MachineConfig::cm5(4);
        for kernel in all_kernels(4) {
            let full = run_kernel(&kernel, &config, OptLevel::OneWay, DelayChoice::SyncRefined)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            let lean =
                run_kernel_lean(&kernel, &config, OptLevel::OneWay, DelayChoice::SyncRefined)
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            assert_eq!(full.exec_cycles, lean.exec_cycles, "{}", kernel.name);
            assert_eq!(full.net, lean.net, "{}", kernel.name);
            assert!(!full.memory.is_empty(), "{}", kernel.name);
            assert!(lean.memory.is_empty(), "{}", kernel.name);
        }
    }

    #[test]
    fn bar_and_row_render() {
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(0.0, 10), "");
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
