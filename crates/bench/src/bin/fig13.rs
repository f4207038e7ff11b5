//! Regenerates **Figure 13** of the paper: speedup curves for the
//! Epithelial application kernel with varying degrees of optimization, as
//! the processor count grows (the paper plots 0–40 processors on a CM-5;
//! we extend the axis to 64 to show the curves flattening).
//!
//! Strong scaling: the total problem size is fixed, so per-processor
//! compute shrinks as `P` grows while the transpose's communication volume
//! grows — the optimized versions scale visibly better, as in the paper.
//!
//! ```text
//! fig13 [--procs CAP] [--preset full|smoke] [--threads T]
//! ```
//!
//! Processor counts fan out across `--threads` workers with a fixed-order
//! merge, so the report is the same at any thread count.

use syncopt_bench::sweep::{self, run_ordered};
use syncopt_bench::{row, run_kernel_lean, FIGURE12_LEVELS};
use syncopt_kernels::{epithel, KernelParams};
use syncopt_machine::MachineConfig;

/// Total elements across the machine (fixed for the sweep).
const TOTAL_ELEMS: u32 = 1152; // divisible by every processor count below

fn params(procs: u32) -> KernelParams {
    KernelParams {
        procs,
        elements_per_proc: TOTAL_ELEMS / procs,
        steps: 4,
        work_per_element: 5, // ×32 solver factor in the generator → 160 effective
    }
}

fn main() {
    let opts = sweep::parse_args("fig13");
    // Every count divides TOTAL_ELEMS; 48 and 64 extend past the paper's
    // 40-processor axis.
    let proc_counts = opts.filter_counts(&[1u32, 2, 4, 8, 16, 24, 32, 36, 48, 64], 3);
    println!("Figure 13: Epithel speedup vs processors (CM-5)\n");
    let widths = [6, 14, 14, 14, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "procs".into(),
                "unopt cycles".into(),
                "pipe cycles".into(),
                "1-way cycles".into(),
                "unopt spdup".into(),
                "pipe spdup".into(),
                "1-way spdup".into(),
            ],
            &widths
        )
    );
    let points = run_ordered(&proc_counts, opts.threads, |&procs| {
        let kernel = epithel::generate(&params(procs));
        let config = MachineConfig::cm5(procs);
        let mut cycles = [0u64; 3];
        for (i, (name, level, choice)) in FIGURE12_LEVELS.iter().enumerate() {
            let r = run_kernel_lean(&kernel, &config, *level, *choice)
                .unwrap_or_else(|e| panic!("{procs} procs at {name}: {e}"));
            cycles[i] = r.exec_cycles;
        }
        (procs, cycles)
    });
    let mut baseline1: Option<[u64; 3]> = None;
    for (procs, cycles) in points {
        let base = *baseline1.get_or_insert(cycles);
        println!(
            "{}",
            row(
                &[
                    procs.to_string(),
                    cycles[0].to_string(),
                    cycles[1].to_string(),
                    cycles[2].to_string(),
                    format!("{:.2}", base[0] as f64 / cycles[0] as f64),
                    format!("{:.2}", base[1] as f64 / cycles[1] as f64),
                    format!("{:.2}", base[2] as f64 / cycles[2] as f64),
                ],
                &widths
            )
        );
    }
    println!("\nspeedup = T(1 proc, same config) / T(P procs)");
    println!("The optimized versions scale better: pipelining hides the");
    println!("transpose latency and one-way stores halve its message count.");
}
