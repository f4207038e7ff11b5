//! Weak-scaling sweep (ours, complementing Figure 13's strong scaling):
//! per-processor work held constant while the machine grows, so ideal
//! scaling is *flat* execution time. The transpose's all-to-all traffic
//! still grows with `P`, which is exactly what pipelining and one-way
//! conversion absorb.
//!
//! ```text
//! weak_scaling [--procs CAP] [--preset full|smoke] [--threads T]
//! ```
//!
//! Processor counts fan out across `--threads` workers with a fixed-order
//! merge, so the report is the same at any thread count. Budget minutes
//! for the full grid, whose 256- and 1024-processor points dominate it
//! (`--procs 64` caps it for a quick look, and the smoke preset keeps
//! only the first two points).

use syncopt_bench::sweep::{self, run_ordered};
use syncopt_bench::{row, run_kernel_lean, FIGURE12_LEVELS};
use syncopt_kernels::{epithel, KernelParams};
use syncopt_machine::MachineConfig;

fn main() {
    let opts = sweep::parse_args("weak_scaling");
    // Per-processor work is constant but the transpose volume is P², so
    // the large points dominate the sweep's wall clock.
    let proc_counts = opts.filter_counts(&[2u32, 4, 8, 16, 32, 64, 256, 1024], 2);
    println!("Weak scaling: Epithel, constant work per processor (CM-5)\n");
    let widths = [6, 14, 14, 14, 14];
    println!(
        "{}",
        row(
            &[
                "procs".into(),
                "unopt".into(),
                "pipelined".into(),
                "one-way".into(),
                "1-way/unopt".into(),
            ],
            &widths
        )
    );
    let points = run_ordered(&proc_counts, opts.threads, |&procs| {
        let kernel = epithel::generate(&KernelParams {
            procs,
            elements_per_proc: 16,
            steps: 4,
            work_per_element: 4,
        });
        let config = MachineConfig::cm5(procs);
        let mut cycles = [0u64; 3];
        for (i, (name, level, choice)) in FIGURE12_LEVELS.iter().enumerate() {
            cycles[i] = run_kernel_lean(&kernel, &config, *level, *choice)
                .unwrap_or_else(|e| panic!("{procs} procs at {name}: {e}"))
                .exec_cycles;
        }
        (procs, cycles)
    });
    for (procs, cycles) in points {
        println!(
            "{}",
            row(
                &[
                    procs.to_string(),
                    cycles[0].to_string(),
                    cycles[1].to_string(),
                    cycles[2].to_string(),
                    format!("{:.3}", cycles[2] as f64 / cycles[0] as f64),
                ],
                &widths
            )
        );
    }
    println!("\nFlat columns = perfect weak scaling; the optimized versions stay");
    println!("much closer to flat as the all-to-all volume grows with P.");
}
