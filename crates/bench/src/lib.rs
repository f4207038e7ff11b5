#![warn(missing_docs)]

//! The evaluation's tables and figures: [`FIGURES`] has one row per table
//! or figure of the paper's §8 and of the experiments this reproduction
//! adds, and the `figures` binary prints them by name ([`sweep`]).
//! `tests/experiments.rs` checks EXPERIMENTS.md against them byte for byte.

pub mod sweep;

use std::collections::BTreeSet;
use std::fmt::Write as _;

use syncopt::{DelayChoice, OptLevel, Syncopt, SyncoptError};
use syncopt_codegen::fences::{plan_covers, plan_fences};
use syncopt_codegen::optimize;
use syncopt_core::{analyze, analyze_for, analyze_with, BarrierPolicy, DelaySet, SyncOptions};
use syncopt_frontend::prepare_program;
use syncopt_ir::{lower::lower_main, Cfg};
use syncopt_kernels::{all_kernels, epithel, Kernel, KernelParams};
use syncopt_machine::litmus::{sc_outcomes, weak_outcomes, Outcome};
use syncopt_machine::{simulate, EngineKind, MachineConfig, SimOutputs, SimResult};

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

/// Starts a figure's text: its `title` lines, a blank line, and the header
/// row of the comma-separated column titles.
fn heading(title: &str, columns: &str, widths: &[usize]) -> String {
    let titles: Vec<String> = columns.split(',').map(str::to_string).collect();
    format!("{title}\n\n{}\n", row(&titles, widths))
}

/// Renders a simple ASCII horizontal bar of `frac` (0..=1) out of `width`.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.2) * width as f64).round() as usize;
    "#".repeat(n.min(width + width / 5))
}

/// One table or figure of the evaluation: a row of [`FIGURES`].
pub struct Figure {
    /// The name `figures` is given on the command line.
    pub name: &'static str,
    /// What the figure shows, in one line.
    pub about: &'static str,
    /// How `--procs` sizes the figure, and the function that draws it.
    pub(crate) draw: Draw,
}

/// How `--procs` sizes a figure, and the function returning its text.
#[derive(Clone, Copy)]
pub(crate) enum Draw {
    /// A fixed two-processor setup: `--procs` does not apply.
    Fixed(fn() -> String),
    /// One machine size, the default given: `--procs N` replaces it.
    Procs(u32, fn(u32) -> String),
    /// A processor-count axis, the default given: `--procs N` drops the
    /// counts above `N`.
    Axis(&'static [u32], fn(&[u32]) -> String),
}

/// Every table and figure `figures` prints, in print order.
pub static FIGURES: [Figure; 9] = [
    Figure {
        name: "table1",
        about: "Table 1: remote and local access latencies, configured and measured",
        draw: Draw::Fixed(table1),
    },
    Figure {
        name: "fig12",
        about: "Figure 12: normalized execution time and messages of the five kernels",
        draw: Draw::Procs(64, fig12),
    },
    Figure {
        name: "fig13",
        about: "Figure 13: Epithel speedup vs processors (strong scaling)",
        // Every count divides Epithel's 1152 elements; 48 and 64 extend
        // past the paper's 40-processor axis.
        draw: Draw::Axis(&[1, 2, 4, 8, 16, 24, 32, 36, 48, 64], fig13),
    },
    Figure {
        name: "delay_sizes",
        about: "delay-set sizes per kernel, Shasha-Snir vs refined",
        draw: Draw::Procs(64, delay_sizes),
    },
    Figure {
        name: "litmus",
        about: "Figures 1-5: weak vs sequentially consistent outcomes per delay set",
        draw: Draw::Fixed(litmus),
    },
    Figure {
        name: "ablation",
        about: "what each analysis and optimization ingredient buys, per kernel",
        draw: Draw::Procs(16, ablation),
    },
    Figure {
        name: "fences",
        about: "memory fences for a weakly-ordered shared-memory machine (§9)",
        draw: Draw::Procs(64, fences),
    },
    Figure {
        name: "machines",
        about: "optimization payoff on the three Table 1 machines",
        draw: Draw::Procs(16, machines),
    },
    Figure {
        name: "weak_scaling",
        about: "Epithel with constant work per processor (weak scaling)",
        // The transpose volume is P², so 256 and 1024 dominate the run.
        draw: Draw::Axis(&[2, 4, 8, 16, 32, 64, 256, 1024], weak_scaling),
    },
];

fn lower(src: &str) -> Cfg {
    lower_main(&prepare_program(src).expect("parse")).expect("lower")
}

/// Configured round trips of each machine preset beside what one blocking
/// read of a remote or local scalar measures on the simulator.
fn table1() -> String {
    fn measure(config: &MachineConfig, remote: bool) -> u64 {
        // X is homed on processor 0: processor 1 reads it remotely.
        let reader = usize::from(remote);
        let src =
            format!("shared int X; fn main() {{ if (MYPROC == {reader}) {{ int v; v = X; }} }}");
        let r = Syncopt::new(&src)
            .level(OptLevel::Blocking)
            .run(config)
            .expect("micro-benchmark must run");
        // Subtract the branch-evaluation cost to isolate the access.
        r.sim.proc_cycles[reader] - config.local_op_cycles
    }

    let widths = [8, 18, 18, 16, 16];
    let mut out = heading(
        "Table 1: access latencies for local and remote memory modules\n\
         (machine cycles; paper values: CM-5 400/30, T3D 85/23, DASH 110/26)",
        "machine,remote (config),remote (meas.),local (config),local (meas.)",
        &widths,
    );
    for config in MachineConfig::table1(2) {
        let cells = [
            config.name.clone(),
            config.remote_round_trip().to_string(),
            measure(&config, true).to_string(),
            config.local_access_cycles.to_string(),
            measure(&config, false).to_string(),
        ];
        let _ = writeln!(out, "{}", row(&cells, &widths));
    }
    out
}

/// The kernels at the three [`FIGURE12_LEVELS`], with the message counts
/// that show the acknowledgements one-way conversion removes (§2).
fn fig12(procs: u32) -> String {
    let config = MachineConfig::cm5(procs);
    let widths = [10, 13, 10, 7, 9, 9, 8];
    let mut out = heading(
        &format!(
            "Figure 12: normalized execution time, {procs} processors, {}\n\
             (bars: unoptimized = 1.0; paper reports 0.65-0.80 for the optimized code)",
            config.name
        ),
        "kernel,config,cycles,norm,msgs,acks,stores",
        &widths,
    );
    for kernel in all_kernels(procs) {
        let mut base = None;
        for (name, level, choice) in FIGURE12_LEVELS {
            let r = run_kernel_lean(&kernel, &config, level, choice)
                .unwrap_or_else(|e| panic!("{} at {name}: {e}", kernel.name));
            let norm = r.exec_cycles as f64 / *base.get_or_insert(r.exec_cycles) as f64;
            let cells = [
                kernel.name.into(),
                name.into(),
                r.exec_cycles.to_string(),
                format!("{norm:.3}"),
                r.net.total_messages().to_string(),
                r.net.put_acks.to_string(),
                r.net.store_requests.to_string(),
            ];
            let _ = writeln!(out, "{}  |{}", row(&cells, &widths), bar(norm, 40));
        }
        out.push('\n');
    }
    out + "norm < 1.0 means faster than the Shasha-Snir-only baseline.\n"
}

/// Epithel on a CM-5 at every count of `axis` and the three
/// [`FIGURE12_LEVELS`]: one row per count of the three cycle totals and
/// then their `ratios` against the first count's, under `head`.
/// `elements` gives the elements per processor at a count; `work` is the
/// work per element.
fn epithel_axis(
    axis: &[u32],
    elements: fn(u32) -> u32,
    work: u32,
    head: String,
    widths: &[usize],
    ratios: fn(&[u64; 3], &[u64; 3]) -> Vec<String>,
) -> String {
    let mut out = head;
    let mut first = None;
    for &procs in axis {
        let kernel = epithel::generate(&KernelParams {
            procs,
            elements_per_proc: elements(procs),
            steps: 4,
            work_per_element: work,
        });
        let config = MachineConfig::cm5(procs);
        let cycles = FIGURE12_LEVELS.map(|(name, level, choice)| {
            run_kernel_lean(&kernel, &config, level, choice)
                .unwrap_or_else(|e| panic!("{procs} procs at {name}: {e}"))
                .exec_cycles
        });
        let mut cells = vec![procs.to_string()];
        cells.extend(cycles.iter().map(u64::to_string));
        cells.extend(ratios(first.get_or_insert(cycles), &cycles));
        let _ = writeln!(out, "{}", row(&cells, widths));
    }
    out
}

/// Strong scaling: 1152 elements in total, so per-processor compute
/// shrinks while the transpose's communication grows.
fn fig13(axis: &[u32]) -> String {
    let widths = [6, 14, 14, 14, 12, 12, 12];
    let columns = "procs,unopt cycles,pipe cycles,1-way cycles,unopt spdup,pipe spdup,1-way spdup";
    let title = "Figure 13: Epithel speedup vs processors (CM-5)";
    // Work 5 is 160 effective after the generator's ×32 solver factor.
    epithel_axis(
        axis,
        |p| 1152 / p,
        5,
        heading(title, columns, &widths),
        &widths,
        |first, cycles| {
            (0..3)
                .map(|i| format!("{:.2}", first[i] as f64 / cycles[i] as f64))
                .collect()
        },
    ) + "\nspeedup = T(1 proc, same config) / T(P procs)\n\
          The optimized versions scale better: pipelining hides the\n\
          transpose latency and one-way stores halve its message count.\n"
}

/// Weak scaling: 16 elements per processor at every count, so perfect
/// scaling is flat time; the all-to-all transpose still grows with `P`.
fn weak_scaling(axis: &[u32]) -> String {
    let widths = [6, 14, 14, 14, 14];
    let columns = "procs,unopt,pipelined,one-way,1-way/unopt";
    let title = "Weak scaling: Epithel, constant work per processor (CM-5)";
    epithel_axis(
        axis,
        |_| 16,
        4,
        heading(title, columns, &widths),
        &widths,
        |_, cycles| vec![format!("{:.3}", cycles[2] as f64 / cycles[0] as f64)],
    ) + "\nFlat columns = perfect weak scaling; the optimized versions stay\n\
          much closer to flat as the all-to-all volume grows with P.\n"
}

/// The paper's "much smaller delay sets" (§8/§9), counted per kernel.
fn delay_sizes(procs: u32) -> String {
    let widths = [10, 9, 10, 8, 8, 11, 7, 9, 9];
    let mut out = heading(
        &format!("Delay-set sizes per kernel ({procs} processors)"),
        "kernel,accesses,conflicts,|D_SS|,|D|,reduction,|R|,barriers,guarded",
        &widths,
    );
    for kernel in all_kernels(procs) {
        let analysis = analyze_for(&lower(&kernel.source), procs);
        let s = analysis.stats();
        let guards = &analysis.sync.guards;
        let guarded: usize = guards.locks().map(|l| guards.guarded_by(l).len()).sum();
        let reduction = 100.0 * (s.delay_ss - s.delay_sync) as f64 / s.delay_ss.max(1) as f64;
        let cells = [
            kernel.name.into(),
            s.accesses.to_string(),
            s.conflict_pairs.to_string(),
            s.delay_ss.to_string(),
            s.delay_sync.to_string(),
            format!("{reduction:.0}%"),
            s.precedence_pairs.to_string(),
            s.aligned_barriers.to_string(),
            guarded.to_string(),
        ];
        let _ = writeln!(out, "{}", row(&cells, &widths));
    }
    out + "\n|D_SS| = Shasha-Snir delay pairs; |D| = after synchronization analysis;\n\
           |R| = derived precedence pairs; guarded = lock-guarded accesses (§5.3).\n"
}

/// The programs of [`litmus`]: name, description, source.
const LITMUS_CASES: [(&str, &str, &str); 4] = [
    (
        "figure1",
        "flag/data figure-eight (reads: Flag, Data)",
        "shared int Data; shared int Flag; fn main() { int v; int w;
         if (MYPROC == 0) { Data = 1; Flag = 1; } else { v = Flag; w = Data; } }",
    ),
    (
        "figure4",
        "same-order accesses, no delays required",
        "shared int Data; shared int Flag; fn main() { int v; int w;
         if (MYPROC == 0) { Data = 1; Flag = 1; } else { v = Data; w = Flag; } }",
    ),
    (
        "dekker",
        "store-buffer litmus (reads: Y, X)",
        "shared int X; shared int Y; fn main() { int v;
         if (MYPROC == 0) { X = 1; v = Y; } else { Y = 1; v = X; } }",
    ),
    (
        "figure5",
        "post-wait producer/consumer (reads: Y, X)",
        "shared int X; shared int Y; flag F; fn main() { int v; int w;
         if (MYPROC == 0) { X = 1; Y = 2; post F; } else { wait F; v = Y; w = X; } }",
    ),
];

/// The semantic figures (1–5), operationally: each litmus program's
/// sequentially consistent outcomes against its weak-machine outcomes
/// under no delays, the Shasha–Snir delays and the refined ones.
fn litmus() -> String {
    fn show(set: &BTreeSet<Outcome>, sc: Option<&BTreeSet<Outcome>>) -> String {
        let mut parts: Vec<String> = set.iter().map(|o| format!("{o:?}")).collect();
        if parts.len() > 6 {
            let extra = parts.len() - 6;
            parts.truncate(6);
            parts.push(format!("... (+{extra})"));
        }
        match sc {
            None => parts.join(" "),
            Some(sc) if set.is_subset(sc) => parts.join(" ") + "  [SC preserved]",
            Some(_) => parts.join(" ") + "  [SC VIOLATED]",
        }
    }

    let cases = LITMUS_CASES.map(|(name, description, src)| {
        let cfg = lower(src);
        let analysis = analyze(&cfg);
        let sc = sc_outcomes(&cfg, 2).expect("sc");
        let weak =
            |delays: &DelaySet| show(&weak_outcomes(&cfg, delays, 2).expect("weak"), Some(&sc));
        format!(
            "{name} — {description}\n  \
             SC outcomes:               {}\n  \
             no delays:                 {}\n  \
             Shasha-Snir delays ({:>3}):  {}\n  \
             refined delays     ({:>3}):  {}\n",
            show(&sc, None),
            weak(&DelaySet::new(cfg.accesses.len())),
            analysis.delay_ss.len(),
            weak(&analysis.delay_ss),
            analysis.delay_sync.len(),
            weak(&analysis.delay_sync),
        )
    });
    format!(
        "Litmus exploration: weak outcomes vs sequentially consistent outcomes\n\n{}",
        cases.join("\n")
    )
}

/// Each analysis and optimization ingredient toggled alone; the `|D|`
/// column shows why the time moves (fewer delays, more motion freedom).
fn ablation(procs: u32) -> String {
    use DelayChoice::{ShashaSnir, SyncRefined};
    use OptLevel::{Full, OneWay, Pipelined};

    let config = MachineConfig::cm5(procs);
    let widths = [10, 22, 9, 8, 9, 9];
    let mut out = heading(
        &format!("Ablation: per-ingredient contribution ({procs}-processor CM-5)"),
        "kernel,configuration,cycles,norm,|D|,stores",
        &widths,
    );
    for (i, kernel) in all_kernels(procs).iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let cfg = lower(&kernel.source);
        let analyze_at = |barrier_policy| {
            let options = SyncOptions {
                barrier_policy,
                procs: Some(procs),
                ..SyncOptions::default()
            };
            analyze_with(&cfg, &options)
        };
        let full = analyze_at(BarrierPolicy::Static);
        let no_barrier = analyze_at(BarrierPolicy::Disabled);
        let mut base = None;
        for (name, analysis, level, choice) in [
            ("D_SS only", &full, Pipelined, ShashaSnir),
            ("+sync analysis", &full, Pipelined, SyncRefined),
            ("  -barrier info", &no_barrier, Pipelined, SyncRefined),
            ("+one-way", &full, OneWay, SyncRefined),
            ("+elimination", &full, Full, SyncRefined),
        ] {
            let opt = optimize(&cfg, analysis, level, choice);
            let sim = simulate(&opt.cfg, &config)
                .unwrap_or_else(|e| panic!("{} [{name}]: {e}", kernel.name));
            let norm = sim.exec_cycles as f64 / *base.get_or_insert(sim.exec_cycles) as f64;
            let delays = match choice {
                ShashaSnir => &analysis.delay_ss,
                SyncRefined => &analysis.delay_sync,
            };
            let cells = [
                kernel.name.into(),
                name.into(),
                sim.exec_cycles.to_string(),
                format!("{norm:.3}"),
                delays.len().to_string(),
                sim.net.store_requests.to_string(),
            ];
            let _ = writeln!(out, "{}", row(&cells, &widths));
        }
    }
    out
}

/// Memory fences a weakly-ordered shared-memory machine needs per kernel
/// (§9), under the Shasha–Snir delay set vs the refined one.
fn fences(procs: u32) -> String {
    let widths = [10, 12, 14, 12, 14, 12];
    let mut out = heading(
        &format!(
            "Fence insertion for a weakly-ordered shared-memory machine\n\
             ({procs} processors; fences = full write-buffer drains per loop body)"
        ),
        "kernel,fences(SS),sync-free(SS),fences(D),sync-free(D),reduction",
        &widths,
    );
    for kernel in all_kernels(procs) {
        let cfg = lower(&kernel.source);
        let a = analyze_for(&cfg, procs);
        let pss = plan_fences(&cfg, &a.delay_ss);
        let pref = plan_fences(&cfg, &a.delay_sync);
        assert!(plan_covers(&cfg, &a.delay_ss, &pss));
        assert!(plan_covers(&cfg, &a.delay_sync, &pref));
        let reduction = if pss.is_empty() {
            "-".to_string()
        } else {
            let cut = 100.0 * (pss.len() - pref.len()) as f64 / pss.len() as f64;
            format!("{cut:.0}%")
        };
        let cells = [
            kernel.name.into(),
            pss.len().to_string(),
            pss.covered_by_sync.to_string(),
            pref.len().to_string(),
            pref.covered_by_sync.to_string(),
            reduction,
        ];
        let _ = writeln!(out, "{}", row(&cells, &widths));
    }
    out + "\nsync-free = delay pairs already ordered by a blocking sync op\n\
           (waits, barriers, locks fence implicitly).\n"
}

/// The paper's closing claim (§8): the payoff grows with a machine's
/// latency relative to its startup cost. Every kernel on the three
/// Table 1 machines, unoptimized vs one-way.
fn machines(procs: u32) -> String {
    let widths = [10, 8, 12, 12, 9, 13];
    let mut out = heading(
        &format!("Optimization payoff per machine ({procs} processors)"),
        "kernel,machine,unopt,optimized,gain,lat/startup",
        &widths,
    );
    for kernel in all_kernels(procs) {
        for config in MachineConfig::table1(procs) {
            let run = |level, choice| {
                run_kernel_lean(&kernel, &config, level, choice)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, config.name))
                    .exec_cycles
            };
            let unopt = run(OptLevel::Pipelined, DelayChoice::ShashaSnir);
            let opt = run(OptLevel::OneWay, DelayChoice::SyncRefined);
            let gain = 100.0 * (unopt - opt) as f64 / unopt as f64;
            let ratio = config.network_latency as f64 * 2.0 / config.send_overhead.max(1) as f64;
            let cells = [
                kernel.name.into(),
                config.name.clone(),
                unopt.to_string(),
                opt.to_string(),
                format!("{gain:.1}%"),
                format!("{ratio:.1}"),
            ];
            let _ = writeln!(out, "{}", row(&cells, &widths));
        }
        out.push('\n');
    }
    out + "lat/startup = round-trip network latency / send overhead: the\n\
           larger it is, the more latency one overlapped operation hides.\n"
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
    fn ablation_runs_at_the_procs_it_is_given() {
        // The cycle column is the fourth from the right of each row.
        fn cycles(text: &str) -> Vec<&str> {
            let rows = text.lines().skip(3);
            rows.filter_map(|l| l.split_whitespace().rev().nth(3))
                .collect()
        }
        let run = |line: &str| sweep::run(line.split_whitespace().map(str::to_string)).unwrap();
        let (at8, at16) = (run("ablation --procs 8"), run("ablation"));
        assert!(at8.starts_with("Ablation: per-ingredient contribution (8-processor CM-5)\n"));
        assert_eq!(cycles(&at8).len(), 25, "{at8}");
        assert_ne!(cycles(&at8), cycles(&at16));
    }

    #[test]
    fn bar_and_row_render() {
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(0.0, 10), "");
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
