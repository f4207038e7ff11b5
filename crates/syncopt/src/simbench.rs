//! The simulator-throughput benchmark (`syncoptc bench --suite sim`, the
//! `sim_throughput` bench binary).
//!
//! Runs the full compile-and-simulate pipeline over the five evaluation
//! kernels at bench problem sizes ([`KernelParams::bench`]) and records,
//! per configuration, the deterministic **simulator work counters**
//! ([`SimWork`](syncopt_machine::SimWork)) of the calendar-queue engine —
//! plus, as the comparison column, the legacy-probe counters of the
//! [`ReferenceHeap`](EngineKind::ReferenceHeap) engine running the *same*
//! program. Every run therefore doubles as a differential test: the two
//! engines must agree on execution time and network traffic or the bench
//! errors out.
//!
//! Like the delay-scaling suite ([`crate::bench`]), the report serializes
//! to the all-integer [`BENCH_SCHEMA`] (`syncopt.bench_report.v1`, suite
//! tag `sim_throughput`); wall-time buckets are power-of-two-coarse and
//! excluded from the regression gate. Independent configurations fan out
//! across worker threads with a fixed-order merge, so the report is
//! bit-identical at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use syncopt_codegen::{DelayChoice, OptLevel};
use syncopt_core::diag::json::Value;
use syncopt_core::Counters;
use syncopt_kernels::{kernels_with, KernelParams};
use syncopt_machine::{simulate_configured, EngineKind, MachineConfig, SimError, SimOutputs};

use crate::bench::{gate_counters_against, BENCH_SCHEMA};
use crate::{Syncopt, SyncoptError};

/// Counter keys the simulator regression gate watches. All are exact
/// "work performed" measures of the calendar-queue engine; `arena_reuses`
/// is deliberately absent (more reuse is better, not worse), and
/// `sim.hash_lookups` is gated at its baseline value of **zero** — any
/// hashing reintroduced into the cycle loop trips the gate immediately.
pub const GATED_SIM_COUNTERS: [&str; 6] = [
    "sim.events_scheduled",
    "sim.events_dequeued",
    "sim.bucket_rotations",
    "sim.overflow_promotions",
    "sim.waiter_scans",
    "sim.hash_lookups",
];

/// Rounds a measured simulation wall time up to its report bucket.
///
/// Buckets deliberately coarsen the one nondeterministic column of the
/// bench reports so that committed baselines stay byte-stable across
/// machines and runs. The rung width scales with the simulated machine:
///
/// * **procs < 256** — next power of **two** of microseconds, the
///   original `sim_throughput` granularity.
/// * **procs ≥ 256** — next power of **four**. Large simulated machines
///   run long enough that scheduler jitter alone can straddle a
///   power-of-two boundary between runs; the wider rung keeps a
///   1024-processor baseline reproducible while still resolving the ≥2×
///   differences the `sim_parallel` suite exists to show.
///
/// See `docs/PERFORMANCE.md` for the bucket policy.
pub fn wall_bucket_for(procs: u32, wall_us: u64) -> u64 {
    if wall_us > 1 << 62 {
        return u64::MAX; // off the scale of any real measurement
    }
    let p2 = wall_us.max(1).next_power_of_two();
    if procs < 256 || p2.trailing_zeros().is_multiple_of(2) {
        p2
    } else {
        // Odd exponent: promote to the enclosing power of four.
        p2 << 1
    }
}

/// One point of the simulator sweep: a kernel, an optimization setting,
/// and a processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSweepSpec {
    /// Kernel name as in Figure 12 (`Ocean`, `EM3D`, ...).
    pub kernel: &'static str,
    /// Optimization label (`unopt` / `opt`).
    pub label: &'static str,
    /// Optimization level compiled at.
    pub level: OptLevel,
    /// Delay-set choice compiled with.
    pub delay: DelayChoice,
    /// Simulated processor count.
    pub procs: u32,
}

impl SimSweepSpec {
    /// Stable config id (`ocean_unopt_p4`) — the baseline join key.
    pub fn id(&self) -> String {
        format!(
            "{}_{}_p{}",
            self.kernel.to_lowercase(),
            self.label,
            self.procs
        )
    }
}

/// The two optimization settings each kernel is swept at: the pipelined
/// baseline under the Shasha–Snir delay set, and one-way communication
/// under the paper's synchronization-refined delay set.
const SETTINGS: [(&str, OptLevel, DelayChoice); 2] = [
    ("unopt", OptLevel::Pipelined, DelayChoice::ShashaSnir),
    ("opt", OptLevel::OneWay, DelayChoice::SyncRefined),
];

const SWEEP_PROCS: [u32; 2] = [4, 16];

const KERNEL_NAMES: [&str; 5] = ["Ocean", "EM3D", "Epithel", "Cholesky", "Health"];

/// The full sweep: five kernels × two optimization settings × two
/// processor counts, in deterministic order.
pub fn sweep() -> Vec<SimSweepSpec> {
    let mut specs = Vec::new();
    for kernel in KERNEL_NAMES {
        for (label, level, delay) in SETTINGS {
            for procs in SWEEP_PROCS {
                specs.push(SimSweepSpec {
                    kernel,
                    label,
                    level,
                    delay,
                    procs,
                });
            }
        }
    }
    specs
}

/// The two-point CI smoke subset: one barrier kernel unoptimized, one
/// post/wait kernel optimized.
pub fn smoke_sweep() -> Vec<SimSweepSpec> {
    let (unopt_label, unopt_level, unopt_delay) = SETTINGS[0];
    let (opt_label, opt_level, opt_delay) = SETTINGS[1];
    vec![
        SimSweepSpec {
            kernel: "Ocean",
            label: unopt_label,
            level: unopt_level,
            delay: unopt_delay,
            procs: 4,
        },
        SimSweepSpec {
            kernel: "Cholesky",
            label: opt_label,
            level: opt_level,
            delay: opt_delay,
            procs: 4,
        },
    ]
}

/// One simulated configuration.
#[derive(Debug, Clone)]
pub struct SimBenchConfigResult {
    /// Stable config id (`ocean_unopt_p4`) — the baseline join key.
    pub id: String,
    /// Kernel name.
    pub kernel: &'static str,
    /// Optimization label (`unopt` / `opt`).
    pub label: &'static str,
    /// Simulated processor count.
    pub procs: u32,
    /// Simulated execution time in machine cycles (identical across
    /// engines by construction).
    pub exec_cycles: u64,
    /// Calendar-engine simulation wall time, rounded up to the next power
    /// of two of microseconds (nondeterministic; excluded from the gate).
    pub wall_bucket_us: u64,
    /// `sim.*` counters from the calendar engine and `ref.*` counters
    /// from the reference-heap engine on the same program.
    pub counters: Counters,
}

impl SimBenchConfigResult {
    /// Reference-engine hash lookups per calendar-engine hash lookup,
    /// times 100 — the headline "hashing eliminated" evidence. Since the
    /// calendar engine performs zero cycle-loop hash lookups, this is the
    /// reference count × 100.
    pub fn hash_reduction_x100(&self) -> u64 {
        let reference = self.counters.get("ref.hash_lookups");
        let dense = self.counters.get("sim.hash_lookups");
        reference * 100 / (dense + 1)
    }
}

/// A full simulator-throughput run.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Worker threads the sweep fanned out across.
    pub threads: usize,
    /// Whether this was the two-point smoke subset.
    pub smoke: bool,
    /// Per-configuration results, in sweep order (independent of
    /// `threads`).
    pub configs: Vec<SimBenchConfigResult>,
}

/// Runs the simulator sweep (or the CI smoke subset), fanning the
/// independent configurations across `threads` workers and merging in
/// sweep order.
///
/// # Errors
///
/// Propagates compile/simulation errors, and errors if the calendar and
/// reference-heap engines disagree on any observable output (which would
/// be an engine bug, not an input problem).
pub fn run_sim_bench(smoke: bool, threads: usize) -> Result<SimBenchReport, SyncoptError> {
    let specs = if smoke { smoke_sweep() } else { sweep() };
    let workers = threads.max(1).min(specs.len().max(1));
    let mut results: Vec<Option<Result<SimBenchConfigResult, SyncoptError>>> = Vec::new();
    if workers <= 1 {
        for spec in &specs {
            results.push(Some(run_config(spec)));
        }
    } else {
        let slots: Vec<Mutex<Option<Result<SimBenchConfigResult, SyncoptError>>>> =
            (0..specs.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let result = run_config(spec);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(result);
                });
            }
        });
        for slot in slots {
            results.push(slot.into_inner().expect("sweep slot poisoned"));
        }
    }
    let mut configs = Vec::with_capacity(specs.len());
    for result in results {
        configs.push(result.expect("every sweep slot is filled")?);
    }
    Ok(SimBenchReport {
        threads: workers,
        smoke,
        configs,
    })
}

fn run_config(spec: &SimSweepSpec) -> Result<SimBenchConfigResult, SyncoptError> {
    let params = KernelParams::bench(spec.procs);
    let kernel = kernels_with(&params)
        .into_iter()
        .find(|k| k.name == spec.kernel)
        .unwrap_or_else(|| panic!("unknown kernel {}", spec.kernel));
    let compiled = Syncopt::new(&kernel.source)
        .procs(spec.procs)
        .level(spec.level)
        .delay(spec.delay)
        .compile()?;
    let config = MachineConfig::cm5(spec.procs);

    let start = std::time::Instant::now();
    let calendar = simulate_configured(
        &compiled.optimized.cfg,
        &config,
        EngineKind::Calendar,
        SimOutputs::lean(),
    )?;
    let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let reference = simulate_configured(
        &compiled.optimized.cfg,
        &config,
        EngineKind::ReferenceHeap,
        SimOutputs::lean(),
    )?;
    if calendar.exec_cycles != reference.exec_cycles
        || calendar.proc_cycles != reference.proc_cycles
        || calendar.net != reference.net
    {
        return Err(SyncoptError::Sim(SimError::new(format!(
            "engine divergence on {}: calendar {} cycles vs reference {} cycles",
            spec.id(),
            calendar.exec_cycles,
            reference.exec_cycles
        ))));
    }

    let mut counters = Counters::default();
    let w = calendar.metrics.work;
    counters.set("sim.events_scheduled", w.events_scheduled);
    counters.set("sim.events_dequeued", w.events_dequeued);
    counters.set("sim.bucket_rotations", w.bucket_rotations);
    counters.set("sim.overflow_promotions", w.overflow_promotions);
    counters.set("sim.arena_reuses", w.arena_reuses);
    counters.set("sim.waiter_scans", w.waiter_scans);
    counters.set("sim.hash_lookups", w.hash_lookups);
    counters.set(
        "sim.events_per_1k_cycles",
        w.events_per_1k_cycles(calendar.exec_cycles),
    );
    counters.set("ref.hash_lookups", reference.metrics.work.hash_lookups);
    counters.set(
        "ref.events_dequeued",
        reference.metrics.work.events_dequeued,
    );

    Ok(SimBenchConfigResult {
        id: spec.id(),
        kernel: spec.kernel,
        label: spec.label,
        procs: spec.procs,
        exec_cycles: calendar.exec_cycles,
        wall_bucket_us: wall_bucket_for(spec.procs, wall_us),
        counters,
    })
}

impl SimBenchReport {
    /// The report as a JSON object (schema [`BENCH_SCHEMA`], suite
    /// `sim_throughput`); all values are integers or strings.
    pub fn to_json(&self) -> Value {
        let configs = self
            .configs
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(c.id.clone())),
                    ("kernel".into(), Value::Str(c.kernel.to_string())),
                    ("label".into(), Value::Str(c.label.to_string())),
                    ("procs".into(), Value::Int(i64::from(c.procs))),
                    ("exec_cycles".into(), Value::Int(c.exec_cycles as i64)),
                    ("wall_bucket_us".into(), Value::Int(c.wall_bucket_us as i64)),
                    (
                        "hash_reduction_x100".into(),
                        Value::Int(c.hash_reduction_x100() as i64),
                    ),
                    ("counters".into(), c.counters.to_json()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(BENCH_SCHEMA.to_string())),
            ("suite".into(), Value::Str("sim_throughput".to_string())),
            ("threads".into(), Value::Int(self.threads as i64)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("configs".into(), Value::Arr(configs)),
        ])
    }

    /// A human-readable sweep table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simulator throughput sweep ({} configs, {} thread(s){})\n",
            self.configs.len(),
            self.threads.max(1),
            if self.smoke { ", smoke subset" } else { "" },
        ));
        out.push_str(&format!(
            "{:<18} {:>10} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}\n",
            "config",
            "cycles",
            "events",
            "rotations",
            "overflow",
            "reuses",
            "hash-elim",
            "wall(us)"
        ));
        for c in &self.configs {
            let red = c.hash_reduction_x100();
            out.push_str(&format!(
                "{:<18} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8}.{:02}x {:>8}≤\n",
                c.id,
                c.exec_cycles,
                c.counters.get("sim.events_dequeued"),
                c.counters.get("sim.bucket_rotations"),
                c.counters.get("sim.overflow_promotions"),
                c.counters.get("sim.arena_reuses"),
                red / 100,
                red % 100,
                c.wall_bucket_us,
            ));
        }
        out
    }

    /// Compares this run against a committed baseline report, enforcing
    /// the >[`TOLERANCE_PCT`](crate::bench::TOLERANCE_PCT)% regression
    /// gate on [`GATED_SIM_COUNTERS`] for every config id the two reports
    /// share.
    ///
    /// # Errors
    ///
    /// Returns a message naming every regressed `(config, counter)` pair,
    /// or a schema error if `baseline` is not a bench report.
    pub fn check_against(&self, baseline: &Value) -> Result<(), String> {
        let pairs: Vec<(&str, &Counters)> = self
            .configs
            .iter()
            .map(|c| (c.id.as_str(), &c.counters))
            .collect();
        gate_counters_against(&pairs, baseline, &GATED_SIM_COUNTERS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_report() -> SimBenchReport {
        run_sim_bench(true, 1).expect("smoke sim bench must run")
    }

    #[test]
    fn smoke_run_covers_both_settings_and_engines_agree() {
        let r = smoke_report();
        assert_eq!(r.configs.len(), 2);
        assert_eq!(r.configs[0].id, "ocean_unopt_p4");
        assert_eq!(r.configs[1].id, "cholesky_opt_p4");
        for c in &r.configs {
            assert!(c.exec_cycles > 0);
            assert!(c.counters.get("sim.events_dequeued") > 0);
            assert!(c.wall_bucket_us.is_power_of_two());
        }
    }

    #[test]
    fn calendar_engine_eliminates_cycle_loop_hashing() {
        let r = smoke_report();
        for c in &r.configs {
            assert_eq!(c.counters.get("sim.hash_lookups"), 0, "{}", c.id);
            assert!(c.counters.get("ref.hash_lookups") > 0, "{}", c.id);
            assert!(
                c.hash_reduction_x100() >= 500,
                "{}: hash-work reduction below 5x ({})",
                c.id,
                c.hash_reduction_x100()
            );
        }
    }

    #[test]
    fn wall_buckets_widen_at_256_procs() {
        // Below 256 simulated processors: plain powers of two.
        assert_eq!(wall_bucket_for(4, 0), 1);
        assert_eq!(wall_bucket_for(4, 3), 4);
        assert_eq!(wall_bucket_for(64, 100), 128);
        // At and above 256: powers of four.
        assert_eq!(wall_bucket_for(256, 100), 256); // 128 has an odd exponent
        assert_eq!(wall_bucket_for(256, 200), 256);
        assert_eq!(wall_bucket_for(1024, 5), 16);
        assert_eq!(wall_bucket_for(1024, 16), 16);
        assert_eq!(wall_bucket_for(1024, 17), 64);
        for procs in [256, 1024] {
            for us in [1u64, 7, 900, 123_456] {
                let b = wall_bucket_for(procs, us);
                assert!(b >= us);
                assert_eq!(b.trailing_zeros() % 2, 0, "{b} is not a power of four");
            }
        }
        // No overflow panic at the top of the range.
        assert_eq!(wall_bucket_for(1024, u64::MAX), u64::MAX);
    }

    #[test]
    fn full_sweep_is_five_kernels_by_settings_by_procs() {
        let specs = sweep();
        assert_eq!(specs.len(), 20);
        let ids: Vec<String> = specs.iter().map(SimSweepSpec::id).collect();
        assert!(ids.contains(&"ocean_unopt_p4".to_string()));
        assert!(ids.contains(&"health_opt_p16".to_string()));
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate sweep ids");
    }

    #[test]
    fn json_is_schema_tagged_and_reparses() {
        let r = smoke_report();
        let j = r.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(j.get("suite").unwrap().as_str(), Some("sim_throughput"));
        let text = j.to_string();
        let back = Value::parse(&text).expect("sim bench JSON must reparse");
        assert_eq!(back, j);
    }

    #[test]
    fn counters_are_identical_across_thread_counts() {
        let serial = run_sim_bench(true, 1).unwrap();
        for threads in 2..=4 {
            let threaded = run_sim_bench(true, threads).unwrap();
            for (a, b) in serial.configs.iter().zip(threaded.configs.iter()) {
                assert_eq!(a.id, b.id, "threads={threads}");
                assert_eq!(a.exec_cycles, b.exec_cycles, "threads={threads}");
                assert_eq!(a.counters, b.counters, "threads={threads} id={}", a.id);
            }
        }
    }

    #[test]
    fn gate_accepts_self_and_rejects_regression() {
        let r = smoke_report();
        let baseline = r.to_json();
        r.check_against(&baseline).expect("self-compare passes");

        // Reintroducing hashing must trip the zero-baseline gate.
        let mut worse = r.clone();
        worse.configs[0].counters.set("sim.hash_lookups", 1);
        let err = worse.check_against(&baseline).unwrap_err();
        assert!(err.contains("sim.hash_lookups"), "{err}");

        // So must inflating event work beyond tolerance.
        let mut slower = r.clone();
        let bumped = slower.configs[1].counters.get("sim.events_dequeued") * 2;
        slower.configs[1]
            .counters
            .set("sim.events_dequeued", bumped);
        let err = slower.check_against(&baseline).unwrap_err();
        assert!(err.contains("sim.events_dequeued"), "{err}");
    }

    #[test]
    fn render_table_shows_every_config() {
        let r = smoke_report();
        let t = r.render_table();
        for c in &r.configs {
            assert!(t.contains(&c.id), "{t}");
        }
    }
}
