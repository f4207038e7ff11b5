//! The parallel-simulation benchmark (`syncoptc bench --suite
//! sim_parallel`).
//!
//! Where [`crate::simbench`] measures the *sequential* calendar engine at
//! small machine sizes, this suite scales the five evaluation kernels to
//! large simulated machines — 64, 256, and 1024 processors — and runs
//! each through the sharded conservative engine
//! ([`simulate_sharded_with`]) at 1, 2, 4,
//! and 8 shards (Block partition), with a Profiled-partition rider at 4
//! shards tracking the traffic-aware strategy's per-shard load balance.
//! Every sharded run is compared against the calendar
//! engine on the same compiled program: the two must agree on every
//! simulation observable (execution time, per-processor cycle accounts,
//! network traffic, stall breakdown) or the bench errors out, so a full
//! run doubles as a large-machine differential test.
//!
//! Each (kernel, procs) pair compiles **once** — at the paper's
//! optimized setting, one-way communication under the
//! synchronization-refined delay set — and the shard counts reuse that
//! artifact, so the suite isolates simulator cost from compile cost.
//!
//! The report serializes to the all-integer [`BENCH_SCHEMA`]
//! (`syncopt.bench_report.v1`, suite tag `sim_parallel`). Wall times use
//! the processor-count-aware buckets of [`wall_bucket_for`] (powers of
//! four at ≥ 256 procs) and are excluded from the regression gate;
//! [`GATED_PAR_COUNTERS`] are exact deterministic work counts and are
//! gated at the usual tolerance. Independent (kernel, procs) groups fan
//! out across worker threads with a fixed-order merge, so the report is
//! bit-identical at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use syncopt_codegen::{DelayChoice, OptLevel};
use syncopt_core::diag::json::Value;
use syncopt_core::Counters;
use syncopt_kernels::{kernels_with, KernelParams};
use syncopt_machine::{
    simulate_configured, simulate_sharded_with, EngineKind, MachineConfig, ShardPartition,
    SimError, SimOutputs,
};

use crate::bench::{gate_counters_against, BENCH_SCHEMA};
use crate::simbench::wall_bucket_for;
use crate::{Syncopt, SyncoptError};

/// Counter keys the parallel-simulation regression gate watches. All are
/// exact "work performed" measures of the sharded engine and
/// deterministic for a given (program, machine, shard count).
/// `sim.shard_idle_windows` is deliberately absent: an idle window is
/// work *not* performed — it is recorded for observability, but gating
/// it would flag load-balance shifts that cost nothing.
pub const GATED_PAR_COUNTERS: [&str; 5] = [
    "sim.events_scheduled",
    "sim.events_dequeued",
    "sim.shard_horizon_advances",
    "sim.shard_cross_messages",
    "sim.shard_mailbox_drains",
];

/// One (kernel, simulated-processor-count) group of the sweep. The
/// group compiles once and is simulated at each entry of `shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParSweepGroup {
    /// Kernel name as in Figure 12 (`Ocean`, `EM3D`, ...).
    pub kernel: &'static str,
    /// Simulated processor count.
    pub procs: u32,
    /// Shard counts the compiled program is simulated at, in order.
    pub shards: &'static [usize],
}

impl ParSweepGroup {
    /// Stable config id for one shard count of this group
    /// (`ocean_p64_s4`) — the baseline join key.
    pub fn id(&self, shards: usize) -> String {
        format!("{}_p{}_s{}", self.kernel.to_lowercase(), self.procs, shards)
    }

    /// Config id for a non-default partition strategy
    /// (`ocean_p64_s4_profiled`); the default Block strategy keeps the
    /// bare [`ParSweepGroup::id`] so old baselines keep joining.
    pub fn partition_id(&self, shards: usize, partition: ShardPartition) -> String {
        match partition {
            ShardPartition::Block => self.id(shards),
            other => format!("{}_{}", self.id(shards), other.label()),
        }
    }
}

const PAR_PROCS: [u32; 3] = [64, 256, 1024];

const PAR_SHARDS: [usize; 4] = [1, 2, 4, 8];

const KERNEL_NAMES: [&str; 5] = ["Ocean", "EM3D", "Epithel", "Cholesky", "Health"];

/// The full sweep: five kernels × three machine sizes, each simulated at
/// four shard counts — 60 configurations in deterministic order.
pub fn sweep() -> Vec<ParSweepGroup> {
    let mut groups = Vec::new();
    for kernel in KERNEL_NAMES {
        for procs in PAR_PROCS {
            groups.push(ParSweepGroup {
                kernel,
                procs,
                shards: &PAR_SHARDS,
            });
        }
    }
    groups
}

/// The CI smoke subset: one barrier kernel at the smallest large-machine
/// size, unsharded vs four shards. Both config ids are members of the
/// full sweep, so a smoke run can be gated against a committed
/// full-sweep baseline.
pub fn smoke_sweep() -> Vec<ParSweepGroup> {
    vec![ParSweepGroup {
        kernel: "Ocean",
        procs: 64,
        shards: &[1, 4],
    }]
}

/// One simulated configuration.
#[derive(Debug, Clone)]
pub struct ParBenchConfigResult {
    /// Stable config id (`ocean_p64_s4`) — the baseline join key.
    pub id: String,
    /// Kernel name.
    pub kernel: &'static str,
    /// Simulated processor count.
    pub procs: u32,
    /// Shard count the run was partitioned across.
    pub shards: usize,
    /// Processor-to-shard assignment strategy.
    pub partition: ShardPartition,
    /// Simulated execution time in machine cycles (identical across
    /// engines, shard counts, and partition strategies by construction).
    pub exec_cycles: u64,
    /// Sharded-engine simulation wall time, rounded up per
    /// [`wall_bucket_for`] (nondeterministic; excluded from the gate).
    pub wall_bucket_us: u64,
    /// Raw sharded-engine wall time in microseconds (nondeterministic;
    /// excluded from the gate, reported for speedup math).
    pub wall_us: u64,
    /// Self-relative wall-clock speedup over this group's single-shard
    /// run, times 1000 (1000 = parity; nondeterministic; excluded from
    /// the gate but sanity-checked on multi-core hosts).
    pub speedup_milli: u64,
    /// Per-shard event-load imbalance, max/mean × 1000 (1000 = perfectly
    /// balanced; deterministic for a given partition strategy).
    pub imbalance_permille: u64,
    /// `sim.*` counters from the sharded engine plus the calendar
    /// engine's event count (`cal.events_dequeued`) as the sequential
    /// reference column.
    pub counters: Counters,
}

/// A full parallel-simulation run.
#[derive(Debug, Clone)]
pub struct ParBenchReport {
    /// Worker threads the (kernel, procs) groups fanned out across.
    pub threads: usize,
    /// Whether this was the CI smoke subset.
    pub smoke: bool,
    /// Host hardware parallelism at measurement time. Wall-clock speedup
    /// claims are only meaningful when this is ≥ 2 — shard workers are
    /// real OS threads, and a single core serializes them.
    pub host_cpus: usize,
    /// Per-configuration results, in sweep order (independent of
    /// `threads`).
    pub configs: Vec<ParBenchConfigResult>,
}

/// Host hardware parallelism, as reported by the OS (1 when unknown).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the parallel-simulation sweep (or the CI smoke subset), fanning
/// the independent (kernel, procs) groups across `threads` workers and
/// merging in sweep order.
///
/// # Errors
///
/// Propagates compile/simulation errors, and errors if the sharded
/// engine disagrees with the calendar engine on any observable at any
/// shard count (which would be an engine bug, not an input problem).
pub fn run_par_bench(smoke: bool, threads: usize) -> Result<ParBenchReport, SyncoptError> {
    let groups = if smoke { smoke_sweep() } else { sweep() };
    let workers = threads.max(1).min(groups.len().max(1));
    type GroupSlot = Option<Result<Vec<ParBenchConfigResult>, SyncoptError>>;
    let mut results: Vec<GroupSlot> = Vec::new();
    if workers <= 1 {
        for group in &groups {
            results.push(Some(run_group(group)));
        }
    } else {
        let slots: Vec<Mutex<GroupSlot>> = (0..groups.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(i) else { break };
                    let result = run_group(group);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(result);
                });
            }
        });
        for slot in slots {
            results.push(slot.into_inner().expect("sweep slot poisoned"));
        }
    }
    let mut configs = Vec::new();
    for result in results {
        configs.extend(result.expect("every sweep slot is filled")?);
    }
    Ok(ParBenchReport {
        threads: workers,
        smoke,
        host_cpus: host_cpus(),
        configs,
    })
}

fn run_group(group: &ParSweepGroup) -> Result<Vec<ParBenchConfigResult>, SyncoptError> {
    let params = KernelParams::bench(group.procs);
    let kernel = kernels_with(&params)
        .into_iter()
        .find(|k| k.name == group.kernel)
        .unwrap_or_else(|| panic!("unknown kernel {}", group.kernel));
    let compiled = Syncopt::new(&kernel.source)
        .procs(group.procs)
        .level(OptLevel::OneWay)
        .delay(DelayChoice::SyncRefined)
        .compile()?;
    let config = MachineConfig::cm5(group.procs);
    let calendar = simulate_configured(
        &compiled.optimized.cfg,
        &config,
        EngineKind::Calendar,
        SimOutputs::lean(),
    )?;

    // Block partition at every shard count of the group, plus a Profiled
    // rider at 4 shards (when the group includes it) to track how the
    // traffic-aware strategy shifts per-shard load.
    let mut runs: Vec<(usize, ShardPartition)> = group
        .shards
        .iter()
        .map(|&s| (s, ShardPartition::Block))
        .collect();
    if group.shards.contains(&4) {
        runs.push((4, ShardPartition::Profiled));
    }

    let mut out = Vec::with_capacity(runs.len());
    let mut wall_s1 = None;
    for (shards, partition) in runs {
        let id = group.partition_id(shards, partition);
        let start = std::time::Instant::now();
        let sharded = simulate_sharded_with(
            &compiled.optimized.cfg,
            &config,
            shards,
            partition,
            SimOutputs::lean(),
        )?;
        let wall_us = u64::try_from(start.elapsed().as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        if sharded.exec_cycles != calendar.exec_cycles
            || sharded.proc_cycles != calendar.proc_cycles
            || sharded.net != calendar.net
            || sharded.stalls != calendar.stalls
        {
            return Err(SyncoptError::Sim(SimError::new(format!(
                "sharded engine diverged on {id}: {} cycles at {shards} \
                 shard(s) vs calendar {}",
                sharded.exec_cycles, calendar.exec_cycles
            ))));
        }
        if shards == 1 && partition == ShardPartition::Block {
            wall_s1 = Some(wall_us);
        }

        let mut counters = Counters::default();
        let w = sharded.metrics.work;
        counters.set("sim.events_scheduled", w.events_scheduled);
        counters.set("sim.events_dequeued", w.events_dequeued);
        counters.set("sim.shard_horizon_advances", w.shard_horizon_advances);
        counters.set("sim.shard_cross_messages", w.shard_cross_messages);
        counters.set("sim.shard_mailbox_drains", w.shard_mailbox_drains);
        counters.set("sim.shard_idle_windows", w.shard_idle_windows);
        counters.set("sim.shard_leader_merge_steps", w.shard_leader_merge_steps);
        counters.set("sim.shard_parallel_drains", w.shard_parallel_drains);
        counters.set("sim.shard_parallel_flattens", w.shard_parallel_flattens);
        counters.set(
            "sim.events_per_1k_cycles",
            w.events_per_1k_cycles(sharded.exec_cycles),
        );
        counters.set("cal.events_dequeued", calendar.metrics.work.events_dequeued);

        out.push(ParBenchConfigResult {
            id,
            kernel: group.kernel,
            procs: group.procs,
            shards,
            partition,
            exec_cycles: sharded.exec_cycles,
            wall_bucket_us: wall_bucket_for(group.procs, wall_us),
            wall_us,
            speedup_milli: wall_s1.map_or(0, |s1: u64| s1.saturating_mul(1000) / wall_us),
            imbalance_permille: sharded.metrics.shard_imbalance_permille().unwrap_or(1000),
            counters,
        });
    }
    Ok(out)
}

impl ParBenchReport {
    /// The report as a JSON object (schema [`BENCH_SCHEMA`], suite
    /// `sim_parallel`); all values are integers or strings.
    pub fn to_json(&self) -> Value {
        let configs = self
            .configs
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(c.id.clone())),
                    ("kernel".into(), Value::Str(c.kernel.to_string())),
                    ("procs".into(), Value::Int(i64::from(c.procs))),
                    ("shards".into(), Value::Int(c.shards as i64)),
                    (
                        "partition".into(),
                        Value::Str(c.partition.label().to_string()),
                    ),
                    ("exec_cycles".into(), Value::Int(c.exec_cycles as i64)),
                    ("wall_bucket_us".into(), Value::Int(c.wall_bucket_us as i64)),
                    ("wall_us".into(), Value::Int(c.wall_us as i64)),
                    ("speedup_milli".into(), Value::Int(c.speedup_milli as i64)),
                    (
                        "imbalance_permille".into(),
                        Value::Int(c.imbalance_permille as i64),
                    ),
                    ("counters".into(), c.counters.to_json()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(BENCH_SCHEMA.to_string())),
            ("suite".into(), Value::Str("sim_parallel".to_string())),
            ("threads".into(), Value::Int(self.threads as i64)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("host_cpus".into(), Value::Int(self.host_cpus as i64)),
            ("configs".into(), Value::Arr(configs)),
        ])
    }

    /// A human-readable sweep table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "parallel simulation sweep ({} configs, {} thread(s), {} host \
             cpu(s){})\n",
            self.configs.len(),
            self.threads.max(1),
            self.host_cpus,
            if self.smoke { ", smoke subset" } else { "" },
        ));
        out.push_str(&format!(
            "{:<29} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9}\n",
            "config",
            "cycles",
            "events",
            "x-shard",
            "drains",
            "windows",
            "idle",
            "imbal",
            "spdup",
            "wall(us)"
        ));
        for c in &self.configs {
            out.push_str(&format!(
                "{:<29} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8} {:>2}.{:03} {:>3}.{:03} {:>8}≤\n",
                c.id,
                c.exec_cycles,
                c.counters.get("sim.events_dequeued"),
                c.counters.get("sim.shard_cross_messages"),
                c.counters.get("sim.shard_mailbox_drains"),
                c.counters.get("sim.shard_horizon_advances"),
                c.counters.get("sim.shard_idle_windows"),
                c.imbalance_permille / 1000,
                c.imbalance_permille % 1000,
                c.speedup_milli / 1000,
                c.speedup_milli % 1000,
                c.wall_bucket_us,
            ));
        }
        out
    }

    /// Compares this run against a committed baseline report, enforcing
    /// the >[`TOLERANCE_PCT`](crate::bench::TOLERANCE_PCT)% regression
    /// gate on [`GATED_PAR_COUNTERS`] for every config id the two
    /// reports share.
    ///
    /// # Errors
    ///
    /// Returns a message naming every regressed `(config, counter)`
    /// pair, or a schema error if `baseline` is not a bench report.
    pub fn check_against(&self, baseline: &Value) -> Result<(), String> {
        let pairs: Vec<(&str, &Counters)> = self
            .configs
            .iter()
            .map(|c| (c.id.as_str(), &c.counters))
            .collect();
        gate_counters_against(&pairs, baseline, &GATED_PAR_COUNTERS)?;
        self.check_speedup()
    }

    /// Sanity-checks this run's own wall-clock numbers: on a multi-core
    /// host, the sharded engine must not be *slower* than its one-shard
    /// self at the largest machine sizes (Block partition, 4 shards,
    /// ≥ 256 simulated processors — the configurations with enough work
    /// per window to amortize round overheads). On a single-core host the
    /// check is skipped: shard workers are real OS threads and one core
    /// serializes them, so wall parity is not expected there.
    fn check_speedup(&self) -> Result<(), String> {
        if self.host_cpus < 2 {
            return Ok(());
        }
        let mut failures = Vec::new();
        for c in &self.configs {
            if c.partition == ShardPartition::Block
                && c.shards == 4
                && c.procs >= 256
                && c.speedup_milli < 1000
            {
                failures.push(format!(
                    "{}: wall speedup {}.{:03}x < 1.0x vs its one-shard run \
                     (wall {} us)",
                    c.id,
                    c.speedup_milli / 1000,
                    c.speedup_milli % 1000,
                    c.wall_us
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "sharded engine shows no wall-clock speedup on a {}-cpu host:\n  {}",
                self.host_cpus,
                failures.join("\n  ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_report() -> ParBenchReport {
        run_par_bench(true, 1).expect("smoke parallel bench must run")
    }

    #[test]
    fn smoke_run_is_bit_identical_across_shard_counts() {
        let r = smoke_report();
        assert_eq!(r.configs.len(), 3);
        assert_eq!(r.configs[0].id, "ocean_p64_s1");
        assert_eq!(r.configs[1].id, "ocean_p64_s4");
        assert_eq!(r.configs[2].id, "ocean_p64_s4_profiled");
        assert!(r.host_cpus >= 1);
        // run_group already errored if any observable diverged from the
        // calendar engine; cycles must also agree across shard counts
        // and partition strategies.
        assert!(r.configs[0].exec_cycles > 0);
        assert_eq!(r.configs[0].exec_cycles, r.configs[1].exec_cycles);
        assert_eq!(r.configs[0].exec_cycles, r.configs[2].exec_cycles);
        let single = &r.configs[0].counters;
        let sharded = &r.configs[1].counters;
        assert_eq!(single.get("sim.shard_cross_messages"), 0);
        assert_eq!(single.get("sim.shard_mailbox_drains"), 0);
        assert!(single.get("sim.shard_horizon_advances") > 0);
        assert!(sharded.get("sim.shard_cross_messages") > 0);
        assert!(sharded.get("sim.shard_mailbox_drains") > 0);
        assert!(sharded.get("sim.shard_leader_merge_steps") > 0);
        assert!(sharded.get("cal.events_dequeued") > 0);
        // The speedup baseline is the one-shard run: parity by definition.
        assert_eq!(r.configs[0].speedup_milli, 1000);
        assert_eq!(r.configs[0].imbalance_permille, 1000);
        assert!(r.configs[1].imbalance_permille >= 1000);
        assert!(r.configs[2].imbalance_permille >= 1000);
    }

    #[test]
    fn full_sweep_is_five_kernels_by_procs_by_shards() {
        let groups = sweep();
        assert_eq!(groups.len(), 15);
        let ids: Vec<String> = groups
            .iter()
            .flat_map(|g| g.shards.iter().map(|&s| g.id(s)))
            .collect();
        assert_eq!(ids.len(), 60);
        assert!(ids.contains(&"ocean_p64_s1".to_string()));
        assert!(ids.contains(&"health_p1024_s8".to_string()));
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate sweep ids");
    }

    #[test]
    fn smoke_ids_are_members_of_the_full_sweep() {
        let full: Vec<String> = sweep()
            .iter()
            .flat_map(|g| g.shards.iter().map(|&s| g.id(s)))
            .collect();
        for g in smoke_sweep() {
            for &s in g.shards {
                assert!(
                    full.contains(&g.id(s)),
                    "{} has no full-sweep twin; the CI smoke gate would not join it",
                    g.id(s)
                );
            }
        }
    }

    #[test]
    fn json_is_schema_tagged_and_reparses() {
        let r = smoke_report();
        let j = r.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(j.get("suite").unwrap().as_str(), Some("sim_parallel"));
        let text = j.to_string();
        let back = Value::parse(&text).expect("parallel bench JSON must reparse");
        assert_eq!(back, j);
    }

    #[test]
    fn gate_accepts_self_and_rejects_regression() {
        let r = smoke_report();
        let baseline = r.to_json();
        r.check_against(&baseline).expect("self-compare passes");

        // Inflating cross-shard traffic beyond tolerance must trip.
        let mut worse = r.clone();
        let bumped = worse.configs[1].counters.get("sim.shard_cross_messages") * 2;
        worse.configs[1]
            .counters
            .set("sim.shard_cross_messages", bumped);
        let err = worse.check_against(&baseline).unwrap_err();
        assert!(err.contains("sim.shard_cross_messages"), "{err}");

        // Idle windows are observability, not gated work.
        let mut idle = r.clone();
        let bumped = idle.configs[1].counters.get("sim.shard_idle_windows") * 10 + 100;
        idle.configs[1]
            .counters
            .set("sim.shard_idle_windows", bumped);
        idle.check_against(&baseline)
            .expect("idle windows are not gated");
    }

    #[test]
    fn counters_are_identical_across_thread_counts() {
        let serial = run_par_bench(true, 1).unwrap();
        let threaded = run_par_bench(true, 2).unwrap();
        assert_eq!(serial.configs.len(), threaded.configs.len());
        for (a, b) in serial.configs.iter().zip(threaded.configs.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.exec_cycles, b.exec_cycles);
            assert_eq!(a.counters, b.counters, "id={}", a.id);
        }
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
