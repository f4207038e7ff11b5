//! The counter-suite bench harness (`syncoptc bench`).
//!
//! Every suite is one row of [`SUITES`]: its full and smoke spec lists,
//! the counters the regression gate watches, its table columns, and what
//! `--threads` means for it. A spec runs into one report row (id, ordered
//! fields, [`Counters`]); the report, its JSON, its table, the gate and
//! the ordered thread fan-out are written once, here.
//!
//! * `delay` (suite tag `delay_scaling`) runs the delay-set analysis over
//!   the synthetic scaling trajectory ([`syncopt_kernels::scaling`]).
//!   `--threads` is the analysis's worker count.
//! * `sim` (suite tag `sim_throughput`) compiles the five evaluation
//!   kernels at bench sizes ([`KernelParams::bench`]) and simulates each
//!   once on the calendar-queue engine. The reference heap engine is not
//!   run here: `tests/sim_difftest.rs` compares the two engines on every
//!   kernel at more levels and sizes than this suite sweeps. `--threads`
//!   fans the specs out across workers.
//!
//! A row records two kinds of measurement:
//!
//! * deterministic **work counters** — the signal the CI regression gate
//!   compares, because they are exact integers independent of machine
//!   load;
//! * a **wall-time bucket** (`wall_bucket_us`) — the measured wall time
//!   rounded up to the next power of two of microseconds. Buckets are
//!   coarse on purpose: they show a trajectory's shape on any machine
//!   without making committed baselines churn on noise, and they are never
//!   gated.
//!
//! The report serializes to the stable all-integer schema [`BENCH_SCHEMA`]
//! (`syncopt.bench_report.v1`) and is bit-identical, wall buckets aside, at
//! any thread count. See docs/PERFORMANCE.md for the field-by-field
//! description and the gate semantics.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use syncopt_codegen::{DelayChoice, OptLevel};
use syncopt_core::diag::json::Value;
use syncopt_core::{Counters, SyncOptions};
use syncopt_kernels::scaling::{self, ScalingParams};
use syncopt_kernels::{kernels_with, KernelParams};
use syncopt_machine::{simulate_configured, EngineKind, MachineConfig, SimOutputs};

use crate::{Syncopt, SyncoptError};

/// The stable schema identifier embedded in every benchmark report.
pub const BENCH_SCHEMA: &str = "syncopt.bench_report.v1";

/// Regression tolerance: fail when `new > old * (1 + TOLERANCE_PCT/100)`.
pub const TOLERANCE_PCT: u64 = 20;

/// One counter suite: a row of [`SUITES`].
#[derive(Debug)]
pub struct Suite {
    /// The `--suite` name.
    pub name: &'static str,
    /// The report's `suite` tag.
    tag: &'static str,
    /// The table's title line.
    title: &'static str,
    /// The full spec list, in report order.
    full: fn() -> Vec<Spec>,
    /// The two-point CI smoke subset; every id is also a full-list id.
    smoke: fn() -> Vec<Spec>,
    /// Counter keys the regression gate watches.
    gated: &'static [&'static str],
    /// Table columns between `config` and `wall(us)`.
    columns: &'static [Column],
    /// What `--threads` means: `true` fans the specs out across that many
    /// workers; `false` runs them in order and hands the count to each.
    fan_out: bool,
}

/// One column of a suite's table.
#[derive(Debug)]
struct Column {
    head: &'static str,
    /// Header width. A ratio cell's `x` suffix makes it one wider.
    head_width: usize,
    width: usize,
    cell: fn(&BenchRow) -> String,
}

/// A counter column: header and cells share one width.
const fn col(head: &'static str, width: usize, cell: fn(&BenchRow) -> String) -> Column {
    Column {
        head,
        head_width: width,
        width,
        cell,
    }
}

/// The suites, in `--suite` order.
pub static SUITES: [Suite; 2] = [
    Suite {
        name: "delay",
        tag: "delay_scaling",
        title: "delay-set scaling trajectory",
        full: || scaling::trajectory().into_iter().map(Spec::Delay).collect(),
        smoke: || {
            scaling::smoke_trajectory()
                .into_iter()
                .map(Spec::Delay)
                .collect()
        },
        // "Work performed" measures: an increase beyond the tolerance means
        // the analysis got slower in a machine-independent way. The
        // `conflict.*` pair moves along the machine-width axis of the
        // trajectory: the guarded collision tests are the only part of the
        // analysis that reads `PROCS`.
        gated: &[
            "conflict.pair_tests",
            "conflict.proc_steps",
            "cycle.backpath_queries",
            "cycle.closure_word_ors",
            "sync.d1_backpath_queries",
            "sync.backpath_queries",
            "sync.closure_word_ors",
        ],
        columns: &[
            col("accesses", 9, |r| r.int("accesses").to_string()),
            col("candidates", 11, |r| {
                r.counters.get("cycle.candidate_pairs").to_string()
            }),
            col("queries", 9, |r| {
                (r.counters.get("cycle.backpath_queries") + r.counters.get("sync.backpath_queries"))
                    .to_string()
            }),
            col("pruned", 10, |r| {
                r.counters.get("cycle.pruned_candidates").to_string()
            }),
            Column {
                head: "reduction",
                head_width: 12,
                width: 13,
                cell: |r| ratio_x100(r.int("work_reduction_x100")),
            },
        ],
        fan_out: false,
    },
    Suite {
        name: "sim",
        tag: "sim_throughput",
        title: "simulator throughput sweep",
        full: || {
            let mut specs = Vec::new();
            for kernel in ["Ocean", "EM3D", "Epithel", "Cholesky", "Health"] {
                for setting in SIM_SETTINGS {
                    for procs in [4, 16] {
                        specs.push(Spec::Sim(SimSpec::new(kernel, setting, procs)));
                    }
                }
            }
            specs
        },
        // One barrier kernel unoptimized, one post/wait kernel optimized.
        smoke: || {
            vec![
                Spec::Sim(SimSpec::new("Ocean", SIM_SETTINGS[0], 4)),
                Spec::Sim(SimSpec::new("Cholesky", SIM_SETTINGS[1], 4)),
            ]
        },
        // Exact "work performed" measures of the calendar-queue engine.
        // `sim.arena_reuses` is absent (more reuse is better, not worse).
        gated: &[
            "sim.events_scheduled",
            "sim.events_dequeued",
            "sim.bucket_rotations",
            "sim.overflow_promotions",
            "sim.waiter_scans",
        ],
        columns: &[
            col("cycles", 10, |r| r.int("exec_cycles").to_string()),
            col("events", 9, |r| {
                r.counters.get("sim.events_dequeued").to_string()
            }),
            col("rotations", 9, |r| {
                r.counters.get("sim.bucket_rotations").to_string()
            }),
            col("overflow", 9, |r| {
                r.counters.get("sim.overflow_promotions").to_string()
            }),
            col("reuses", 9, |r| {
                r.counters.get("sim.arena_reuses").to_string()
            }),
        ],
        fan_out: true,
    },
];

/// The suite named `name`, if there is one.
pub fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// What one report row measures.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Spec {
    /// A point of the delay-set scaling trajectory.
    Delay(ScalingParams),
    /// A point of the simulator sweep.
    Sim(SimSpec),
}

impl Spec {
    /// Stable config id (`stencil_u32_p16`, `ocean_unopt_p4`) — the
    /// baseline join key.
    fn id(&self) -> String {
        match self {
            Spec::Delay(p) => p.id(),
            Spec::Sim(s) => s.id(),
        }
    }

    /// Runs this spec into its report row; `threads` is the delay-set
    /// analysis's worker count.
    fn run(&self, threads: usize) -> Result<BenchRow, SyncoptError> {
        let (fields, counters) = match self {
            Spec::Delay(p) => run_delay(p, threads)?,
            Spec::Sim(s) => run_sim(s)?,
        };
        Ok(BenchRow {
            id: self.id(),
            fields,
            counters,
        })
    }
}

/// A simulator-sweep point: a kernel, an optimization setting, and a
/// processor count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimSpec {
    /// Kernel name as in Figure 12 (`Ocean`, `EM3D`, ...).
    kernel: &'static str,
    /// Optimization label (`unopt` / `opt`).
    label: &'static str,
    level: OptLevel,
    delay: DelayChoice,
    procs: u32,
}

/// The two optimization settings each kernel is swept at: the pipelined
/// baseline under the Shasha–Snir delay set, and one-way communication
/// under the paper's synchronization-refined delay set.
const SIM_SETTINGS: [(&str, OptLevel, DelayChoice); 2] = [
    ("unopt", OptLevel::Pipelined, DelayChoice::ShashaSnir),
    ("opt", OptLevel::OneWay, DelayChoice::SyncRefined),
];

impl SimSpec {
    fn new(
        kernel: &'static str,
        (label, level, delay): (&'static str, OptLevel, DelayChoice),
        procs: u32,
    ) -> Self {
        SimSpec {
            kernel,
            label,
            level,
            delay,
            procs,
        }
    }

    /// Stable config id (`ocean_unopt_p4`).
    fn id(&self) -> String {
        format!(
            "{}_{}_p{}",
            self.kernel.to_lowercase(),
            self.label,
            self.procs
        )
    }
}

/// One report row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Stable config id — the baseline join key.
    pub id: String,
    /// The fields between `id` and `counters`, in report order.
    pub fields: Vec<(&'static str, Value)>,
    /// The deterministic work counters.
    pub counters: Counters,
}

impl BenchRow {
    /// The integer field `key` (zero when absent).
    pub fn int(&self, key: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_int())
            .map_or(0, |n| n as u64)
    }
}

/// A full run of one suite.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The suite that ran.
    pub suite: &'static Suite,
    /// `--threads` as the suite used it: the analysis worker count, or the
    /// number of fan-out workers.
    pub threads: usize,
    /// Whether this was the smoke subset.
    pub smoke: bool,
    /// One row per spec, in spec order (independent of `threads`).
    pub rows: Vec<BenchRow>,
}

impl Suite {
    /// The full spec list, or the smoke subset.
    pub(crate) fn specs(&self, smoke: bool) -> Vec<Spec> {
        (if smoke { self.smoke } else { self.full })()
    }

    /// Runs the suite (or its smoke subset) with `threads` as this suite
    /// means it.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors from a spec — a generator bug, not an
    /// input problem.
    pub fn run(&'static self, smoke: bool, threads: usize) -> Result<BenchReport, SyncoptError> {
        let specs = self.specs(smoke);
        let (threads, rows) = if self.fan_out {
            let workers = threads.max(1).min(specs.len().max(1));
            let rows = run_ordered(&specs, workers, |s| s.run(1));
            (workers, rows.into_iter().collect::<Result<_, _>>()?)
        } else {
            let rows = specs.iter().map(|s| s.run(threads));
            (threads, rows.collect::<Result<_, _>>()?)
        };
        Ok(BenchReport {
            suite: self,
            threads,
            smoke,
            rows,
        })
    }
}

/// Runs `work` over every spec, fanning independent specs across up to
/// `threads` workers, and returns the results **in spec order** — the
/// fixed-order merge that keeps a report independent of the thread count.
/// With `threads <= 1` (or a single spec) the specs run in place with no
/// thread machinery at all.
pub fn run_ordered<S, R, F>(specs: &[S], threads: usize, work: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(&S) -> R + Sync,
{
    let workers = threads.max(1).min(specs.len().max(1));
    if workers <= 1 {
        return specs.iter().map(work).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let result = work(spec);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every sweep slot is filled")
        })
        .collect()
}

/// Wall time since `start`, rounded up to the next power of two of
/// microseconds.
fn wall_bucket_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
        .checked_next_power_of_two()
        .unwrap_or(u64::MAX)
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

/// A ×100 fixed-point ratio as `12.34x`.
fn ratio_x100(n: u64) -> String {
    format!("{}.{:02}x", n / 100, n % 100)
}

/// A row's fields between `id` and `counters`, and its counters.
type Measured = (Vec<(&'static str, Value)>, Counters);

fn run_delay(p: &ScalingParams, threads: usize) -> Result<Measured, SyncoptError> {
    let kernel = scaling::generate(p);
    let program = syncopt_frontend::prepare_program(&kernel.source)?;
    let cfg = syncopt_ir::lower::lower_main(&program)?;
    let start = Instant::now();
    let analysis = syncopt_core::analyze_with(
        &cfg,
        &SyncOptions {
            procs: Some(p.procs),
            threads,
            ..SyncOptions::default()
        },
    );
    let wall = wall_bucket_us(start);
    let counters = analysis.metrics;
    // Candidate pairs per pair left after pruning — the pairs whose `D_SS`
    // bit is read off the ancestor rows — times 100 (100 = nothing pruned).
    let candidates = counters.get("cycle.candidate_pairs");
    let kept = candidates - counters.get("cycle.pruned_candidates");
    let fields = vec![
        ("idiom", Value::Str(p.idiom.label().to_string())),
        ("unroll", int(p.unroll.into())),
        ("procs", int(p.procs.into())),
        ("accesses", int(cfg.accesses.len() as u64)),
        ("wall_bucket_us", int(wall)),
        ("work_reduction_x100", int(candidates * 100 / kept.max(1))),
    ];
    Ok((fields, counters))
}

fn run_sim(spec: &SimSpec) -> Result<Measured, SyncoptError> {
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
    let cfg = &compiled.optimized.cfg;

    let start = Instant::now();
    let calendar = simulate_configured(cfg, &config, EngineKind::Calendar, SimOutputs::lean())?;
    let wall = wall_bucket_us(start);

    let mut counters = Counters::default();
    let w = calendar.metrics.work;
    counters.set("sim.events_scheduled", w.events_scheduled);
    counters.set("sim.events_dequeued", w.events_dequeued);
    counters.set("sim.bucket_rotations", w.bucket_rotations);
    counters.set("sim.overflow_promotions", w.overflow_promotions);
    counters.set("sim.arena_reuses", w.arena_reuses);
    counters.set("sim.waiter_scans", w.waiter_scans);
    counters.set(
        "sim.events_per_1k_cycles",
        w.events_per_1k_cycles(calendar.exec_cycles),
    );
    let fields = vec![
        ("kernel", Value::Str(spec.kernel.to_string())),
        ("label", Value::Str(spec.label.to_string())),
        ("procs", int(spec.procs.into())),
        ("exec_cycles", int(calendar.exec_cycles)),
        ("wall_bucket_us", int(wall)),
    ];
    Ok((fields, counters))
}

impl BenchReport {
    /// The report as a JSON object (schema [`BENCH_SCHEMA`]); all values
    /// are integers, booleans or strings.
    pub fn to_json(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut obj = Vec::with_capacity(r.fields.len() + 2);
                obj.push(("id".into(), Value::Str(r.id.clone())));
                obj.extend(r.fields.iter().map(|(k, v)| ((*k).into(), v.clone())));
                obj.push(("counters".into(), r.counters.to_json()));
                Value::Obj(obj)
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(BENCH_SCHEMA.to_string())),
            ("suite".into(), Value::Str(self.suite.tag.to_string())),
            ("threads".into(), int(self.threads as u64)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("configs".into(), Value::Arr(rows)),
        ])
    }

    /// A human-readable table: one line per row.
    pub fn render_table(&self) -> String {
        let columns = self.suite.columns;
        let mut out = format!(
            "{} ({} configs, {} thread(s){})\n{:<18}",
            self.suite.title,
            self.rows.len(),
            self.threads.max(1),
            if self.smoke { ", smoke subset" } else { "" },
            "config",
        );
        for c in columns {
            let _ = write!(out, " {:>w$}", c.head, w = c.head_width);
        }
        let _ = writeln!(out, " {:>9}", "wall(us)");
        for r in &self.rows {
            let _ = write!(out, "{:<18}", r.id);
            for c in columns {
                let _ = write!(out, " {:>w$}", (c.cell)(r), w = c.width);
            }
            let _ = writeln!(out, " {:>8}≤", r.int("wall_bucket_us"));
        }
        out
    }

    /// Compares this run against a committed baseline report (parsed
    /// JSON), enforcing the >[`TOLERANCE_PCT`]% work-counter regression
    /// gate on the suite's gated counters for every config id the two
    /// reports share. Configs present on only one side are skipped (a
    /// trajectory may legitimately grow); a gated counter absent from
    /// either side of a shared config is an error, so a renamed or
    /// dropped counter cannot pass the gate by reading as zero. Wall-clock
    /// buckets are never gated, so host noise cannot trip the gate.
    ///
    /// # Errors
    ///
    /// Returns a message naming every regressed or missing `(config,
    /// counter)` pair, a schema error if `baseline` is not a
    /// [`BENCH_SCHEMA`] report, or an error when the baseline shares no
    /// config ids with this run.
    pub fn check_against(&self, baseline: &Value) -> Result<(), String> {
        if baseline.get("schema").and_then(Value::as_str) != Some(BENCH_SCHEMA) {
            return Err(format!("baseline is not a {BENCH_SCHEMA} report"));
        }
        let base_rows = baseline
            .get("configs")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        let mut failures = Vec::new();
        let mut compared = 0usize;
        for row in &self.rows {
            let id = row.id.as_str();
            let Some(base_counters) = base_rows
                .iter()
                .find(|b| b.get("id").and_then(Value::as_str) == Some(id))
                .and_then(|b| b.get("counters"))
            else {
                continue;
            };
            compared += 1;
            for &key in self.suite.gated {
                let old = base_counters
                    .get(key)
                    .and_then(Value::as_int)
                    .and_then(|n| u64::try_from(n).ok());
                match (old, row.counters.try_get(key)) {
                    (None, _) => failures.push(format!("{id}: {key} missing from the baseline")),
                    (_, None) => failures.push(format!("{id}: {key} missing from this run")),
                    // new > old * 1.2, in integer math.
                    (Some(old), Some(new)) if new * 100 > old * (100 + TOLERANCE_PCT) => failures
                        .push(format!(
                            "{id}: {key} regressed {old} -> {new} (>{TOLERANCE_PCT}%)"
                        )),
                    _ => {}
                }
            }
        }
        if compared == 0 {
            return Err("baseline shares no config ids with this run".to_string());
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "work-counter gate failed against baseline:\n  {}",
                failures.join("\n  ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_core::diag::json::Key;

    fn smoke(name: &str) -> BenchReport {
        let suite = suite(name).expect("known suite");
        suite
            .run(true, 1)
            .unwrap_or_else(|e| panic!("{name} smoke bench must run: {e}"))
    }

    /// `counters` without `key`.
    fn without(counters: &Counters, key: &str) -> Counters {
        let mut out = Counters::new();
        for (k, v) in counters.iter().filter(|&(k, _)| k != key) {
            out.set(k, v);
        }
        out
    }

    #[test]
    fn smoke_run_produces_both_idioms() {
        let r = smoke("delay");
        let idioms: Vec<&str> = r
            .rows
            .iter()
            .map(|c| c.fields[0].1.as_str().unwrap())
            .collect();
        assert_eq!(idioms, ["stencil", "flag"]);
        for c in &r.rows {
            assert!(c.int("accesses") > 0);
            assert!(c.counters.get("cycle.candidate_pairs") > 0);
            assert!(c.int("wall_bucket_us").is_power_of_two());
        }
    }

    #[test]
    fn smoke_run_covers_both_settings_and_engines_agree() {
        let r = smoke("sim");
        let ids: Vec<&str> = r.rows.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["ocean_unopt_p4", "cholesky_opt_p4"]);
        for c in &r.rows {
            assert!(c.int("exec_cycles") > 0);
            assert!(c.counters.get("sim.events_dequeued") > 0);
            assert!(c.int("wall_bucket_us").is_power_of_two());
        }
    }

    #[test]
    fn full_sweep_is_five_kernels_by_settings_by_procs() {
        let ids: Vec<String> = suite("sim")
            .unwrap()
            .specs(false)
            .iter()
            .map(Spec::id)
            .collect();
        assert_eq!(ids.len(), 20);
        assert!(ids.contains(&"ocean_unopt_p4".to_string()));
        assert!(ids.contains(&"health_opt_p16".to_string()));
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate sweep ids");
    }

    #[test]
    fn smoke_ids_are_members_of_the_full_sweep() {
        for suite in &SUITES {
            let full: Vec<String> = suite.specs(false).iter().map(Spec::id).collect();
            for spec in suite.specs(true) {
                assert!(full.contains(&spec.id()), "{}: {}", suite.name, spec.id());
            }
        }
    }

    fn assert_json_is_schema_tagged_and_reparses(name: &str) {
        let j = smoke(name).to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(
            j.get("suite").unwrap().as_str(),
            Some(suite(name).unwrap().tag)
        );
        let back = Value::parse(&j.to_string()).expect("bench JSON must reparse");
        assert_eq!(back, j);
    }

    #[test]
    fn json_is_schema_tagged_and_reparses() {
        assert_json_is_schema_tagged_and_reparses("delay");
    }

    #[test]
    fn sim_json_is_schema_tagged_and_reparses() {
        assert_json_is_schema_tagged_and_reparses("sim");
    }

    /// The smoke rows reproduce the committed full-run baselines: same
    /// keys in the same order, same non-counter values (the wall bucket
    /// aside), and the same set of counter keys.
    #[test]
    fn smoke_reports_match_the_committed_baselines() {
        let committed = [
            ("delay", include_str!("../../../BENCH_delay_scaling.json")),
            ("sim", include_str!("../../../BENCH_sim_throughput.json")),
        ];
        for (name, text) in committed {
            let baseline = Value::parse(text).unwrap();
            let base_rows = baseline.get("configs").and_then(Value::as_arr).unwrap();
            let report = smoke(name).to_json();
            let mut joined = 0;
            for row in report.get("configs").and_then(Value::as_arr).unwrap() {
                let id = row.get("id").and_then(Value::as_str).unwrap();
                let Some(base) = base_rows
                    .iter()
                    .find(|b| b.get("id").and_then(Value::as_str) == Some(id))
                else {
                    continue;
                };
                joined += 1;
                let (Value::Obj(fields), Value::Obj(base_fields)) = (row, base) else {
                    panic!("{name}/{id}: rows are objects");
                };
                let keys =
                    |f: &[(Key, Value)]| f.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
                assert_eq!(keys(fields), keys(base_fields), "{name}/{id}: key order");
                for (key, value) in fields {
                    match &**key {
                        "wall_bucket_us" => {}
                        "counters" => {
                            let (Value::Obj(c), Value::Obj(b)) =
                                (value, base.get("counters").unwrap())
                            else {
                                panic!("{name}/{id}: counters are objects");
                            };
                            assert_eq!(keys(c), keys(b), "{name}/{id}: counter keys");
                        }
                        _ => assert_eq!(Some(value), base.get(key), "{name}/{id}: {key}"),
                    }
                }
            }
            assert_eq!(
                joined, 2,
                "{name}: every smoke id is in the committed baseline"
            );
        }
    }

    /// Every row's counters and non-wall fields are the same at 1–4 threads.
    fn assert_counters_identical_across_thread_counts(name: &str) {
        let suite = suite(name).unwrap();
        let not_wall = |r: &BenchRow| {
            r.fields
                .iter()
                .filter(|(k, _)| *k != "wall_bucket_us")
                .cloned()
                .collect::<Vec<_>>()
        };
        let serial = suite.run(true, 1).unwrap();
        for threads in 2..=4 {
            let threaded = suite.run(true, threads).unwrap();
            assert_eq!(serial.rows.len(), threaded.rows.len(), "threads={threads}");
            for (a, b) in serial.rows.iter().zip(&threaded.rows) {
                assert_eq!(a.id, b.id, "threads={threads}");
                assert_eq!(not_wall(a), not_wall(b), "threads={threads} id={}", a.id);
                assert_eq!(a.counters, b.counters, "threads={threads} id={}", a.id);
            }
        }
    }

    #[test]
    fn counters_are_identical_across_thread_counts() {
        assert_counters_identical_across_thread_counts("delay");
    }

    #[test]
    fn sim_counters_are_identical_across_thread_counts() {
        assert_counters_identical_across_thread_counts("sim");
    }

    #[test]
    fn run_ordered_preserves_spec_order_at_any_thread_count() {
        let specs: Vec<u32> = (0..37).collect();
        let serial = run_ordered(&specs, 1, |&n| n * n);
        for threads in [2, 4, 9] {
            let threaded = run_ordered(&specs, threads, |&n| n * n);
            assert_eq!(serial, threaded, "threads={threads}");
        }
    }

    /// The suite's smoke report passes against itself, inflating any gated
    /// counter in any row beyond tolerance trips the gate, and an unrelated
    /// baseline is rejected. Returns the report for suite-specific checks.
    fn assert_gate_accepts_self_and_rejects_regression(name: &str) -> BenchReport {
        let gated = suite(name).unwrap().gated;
        let r = smoke(name);
        let baseline = r.to_json();
        r.check_against(&baseline).expect("self-compare passes");

        for row in 0..r.rows.len() {
            for &key in gated {
                let mut worse = r.clone();
                let bumped = worse.rows[row].counters.get(key) * 2 + 10;
                worse.rows[row].counters.set(key, bumped);
                let err = worse.check_against(&baseline).unwrap_err();
                assert!(err.contains(key), "{err}");
            }
        }

        let bogus = Value::parse(r#"{"schema":"other.v1"}"#).unwrap();
        assert!(r.check_against(&bogus).is_err());
        r
    }

    #[test]
    fn gate_accepts_self_and_rejects_regression() {
        assert_gate_accepts_self_and_rejects_regression("delay");
    }

    #[test]
    fn sim_gate_accepts_self_and_rejects_regression() {
        let r = assert_gate_accepts_self_and_rejects_regression("sim");

        // A counter rising from 0 trips the gate: `ocean_unopt_p4` never
        // overflows the calendar wheel.
        assert_eq!(r.rows[0].id, "ocean_unopt_p4");
        assert_eq!(r.rows[0].counters.get("sim.overflow_promotions"), 0);
        let mut worse = r.clone();
        worse.rows[0].counters.set("sim.overflow_promotions", 1);
        let err = worse.check_against(&r.to_json()).unwrap_err();
        assert!(err.contains("sim.overflow_promotions"), "{err}");
    }

    #[test]
    fn a_gated_counter_missing_on_either_side_fails_the_gate() {
        let r = smoke("delay");
        let baseline = r.to_json();

        let mut dropped = r.clone();
        dropped.rows[0].counters = without(&r.rows[0].counters, "cycle.backpath_queries");
        let err = dropped.check_against(&baseline).unwrap_err();
        assert!(
            err.contains("stencil_u8_p16: cycle.backpath_queries missing from this run"),
            "{err}"
        );

        // The same row checked against a baseline that lacks the counter.
        let err = r.check_against(&dropped.to_json()).unwrap_err();
        assert!(
            err.contains("stencil_u8_p16: cycle.backpath_queries missing from the baseline"),
            "{err}"
        );
    }

    fn assert_table_shows_every_config(name: &str) {
        let r = smoke(name);
        let t = r.render_table();
        assert!(t.starts_with(suite(name).unwrap().title), "{t}");
        for c in &r.rows {
            assert!(t.contains(&c.id), "{t}");
        }
    }

    #[test]
    fn render_table_shows_every_config() {
        assert_table_shows_every_config("delay");
    }

    #[test]
    fn sim_render_table_shows_every_config() {
        assert_table_shows_every_config("sim");
    }
}
