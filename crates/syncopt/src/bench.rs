//! The delay-set scaling benchmark (`syncoptc bench`, the `delay_scaling`
//! bench binary).
//!
//! Runs the full analysis pipeline over the synthetic scaling trajectory
//! ([`syncopt_kernels::scaling`]) and records, per configuration:
//!
//! * the deterministic analysis **work counters** (`cycle.*`, `sync.*`) —
//!   the signal the CI regression gate compares, because they are exact
//!   integers independent of machine load;
//! * a **wall-time bucket** — the analysis wall time rounded up to the
//!   next power of two of microseconds. Buckets are coarse on purpose:
//!   they show the trajectory's shape on any machine without making the
//!   committed JSON churn on noise (and they are excluded from the
//!   regression gate).
//!
//! The report serializes to the stable all-integer schema
//! [`BENCH_SCHEMA`] (`syncopt.bench_report.v1`); see docs/PERFORMANCE.md
//! for the field-by-field description and the gate semantics.

use syncopt_core::diag::json::Value;
use syncopt_core::{Counters, SyncOptions};
use syncopt_kernels::scaling::{self, ScalingParams};

use crate::SyncoptError;

/// The stable schema identifier embedded in every benchmark report.
pub const BENCH_SCHEMA: &str = "syncopt.bench_report.v1";

/// Counter keys the regression gate watches. All are "work performed"
/// measures: an increase beyond the tolerance means the analysis got
/// slower in a machine-independent way. The `conflict.*` pair is the one
/// that moves along the machine-width axis of the trajectory: the guarded
/// collision tests are the only part of the analysis that reads `PROCS`.
pub const GATED_COUNTERS: [&str; 7] = [
    "conflict.pair_tests",
    "conflict.proc_steps",
    "cycle.backpath_queries",
    "cycle.closure_word_ors",
    "sync.d1_backpath_queries",
    "sync.backpath_queries",
    "sync.closure_word_ors",
];

/// Regression tolerance: fail when `new > old * (1 + TOLERANCE_PCT/100)`.
pub const TOLERANCE_PCT: u64 = 20;

/// One analyzed trajectory point.
#[derive(Debug, Clone)]
pub struct BenchConfigResult {
    /// Stable config id (`stencil_u32_p16`) — the baseline join key.
    pub id: String,
    /// Program shape label (`stencil` / `flag`).
    pub idiom: &'static str,
    /// Unroll factor.
    pub unroll: u32,
    /// Processor count analyzed for.
    pub procs: u32,
    /// Access sites in the lowered program.
    pub accesses: usize,
    /// Analysis wall time, rounded up to the next power of two of
    /// microseconds (nondeterministic; excluded from the gate).
    pub wall_bucket_us: u64,
    /// The full deterministic counter set from [`syncopt_core::analyze`].
    pub counters: Counters,
}

impl BenchConfigResult {
    /// Candidate pairs per pair left after pruning — the pairs whose
    /// `D_SS` bit is read off the ancestor rows — times 100 (integer-only
    /// pruning evidence; 100 = nothing pruned).
    pub fn work_reduction_x100(&self) -> u64 {
        let candidates = self.counters.get("cycle.candidate_pairs");
        let pruned = self.counters.get("cycle.pruned_candidates");
        candidates * 100 / (candidates - pruned).max(1)
    }
}

/// A full benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Worker threads the analysis ran with.
    pub threads: usize,
    /// Whether this was the two-point smoke subset.
    pub smoke: bool,
    /// Per-configuration results, in trajectory order.
    pub configs: Vec<BenchConfigResult>,
}

/// Runs the scaling trajectory (or the CI smoke subset) with `threads`
/// analysis workers.
///
/// # Errors
///
/// Propagates frontend/lowering errors from the generated programs —
/// which would be a bug in the generator, not in the input.
pub fn run_bench(smoke: bool, threads: usize) -> Result<BenchReport, SyncoptError> {
    let points = if smoke {
        scaling::smoke_trajectory()
    } else {
        scaling::trajectory()
    };
    let mut configs = Vec::with_capacity(points.len());
    for p in &points {
        configs.push(run_config(p, threads)?);
    }
    Ok(BenchReport {
        threads,
        smoke,
        configs,
    })
}

fn run_config(p: &ScalingParams, threads: usize) -> Result<BenchConfigResult, SyncoptError> {
    let kernel = scaling::generate(p);
    let program = syncopt_frontend::prepare_program(&kernel.source)?;
    let cfg = syncopt_ir::lower::lower_main(&program)?;
    let start = std::time::Instant::now();
    let analysis = syncopt_core::analyze_with(
        &cfg,
        &SyncOptions {
            procs: Some(p.procs),
            threads,
            ..SyncOptions::default()
        },
    );
    let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    Ok(BenchConfigResult {
        id: p.id(),
        idiom: p.idiom.label(),
        unroll: p.unroll,
        procs: p.procs,
        accesses: cfg.accesses.len(),
        wall_bucket_us: wall_us.max(1).next_power_of_two(),
        counters: analysis.metrics,
    })
}

impl BenchReport {
    /// The report as a JSON object (schema [`BENCH_SCHEMA`]); all values
    /// are integers or strings.
    pub fn to_json(&self) -> Value {
        let configs = self
            .configs
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(c.id.clone())),
                    ("idiom".into(), Value::Str(c.idiom.to_string())),
                    ("unroll".into(), Value::Int(i64::from(c.unroll))),
                    ("procs".into(), Value::Int(i64::from(c.procs))),
                    ("accesses".into(), Value::Int(c.accesses as i64)),
                    ("wall_bucket_us".into(), Value::Int(c.wall_bucket_us as i64)),
                    (
                        "work_reduction_x100".into(),
                        Value::Int(c.work_reduction_x100() as i64),
                    ),
                    ("counters".into(), c.counters.to_json()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(BENCH_SCHEMA.to_string())),
            ("suite".into(), Value::Str("delay_scaling".to_string())),
            ("threads".into(), Value::Int(self.threads as i64)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("configs".into(), Value::Arr(configs)),
        ])
    }

    /// A human-readable trajectory table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "delay-set scaling trajectory ({} configs, {} thread(s){})\n",
            self.configs.len(),
            self.threads.max(1),
            if self.smoke { ", smoke subset" } else { "" },
        ));
        out.push_str(&format!(
            "{:<18} {:>9} {:>11} {:>9} {:>10} {:>12} {:>9}\n",
            "config", "accesses", "candidates", "queries", "pruned", "reduction", "wall(us)"
        ));
        for c in &self.configs {
            let red = c.work_reduction_x100();
            out.push_str(&format!(
                "{:<18} {:>9} {:>11} {:>9} {:>10} {:>9}.{:02}x {:>8}≤\n",
                c.id,
                c.accesses,
                c.counters.get("cycle.candidate_pairs"),
                c.counters.get("cycle.backpath_queries") + c.counters.get("sync.backpath_queries"),
                c.counters.get("cycle.pruned_candidates"),
                red / 100,
                red % 100,
                c.wall_bucket_us,
            ));
        }
        out
    }

    /// Compares this run against a committed baseline report (parsed
    /// JSON), enforcing the >[`TOLERANCE_PCT`]% work-counter regression
    /// gate on every config id the two reports share. Configs present on
    /// only one side are skipped (the trajectory may legitimately grow).
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
        gate_counters_against(&pairs, baseline, &GATED_COUNTERS)
    }
}

/// The counter-regression gate shared by every bench suite: joins the
/// current configs with a baseline report by config id and fails when any
/// gated counter grew by more than [`TOLERANCE_PCT`]%. Wall-clock buckets
/// never appear in `gated`, so host noise cannot trip the gate.
///
/// # Errors
///
/// Returns a message naming every regressed `(config, counter)` pair, a
/// schema error if `baseline` is not a [`BENCH_SCHEMA`] report, or an
/// error when the baseline shares no config ids with the current run.
pub fn gate_counters_against(
    current: &[(&str, &Counters)],
    baseline: &Value,
    gated: &[&str],
) -> Result<(), String> {
    if baseline.get("schema").and_then(Value::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("baseline is not a {BENCH_SCHEMA} report"));
    }
    let empty = Vec::new();
    let base_configs = match baseline.get("configs") {
        Some(Value::Arr(items)) => items,
        _ => &empty,
    };
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for (id, counters) in current {
        let Some(base) = base_configs
            .iter()
            .find(|b| b.get("id").and_then(Value::as_str) == Some(id))
        else {
            continue;
        };
        let Some(base_counters) = base.get("counters") else {
            continue;
        };
        compared += 1;
        for key in gated {
            let old = base_counters.get(key).and_then(Value::as_int).unwrap_or(0);
            let old = u64::try_from(old).unwrap_or(0);
            let new = counters.get(key);
            // new > old * 1.2, in integer math.
            if new * 100 > old * (100 + TOLERANCE_PCT) {
                failures.push(format!(
                    "{id}: {key} regressed {old} -> {new} (>{TOLERANCE_PCT}%)"
                ));
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
            "work-counter regression against baseline:\n  {}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_report() -> BenchReport {
        run_bench(true, 1).expect("smoke bench must run")
    }

    #[test]
    fn smoke_run_produces_both_idioms() {
        let r = smoke_report();
        assert_eq!(r.configs.len(), 2);
        assert_eq!(r.configs[0].idiom, "stencil");
        assert_eq!(r.configs[1].idiom, "flag");
        for c in &r.configs {
            assert!(c.accesses > 0);
            assert!(c.counters.get("cycle.candidate_pairs") > 0);
            assert!(c.wall_bucket_us.is_power_of_two());
        }
    }

    #[test]
    fn json_is_schema_tagged_and_reparses() {
        let r = smoke_report();
        let j = r.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        let text = j.to_string();
        let back = Value::parse(&text).expect("bench JSON must reparse");
        assert_eq!(back, j);
    }

    #[test]
    fn counters_are_identical_across_thread_counts() {
        let serial = run_bench(true, 1).unwrap();
        for threads in 2..=4 {
            let threaded = run_bench(true, threads).unwrap();
            for (a, b) in serial.configs.iter().zip(threaded.configs.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.counters, b.counters, "threads={threads} id={}", a.id);
            }
        }
    }

    #[test]
    fn gate_accepts_self_and_rejects_regression() {
        let r = smoke_report();
        let baseline = r.to_json();
        r.check_against(&baseline).expect("self-compare passes");

        // Inflate the current counters: must trip the gate.
        let mut worse = r.clone();
        let bumped = worse.configs[0].counters.get("cycle.backpath_queries") * 2 + 10;
        worse.configs[0]
            .counters
            .set("cycle.backpath_queries", bumped);
        let err = worse.check_against(&baseline).unwrap_err();
        assert!(err.contains("cycle.backpath_queries"), "{err}");

        // Unrelated baselines are rejected loudly.
        let bogus = Value::parse(r#"{"schema":"other.v1"}"#).unwrap();
        assert!(r.check_against(&bogus).is_err());
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
