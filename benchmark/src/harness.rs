//! The measurement loop shared by every workload: repeated set-up, timed
//! passes until the run's time is spent, order statistics, and the result
//! line the driver reads.
//!
//! # How a run turns samples into numbers
//!
//! A pass sweeps the workload's fixed op list once; a run makes as many
//! passes as fit in `--seconds` (at least [`MIN_PASSES`]). Each op keeps
//! the **fastest** of its samples. On the shared reference host every
//! disturbance only ever adds time, in episodes that outlast a pass, so
//! the median of a run drifts by 10–20 % between runs while each op's
//! best time repeats within 2 % (README.md, "How the bounds were
//! derived"). From the per-op best times:
//!
//! * `ops_per_s` = ops ÷ their sum — one pass with every op at its best;
//! * `latency_p50_us` / `latency_p90_us` = the median and 90th percentile
//!   op of the list, each smoothed over the neighbouring ±5 % of ranks
//!   ([`stats::band_percentile`]).

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::spans::{self, Span};
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times the set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Passes a run measures at least, however long each takes: every op's
/// best time is the best of at least this many samples.
const MIN_PASSES: usize = 10;
/// Traced passes a traced run records at least.
const MIN_TRACED_PASSES: usize = 3;
/// Measuring stops here even if `MIN_PASSES` is not reached, so that a
/// pathologically slow build still reports within the driver's limit.
const HARD_STOP: Duration = Duration::from_secs(100);

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Picks the corpus draw and the op order.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// One set-up, one pass: every check on, no statistics worth reading.
    pub smoke: bool,
    /// CPUs the host offers, read before the process pinned itself.
    pub host_cpus: usize,
}

/// What one pass over a workload's op list measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every op in list order, in nanoseconds, checks
    /// excluded.
    pub op_ns: Vec<u64>,
    /// Ops that errored, were refused, or failed their correctness check.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Pass {
    /// Records one op's time and verdict.
    pub fn push(&mut self, ns: u64, verdict: Result<(), String>) {
        self.op_ns.push(ns);
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Per-layer values, one per traced pass; see [`Layers::value`].
#[derive(Debug, Default)]
pub struct Layers {
    per_pass: BTreeMap<String, Vec<f64>>,
    /// The most recent traced pass's spans; written out as the Chrome
    /// trace when the run ends.
    pub last_spans: Vec<Span>,
    /// The first span-accounting violation seen, if any.
    pub accounting_error: Option<String>,
}

impl Layers {
    /// Records one value of `name` for the current traced pass.
    pub fn push(&mut self, name: &str, value: f64) {
        self.per_pass
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Folds one traced pass's spans into the per-layer timings: for every
    /// span name, `<name>_us` is the mean self time per span of that name;
    /// `pipeline.unaccounted_us` is the op time no layer span explains.
    /// Returns the pass summary for derived ratios.
    pub fn record_spans(&mut self, spans: Vec<Span>) -> spans::PassSummary {
        if let Err(e) = spans::verify(&spans) {
            self.accounting_error.get_or_insert(e);
        }
        let summary = spans::summarize(&spans);
        for (name, &(self_ns, count)) in &summary.by_name {
            if count > 0 {
                self.push(&format!("{name}_us"), self_ns as f64 / count as f64 / 1e3);
            }
        }
        if summary.ops > 0 {
            let unexplained = summary.op_ns as f64 - summary.explained_ns as f64;
            self.push(
                "pipeline.unaccounted_us",
                unexplained / summary.ops as f64 / 1e3,
            );
        }
        self.last_spans = spans;
        summary
    }

    /// The value of `name` over the traced passes, 0 when never recorded:
    /// the fastest pass for a time (disturbances only ever add time, as
    /// for the end-to-end metrics), the median for counts, ratios and
    /// `pipeline.unaccounted_us`, which is a difference of times.
    pub fn value(&self, name: &str) -> f64 {
        let Some(values) = self.per_pass.get(name) else {
            return 0.0;
        };
        let is_time = name.ends_with("_us") || name.ends_with("_ns");
        if is_time && name != "pipeline.unaccounted_us" {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            stats::median(values)
        }
    }
}

/// One of the workloads.
pub trait Workload: Sized {
    /// Everything before the first timed op: input generation, daemon
    /// start, cache warming, expected-output computation, and one
    /// validating pass over every op.
    ///
    /// # Errors
    ///
    /// Any input that does not compile, any op that fails its check.
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;

    /// One timed sweep of the op list, tracing off.
    fn pass(&mut self, index: u64) -> Pass;

    /// One sweep with spans on: performs the same real ops as [`pass`]
    /// (returned as the `Pass`) and records their layers into `layers`.
    ///
    /// [`pass`]: Workload::pass
    fn traced_pass(&mut self, index: u64, layers: &mut Layers) -> Pass;

    /// Lines for the human-readable log (per-program rows and the like).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Stops whatever set-up started and waits for it to end.
    ///
    /// # Errors
    ///
    /// A daemon that does not shut down cleanly.
    fn finish(self) -> Result<(), String>;
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every named metric of this run, in manifest order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops timed.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// No op failed and the span accounting held.
    pub correct: bool,
    /// Human-readable log lines.
    pub log: Vec<String>,
    /// Chrome trace of the last traced pass (traced runs only).
    pub trace_json: Option<String>,
}

impl Report {
    /// The one-line JSON result the driver parses.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nanoseconds since `since`.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Totals over the passes of one kind (plain or traced).
#[derive(Default)]
struct Tally {
    /// Per op position: the fastest sample so far.
    best_ns: Vec<u64>,
    /// Per pass: the sum of its op times.
    pass_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn add(&mut self, pass: Pass) {
        self.attempted += pass.op_ns.len() as u64;
        self.failed += pass.failed;
        if self.first_error.is_none() {
            self.first_error = pass.first_error;
        }
        self.pass_ns.push(pass.op_ns.iter().sum::<u64>() as f64);
        if self.best_ns.is_empty() {
            self.best_ns = pass.op_ns;
        } else {
            for (best, ns) in self.best_ns.iter_mut().zip(pass.op_ns) {
                *best = (*best).min(ns);
            }
        }
    }

    fn passes(&self) -> usize {
        self.pass_ns.len()
    }

    /// One pass with every op at its best, in nanoseconds.
    fn best_pass_ns(&self) -> f64 {
        self.best_ns.iter().sum::<u64>() as f64
    }
}

/// Runs workload `W` as `cfg` asks and gathers its report.
///
/// # Errors
///
/// Set-up or teardown failures; a failed op is not an error here, it is
/// counted in the report.
pub fn run<W: Workload>(name: &'static str, cfg: &RunConfig) -> Result<Report, String> {
    let setup_reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut workload: Option<W> = None;
    for _ in 0..setup_reps {
        if let Some(old) = workload.take() {
            old.finish()?;
        }
        let t = Instant::now();
        workload = Some(W::setup(cfg.seed, cfg.trace)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(cfg.seconds);
    let (min_plain, min_traced) = match (cfg.smoke, cfg.trace) {
        (true, _) => (1, usize::from(cfg.trace)),
        (false, false) => (MIN_PASSES, 0),
        (false, true) => (MIN_TRACED_PASSES, MIN_TRACED_PASSES),
    };
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut layers = Layers::default();
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let spent = started.elapsed();
        let enough = plain.passes() >= min_plain && traced.passes() >= min_traced;
        if (enough && (cfg.smoke || spent >= budget)) || (index > 0 && spent >= HARD_STOP) {
            break;
        }
        plain.add(w.pass(index));
        index += 1;
        if cfg.trace {
            traced.add(w.traced_pass(index, &mut layers));
            index += 1;
        }
    }
    let measured = started.elapsed();
    let notes = w.notes();
    w.finish()?;

    let ops = plain.best_ns.len();
    let samples = ops * plain.passes();
    let mut sorted = plain.best_ns.clone();
    sorted.sort_unstable();
    // A smoke run has one pass of samples: pretend each stands for enough
    // of them, print what there is; its numbers are not for comparison.
    let behind = if cfg.smoke {
        usize::MAX / 1000
    } else {
        samples
    };
    let p50 = stats::band_percentile(&sorted, 500, behind).map(|ns| ns / 1e3);
    let p90 = stats::band_percentile(&sorted, 900, behind).map(|ns| ns / 1e3);
    // The slowest hundredth of the op list, where the samples behind it
    // are enough for it to mean something.
    let p99 = stats::percentile(&sorted, 990, samples).map(|ns| ns as f64 / 1e3);
    let ops_per_s = ops as f64 * 1e9 / plain.best_pass_ns();

    let mut log = vec![format!(
        "workload {name}: seed {} trace {} | {} passes x {ops} ops = {samples} samples in {:.1} s | host_cpus {} | {} | commit {}",
        cfg.seed,
        u8::from(cfg.trace),
        plain.passes(),
        measured.as_secs_f64(),
        cfg.host_cpus,
        env!("BENCH_RUSTC_VERSION"),
        commit(),
    )];
    log.push(format!(
        "  per-op best of {} samples, us: p50 {} | p90 {} ({} samples beyond) | p99 {} ({} beyond)",
        plain.passes(),
        show(p50),
        show(p90),
        stats::samples_beyond(samples, 900 + stats::BAND_PERMILLE),
        show(p99),
        stats::samples_beyond(samples, 990),
    ));
    let mut passes = plain.pass_ns.clone();
    passes.sort_by(f64::total_cmp);
    log.push(format!(
        "  pass s: every op at its best {:.4} | fastest {:.4} | median {:.4} | slowest {:.4} -> {:.1} op/s | set-up runs {:?} s",
        plain.best_pass_ns() / 1e9,
        passes[0] / 1e9,
        stats::median(&passes) / 1e9,
        passes[passes.len() - 1] / 1e9,
        ops_per_s,
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    log.extend(notes.into_iter().map(|n| format!("  {n}")));

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    if let Some(e) = plain.first_error.as_ref().or(traced.first_error.as_ref()) {
        log.push(format!("  FAILED op ({failed} of {attempted}): {e}"));
    }
    if let Some(e) = &layers.accounting_error {
        log.push(format!("  SPAN ACCOUNTING BROKEN: {e}"));
    }
    log.push(format!(
        "  fail_ratio {failed}/{attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    ));

    let mut metrics = Vec::new();
    let mut trace_json = None;
    if cfg.trace {
        // The same real ops, timed inside a traced pass and outside one.
        let overhead =
            (traced.best_pass_ns() - plain.best_pass_ns()) * 1000.0 / plain.best_pass_ns().max(1.0);
        layers.push("trace.overhead_permille", overhead);
        if let Some(p99) = p99 {
            layers.push("latency_p99_us", p99);
        }
        for m in PER_LAYER {
            metrics.push((m.name, layers.value(m.name), m.unit));
        }
        log.push(format!(
            "  per-layer medians of span self time by class (last of {} traced passes), us [spans]:",
            traced.passes()
        ));
        let mut by_class: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for ((class, span), (median_us, n)) in spans::class_medians(&layers.last_spans) {
            by_class
                .entry(class)
                .or_default()
                .push(format!("{span} {median_us:.1} [{n}]"));
        }
        for (class, cells) in by_class {
            log.push(format!("    {class:<8} {}", cells.join(" | ")));
        }
        trace_json = Some(spans::chrome_trace(&layers.last_spans));
    } else {
        let missing = || format!("{name}: no samples");
        let values = [
            ("ops_per_s", ops_per_s),
            ("latency_p50_us", p50.ok_or_else(missing)?),
            ("latency_p90_us", p90.ok_or_else(missing)?),
            ("setup_s", stats::median(&setups)),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        for m in END_TO_END {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .expect("every end-to-end metric is computed");
            metrics.push((m.name, *value, m.unit));
        }
    }
    for (metric, value, unit) in &metrics {
        if *value != 0.0 {
            log.push(format!("  {metric:<34} {value:>14.3} {unit}"));
        }
    }
    Ok(Report {
        workload: name,
        metrics,
        attempted,
        failed,
        correct: failed == 0 && layers.accounting_error.is_none(),
        log,
        trace_json,
    })
}

fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}"))
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout has no `.git`; the answer there is `unknown`).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head.to_string(),
    };
    full.chars().take(12).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Kind, Tracer};

    #[test]
    fn layers_report_mean_self_time_and_unaccounted() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", Kind::Op, 1, "c", |_| ());
        t.span("op.layers", Kind::Group, 1, "c", |t| {
            t.layer("core.analyze", 1, "c", || ());
        });
        let mut spans = t.spans().to_vec();
        // Op: 100 us. Group: 70 us, its one layer child: 60 us.
        (spans[0].start_ns, spans[0].end_ns) = (0, 100_000);
        (spans[1].start_ns, spans[1].end_ns) = (100_000, 170_000);
        (spans[2].start_ns, spans[2].end_ns) = (105_000, 165_000);
        let mut layers = Layers::default();
        let sum = layers.record_spans(spans);
        assert_eq!((sum.ops, sum.op_ns, sum.explained_ns), (1, 100_000, 60_000));
        assert_eq!(layers.value("core.analyze_us"), 60.0);
        assert_eq!(layers.value("op.layers_us"), 10.0);
        assert_eq!(layers.value("pipeline.unaccounted_us"), 40.0);
        assert_eq!(layers.value("machine.sim_us"), 0.0);
        assert!(layers.accounting_error.is_none());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "w",
            metrics: vec![("ops_per_s", 12.5, "op/s"), ("setup_s", 0.25, "s")],
            attempted: 7,
            failed: 1,
            correct: false,
            log: Vec::new(),
            trace_json: None,
        };
        let line = report.result_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 7, \"failed\": 1, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"op/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_ops_are_counted_not_dropped() {
        let mut pass = Pass::default();
        pass.push(10, Ok(()));
        pass.push(20, Err("digest mismatch".to_string()));
        pass.push(30, Err("second".to_string()));
        assert_eq!((pass.op_ns.len(), pass.failed), (3, 2));
        assert_eq!(pass.first_error.as_deref(), Some("digest mismatch"));
    }
}
