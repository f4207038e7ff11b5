//! The work-counter suites and the `counters` command line.
//!
//! ```text
//! counters [--suite delay|sim] [--smoke] [--out PATH] [--check BASELINE]
//!          [--format human|json]
//! ```
//!
//! runs one suite (default `delay`), or its two-point smoke subset, and
//! prints its report as a table or as JSON. `--out` also writes the JSON to
//! a file, and `--check` gates the fresh counters against a committed
//! baseline (`BenchReport::check_against`), exiting 1 on a regression.
//!
//! Every suite is one row of `SUITES`: its full and smoke spec lists,
//! the counters the regression gate watches and its table columns. A spec
//! runs into one report row (id, ordered fields, name-sorted counters);
//! the report, its JSON, its table and the gate are written once, here.
//! The specs run one after another on the calling thread.
//!
//! * `delay` (suite tag `delay_scaling`) runs the delay-set analysis, with
//!   its default options, over the synthetic scaling trajectory
//!   ([`syncopt_kernels::scaling`]).
//! * `sim` (suite tag `sim_throughput`) compiles the five evaluation
//!   kernels at bench sizes ([`KernelParams::bench`]) and simulates each
//!   once on the calendar-queue engine. The reference heap engine is not
//!   run here: `tests/sim_difftest.rs` compares the two engines on every
//!   kernel at more levels and sizes than this suite sweeps.
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
//! (`syncopt.bench_report.v1`). Its `threads` member and the table's
//! `1 thread(s)` are constants, kept so that the committed baselines stay
//! byte-identical. See docs/PERFORMANCE.md for the field-by-field
//! description and the gate semantics.

use std::fmt::Write as _;
use std::time::Instant;

use syncopt::commands::Format;
use syncopt::{DelayChoice, OptLevel, Syncopt, SyncoptError};
use syncopt_core::diag::json::{key, write_array, write_int, Key, Obj, Value};
use syncopt_core::SyncOptions;
use syncopt_kernels::scaling::{self, ScalingParams};
use syncopt_kernels::{kernels_with, KernelParams};
use syncopt_machine::{simulate_configured, EngineKind, MachineConfig, SimOutputs};

/// The stable schema identifier embedded in every benchmark report.
pub const BENCH_SCHEMA: &str = "syncopt.bench_report.v1";

/// Regression tolerance: fail when `new > old * (1 + TOLERANCE_PCT/100)`.
pub(crate) const TOLERANCE_PCT: u64 = 20;

/// One counter suite: a row of [`SUITES`].
#[derive(Debug)]
pub(crate) struct Suite {
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
pub(crate) static SUITES: [Suite; 2] = [
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
                r.counter("cycle.candidate_pairs").to_string()
            }),
            col("queries", 9, |r| {
                (r.counter("cycle.backpath_queries") + r.counter("sync.backpath_queries"))
                    .to_string()
            }),
            col("pruned", 10, |r| {
                r.counter("cycle.pruned_candidates").to_string()
            }),
            Column {
                head: "reduction",
                head_width: 12,
                width: 13,
                cell: |r| ratio_x100(r.int("work_reduction_x100")),
            },
        ],
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
                r.counter("sim.events_dequeued").to_string()
            }),
            col("rotations", 9, |r| {
                r.counter("sim.bucket_rotations").to_string()
            }),
            col("overflow", 9, |r| {
                r.counter("sim.overflow_promotions").to_string()
            }),
            col("reuses", 9, |r| r.counter("sim.arena_reuses").to_string()),
        ],
    },
];

/// The suite named `name`, if there is one.
pub(crate) fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// What one report row measures.
#[derive(Debug, Clone, Copy)]
enum Spec {
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

    /// Runs this spec into its report row.
    fn run(&self) -> Result<BenchRow, SyncoptError> {
        let (fields, counters) = match self {
            Spec::Delay(p) => run_delay(p)?,
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
struct SimSpec {
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
pub(crate) struct BenchRow {
    /// Stable config id — the baseline join key.
    pub id: String,
    /// The fields between `id` and `counters`, in report order.
    pub fields: Vec<(Key, Cell)>,
    /// The deterministic work counters, name-sorted: a `delay` row's
    /// [`AnalysisCounters`](syncopt_core::AnalysisCounters), a `sim` row's
    /// engine counters ([`SimWork::reported`](syncopt_machine::SimWork::reported))
    /// under `sim.`.
    pub counters: Vec<(String, u64)>,
}

/// The value of one row field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cell {
    /// A label (`stencil`, `Ocean`).
    Label(&'static str),
    /// A count or a measurement.
    Int(u64),
}

impl BenchRow {
    /// The integer field `key` (zero when absent).
    pub fn int(&self, key: &str) -> u64 {
        match self.fields.iter().find(|(k, _)| k.name() == key) {
            Some(&(_, Cell::Int(n))) => n,
            _ => 0,
        }
    }

    /// The work counter `name`, if the row has it.
    fn try_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, n)| n)
    }

    /// The work counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.try_counter(name).unwrap_or(0)
    }
}

/// A full run of one suite.
#[derive(Debug, Clone)]
pub(crate) struct BenchReport {
    /// The suite that ran.
    pub suite: &'static Suite,
    /// Whether this was the smoke subset.
    pub smoke: bool,
    /// One row per spec, in spec order.
    pub rows: Vec<BenchRow>,
}

impl Suite {
    /// The full spec list, or the smoke subset.
    fn specs(&self, smoke: bool) -> Vec<Spec> {
        (if smoke { self.smoke } else { self.full })()
    }

    /// Runs the suite, or its smoke subset.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors from a spec — a generator bug, not an
    /// input problem.
    pub fn run(&'static self, smoke: bool) -> Result<BenchReport, SyncoptError> {
        Ok(BenchReport {
            suite: self,
            smoke,
            rows: self
                .specs(smoke)
                .iter()
                .map(Spec::run)
                .collect::<Result<_, _>>()?,
        })
    }
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

/// A ×100 fixed-point ratio as `12.34x`.
fn ratio_x100(n: u64) -> String {
    format!("{}.{:02}x", n / 100, n % 100)
}

/// A row's fields between `id` and `counters`, and its counters.
type Measured = (Vec<(Key, Cell)>, Vec<(String, u64)>);

fn run_delay(p: &ScalingParams) -> Result<Measured, SyncoptError> {
    let kernel = scaling::generate(p);
    let program = syncopt_frontend::prepare_program(&kernel.source)?;
    let cfg = syncopt_ir::lower::lower_main(&program)?;
    let start = Instant::now();
    let analysis = syncopt_core::analyze_with(
        &cfg,
        &SyncOptions {
            procs: Some(p.procs),
            ..SyncOptions::default()
        },
    );
    let wall = wall_bucket_us(start);
    let counters = analysis.metrics.iter();
    let counters = counters.map(|(name, n)| (name.to_string(), n)).collect();
    // Candidate pairs per pair left after pruning — the pairs whose `D_SS`
    // bit is read off the ancestor rows — times 100 (100 = nothing pruned).
    let candidates = analysis.metrics.get("cycle.candidate_pairs");
    let kept = candidates - analysis.metrics.get("cycle.pruned_candidates");
    let fields = vec![
        (key!("idiom"), Cell::Label(p.idiom.label())),
        (key!("unroll"), Cell::Int(p.unroll.into())),
        (key!("procs"), Cell::Int(p.procs.into())),
        (key!("accesses"), Cell::Int(cfg.accesses.len() as u64)),
        (key!("wall_bucket_us"), Cell::Int(wall)),
        (
            key!("work_reduction_x100"),
            Cell::Int(candidates * 100 / kept.max(1)),
        ),
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

    let work = calendar.metrics.work.reported(calendar.exec_cycles);
    let mut counters: Vec<_> = work
        .map(|(key, n)| (format!("sim.{}", key.name()), n))
        .collect();
    counters.sort();
    let fields = vec![
        (key!("kernel"), Cell::Label(spec.kernel)),
        (key!("label"), Cell::Label(spec.label)),
        (key!("procs"), Cell::Int(spec.procs.into())),
        (key!("exec_cycles"), Cell::Int(calendar.exec_cycles)),
        (key!("wall_bucket_us"), Cell::Int(wall)),
    ];
    Ok((fields, counters))
}

impl BenchReport {
    /// The report as JSON text (schema [`BENCH_SCHEMA`]); all values are
    /// integers, booleans or strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.str(key!("schema"), BENCH_SCHEMA);
        o.str(key!("suite"), self.suite.tag);
        o.int(key!("threads"), 1);
        o.bool(key!("smoke"), self.smoke);
        write_array(o.key(key!("configs")), &self.rows, |out, r| {
            let mut row = Obj::open(out);
            row.str(key!("id"), &r.id);
            for &(key, cell) in &r.fields {
                match cell {
                    Cell::Label(label) => row.str(key, label),
                    Cell::Int(n) => row.int(key, n),
                }
            }
            let mut counters = Obj::open(row.key(key!("counters")));
            for (name, n) in &r.counters {
                write_int(counters.key_escaped(&[name]), *n as i64);
            }
            counters.close();
            row.close();
        });
        o.close();
        out
    }

    /// A human-readable table: one line per row.
    pub fn render_table(&self) -> String {
        let columns = self.suite.columns;
        let mut out = format!(
            "{} ({} configs, 1 thread(s){})\n{:<18}",
            self.suite.title,
            self.rows.len(),
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
                match (old, row.try_counter(key)) {
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

/// The usage line printed with every command-line error.
pub const USAGE: &str = "usage: counters [--suite delay|sim] [--smoke] [--out PATH] \
                         [--check BASELINE] [--format human|json]";

/// A parsed `counters` command line.
#[derive(Debug)]
pub struct Cli {
    suite: &'static Suite,
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
    format: Format,
}

impl Cli {
    /// Parses a `counters` command line (without the program name).
    ///
    /// # Errors
    ///
    /// An unknown flag, suite or format, a flag without its value, or a
    /// positional argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.into_iter();
        let mut cli = Cli {
            suite: &SUITES[0],
            smoke: false,
            out: None,
            check: None,
            format: Format::Human,
        };
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--suite" => {
                    let name = value()?;
                    cli.suite =
                        suite(&name).ok_or(format!("unknown suite `{name}` (delay|sim)"))?;
                }
                "--smoke" => cli.smoke = true,
                "--out" => cli.out = Some(value()?),
                "--check" => cli.check = Some(value()?),
                "--format" => {
                    let label = value()?;
                    cli.format =
                        Format::parse(&label).ok_or(format!("unknown format `{label}`"))?;
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(cli)
    }

    /// Runs the suite: writes the report to `--out`, prints it in
    /// `--format`, then gates it against `--check`.
    ///
    /// # Errors
    ///
    /// A pipeline error, an unwritable `--out`, an unreadable baseline, or
    /// a failed gate.
    pub fn run(&self) -> Result<(), String> {
        let report = self
            .suite
            .run(self.smoke)
            .map_err(|e| format!("{} suite failed: {e}", self.suite.name))?;
        let json = report.to_json();
        if let Some(path) = &self.out {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("bench report written to {path}");
        }
        match self.format {
            Format::Json => println!("{json}"),
            Format::Human => print!("{}", report.render_table()),
        }
        if let Some(path) = &self.check {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let baseline = Value::parse(&text)
                .map_err(|e| format!("baseline {path} is not valid JSON: {e}"))?;
            report
                .check_against(&baseline)
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("work counters within {TOLERANCE_PCT}% of {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn rejects(line: &str) -> String {
        let rejected = Cli::parse(args(line)).err();
        rejected.unwrap_or_else(|| panic!("`counters {line}` must be rejected"))
    }

    #[test]
    fn parse_accepts_the_five_flags() {
        let cli = Cli::parse(args("")).unwrap();
        assert_eq!(
            (cli.suite.name, cli.smoke, cli.format),
            ("delay", false, Format::Human)
        );
        let cli = Cli::parse(args(
            "--suite sim --smoke --out r.json --check BENCH_sim_throughput.json --format json",
        ))
        .unwrap();
        assert_eq!(
            (cli.suite.name, cli.smoke, cli.format),
            ("sim", true, Format::Json)
        );
        assert_eq!(cli.out.as_deref(), Some("r.json"));
        assert_eq!(cli.check.as_deref(), Some("BENCH_sim_throughput.json"));
    }

    #[test]
    fn parse_rejects_what_no_suite_takes() {
        assert_eq!(rejects("--threads 2"), "unknown flag `--threads`");
        assert_eq!(rejects("--suite zzz"), "unknown suite `zzz` (delay|sim)");
        assert_eq!(rejects("--format yaml"), "unknown format `yaml`");
        assert_eq!(rejects("--check"), "--check needs a value");
        assert_eq!(rejects("--smoke delay"), "unexpected argument `delay`");
        assert_eq!(rejects("--procs 4"), "unknown flag `--procs`");
    }

    fn smoke(name: &str) -> BenchReport {
        let suite = suite(name).expect("known suite");
        suite
            .run(true)
            .unwrap_or_else(|e| panic!("{name} smoke bench must run: {e}"))
    }

    /// The report's JSON, parsed.
    fn parsed(r: &BenchReport) -> Value {
        Value::parse(&r.to_json()).unwrap()
    }

    /// The counter `key` of row `at`, to be changed.
    fn counter_mut<'a>(r: &'a mut BenchReport, at: usize, key: &str) -> &'a mut u64 {
        let counters = &mut r.rows[at].counters;
        &mut counters.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn smoke_run_produces_both_idioms() {
        let r = smoke("delay");
        let idioms: Vec<Cell> = r.rows.iter().map(|c| c.fields[0].1).collect();
        assert_eq!(idioms, [Cell::Label("stencil"), Cell::Label("flag")]);
        for c in &r.rows {
            assert!(c.int("accesses") > 0);
            assert!(c.counter("cycle.candidate_pairs") > 0);
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
            assert!(c.counter("sim.events_dequeued") > 0);
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
        let text = smoke(name).to_json();
        let j = Value::parse(&text).expect("bench JSON must reparse");
        assert_eq!(j.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(
            j.get("suite").unwrap().as_str(),
            Some(suite(name).unwrap().tag)
        );
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(j.to_string(), text, "canonical JSON");
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
            let report = parsed(&smoke(name));
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
                    |f: &[(String, Value)]| f.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
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

    /// What `--suite S --smoke` prints for both suites in both formats, with
    /// every wall bucket written as 0: the fields, the counters and the
    /// table bytes, pinned in `tests/golden/bench_smoke.txt`.
    /// `UPDATE_GOLDEN=1` rewrites the file. Each report is one line of
    /// canonical JSON, and each wall bucket a power of two.
    #[test]
    fn smoke_reports_match_the_golden() {
        let mut text = String::new();
        for suite in &SUITES {
            let mut r = suite.run(true).unwrap();
            for (key, cell) in r.rows.iter_mut().flat_map(|row| &mut row.fields) {
                if key.name() == "wall_bucket_us" {
                    assert!(matches!(*cell, Cell::Int(n) if n.is_power_of_two()));
                    *cell = Cell::Int(0);
                }
            }
            let name = suite.name;
            let json = r.to_json();
            assert_eq!(parsed(&r).to_string(), json, "{name}: canonical JSON");
            let _ = writeln!(text, "== --suite {name} --smoke --format json");
            let _ = writeln!(text, "{json}");
            let _ = writeln!(text, "== --suite {name} --smoke --format human");
            text.push_str(&r.render_table());
        }
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/bench_smoke.txt"
        );
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &text).unwrap();
            return;
        }
        assert_eq!(text, std::fs::read_to_string(path).unwrap());
    }

    /// The suite's smoke report passes against itself, inflating any gated
    /// counter in any row beyond tolerance trips the gate, and an unrelated
    /// baseline is rejected. Returns the report for suite-specific checks.
    fn assert_gate_accepts_self_and_rejects_regression(name: &str) -> BenchReport {
        let gated = suite(name).unwrap().gated;
        let r = smoke(name);
        let baseline = parsed(&r);
        r.check_against(&baseline).expect("self-compare passes");

        for row in 0..r.rows.len() {
            for &key in gated {
                let mut worse = r.clone();
                *counter_mut(&mut worse, row, key) = r.rows[row].counter(key) * 2 + 10;
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
        assert_eq!(r.rows[0].counter("sim.overflow_promotions"), 0);
        let mut worse = r.clone();
        *counter_mut(&mut worse, 0, "sim.overflow_promotions") = 1;
        let err = worse.check_against(&parsed(&r)).unwrap_err();
        assert!(err.contains("sim.overflow_promotions"), "{err}");
    }

    #[test]
    fn a_gated_counter_missing_on_either_side_fails_the_gate() {
        let r = smoke("delay");
        let baseline = parsed(&r);

        let mut dropped = r.clone();
        dropped.rows[0]
            .counters
            .retain(|(k, _)| k != "cycle.backpath_queries");
        let err = dropped.check_against(&baseline).unwrap_err();
        assert!(
            err.contains("stencil_u8_p16: cycle.backpath_queries missing from this run"),
            "{err}"
        );

        // The same row checked against a baseline that lacks the counter.
        let err = r.check_against(&parsed(&dropped)).unwrap_err();
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
