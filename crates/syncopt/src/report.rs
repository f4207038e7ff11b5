//! The structured pipeline observability report.
//!
//! Every stage of the pipeline measures itself — frontend phase timings,
//! analysis work counters, optimizer action counts, simulator cycle
//! accounting — and the facade assembles the pieces into one
//! [`PipelineReport`]. The report has two renderings:
//!
//! * [`PipelineReport::to_json`] — a stable machine format (schema
//!   `syncopt.pipeline_report.v1`) written straight into one buffer by the
//!   workspace's one JSON writer (`syncopt_core::diag::json`). All values
//!   are integers; the only nondeterministic ones are the `_us` phase
//!   timings, which consumers that diff reports zero out.
//! * [`PipelineReport::render_table`] — a human-readable table.
//!
//! [`ProfileReport`] pairs two reports — the blocking baseline and an
//! optimized run of the same program — the shape of the paper's Figure 12
//! comparison, emitted by `syncoptc profile`.

use syncopt_codegen::{DelayChoice, OptLevel, OptStats};
use syncopt_core::diag::json::{key, write_array, write_ints, Key, Obj, Value};
use syncopt_core::{AnalysisCounters, AnalysisStats, PhaseTimings};
use syncopt_machine::sim::{NetStats, SimResult, StallStats};
use syncopt_machine::{LatencyHistogram, MachineConfig, SimMetrics};

/// Identification of what was compiled and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportMeta {
    /// Processor count the program was analyzed (and possibly run) for.
    pub procs: u32,
    /// Optimization level applied.
    pub level: OptLevel,
    /// Delay set that constrained the motion passes.
    pub delay: DelayChoice,
    /// Machine preset name, when the program was simulated.
    pub machine: Option<String>,
}

/// The simulation section of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Whether the runtime barrier-sequence check passed.
    pub barriers_aligned: bool,
    /// Message counters.
    pub net: NetStats,
    /// Global stall accounting.
    pub stalls: StallStats,
    /// Per-processor cycle accounting, latency histogram, barrier epochs.
    pub metrics: SimMetrics,
    /// Whether the event trace hit its cap (`None` when the run was not
    /// traced); `Some(true)` means the trace is incomplete, not the run
    /// short.
    pub trace_truncated: Option<bool>,
}

impl SimReport {
    /// Extracts the report section from a simulation result.
    pub fn from_sim(sim: &SimResult) -> Self {
        SimReport {
            exec_cycles: sim.exec_cycles,
            barriers_aligned: sim.barriers_aligned,
            net: sim.net,
            stalls: sim.stalls,
            metrics: sim.metrics.clone(),
            trace_truncated: None,
        }
    }
}

/// Everything the pipeline measured while compiling (and optionally
/// running) one program.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// What was compiled and how.
    pub meta: ReportMeta,
    /// Wall-clock phase timings (parse → simulate), zeros unless tracing
    /// was enabled.
    pub timings: PhaseTimings,
    /// Analysis summary (delay-set sizes etc.).
    pub analysis: AnalysisStats,
    /// Work counters from every analysis stage (`conflict.*`, `cycle.*`,
    /// `sync.*`, `delay.*`).
    pub counters: AnalysisCounters,
    /// What the optimizer did.
    pub codegen: OptStats,
    /// The simulation section; `None` for compile-only reports.
    pub sim: Option<SimReport>,
}

/// The stable schema identifier embedded in every JSON report.
pub const REPORT_SCHEMA: &str = "syncopt.pipeline_report.v1";

/// Every optimization level with its label, as used in JSON reports and on
/// the `syncoptc` command line: the one table [`level_label`] and
/// [`parse_level`] read.
const LEVELS: [(OptLevel, &str); 4] = [
    (OptLevel::Blocking, "blocking"),
    (OptLevel::Pipelined, "pipelined"),
    (OptLevel::OneWay, "oneway"),
    (OptLevel::Full, "full"),
];

/// Every delay-set choice with its two labels: the one JSON reports carry,
/// and the short one the command line and the wire write. The one table
/// [`delay_label`], [`delay_cli_label`] and [`parse_delay`] read.
const DELAYS: [(DelayChoice, &str, &str); 2] = [
    (DelayChoice::ShashaSnir, "shasha-snir", "ss"),
    (DelayChoice::SyncRefined, "sync-refined", "sync"),
];

/// The lowercase label of an optimization level.
pub fn level_label(level: OptLevel) -> &'static str {
    let (_, label) = LEVELS
        .iter()
        .find(|&&(l, _)| l == level)
        .expect("every level has a label");
    label
}

/// The optimization level a label names — the inverse of [`level_label`].
pub fn parse_level(label: &str) -> Option<OptLevel> {
    LEVELS
        .iter()
        .find(|&&(_, l)| l == label)
        .map(|&(level, _)| level)
}

fn delay_row(delay: DelayChoice) -> &'static (DelayChoice, &'static str, &'static str) {
    DELAYS
        .iter()
        .find(|&&(d, ..)| d == delay)
        .expect("every delay choice has labels")
}

/// The label of a delay-set choice in a JSON report (`shasha-snir`,
/// `sync-refined`).
pub fn delay_label(delay: DelayChoice) -> &'static str {
    delay_row(delay).1
}

/// The short label of a delay-set choice on the command line and the wire
/// (`ss`, `sync`) — the inverse of [`parse_delay`].
pub fn delay_cli_label(delay: DelayChoice) -> &'static str {
    delay_row(delay).2
}

/// The delay-set choice a label names, in either spelling — the inverse
/// of [`delay_cli_label`] and of [`delay_label`].
pub fn parse_delay(label: &str) -> Option<DelayChoice> {
    DELAYS
        .iter()
        .find(|&&(_, report, cli)| label == cli || label == report)
        .map(|&(delay, ..)| delay)
}

/// Bytes reserved for a report before it is written: room for a compile
/// report, plus about one simulated processor's row and one barrier epoch
/// per entry, so most reports are written without regrowing.
fn report_capacity(sim: Option<&SimReport>) -> usize {
    let sim = sim.map_or(0, |s| {
        176 * s.metrics.per_proc.len() + 72 * s.metrics.barrier_epochs.len()
    });
    (2 << 10) + sim
}

impl PipelineReport {
    /// The report as JSON text with a stable key order, written straight
    /// into one buffer. All values are integers/strings; `timings` entries
    /// carry a `_us` suffix and are the only nondeterministic fields.
    /// Callers that inspect a report parse it
    /// ([`Value::parse`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(report_capacity(self.sim.as_ref()));
        self.write_json(&mut out);
        out
    }

    /// Appends the report's JSON text (what [`PipelineReport::to_json`]
    /// returns) to `out`.
    fn write_json(&self, out: &mut String) {
        let mut o = Obj::open(out);
        o.str(key!("schema"), REPORT_SCHEMA);
        let meta = &self.meta;
        let mut m = Obj::open(o.key(key!("meta")));
        m.int(key!("procs"), u64::from(meta.procs));
        m.str(key!("level"), level_label(meta.level));
        m.str(key!("delay"), delay_label(meta.delay));
        m.str_or_null(key!("machine"), meta.machine.as_deref());
        m.close();
        self.timings.write_json(o.key(key!("timings")));
        write_ints(o.key(key!("analysis")), &analysis_fields(&self.analysis));
        self.counters.write_json(o.key(key!("counters")));
        write_ints(o.key(key!("codegen")), &optstats_fields(&self.codegen));
        if let Some(sim) = &self.sim {
            sim.write_json(o.key(key!("sim")));
        }
        o.close();
    }

    /// Renders the report as a human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline report: level {}, delay {}, {} procs{}\n",
            level_label(self.meta.level),
            delay_label(self.meta.delay),
            self.meta.procs,
            match &self.meta.machine {
                Some(m) => format!(", machine {m}"),
                None => String::new(),
            }
        ));
        if self.timings.enabled() {
            out.push_str("  timings (us):");
            for (name, us) in self.timings.iter() {
                out.push_str(&format!(" {name} {us}"));
            }
            out.push('\n');
        }
        let a = &self.analysis;
        out.push_str(&format!(
            "  analysis: {} accesses, {} conflict pairs, delay D_SS {} -> refined {} ({} dropped)\n",
            a.accesses,
            a.conflict_pairs,
            a.delay_ss,
            a.delay_sync,
            a.delay_ss.saturating_sub(a.delay_sync),
        ));
        if self.counters.get("cycle.oracle_builds") > 0 {
            out.push_str(&format!(
                "  oracle: {} builds, {} SCCs, {} closure word-ORs; \
                 pruned {} of {} candidates ({} queried, {} BFS fallbacks)\n",
                self.counters.get("cycle.oracle_builds") + self.counters.get("sync.oracle_builds"),
                self.counters.get("cycle.sccs") + self.counters.get("sync.oracle_sccs"),
                self.counters.get("cycle.closure_word_ors")
                    + self.counters.get("sync.closure_word_ors"),
                self.counters.get("cycle.pruned_candidates")
                    + self.counters.get("sync.pruned_candidates"),
                self.counters.get("cycle.candidate_pairs")
                    + self.counters.get("sync.candidate_pairs"),
                self.counters.get("cycle.backpath_queries")
                    + self.counters.get("sync.backpath_queries")
                    + self.counters.get("sync.d1_backpath_queries"),
                self.counters.get("cycle.bfs_fallbacks") + self.counters.get("sync.bfs_fallbacks"),
            ));
        }
        for (key, val) in self.counters.iter() {
            out.push_str(&format!("    {key:<34} {val}\n"));
        }
        let c = &self.codegen;
        out.push_str(&format!(
            "  codegen: {} gets / {} puts split, {} sync moves, {} init moves, \
             {} puts->stores, {} gets eliminated, {} puts eliminated\n",
            c.gets_split,
            c.puts_split,
            c.sync_moves,
            c.init_moves,
            c.puts_to_stores,
            c.gets_eliminated,
            c.puts_eliminated,
        ));
        if let Some(sim) = &self.sim {
            render_sim_table(&mut out, sim);
        }
        out
    }
}

/// The analysis summary's members: the `analysis` section of a pipeline
/// report and the `summary` of an `analyze` document.
pub(crate) fn analysis_fields(a: &AnalysisStats) -> [(Key, u64); 6] {
    [
        (key!("accesses"), a.accesses as u64),
        (key!("conflict_pairs"), a.conflict_pairs as u64),
        (key!("delay_ss"), a.delay_ss as u64),
        (key!("delay_sync"), a.delay_sync as u64),
        (key!("precedence_pairs"), a.precedence_pairs as u64),
        (key!("aligned_barriers"), a.aligned_barriers as u64),
    ]
}

/// The optimizer's action counts: the `codegen` section of a pipeline
/// report and the `stats` of an `opt` document.
pub(crate) fn optstats_fields(s: &OptStats) -> [(Key, u64); 11] {
    [
        (key!("gets_split"), s.gets_split as u64),
        (key!("puts_split"), s.puts_split as u64),
        (key!("sync_moves"), s.sync_moves as u64),
        (key!("syncs_merged"), s.syncs_merged as u64),
        (key!("init_moves"), s.init_moves as u64),
        (key!("puts_to_stores"), s.puts_to_stores as u64),
        (key!("gets_eliminated"), s.gets_eliminated as u64),
        (key!("puts_eliminated"), s.puts_eliminated as u64),
        (key!("dead_locals_removed"), s.dead_locals_removed as u64),
        (key!("dead_gets_removed"), s.dead_gets_removed as u64),
        (key!("exprs_folded"), s.exprs_folded as u64),
    ]
}

impl SimReport {
    fn write_json(&self, out: &mut String) {
        let mut o = Obj::open(out);
        o.int(key!("exec_cycles"), self.exec_cycles);
        o.bool(key!("barriers_aligned"), self.barriers_aligned);
        let n = &self.net;
        write_ints(
            o.key(key!("net")),
            &[
                (key!("get_requests"), n.get_requests),
                (key!("get_replies"), n.get_replies),
                (key!("put_requests"), n.put_requests),
                (key!("put_acks"), n.put_acks),
                (key!("store_requests"), n.store_requests),
                (key!("post_messages"), n.post_messages),
                (key!("wait_messages"), n.wait_messages),
                (key!("lock_messages"), n.lock_messages),
                (key!("barriers"), n.barriers),
                (key!("total_messages"), n.total_messages()),
            ],
        );
        let s = &self.stalls;
        write_ints(
            o.key(key!("stalls")),
            &[
                (key!("sync"), s.sync),
                (key!("barrier"), s.barrier),
                (key!("wait"), s.wait),
                (key!("lock"), s.lock),
                (key!("blocking"), s.blocking),
            ],
        );
        let per_proc = self.metrics.per_proc.iter().enumerate();
        write_array(o.key(key!("per_proc")), per_proc, |out, (pi, p)| {
            write_ints(
                out,
                &[
                    (key!("proc"), pi as u64),
                    (key!("busy"), p.busy),
                    (key!("sync"), p.sync),
                    (key!("barrier"), p.barrier),
                    (key!("wait"), p.wait),
                    (key!("lock"), p.lock),
                    (key!("network_wait"), p.network_wait),
                    (key!("idle"), p.idle),
                    (key!("msgs_sent"), p.msgs_sent),
                    (key!("msgs_handled"), p.msgs_handled),
                ],
            );
        });
        write_latency(o.key(key!("latency")), &self.metrics.latency);
        let epochs = &self.metrics.barrier_epochs;
        write_array(o.key(key!("barrier_epochs")), epochs, |out, e| {
            write_ints(
                out,
                &[
                    (key!("first_arrival"), e.first_arrival),
                    (key!("last_arrival"), e.last_arrival),
                    (key!("release"), e.release),
                ],
            );
        });
        let w = &self.metrics.work;
        write_ints(
            o.key(key!("work")),
            &[
                (key!("events_scheduled"), w.events_scheduled),
                (key!("events_dequeued"), w.events_dequeued),
                (key!("bucket_rotations"), w.bucket_rotations),
                (key!("overflow_promotions"), w.overflow_promotions),
                (key!("arena_reuses"), w.arena_reuses),
                (key!("waiter_scans"), w.waiter_scans),
                (
                    key!("events_per_1k_cycles"),
                    w.events_per_1k_cycles(self.exec_cycles),
                ),
            ],
        );
        if let Some(truncated) = self.trace_truncated {
            o.bool(key!("trace_truncated"), truncated);
        }
        o.close();
    }
}

fn write_latency(out: &mut String, h: &LatencyHistogram) {
    let mut o = Obj::open(out);
    o.ints(&[
        (key!("count"), h.count),
        (key!("min"), h.min),
        (key!("mean"), h.mean()),
        (key!("max"), h.max),
    ]);
    let buckets = h.buckets.iter().enumerate();
    write_array(o.key(key!("buckets")), buckets, |out, (i, &count)| {
        let mut bucket = Obj::open(out);
        bucket.str(key!("le"), &LatencyHistogram::bucket_label(i));
        bucket.int(key!("count"), count);
        bucket.close();
    });
    o.close();
}

fn render_sim_table(out: &mut String, sim: &SimReport) {
    out.push_str(&format!(
        "  simulation: {} cycles, {} messages, barriers {}\n",
        sim.exec_cycles,
        sim.net.total_messages(),
        if sim.barriers_aligned {
            "aligned"
        } else {
            "MISALIGNED"
        }
    ));
    if sim.trace_truncated == Some(true) {
        out.push_str("    trace: TRUNCATED (cap hit; raise --trace-limit)\n");
    }
    out.push_str(&format!(
        "    stalls: sync {} barrier {} wait {} lock {} blocking {}\n",
        sim.stalls.sync, sim.stalls.barrier, sim.stalls.wait, sim.stalls.lock, sim.stalls.blocking
    ));
    out.push_str(
        "    proc       busy       sync    barrier       wait       lock    net-wait       idle\n",
    );
    for (pi, p) in sim.metrics.per_proc.iter().enumerate() {
        out.push_str(&format!(
            "    {pi:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}\n",
            p.busy, p.sync, p.barrier, p.wait, p.lock, p.network_wait, p.idle
        ));
    }
    let w = &sim.metrics.work;
    if w.events_dequeued > 0 {
        out.push_str(&format!(
            "    engine: {} events scheduled / {} dequeued ({} per 1k cycles), \
             {} bucket rotations, {} overflow promotions, {} arena reuses, \
             {} waiter scans\n",
            w.events_scheduled,
            w.events_dequeued,
            w.events_per_1k_cycles(sim.exec_cycles),
            w.bucket_rotations,
            w.overflow_promotions,
            w.arena_reuses,
            w.waiter_scans,
        ));
    }
    let h = &sim.metrics.latency;
    if h.count > 0 {
        out.push_str(&format!(
            "    remote latency: {} samples, min {} / mean {} / max {} cycles\n",
            h.count,
            h.min,
            h.mean(),
            h.max
        ));
        out.push_str("      cycles            count\n");
        for (i, &count) in h.buckets.iter().enumerate() {
            out.push_str(&format!(
                "      {:<14} {count:>8}\n",
                LatencyHistogram::bucket_range(i)
            ));
        }
    }
    if !sim.metrics.barrier_epochs.is_empty() {
        out.push_str("    barrier epochs (first arrival / last arrival / release):\n");
        for (i, e) in sim.metrics.barrier_epochs.iter().enumerate() {
            out.push_str(&format!(
                "      #{i}: {} / {} / {} (skew {})\n",
                e.first_arrival,
                e.last_arrival,
                e.release,
                e.skew()
            ));
        }
    }
}

/// A blocking-baseline vs optimized comparison of one program on one
/// machine — the shape of the paper's Figure 12 bars, as emitted by
/// `syncoptc profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The `OptLevel::Blocking` reference run.
    pub blocking: PipelineReport,
    /// The optimized run.
    pub optimized: PipelineReport,
}

impl ProfileReport {
    /// Speedup of the optimized run over the blocking baseline, times 100
    /// (integer so JSON reports stay float-free). 100 means no change.
    pub fn speedup_x100(&self) -> u64 {
        let base = self.blocking.sim.as_ref().map_or(0, |s| s.exec_cycles);
        let opt = self.optimized.sim.as_ref().map_or(0, |s| s.exec_cycles);
        (base * 100).checked_div(opt).unwrap_or(100)
    }

    /// The profile as JSON text (`syncopt.profile_report.v1`), written
    /// straight into one buffer.
    pub fn to_json(&self) -> String {
        let sims = [&self.blocking.sim, &self.optimized.sim];
        let capacity = sims.iter().map(|sim| report_capacity(sim.as_ref())).sum();
        let mut out = String::with_capacity(capacity);
        let cycles = |r: &PipelineReport| r.sim.as_ref().map_or(0, |s| s.exec_cycles as i64);
        let messages =
            |r: &PipelineReport| r.sim.as_ref().map_or(0, |s| s.net.total_messages() as i64);
        let mut o = Obj::open(&mut out);
        o.str(key!("schema"), "syncopt.profile_report.v1");
        self.blocking.write_json(o.key(key!("blocking")));
        self.optimized.write_json(o.key(key!("optimized")));
        let mut cmp = Obj::open(o.key(key!("comparison")));
        cmp.int(key!("speedup_x100"), self.speedup_x100());
        cmp.signed(
            key!("cycles_saved"),
            cycles(&self.blocking) - cycles(&self.optimized),
        );
        cmp.signed(
            key!("messages_delta"),
            messages(&self.optimized) - messages(&self.blocking),
        );
        cmp.close();
        o.close();
        out
    }

    /// Renders both runs side by side with a comparison footer.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let b = self.blocking.sim.as_ref();
        let o = self.optimized.sim.as_ref();
        out.push_str(&format!(
            "profile: blocking vs {} ({} procs{})\n",
            level_label(self.optimized.meta.level),
            self.optimized.meta.procs,
            match &self.optimized.meta.machine {
                Some(m) => format!(", machine {m}"),
                None => String::new(),
            }
        ));
        let row = |label: &str, bv: u64, ov: u64| format!("  {label:<22} {bv:>12} {ov:>12}\n");
        out.push_str(&format!(
            "  {:<22} {:>12} {:>12}\n",
            "", "blocking", "optimized"
        ));
        out.push_str(&row(
            "exec cycles",
            b.map_or(0, |s| s.exec_cycles),
            o.map_or(0, |s| s.exec_cycles),
        ));
        out.push_str(&row(
            "messages",
            b.map_or(0, |s| s.net.total_messages()),
            o.map_or(0, |s| s.net.total_messages()),
        ));
        out.push_str(&row(
            "one-way stores",
            b.map_or(0, |s| s.net.store_requests),
            o.map_or(0, |s| s.net.store_requests),
        ));
        out.push_str(&row(
            "blocking-stall cycles",
            b.map_or(0, |s| s.stalls.blocking),
            o.map_or(0, |s| s.stalls.blocking),
        ));
        out.push_str(&row(
            "sync-stall cycles",
            b.map_or(0, |s| s.stalls.sync),
            o.map_or(0, |s| s.stalls.sync),
        ));
        out.push_str(&row(
            "barrier-stall cycles",
            b.map_or(0, |s| s.stalls.barrier),
            o.map_or(0, |s| s.stalls.barrier),
        ));
        out.push_str(&row(
            "delay pairs",
            self.blocking.analysis.delay_sync as u64,
            self.optimized.analysis.delay_sync as u64,
        ));
        let s = self.speedup_x100();
        out.push_str(&format!("  speedup: {}.{:02}x\n", s / 100, s % 100));
        out.push_str("\n--- blocking ---\n");
        out.push_str(&self.blocking.render_table());
        out.push_str("\n--- optimized ---\n");
        out.push_str(&self.optimized.render_table());
        out
    }
}

/// Builds the metadata section for a report.
pub(crate) fn meta_for(
    procs: u32,
    level: OptLevel,
    delay: DelayChoice,
    machine: Option<&MachineConfig>,
) -> ReportMeta {
    ReportMeta {
        procs,
        level,
        delay,
        machine: machine.map(|m| m.name.clone()),
    }
}

/// Renders the daemon `stats` reply (the object [`DaemonClient::stats`]
/// returns) as a human-readable table: service header, cache totals,
/// and — when the daemon runs with telemetry — live gauges plus a
/// per-operation request/latency breakdown from the
/// `syncopt.metrics.v1` document. This is what `syncoptc stats` (and
/// `stats --watch`) prints.
///
/// [`DaemonClient::stats`]: crate::client::DaemonClient::stats
pub fn render_stats_table(stats: &Value) -> String {
    let int = |v: Option<&Value>| v.and_then(Value::as_int).unwrap_or(0);
    let mut out = String::new();
    let version = stats.get("version").and_then(Value::as_str).unwrap_or("?");
    let uptime_ms = int(stats.get("uptime_ms"));
    out.push_str(&format!(
        "syncoptd {version} — up {}.{:03} s, {} request(s)\n",
        uptime_ms / 1000,
        uptime_ms % 1000,
        int(stats.get("requests_total")),
    ));
    if let Some(cache) = stats.get("cache") {
        out.push_str(&format!(
            "  cache: {} hit(s), {} miss(es), {} eviction(s); {} artifact(s) of capacity {}\n",
            int(cache.get("hits")),
            int(cache.get("misses")),
            int(cache.get("evictions")),
            int(stats.get("artifacts")),
            int(stats.get("capacity")),
        ));
    }
    let Some(doc) = stats.get("metrics") else {
        out.push_str("  telemetry: off (--no-telemetry)\n");
        return out;
    };
    let registry = doc.get("metrics");
    let counters = registry.and_then(|m| m.get("counters"));
    let gauges = registry.and_then(|m| m.get("gauges"));
    let counter = |name: &str| int(counters.and_then(|c| c.get(name)));
    out.push_str(&format!(
        "  service: {} in flight, {} connection(s) open ({} opened, {} closed)\n",
        int(gauges.and_then(|g| g.get("rpc.in_flight"))),
        int(gauges.and_then(|g| g.get("rpc.connections_open"))),
        counter("rpc.connections_opened"),
        counter("rpc.connections_closed"),
    ));
    out.push_str(&format!(
        "  traffic: {} byte(s) in, {} byte(s) out; {} error(s), {} failure(s), {} slow\n",
        counter("rpc.bytes_in"),
        counter("rpc.bytes_out"),
        counter("rpc.errors_total"),
        counter("rpc.failures_total"),
        counter("rpc.slow_requests_total"),
    ));
    // Per-op breakdown: every labeled requests_total counter, joined
    // with its latency histogram.
    let Some(Value::Obj(counter_fields)) = counters else {
        return out;
    };
    let histograms = registry.and_then(|m| m.get("histograms"));
    let mut rows = Vec::new();
    for (key, value) in counter_fields {
        let Some(op) = key
            .strip_prefix("rpc.requests_total{op=\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
        else {
            continue;
        };
        let count = value.as_int().unwrap_or(0);
        let hist =
            histograms.and_then(|h| h.get(&format!("rpc.request_latency_us{{op=\"{op}\"}}")));
        let sum = int(hist.and_then(|h| h.get("sum_us")));
        let mean = if count > 0 { sum / count } else { 0 };
        rows.push((
            op.to_string(),
            count,
            mean,
            int(hist.and_then(|h| h.get("min_us"))),
            int(hist.and_then(|h| h.get("max_us"))),
        ));
    }
    if !rows.is_empty() {
        out.push_str(&format!(
            "  {:<12} {:>8} {:>10} {:>10} {:>10}\n",
            "op", "requests", "mean_us", "min_us", "max_us"
        ));
        for (op, count, mean, min, max) in rows {
            out.push_str(&format!(
                "  {op:<12} {count:>8} {mean:>10} {min:>10} {max:>10}\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report(level: OptLevel, exec: Option<u64>) -> PipelineReport {
        PipelineReport {
            meta: ReportMeta {
                procs: 4,
                level,
                delay: DelayChoice::SyncRefined,
                machine: Some("CM-5".to_string()),
            },
            timings: PhaseTimings::new(false),
            analysis: AnalysisStats {
                accesses: 2,
                conflict_pairs: 1,
                delay_ss: 1,
                delay_sync: 0,
                precedence_pairs: 0,
                aligned_barriers: 0,
            },
            counters: AnalysisCounters::default(),
            codegen: OptStats::default(),
            sim: exec.map(|e| SimReport {
                exec_cycles: e,
                barriers_aligned: true,
                net: NetStats::default(),
                stalls: StallStats::default(),
                metrics: SimMetrics::default(),
                trace_truncated: None,
            }),
        }
    }

    #[test]
    fn json_has_stable_top_level_schema() {
        let r = empty_report(OptLevel::Full, Some(100));
        let j = Value::parse(&r.to_json()).unwrap();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(
            j.get("meta").unwrap().get("level").unwrap().as_str(),
            Some("full")
        );
        assert!(j.get("sim").is_some());
        // The engine work counters ride along in every sim section.
        let work = j.get("sim").unwrap().get("work").unwrap();
        assert_eq!(work.get("waiter_scans").unwrap().as_int(), Some(0));
        assert!(work.get("events_per_1k_cycles").is_some());
        // Compile-only reports omit the sim section.
        let c = empty_report(OptLevel::Full, None);
        assert!(Value::parse(&c.to_json()).unwrap().get("sim").is_none());
    }

    fn all_levels() -> [OptLevel; 4] {
        [
            OptLevel::Blocking,
            OptLevel::Pipelined,
            OptLevel::OneWay,
            OptLevel::Full,
        ]
    }

    #[test]
    fn speedup_is_ratio_times_100() {
        let p = ProfileReport {
            blocking: empty_report(OptLevel::Blocking, Some(300)),
            optimized: empty_report(OptLevel::Full, Some(200)),
        };
        assert_eq!(p.speedup_x100(), 150);
        let j = Value::parse(&p.to_json()).unwrap();
        let cmp = j.get("comparison").unwrap();
        assert_eq!(cmp.get("speedup_x100").unwrap().as_int(), Some(150));
        assert_eq!(cmp.get("cycles_saved").unwrap().as_int(), Some(100));
    }

    #[test]
    fn tables_render_without_panicking() {
        let p = ProfileReport {
            blocking: empty_report(OptLevel::Blocking, Some(300)),
            optimized: empty_report(OptLevel::Full, Some(200)),
        };
        let t = p.render_table();
        assert!(t.contains("speedup: 1.50x"), "{t}");
        assert!(t.contains("exec cycles"), "{t}");
        let single = empty_report(OptLevel::Full, Some(10)).render_table();
        assert!(single.contains("pipeline report"), "{single}");
    }

    #[test]
    fn stats_table_renders_service_and_per_op_rows() {
        let stats = Value::parse(
            r#"{"cache":{"hits":5,"misses":2,"evictions":0},"artifacts":3,"capacity":64,
                "uptime_ms":2500,"requests_total":7,"version":"0.1.0",
                "metrics":{"schema":"syncopt.metrics.v1","metrics":{
                  "counters":{"rpc.requests_total":7,
                              "rpc.requests_total{op=\"check\"}":4,
                              "rpc.requests_total{op=\"ping\"}":3,
                              "rpc.bytes_in":100,"rpc.bytes_out":900,
                              "rpc.errors_total":0,"rpc.failures_total":1,
                              "rpc.slow_requests_total":0,
                              "rpc.connections_opened":2,"rpc.connections_closed":1},
                  "gauges":{"rpc.in_flight":1,"rpc.connections_open":1},
                  "histograms":{"rpc.request_latency_us{op=\"check\"}":
                      {"count":4,"sum_us":400,"min_us":50,"max_us":200}}}}}"#,
        )
        .unwrap();
        let t = render_stats_table(&stats);
        assert!(
            t.contains("syncoptd 0.1.0 — up 2.500 s, 7 request(s)"),
            "{t}"
        );
        assert!(t.contains("5 hit(s), 2 miss(es)"), "{t}");
        assert!(t.contains("1 in flight"), "{t}");
        // check row: 4 requests, mean 100us.
        let check_row = t.lines().find(|l| l.trim().starts_with("check")).unwrap();
        assert!(
            check_row.contains('4') && check_row.contains("100"),
            "{check_row}"
        );
    }

    #[test]
    fn stats_table_reports_disabled_telemetry() {
        let stats = Value::parse(
            r#"{"cache":{"hits":0,"misses":0,"evictions":0},"artifacts":0,"capacity":64,
                "uptime_ms":10,"requests_total":1,"version":"0.1.0"}"#,
        )
        .unwrap();
        let t = render_stats_table(&stats);
        assert!(t.contains("telemetry: off"), "{t}");
    }

    /// Every variant has its labels, and a label parses back to the
    /// variant it names, in both spellings of a delay choice.
    #[test]
    fn labels_cover_all_variants() {
        assert_eq!(level_label(OptLevel::Blocking), "blocking");
        assert_eq!(level_label(OptLevel::Pipelined), "pipelined");
        assert_eq!(level_label(OptLevel::OneWay), "oneway");
        assert_eq!(level_label(OptLevel::Full), "full");
        assert_eq!(delay_label(DelayChoice::ShashaSnir), "shasha-snir");
        assert_eq!(delay_label(DelayChoice::SyncRefined), "sync-refined");
        assert_eq!(delay_cli_label(DelayChoice::ShashaSnir), "ss");
        assert_eq!(delay_cli_label(DelayChoice::SyncRefined), "sync");
        for level in all_levels() {
            assert_eq!(parse_level(level_label(level)), Some(level), "{level:?}");
        }
        for delay in [DelayChoice::ShashaSnir, DelayChoice::SyncRefined] {
            assert_eq!(
                parse_delay(delay_cli_label(delay)),
                Some(delay),
                "{delay:?}"
            );
            assert_eq!(parse_delay(delay_label(delay)), Some(delay), "{delay:?}");
        }
        assert_eq!(parse_level("fast"), None);
        assert_eq!(parse_delay("refined"), None);
    }
}
