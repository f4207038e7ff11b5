//! The structured pipeline observability report.
//!
//! Every stage of the pipeline measures itself — frontend phase timings,
//! analysis work counters, optimizer action counts, simulator cycle
//! accounting — and the facade assembles the pieces into one
//! [`PipelineReport`]. The report has two renderings:
//!
//! * [`PipelineReport::to_json`] — a stable machine format built on the
//!   std-only JSON emitter in `syncopt-core` (schema
//!   `syncopt.pipeline_report.v1`). All values are integers; the only
//!   nondeterministic ones are the `_us` phase timings, which consumers
//!   that diff reports zero out.
//! * [`PipelineReport::render_table`] — a human-readable table.
//!
//! [`ProfileReport`] pairs two reports — the blocking baseline and an
//! optimized run of the same program — the shape of the paper's Figure 12
//! comparison, emitted by `syncoptc profile`.

use syncopt_codegen::{DelayChoice, OptLevel, OptStats};
use syncopt_core::diag::json::Value;
use syncopt_core::{AnalysisStats, Counters, PhaseTimings};
use syncopt_machine::sim::{NetStats, SimResult, StallStats};
use syncopt_machine::{LatencyHistogram, MachineConfig, SimMetrics, SimWork};

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
    pub counters: Counters,
    /// What the optimizer did.
    pub codegen: OptStats,
    /// The simulation section; `None` for compile-only reports.
    pub sim: Option<SimReport>,
}

/// The stable schema identifier embedded in every JSON report.
pub const REPORT_SCHEMA: &str = "syncopt.pipeline_report.v1";

/// The lowercase label of an optimization level, as used in JSON reports
/// and on the `syncoptc` command line.
pub fn level_label(level: OptLevel) -> &'static str {
    match level {
        OptLevel::Blocking => "blocking",
        OptLevel::Pipelined => "pipelined",
        OptLevel::OneWay => "oneway",
        OptLevel::Full => "full",
    }
}

/// The lowercase label of a delay-set choice.
pub fn delay_label(delay: DelayChoice) -> &'static str {
    match delay {
        DelayChoice::ShashaSnir => "shasha-snir",
        DelayChoice::SyncRefined => "sync-refined",
    }
}

impl PipelineReport {
    /// The report as a JSON object with a stable key order. All values
    /// are integers/strings; `timings` entries carry a `_us` suffix and
    /// are the only nondeterministic fields.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("schema".into(), Value::Str(REPORT_SCHEMA.to_string())),
            ("meta".into(), self.meta_json()),
            ("timings".into(), self.timings.to_json()),
            ("analysis".into(), analysis_json(&self.analysis)),
            ("counters".into(), self.counters.to_json()),
            ("codegen".into(), optstats_json(&self.codegen)),
        ];
        if let Some(sim) = &self.sim {
            fields.push(("sim".into(), sim_json(sim)));
        }
        Value::Obj(fields)
    }

    fn meta_json(&self) -> Value {
        Value::Obj(vec![
            ("procs".into(), Value::Int(i64::from(self.meta.procs))),
            (
                "level".into(),
                Value::Str(level_label(self.meta.level).to_string()),
            ),
            (
                "delay".into(),
                Value::Str(delay_label(self.meta.delay).to_string()),
            ),
            (
                "machine".into(),
                match &self.meta.machine {
                    Some(m) => Value::Str(m.clone()),
                    None => Value::Null,
                },
            ),
        ])
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

/// The analysis summary as a JSON object: the `analysis` section of a
/// pipeline report and the `summary` of an `analyze` document.
pub(crate) fn analysis_json(a: &AnalysisStats) -> Value {
    Value::Obj(vec![
        ("accesses".into(), Value::Int(a.accesses as i64)),
        ("conflict_pairs".into(), Value::Int(a.conflict_pairs as i64)),
        ("delay_ss".into(), Value::Int(a.delay_ss as i64)),
        ("delay_sync".into(), Value::Int(a.delay_sync as i64)),
        (
            "precedence_pairs".into(),
            Value::Int(a.precedence_pairs as i64),
        ),
        (
            "aligned_barriers".into(),
            Value::Int(a.aligned_barriers as i64),
        ),
    ])
}

pub(crate) fn optstats_json(s: &OptStats) -> Value {
    Value::Obj(vec![
        ("gets_split".into(), Value::Int(s.gets_split as i64)),
        ("puts_split".into(), Value::Int(s.puts_split as i64)),
        ("sync_moves".into(), Value::Int(s.sync_moves as i64)),
        ("syncs_merged".into(), Value::Int(s.syncs_merged as i64)),
        ("init_moves".into(), Value::Int(s.init_moves as i64)),
        ("puts_to_stores".into(), Value::Int(s.puts_to_stores as i64)),
        (
            "gets_eliminated".into(),
            Value::Int(s.gets_eliminated as i64),
        ),
        (
            "puts_eliminated".into(),
            Value::Int(s.puts_eliminated as i64),
        ),
        (
            "dead_locals_removed".into(),
            Value::Int(s.dead_locals_removed as i64),
        ),
        (
            "dead_gets_removed".into(),
            Value::Int(s.dead_gets_removed as i64),
        ),
        ("exprs_folded".into(), Value::Int(s.exprs_folded as i64)),
    ])
}

fn net_json(n: &NetStats) -> Value {
    Value::Obj(vec![
        ("get_requests".into(), Value::Int(n.get_requests as i64)),
        ("get_replies".into(), Value::Int(n.get_replies as i64)),
        ("put_requests".into(), Value::Int(n.put_requests as i64)),
        ("put_acks".into(), Value::Int(n.put_acks as i64)),
        ("store_requests".into(), Value::Int(n.store_requests as i64)),
        ("post_messages".into(), Value::Int(n.post_messages as i64)),
        ("wait_messages".into(), Value::Int(n.wait_messages as i64)),
        ("lock_messages".into(), Value::Int(n.lock_messages as i64)),
        ("barriers".into(), Value::Int(n.barriers as i64)),
        (
            "total_messages".into(),
            Value::Int(n.total_messages() as i64),
        ),
    ])
}

fn stalls_json(s: &StallStats) -> Value {
    Value::Obj(vec![
        ("sync".into(), Value::Int(s.sync as i64)),
        ("barrier".into(), Value::Int(s.barrier as i64)),
        ("wait".into(), Value::Int(s.wait as i64)),
        ("lock".into(), Value::Int(s.lock as i64)),
        ("blocking".into(), Value::Int(s.blocking as i64)),
    ])
}

fn latency_json(h: &LatencyHistogram) -> Value {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            Value::Obj(vec![
                ("le".into(), Value::Str(LatencyHistogram::bucket_label(i))),
                ("count".into(), Value::Int(count as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("count".into(), Value::Int(h.count as i64)),
        ("min".into(), Value::Int(h.min as i64)),
        ("mean".into(), Value::Int(h.mean() as i64)),
        ("max".into(), Value::Int(h.max as i64)),
        ("buckets".into(), Value::Arr(buckets)),
    ])
}

fn work_json(w: &SimWork, exec_cycles: u64) -> Value {
    Value::Obj(vec![
        (
            "events_scheduled".into(),
            Value::Int(w.events_scheduled as i64),
        ),
        (
            "events_dequeued".into(),
            Value::Int(w.events_dequeued as i64),
        ),
        (
            "bucket_rotations".into(),
            Value::Int(w.bucket_rotations as i64),
        ),
        (
            "overflow_promotions".into(),
            Value::Int(w.overflow_promotions as i64),
        ),
        ("arena_reuses".into(), Value::Int(w.arena_reuses as i64)),
        ("waiter_scans".into(), Value::Int(w.waiter_scans as i64)),
        (
            "events_per_1k_cycles".into(),
            Value::Int(w.events_per_1k_cycles(exec_cycles) as i64),
        ),
    ])
}

fn sim_json(sim: &SimReport) -> Value {
    let per_proc = sim
        .metrics
        .per_proc
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            Value::Obj(vec![
                ("proc".into(), Value::Int(pi as i64)),
                ("busy".into(), Value::Int(p.busy as i64)),
                ("sync".into(), Value::Int(p.sync as i64)),
                ("barrier".into(), Value::Int(p.barrier as i64)),
                ("wait".into(), Value::Int(p.wait as i64)),
                ("lock".into(), Value::Int(p.lock as i64)),
                ("network_wait".into(), Value::Int(p.network_wait as i64)),
                ("idle".into(), Value::Int(p.idle as i64)),
                ("msgs_sent".into(), Value::Int(p.msgs_sent as i64)),
                ("msgs_handled".into(), Value::Int(p.msgs_handled as i64)),
            ])
        })
        .collect();
    let epochs = sim
        .metrics
        .barrier_epochs
        .iter()
        .map(|e| {
            Value::Obj(vec![
                ("first_arrival".into(), Value::Int(e.first_arrival as i64)),
                ("last_arrival".into(), Value::Int(e.last_arrival as i64)),
                ("release".into(), Value::Int(e.release as i64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("exec_cycles".into(), Value::Int(sim.exec_cycles as i64)),
        ("barriers_aligned".into(), Value::Bool(sim.barriers_aligned)),
        ("net".into(), net_json(&sim.net)),
        ("stalls".into(), stalls_json(&sim.stalls)),
        ("per_proc".into(), Value::Arr(per_proc)),
        ("latency".into(), latency_json(&sim.metrics.latency)),
        ("barrier_epochs".into(), Value::Arr(epochs)),
        ("work".into(), work_json(&sim.metrics.work, sim.exec_cycles)),
    ];
    if let Some(truncated) = sim.trace_truncated {
        fields.push(("trace_truncated".into(), Value::Bool(truncated)));
    }
    Value::Obj(fields)
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

    /// The profile as a JSON object (`syncopt.profile_report.v1`).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "schema".into(),
                Value::Str("syncopt.profile_report.v1".to_string()),
            ),
            ("blocking".into(), self.blocking.to_json()),
            ("optimized".into(), self.optimized.to_json()),
            (
                "comparison".into(),
                Value::Obj(vec![
                    (
                        "speedup_x100".into(),
                        Value::Int(self.speedup_x100() as i64),
                    ),
                    (
                        "cycles_saved".into(),
                        Value::Int(
                            self.blocking
                                .sim
                                .as_ref()
                                .map_or(0, |s| s.exec_cycles as i64)
                                - self
                                    .optimized
                                    .sim
                                    .as_ref()
                                    .map_or(0, |s| s.exec_cycles as i64),
                        ),
                    ),
                    (
                        "messages_delta".into(),
                        Value::Int(
                            self.optimized
                                .sim
                                .as_ref()
                                .map_or(0, |s| s.net.total_messages() as i64)
                                - self
                                    .blocking
                                    .sim
                                    .as_ref()
                                    .map_or(0, |s| s.net.total_messages() as i64),
                        ),
                    ),
                ]),
            ),
        ])
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
            counters: Counters::new(),
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
        let j = r.to_json();
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
        assert!(c.to_json().get("sim").is_none());
    }

    #[test]
    fn speedup_is_ratio_times_100() {
        let p = ProfileReport {
            blocking: empty_report(OptLevel::Blocking, Some(300)),
            optimized: empty_report(OptLevel::Full, Some(200)),
        };
        assert_eq!(p.speedup_x100(), 150);
        let j = p.to_json();
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

    #[test]
    fn labels_cover_all_variants() {
        assert_eq!(level_label(OptLevel::Blocking), "blocking");
        assert_eq!(level_label(OptLevel::Pipelined), "pipelined");
        assert_eq!(level_label(OptLevel::OneWay), "oneway");
        assert_eq!(level_label(OptLevel::Full), "full");
        assert_eq!(delay_label(DelayChoice::ShashaSnir), "shasha-snir");
        assert_eq!(delay_label(DelayChoice::SyncRefined), "sync-refined");
    }
}
