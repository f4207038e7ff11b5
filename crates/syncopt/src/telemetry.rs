//! Service-level telemetry for `syncoptd`: request ids, per-request
//! spans, the service metrics, the structured request log, and the
//! `daemon-trace` exporter.
//!
//! Every request the daemon serves gets a **monotonic request id** and a
//! three-phase span measured with one clock:
//!
//! ```text
//! decode (parse the envelope) → execute (cache lookup + session work,
//! under the session lock) → encode (write the response: a query's
//! stored answer spliced into its envelope)
//! ```
//!
//! The phases tile the request exactly — `total_us` is *defined* as
//! their sum, so span accounting holds by construction and is verified
//! end to end by [`verify_reqlog_accounting`]. Each finished request is
//! recorded into the metrics of [`ServiceTelemetry`], declared once in
//! one table that both renderings and [`SERVICE_METRIC_NAMES`] read:
//!
//! * `rpc.requests_total{op="..."}` / `rpc.request_latency_us{op="..."}`
//!   — per-operation counts and fixed-bucket latency histograms. The
//!   `op` label is drawn from a closed set: `invalid` for an undecodable
//!   line, the control op (`ping`, `stats`, `metrics`, `shutdown`), the
//!   query command (`check`, `profile`, ...), and `other` for a query
//!   whose command is none of them (see `query_op`). An op's series
//!   appear once it has been seen.
//! * `rpc.errors_total` — protocol errors (`ok: false` responses);
//!   `rpc.failures_total` — queries that ran but failed (exit-1 results).
//! * `rpc.bytes_in` / `rpc.bytes_out` — wire traffic including framing
//!   newlines.
//! * `rpc.cache_hits_total` / `rpc.cache_misses_total` — the summed
//!   per-request cache deltas (the live hit ratio of the artifact
//!   cache).
//! * `rpc.slow_requests_total` — requests over the slow threshold.
//! * `rpc.panics_total` — queries whose execution panicked; each one
//!   was answered `internal` and reset the session's cache.
//! * `rpc.in_flight` (gauge), `rpc.connections_open` (gauge),
//!   `rpc.connections_opened` / `rpc.connections_closed` — request and
//!   connection lifecycle.
//!
//! With `--log FILE` the daemon also appends one JSON line per request
//! (schema [`REQLOG_SCHEMA`], first line is a header), which
//! `syncoptc daemon-trace` converts into a `syncopt.trace.v1` Chrome
//! Trace Event file: one track per connection, one slice per request,
//! nested phase slices — a serving timeline that opens in Perfetto.
//!
//! Telemetry is optional: a daemon started with `--no-telemetry` carries
//! no metrics, takes no timestamps, and allocates nothing on the request
//! path — responses are byte-identical either way.

use crate::commands::command_names;
use crate::trace_export::{event, meta};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use syncopt_core::cache::CacheStats;
use syncopt_core::diag::json::{key, write_array, write_int, Arr, Obj, Value};
use Family::{Counter, Gauge, Latency, Requests};

/// Schema identifier of the `stats` metrics document.
pub const METRICS_SCHEMA: &str = "syncopt.metrics.v1";
/// Schema identifier of the structured request log.
pub const REQLOG_SCHEMA: &str = "syncopt.reqlog.v1";
/// The daemon build version reported by `stats`.
pub const SERVICE_VERSION: &str = env!("CARGO_PKG_VERSION");
/// Default slow-request threshold (microseconds) when `--slow-ms` is not
/// given: 500 ms.
pub const DEFAULT_SLOW_US: u64 = 500_000;

/// The `op` label of a query whose command is not a known one.
const OTHER_OP: &str = "other";

/// The `op` labels that are not query commands: an undecodable line, the
/// four control ops, and a query whose command is unknown.
const NON_QUERY_OPS: [&str; 6] = ["invalid", "ping", "stats", "metrics", "shutdown", OTHER_OP];

/// The `op` label of a query: its command when that is one of
/// [`command_names`], `other` when it is not. A client's command string
/// never becomes a label, so the label set stays closed.
pub(crate) fn query_op(command: &str) -> &'static str {
    command_names()
        .find(|&name| name == command)
        .unwrap_or(OTHER_OP)
}

fn load(value: &AtomicU64) -> u64 {
    value.load(Ordering::Relaxed)
}

fn add(value: &AtomicU64, n: u64) {
    value.fetch_add(n, Ordering::Relaxed);
}

/// The scalar metrics. Updates are relaxed atomics: totals are exact,
/// cross-metric ordering is not promised. A gauge only falls after it
/// rose, so it never goes below zero.
#[derive(Default)]
struct Scalars {
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    failures_total: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    slow_total: AtomicU64,
    panics_total: AtomicU64,
    in_flight: AtomicU64,
    connections_open: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
}

/// How one metric family reads its series.
#[derive(Clone, Copy)]
enum Family {
    /// One monotonic total.
    Counter(fn(&Scalars) -> &AtomicU64),
    /// One value that rises and falls.
    Gauge(fn(&Scalars) -> &AtomicU64),
    /// The total over every op, then one `{op="..."}` counter per op seen.
    Requests,
    /// One `{op="..."}` latency histogram per op seen.
    Latency,
}

/// Every metric the daemon emits, sorted by name: the order of the
/// `syncopt.metrics.v1` document and of the Prometheus text.
const METRICS: [(&str, Family); 14] = [
    ("rpc.bytes_in", Counter(|m| &m.bytes_in)),
    ("rpc.bytes_out", Counter(|m| &m.bytes_out)),
    ("rpc.cache_hits_total", Counter(|m| &m.cache_hits)),
    ("rpc.cache_misses_total", Counter(|m| &m.cache_misses)),
    ("rpc.connections_closed", Counter(|m| &m.connections_closed)),
    ("rpc.connections_open", Gauge(|m| &m.connections_open)),
    ("rpc.connections_opened", Counter(|m| &m.connections_opened)),
    ("rpc.errors_total", Counter(|m| &m.errors_total)),
    ("rpc.failures_total", Counter(|m| &m.failures_total)),
    ("rpc.in_flight", Gauge(|m| &m.in_flight)),
    ("rpc.panics_total", Counter(|m| &m.panics_total)),
    ("rpc.request_latency_us", Latency),
    ("rpc.requests_total", Requests),
    ("rpc.slow_requests_total", Counter(|m| &m.slow_total)),
];

/// Base names of every metric the daemon emits. The glossary drift test
/// pins this list against `docs/OBSERVABILITY.md`, so adding a metric
/// (or emitting an undeclared one) without documenting it fails CI.
pub const SERVICE_METRIC_NAMES: &[&str] = &{
    let mut names = [""; METRICS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = METRICS[i].0;
        i += 1;
    }
    names
};

/// The key of the `op` series of the family `name`, in the parts
/// `rpc.requests_total{op="check"}` is written from.
fn op_key<'a>(name: &'a str, op: &'a str) -> [&'a str; 4] {
    [name, "{op=\"", op, "\"}"]
}

/// Telemetry configuration, as parsed from the `syncoptd` command line.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Append one JSON line per request to this file.
    pub log: Option<std::path::PathBuf>,
    /// Slow-request threshold in microseconds (`None` =
    /// [`DEFAULT_SLOW_US`]).
    pub slow_us: Option<u64>,
    /// Emit deterministically scrubbed metrics documents (timing fields
    /// zeroed, counts exact) — for golden tests and byte-stable smoke
    /// checks.
    pub scrub: bool,
}

/// A fixed-bucket histogram of microsecond latencies.
///
/// `buckets[i]` counts samples in `[BOUNDS[i-1], BOUNDS[i])`; the last
/// bucket is unbounded. The power-of-four rungs span 64 µs to ~1 s —
/// request latencies below the first rung and above the last one are
/// still counted (in the first and overflow buckets), so `count` is
/// always the exact number of observations.
struct Histogram {
    buckets: [AtomicU64; Histogram::BOUNDS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    /// The smallest sample; `u64::MAX` while there is none.
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Upper bucket boundaries, in microseconds.
    const BOUNDS: [u64; 8] = [64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

    fn new() -> Histogram {
        Histogram {
            buckets: Default::default(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (microseconds).
    fn observe(&self, us: u64) {
        let i = Histogram::BOUNDS
            .iter()
            .position(|&b| us < b)
            .unwrap_or(Histogram::BOUNDS.len());
        add(&self.buckets[i], 1);
        add(&self.count, 1);
        add(&self.sum, us);
        self.min.fetch_min(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Appends the histogram as JSON. In scrub mode every timing-derived
    /// field — the per-bucket distribution, sum, min, max — is zeroed
    /// while `count` (a pure request count) stays exact, so goldens can pin
    /// structure and totals without pinning wall-clock behavior.
    fn write_json(&self, out: &mut String, scrub: bool) {
        let z = |v: u64| if scrub { 0 } else { v };
        let min = match load(&self.min) {
            u64::MAX => 0,
            v => v,
        };
        let mut o = Obj::open(out);
        o.int(key!("count"), load(&self.count));
        o.int(key!("sum_us"), z(load(&self.sum)));
        o.int(key!("min_us"), z(min));
        o.int(key!("max_us"), z(load(&self.max)));
        write_array(o.key(key!("buckets")), &self.buckets, |out, b| {
            write_int(out, z(load(b)) as i64);
        });
        o.close();
    }
}

/// The series of one `op` label.
struct OpSeries {
    op: &'static str,
    requests: AtomicU64,
    latency: Histogram,
}

/// The state of one in-flight request: its id and phase clocks.
///
/// Phases are measured against `begun` with a single monotonic clock;
/// each `*_done` call closes one phase. The span is finished by
/// [`ServiceTelemetry::finish_request`], which records metrics and the
/// log line.
pub struct RequestSpan {
    /// The monotonic request id.
    pub id: u64,
    conn: u64,
    start_us: u64,
    begun: Instant,
    decode_us: u64,
    execute_us: u64,
    bytes_in: u64,
}

impl RequestSpan {
    /// Closes the decode phase.
    pub fn decode_done(&mut self) {
        self.decode_us = self.elapsed_since_phase_start();
    }

    /// Closes the execute phase.
    pub fn execute_done(&mut self) {
        self.execute_us = self.elapsed_since_phase_start();
    }

    fn elapsed_since_phase_start(&self) -> u64 {
        let total = u64::try_from(self.begun.elapsed().as_micros()).unwrap_or(u64::MAX);
        total.saturating_sub(self.decode_us + self.execute_us)
    }
}

/// What one finished request looked like, for metrics and the log.
pub struct RequestOutcome {
    /// Operation label: `invalid`, a control op, or `query_op` of the
    /// query's command. A label outside that set is counted as `other`.
    pub op: &'static str,
    /// Whether the response was `ok: true` (protocol level).
    pub ok: bool,
    /// Whether a query ran but reported a command failure.
    pub failed: bool,
    /// Response bytes including the framing newline.
    pub bytes_out: u64,
    /// Per-request artifact-cache delta (zero for control ops).
    pub cache: CacheStats,
}

/// Shared telemetry state of one daemon process: the metrics of
/// `METRICS` as plain atomics, so recording a request takes no lock and
/// allocates nothing.
pub struct ServiceTelemetry {
    started: Instant,
    next_request: AtomicU64,
    next_conn: AtomicU64,
    scalars: Scalars,
    /// One entry per `op` label, sorted by label. Labels hold only
    /// characters above `"`, so this is also the order of the
    /// `name{op="..."}` keys.
    ops: Box<[OpSeries]>,
    /// The request log, and the buffer each line is written into.
    log: Option<Mutex<(std::io::BufWriter<std::fs::File>, String)>>,
    slow_us: u64,
    scrub: bool,
}

impl ServiceTelemetry {
    /// Creates the telemetry state, opening (and truncating) the request
    /// log if configured and writing its header line.
    ///
    /// # Errors
    ///
    /// Propagates request-log creation failures.
    pub fn new(config: &TelemetryConfig) -> std::io::Result<ServiceTelemetry> {
        let log = match &config.log {
            Some(path) => {
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                let mut line = String::new();
                let mut o = Obj::open(&mut line);
                o.str(key!("schema"), REQLOG_SCHEMA);
                o.str(key!("version"), SERVICE_VERSION);
                o.close();
                line.push('\n');
                w.write_all(line.as_bytes())?;
                w.flush()?;
                Some(Mutex::new((w, line)))
            }
            None => None,
        };
        let mut ops: Vec<_> = NON_QUERY_OPS.into_iter().chain(command_names()).collect();
        ops.sort_unstable();
        let ops = ops.into_iter().map(|op| OpSeries {
            op,
            requests: AtomicU64::new(0),
            latency: Histogram::new(),
        });
        Ok(ServiceTelemetry {
            started: Instant::now(),
            next_request: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            scalars: Scalars::default(),
            ops: ops.collect(),
            log,
            slow_us: config.slow_us.unwrap_or(DEFAULT_SLOW_US),
            scrub: config.scrub,
        })
    }

    /// Microseconds since the daemon started.
    pub fn uptime_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Milliseconds since the daemon started, honoring scrub mode (the
    /// `uptime_ms` value reported by the `stats` op).
    pub fn uptime_ms(&self) -> u64 {
        if self.scrub {
            0
        } else {
            self.uptime_us() / 1000
        }
    }

    /// Total requests observed so far.
    pub fn requests_total(&self) -> u64 {
        load(&self.scalars.requests_total)
    }

    /// Counts a query whose execution panicked.
    pub fn record_panic(&self) {
        add(&self.scalars.panics_total, 1);
    }

    /// Registers a new connection and returns its id.
    pub fn open_connection(&self) -> u64 {
        add(&self.scalars.connections_opened, 1);
        add(&self.scalars.connections_open, 1);
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a connection teardown.
    pub fn close_connection(&self) {
        add(&self.scalars.connections_closed, 1);
        self.scalars
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Starts a request span: allocates the monotonic id, stamps the
    /// arrival time, and raises the in-flight gauge.
    pub fn begin_request(&self, conn: u64, bytes_in: u64) -> RequestSpan {
        add(&self.scalars.in_flight, 1);
        RequestSpan {
            id: self.next_request.fetch_add(1, Ordering::Relaxed),
            conn,
            start_us: self.uptime_us(),
            begun: Instant::now(),
            decode_us: 0,
            execute_us: 0,
            bytes_in,
        }
    }

    /// The series of the `op` label, or of `other` for a label outside
    /// the set.
    fn op_series(&self, op: &str) -> &OpSeries {
        let find = |op: &str| self.ops.binary_search_by(|s| s.op.cmp(op));
        let i = find(op)
            .or_else(|_| find(OTHER_OP))
            .expect("the op set holds `other`");
        &self.ops[i]
    }

    /// The series of every op seen so far, sorted by label.
    fn seen_ops(&self) -> impl Iterator<Item = &OpSeries> {
        self.ops.iter().filter(|s| load(&s.requests) > 0)
    }

    /// Finishes a request span: closes the encode phase, lowers the
    /// in-flight gauge, records every metric, and appends the log line.
    pub fn finish_request(&self, span: RequestSpan, outcome: &RequestOutcome) {
        let encode_us = span.elapsed_since_phase_start();
        let total_us = span.decode_us + span.execute_us + encode_us;
        let m = &self.scalars;
        m.in_flight.fetch_sub(1, Ordering::Relaxed);
        add(&m.requests_total, 1);
        let series = self.op_series(outcome.op);
        add(&series.requests, 1);
        series.latency.observe(total_us);
        add(&m.errors_total, u64::from(!outcome.ok));
        add(&m.failures_total, u64::from(outcome.failed));
        add(&m.bytes_in, span.bytes_in);
        add(&m.bytes_out, outcome.bytes_out);
        add(&m.cache_hits, outcome.cache.hits);
        add(&m.cache_misses, outcome.cache.misses);
        let slow = total_us >= self.slow_us;
        add(&m.slow_total, u64::from(slow));
        if let Some(log) = &self.log {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            let (w, line) = &mut *log;
            line.clear();
            let mut o = Obj::open(line);
            o.ints(&[(key!("id"), span.id), (key!("conn"), span.conn)]);
            o.str(key!("op"), series.op);
            o.ints(&[
                (key!("start_us"), span.start_us),
                (key!("decode_us"), span.decode_us),
                (key!("execute_us"), span.execute_us),
                (key!("encode_us"), encode_us),
                (key!("total_us"), total_us),
                (key!("bytes_in"), span.bytes_in),
                (key!("bytes_out"), outcome.bytes_out),
                (key!("cache_hits"), outcome.cache.hits),
                (key!("cache_misses"), outcome.cache.misses),
            ]);
            o.bool(key!("ok"), outcome.ok);
            o.bool(key!("failed"), outcome.failed);
            o.bool(key!("slow"), slow);
            o.close();
            line.push('\n');
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    }

    /// Appends the `syncopt.metrics.v1` document: uptime, totals, the
    /// daemon version, and every metric of `METRICS` — `counters` and
    /// `gauges` as flat key → value maps, `histograms` as key → histogram
    /// objects, each sorted by key. In scrub mode every timing-derived
    /// value is zeroed while counts stay exact.
    pub fn write_metrics_json(&self, out: &mut String) {
        let mut o = Obj::open(out);
        o.str(key!("schema"), METRICS_SCHEMA);
        o.str(key!("version"), SERVICE_VERSION);
        o.int(key!("uptime_ms"), self.uptime_ms());
        o.int(key!("requests_total"), self.requests_total());
        let mut sections = Obj::open(o.key(key!("metrics")));
        // Each section holds the families of its kind, in `METRICS` order.
        for section in [key!("counters"), key!("gauges"), key!("histograms")] {
            let mut m = Obj::open(sections.key(section));
            for (name, family) in METRICS {
                match (section.name(), family) {
                    ("counters", Counter(get)) | ("gauges", Gauge(get)) => {
                        write_int(m.key_escaped(&[name]), load(get(&self.scalars)) as i64);
                    }
                    ("counters", Requests) => {
                        write_int(m.key_escaped(&[name]), self.requests_total() as i64);
                        for s in self.seen_ops() {
                            let n = load(&s.requests) as i64;
                            write_int(m.key_escaped(&op_key(name, s.op)), n);
                        }
                    }
                    ("histograms", Latency) => {
                        for s in self.seen_ops() {
                            let key = m.key_escaped(&op_key(name, s.op));
                            s.latency.write_json(key, self.scrub);
                        }
                    }
                    _ => {}
                }
            }
            m.close();
        }
        sections.close();
        o.close();
    }

    /// Every metric of `METRICS` in Prometheus text exposition format,
    /// after the uptime as `syncopt_uptime_seconds`. Names gain the
    /// `syncopt_` prefix with dots as underscores; a `# TYPE` line opens
    /// each family that has a series; histograms expand to cumulative
    /// `_bucket{op=...,le=...}` series (bounds in microseconds), `_sum`
    /// and `_count`.
    pub fn prometheus_text(&self) -> String {
        let uptime = if self.scrub {
            0
        } else {
            self.uptime_us() / 1_000_000
        };
        let mut out =
            format!("# TYPE syncopt_uptime_seconds gauge\nsyncopt_uptime_seconds {uptime}\n");
        for (name, family) in METRICS {
            let name = format!("syncopt_{}", name.replace('.', "_"));
            let kind = match family {
                Counter(_) | Requests => "counter",
                Gauge(_) => "gauge",
                Latency if self.seen_ops().next().is_none() => continue,
                Latency => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            match family {
                Counter(get) | Gauge(get) => {
                    let _ = writeln!(out, "{name} {}", load(get(&self.scalars)));
                }
                Requests => {
                    let _ = writeln!(out, "{name} {}", self.requests_total());
                    for s in self.seen_ops() {
                        let _ = writeln!(out, "{name}{{op=\"{}\"}} {}", s.op, load(&s.requests));
                    }
                }
                Latency => {
                    for s in self.seen_ops() {
                        let (op, h) = (s.op, &s.latency);
                        let mut cumulative = 0;
                        for (i, n) in h.buckets.iter().map(load).enumerate() {
                            cumulative += n;
                            let le = Histogram::BOUNDS
                                .get(i)
                                .map_or("+Inf".to_string(), u64::to_string);
                            let _ = writeln!(
                                out,
                                "{name}_bucket{{op=\"{op}\",le=\"{le}\"}} {cumulative}"
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{{op=\"{op}\"}} {}", load(&h.sum));
                        let _ = writeln!(out, "{name}_count{{op=\"{op}\"}} {}", load(&h.count));
                    }
                }
            }
        }
        out
    }
}

// ---- request-log parsing and the daemon-trace exporter ------------------

/// One parsed request-log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqLogEntry {
    /// Monotonic request id.
    pub id: u64,
    /// Connection the request arrived on.
    pub conn: u64,
    /// Operation label.
    pub op: String,
    /// Arrival time, microseconds since daemon start.
    pub start_us: u64,
    /// Envelope-decode phase duration.
    pub decode_us: u64,
    /// Execute phase duration (cache lookup + session work).
    pub execute_us: u64,
    /// Response-encode phase duration.
    pub encode_us: u64,
    /// Recorded wall time of the whole request.
    pub total_us: u64,
    /// Request bytes (with framing newline).
    pub bytes_in: u64,
    /// Response bytes (with framing newline).
    pub bytes_out: u64,
    /// Per-request cache delta: artifacts served from cache.
    pub cache_hits: u64,
    /// Per-request cache delta: artifacts built.
    pub cache_misses: u64,
    /// Protocol-level success.
    pub ok: bool,
    /// Command-level failure (query ran, exit code 1).
    pub failed: bool,
    /// Over the slow threshold.
    pub slow: bool,
}

/// Parses a request log: validates the header line's schema and decodes
/// every entry.
///
/// # Errors
///
/// A displayable message naming the offending line.
pub fn parse_reqlog(text: &str) -> Result<Vec<ReqLogEntry>, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| "request log is empty".to_string())?;
    let header = Value::parse(header).map_err(|e| format!("log header is not JSON: {e}"))?;
    match header.get("schema").and_then(Value::as_str) {
        Some(REQLOG_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported request-log schema `{other}`")),
        None => return Err("request log has no schema header line".to_string()),
    }
    let mut entries = Vec::new();
    for (i, line) in lines {
        let v = Value::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let int = |key: &str| {
            v.get(key)
                .and_then(Value::as_int)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("line {}: missing `{key}`", i + 1))
        };
        let boolean = |key: &str| match v.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("line {}: missing boolean `{key}`", i + 1)),
        };
        entries.push(ReqLogEntry {
            id: int("id")?,
            conn: int("conn")?,
            op: v
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing `op`", i + 1))?
                .to_string(),
            start_us: int("start_us")?,
            decode_us: int("decode_us")?,
            execute_us: int("execute_us")?,
            encode_us: int("encode_us")?,
            total_us: int("total_us")?,
            bytes_in: int("bytes_in")?,
            bytes_out: int("bytes_out")?,
            cache_hits: int("cache_hits")?,
            cache_misses: int("cache_misses")?,
            ok: boolean("ok")?,
            failed: boolean("failed")?,
            slow: boolean("slow")?,
        });
    }
    Ok(entries)
}

/// The serving-timeline analogue of
/// [`verify_span_accounting`](crate::verify_span_accounting): every
/// request's phase spans must sum exactly to its recorded wall time,
/// request ids must be unique across the log, and monotonic **per
/// connection** (log lines are appended in completion order, so ids from
/// different connections interleave — but one connection serves its
/// requests strictly in order).
///
/// # Errors
///
/// A displayable message naming the first violating request.
pub fn verify_reqlog_accounting(entries: &[ReqLogEntry]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut last_per_conn: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for e in entries {
        let parts = e.decode_us + e.execute_us + e.encode_us;
        if parts != e.total_us {
            return Err(format!(
                "request #{}: phases sum to {parts}us but recorded wall time is {}us",
                e.id, e.total_us
            ));
        }
        if !seen.insert(e.id) {
            return Err(format!("request id #{} appears twice", e.id));
        }
        if let Some(prev) = last_per_conn.insert(e.conn, e.id) {
            if e.id <= prev {
                return Err(format!(
                    "connection {}: request ids are not monotonic: #{} follows #{prev}",
                    e.conn, e.id
                ));
            }
        }
    }
    Ok(())
}

/// The connections a request log's entries arrived on, sorted, and the
/// wall time they span in microseconds: first arrival to last completion.
pub fn reqlog_extent(entries: &[ReqLogEntry]) -> (Vec<u64>, u64) {
    let mut conns: Vec<u64> = entries.iter().map(|e| e.conn).collect();
    conns.sort_unstable();
    conns.dedup();
    let wall_us = entries
        .iter()
        .map(|e| e.start_us + e.total_us)
        .max()
        .unwrap_or(0)
        .saturating_sub(entries.iter().map(|e| e.start_us).min().unwrap_or(0));
    (conns, wall_us)
}

/// Converts a parsed request log into Chrome Trace Event Format
/// (`syncopt.trace.v1`, the same schema as `syncoptc trace`): one thread
/// track per connection, one `ph:"X"` slice per request, and nested
/// `decode` / `execute` / `encode` phase slices that tile the request
/// exactly. Timestamps are microseconds since daemon start, so Perfetto
/// renders real service time.
pub fn daemon_chrome_trace(entries: &[ReqLogEntry]) -> String {
    let (conns, wall_us) = reqlog_extent(entries);
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    o.str(key!("schema"), crate::TRACE_SCHEMA);
    o.str(key!("source"), "daemon-trace");
    o.int(key!("requests"), entries.len() as u64);
    o.int(key!("connections"), conns.len() as u64);
    o.int(key!("wall_us"), wall_us);
    o.str(key!("displayTimeUnit"), "ms");
    let mut events = Arr::open(o.key(key!("traceEvents")));
    for &conn in &conns {
        meta(&mut events, conn, &format!("conn {conn}"));
    }
    for r in entries {
        let mut e = event(&mut events, "X", r.conn);
        e.int(key!("ts"), r.start_us);
        e.int(key!("dur"), r.total_us);
        e.str(key!("name"), &format!("#{} {}", r.id, r.op));
        e.str(key!("cat"), "request");
        let mut args = Obj::open(e.key(key!("args")));
        args.ints(&[
            (key!("bytes_in"), r.bytes_in),
            (key!("bytes_out"), r.bytes_out),
            (key!("cache_hits"), r.cache_hits),
            (key!("cache_misses"), r.cache_misses),
        ]);
        args.bool(key!("ok"), r.ok);
        args.bool(key!("failed"), r.failed);
        args.bool(key!("slow"), r.slow);
        args.close();
        e.close();
        let phases = [
            ("decode", r.start_us, r.decode_us),
            ("execute", r.start_us + r.decode_us, r.execute_us),
            (
                "encode",
                r.start_us + r.decode_us + r.execute_us,
                r.encode_us,
            ),
        ];
        for (name, ts, dur) in phases {
            let mut e = event(&mut events, "X", r.conn);
            e.int(key!("ts"), ts);
            e.int(key!("dur"), dur);
            e.str(key!("name"), name);
            e.str(key!("cat"), "phase");
            e.close();
        }
    }
    events.close();
    o.close();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_canonical;

    fn sample_log() -> String {
        let mut log = format!(r#"{{"schema":"{REQLOG_SCHEMA}","version":"0.1.0"}}"#);
        log.push('\n');
        for (id, conn, op, start, d, x, e) in [
            (1u64, 1u64, "check", 100u64, 3u64, 40u64, 2u64),
            (2, 2, "ping", 150, 1, 0, 1),
            (3, 1, "profile", 200, 2, 900, 3),
        ] {
            log.push_str(&format!(
                r#"{{"id":{id},"conn":{conn},"op":"{op}","start_us":{start},"decode_us":{d},"execute_us":{x},"encode_us":{e},"total_us":{},"bytes_in":10,"bytes_out":20,"cache_hits":1,"cache_misses":2,"ok":true,"failed":false,"slow":false}}"#,
                d + x + e
            ));
            log.push('\n');
        }
        log
    }

    #[test]
    fn reqlog_round_trips_and_accounts() {
        let entries = parse_reqlog(&sample_log()).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].op, "check");
        assert_eq!(entries[2].total_us, 905);
        verify_reqlog_accounting(&entries).unwrap();

        // A log the daemon writes: a header and one canonical line per
        // request, which parse back to what was recorded.
        let path = std::env::temp_dir().join(format!("syncopt-reqlog-{}.log", std::process::id()));
        let t = ServiceTelemetry::new(&TelemetryConfig {
            log: Some(path.clone()),
            ..TelemetryConfig::default()
        })
        .unwrap();
        for op in ["check", "frobnicate"] {
            t.finish_request(t.begin_request(1, 10), &outcome(op));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 3, "{text}");
        text.lines().for_each(assert_canonical);
        let written = parse_reqlog(&text).unwrap();
        let ops: Vec<_> = written.iter().map(|e| e.op.as_str()).collect();
        assert_eq!(ops, ["check", "other"]);
        verify_reqlog_accounting(&written).unwrap();
    }

    #[test]
    fn accounting_rejects_phase_mismatch() {
        let mut entries = parse_reqlog(&sample_log()).unwrap();
        entries[1].encode_us += 7;
        let err = verify_reqlog_accounting(&entries).unwrap_err();
        assert!(err.contains("request #2"), "{err}");
    }

    #[test]
    fn accounting_rejects_duplicate_ids() {
        let mut entries = parse_reqlog(&sample_log()).unwrap();
        entries[2].id = 1;
        let err = verify_reqlog_accounting(&entries).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn accounting_rejects_non_monotonic_ids_within_a_connection() {
        let mut entries = parse_reqlog(&sample_log()).unwrap();
        // Requests #1 and #3 share connection 1; reversing their order
        // in the log is impossible for a serial connection.
        entries[2].id = 1;
        entries[0].id = 3;
        let err = verify_reqlog_accounting(&entries).unwrap_err();
        assert!(err.contains("monotonic"), "{err}");
    }

    #[test]
    fn reqlog_requires_schema_header() {
        let err = parse_reqlog("{\"id\":1}\n").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn daemon_trace_tiles_requests_with_phases() {
        let entries = parse_reqlog(&sample_log()).unwrap();
        let text = daemon_chrome_trace(&entries);
        assert_canonical(&text);
        let trace = Value::parse(&text).unwrap();
        assert_eq!(
            trace.get("schema").and_then(Value::as_str),
            Some(crate::TRACE_SCHEMA)
        );
        assert_eq!(trace.get("requests").and_then(Value::as_int), Some(3));
        assert_eq!(trace.get("connections").and_then(Value::as_int), Some(2));
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        // 2 thread-name metas + 3 requests × (1 request slice + 3 phases).
        assert_eq!(events.len(), 2 + 3 * 4);
        // Phase slices of request #3 tile [200, 1105) exactly.
        let slices: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(Value::as_str) == Some("phase")
                    && e.get("ts").and_then(Value::as_int).unwrap_or(0) >= 200
            })
            .collect();
        let dur_sum: i64 = slices
            .iter()
            .map(|e| e.get("dur").and_then(Value::as_int).unwrap())
            .sum();
        assert_eq!(dur_sum, 905);
    }

    fn outcome(op: &'static str) -> RequestOutcome {
        RequestOutcome {
            op,
            ok: true,
            failed: false,
            bytes_out: 1,
            cache: CacheStats::default(),
        }
    }

    #[test]
    fn histogram_buckets_and_extrema() {
        let h = Histogram::new();
        h.observe(10);
        h.observe(100);
        h.observe(2_000_000);
        assert_eq!(load(&h.count), 3);
        assert_eq!(load(&h.sum), 2_000_110);
        assert_eq!(load(&h.min), 10);
        assert_eq!(load(&h.max), 2_000_000);
        let buckets: Vec<u64> = h.buckets.iter().map(load).collect();
        assert_eq!(buckets[0], 1, "10us lands below the first rung");
        assert_eq!(buckets[1], 1, "100us lands in [64, 256)");
        assert_eq!(*buckets.last().unwrap(), 1, "2s overflows the ladder");
        assert_eq!(buckets.iter().sum::<u64>(), load(&h.count));
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let t = std::sync::Arc::new(ServiceTelemetry::new(&TelemetryConfig::default()).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    let conn = t.open_connection();
                    for _ in 0..1000 {
                        let span = t.begin_request(conn, 1);
                        t.finish_request(span, &outcome("check"));
                    }
                    t.close_connection();
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(t.requests_total(), 8000);
        let check = t.op_series("check");
        assert_eq!(load(&check.requests), 8000);
        assert_eq!(load(&check.latency.count), 8000);
        assert_eq!(check.latency.buckets.iter().map(load).sum::<u64>(), 8000);
        let m = &t.scalars;
        assert_eq!(load(&m.bytes_in), 8000);
        assert_eq!(load(&m.connections_opened), 8);
        assert_eq!(load(&m.connections_open), 0);
        assert_eq!(load(&m.in_flight), 0);
    }

    #[test]
    fn the_metric_table_is_sorted_and_ops_are_closed() {
        assert!(SERVICE_METRIC_NAMES.windows(2).all(|w| w[0] < w[1]));
        let t = ServiceTelemetry::new(&TelemetryConfig::default()).unwrap();
        let ops: Vec<_> = t.ops.iter().map(|s| s.op).collect();
        assert!(ops.windows(2).all(|w| w[0] < w[1]), "{ops:?}");
        for op in NON_QUERY_OPS.into_iter().chain(command_names()) {
            assert_eq!(t.op_series(op).op, op);
        }
        // A label outside the set is counted as `other`.
        assert_eq!(t.op_series("frobnicate").op, "other");
        t.finish_request(t.begin_request(1, 1), &outcome("ping"));
        let seen: Vec<_> = t.seen_ops().map(|s| s.op).collect();
        assert_eq!(seen, ["ping"], "only an op that was seen has series");
    }

    #[test]
    fn telemetry_records_requests_and_connections() {
        let t = ServiceTelemetry::new(&TelemetryConfig::default()).unwrap();
        let conn = t.open_connection();
        let mut span = t.begin_request(conn, 42);
        span.decode_done();
        span.execute_done();
        t.finish_request(
            span,
            &RequestOutcome {
                op: "check",
                ok: true,
                failed: false,
                bytes_out: 100,
                cache: CacheStats {
                    hits: 3,
                    misses: 2,
                    evictions: 0,
                },
            },
        );
        t.close_connection();
        assert_eq!(t.requests_total(), 1);
        let mut text = String::new();
        t.write_metrics_json(&mut text);
        let doc = Value::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(doc.get("requests_total").and_then(Value::as_int), Some(1));
        let counters = doc.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(
            counters
                .get("rpc.requests_total{op=\"check\"}")
                .and_then(Value::as_int),
            Some(1)
        );
        assert_eq!(
            counters.get("rpc.bytes_in").and_then(Value::as_int),
            Some(42)
        );
        assert_eq!(
            counters.get("rpc.cache_hits_total").and_then(Value::as_int),
            Some(3)
        );
        let hist = doc
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("rpc.request_latency_us{op=\"check\"}"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_int), Some(1));
        let text = t.prometheus_text();
        assert!(text.contains("syncopt_uptime_seconds"));
        assert!(text.contains("syncopt_rpc_requests_total{op=\"check\"} 1"));
    }
}
