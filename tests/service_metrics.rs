//! Integration tests for the `syncoptd` service telemetry layer:
//! `syncopt.metrics.v1` stats, Prometheus text exposition, the request
//! log → `daemon-trace` timeline with exact span accounting, metric-name
//! drift against `docs/OBSERVABILITY.md`, and byte-identity of query
//! responses with telemetry on, off, and in direct mode.

#![cfg(unix)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use syncopt::client::DaemonClient;
use syncopt::commands::{execute, Format, Query};
use syncopt::core::diag::json::Value;
use syncopt::daemon::Daemon;
use syncopt::kernels::all_kernels;
use syncopt::session::AnalysisSession;
use syncopt::telemetry::{
    daemon_chrome_trace, parse_reqlog, verify_reqlog_accounting, ReqLogEntry, TelemetryConfig,
    METRICS_SCHEMA, SERVICE_METRIC_NAMES, SERVICE_VERSION,
};

fn test_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("syncoptd-svc-{}-{name}.sock", std::process::id()))
}

fn start_with(
    name: &str,
    telemetry: Option<TelemetryConfig>,
) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let path = test_socket(name);
    let _ = std::fs::remove_file(&path);
    let daemon =
        Daemon::bind_with(&path, AnalysisSession::new(), telemetry).expect("bind daemon socket");
    let handle = std::thread::spawn(move || daemon.run());
    (path, handle)
}

fn stop(path: &Path, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    DaemonClient::connect(path)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    handle.join().unwrap().expect("daemon exits cleanly");
}

fn check_query(name: &str, source: &str) -> Query {
    Query {
        command: "check".to_string(),
        file: name.to_string(),
        source: Some(source.to_string()),
        format: Format::Json,
        ..Query::default()
    }
}

/// Serves every evaluation kernel, then asserts the `stats` op returns a
/// `syncopt.metrics.v1` document with per-op request counts and
/// non-empty latency histograms (the PR's headline acceptance check).
#[test]
fn stats_returns_metrics_v1_with_per_op_counts_and_histograms() {
    let (path, handle) = start_with("metricsv1", Some(TelemetryConfig::default()));
    let mut client = DaemonClient::connect(&path).expect("connect");
    let kernels = all_kernels(4);
    for kernel in &kernels {
        let (out, _) = client
            .query(&check_query(kernel.name, &kernel.source))
            .expect("check");
        assert!(out.failure.is_none(), "{} must check clean", kernel.name);
    }
    let stats = client.stats().expect("stats");
    assert!(stats.get("uptime_ms").and_then(Value::as_int).is_some());
    assert_eq!(
        stats.get("version").and_then(Value::as_str),
        Some(SERVICE_VERSION)
    );
    let served = stats.get("requests_total").and_then(Value::as_int).unwrap();
    assert!(
        served >= kernels.len() as i64,
        "requests_total {served} must count the kernel queries"
    );

    let doc = stats.get("metrics").expect("metrics document");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(METRICS_SCHEMA)
    );
    let registry = doc.get("metrics").expect("registry snapshot");
    let checks = registry
        .get("counters")
        .and_then(|c| c.get("rpc.requests_total{op=\"check\"}"))
        .and_then(Value::as_int);
    assert_eq!(
        checks,
        Some(kernels.len() as i64),
        "per-op counter must count one check per kernel"
    );
    let hist = registry
        .get("histograms")
        .and_then(|h| h.get("rpc.request_latency_us{op=\"check\"}"))
        .expect("per-op latency histogram");
    assert_eq!(
        hist.get("count").and_then(Value::as_int),
        Some(kernels.len() as i64)
    );
    assert!(
        hist.get("sum_us").and_then(Value::as_int).unwrap_or(0) > 0,
        "latency histogram must be non-empty: {hist}"
    );
    let buckets = hist.get("buckets").and_then(Value::as_arr).unwrap();
    let filled: i64 = buckets.iter().filter_map(Value::as_int).sum();
    assert_eq!(
        filled,
        kernels.len() as i64,
        "every observation lands in a bucket"
    );

    // Every metric the registry actually carries must be declared in
    // SERVICE_METRIC_NAMES (the documented glossary).
    for section in ["counters", "gauges", "histograms"] {
        let Some(Value::Obj(fields)) = registry.get(section) else {
            panic!("registry section {section} missing");
        };
        for (key, _) in fields {
            let base = key.split('{').next().unwrap();
            assert!(
                SERVICE_METRIC_NAMES.contains(&base),
                "daemon emits undeclared metric `{base}` (add it to \
                 SERVICE_METRIC_NAMES and docs/OBSERVABILITY.md)"
            );
        }
    }
    stop(&path, handle);
}

/// The `metrics` op must emit well-formed Prometheus text exposition:
/// every line is a `# TYPE` comment or a `name[{labels}] value` sample,
/// histogram buckets are cumulative and end at `+Inf` = `_count`.
#[test]
fn prometheus_exposition_is_well_formed() {
    let (path, handle) = start_with("prom", Some(TelemetryConfig::default()));
    let mut client = DaemonClient::connect(&path).expect("connect");
    let kernel = &all_kernels(4)[0];
    client
        .query(&check_query(kernel.name, &kernel.source))
        .expect("check");
    let text = client.metrics().expect("metrics");
    assert!(text.contains("# TYPE syncopt_rpc_requests_total counter"));
    let mut typed = BTreeSet::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE kind: {line}"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample must be `name value`");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("unparsable sample value in `{line}`: {e}"));
        assert!(
            name.starts_with("syncopt_"),
            "unprefixed sample name: {line}"
        );
        samples.push(name.to_string());
    }
    // Every sample's family (name up to the first `{`, minus histogram
    // suffixes) must have exactly one TYPE comment.
    for name in &samples {
        let base = name.split('{').next().unwrap();
        let family = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .unwrap_or(base);
        assert!(
            typed.contains(family),
            "sample {name} has no # TYPE comment for {family}"
        );
    }
    // Histogram buckets are cumulative, ending at +Inf == _count.
    let hist_prefix = "syncopt_rpc_request_latency_us_bucket{op=\"check\",le=";
    let bucket_counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(hist_prefix))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(
        !bucket_counts.is_empty(),
        "no buckets for the check histogram"
    );
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "bucket counts must be cumulative: {bucket_counts:?}"
    );
    let count_line = "syncopt_rpc_request_latency_us_count{op=\"check\"} ";
    let total: u64 = text
        .lines()
        .find(|l| l.starts_with(count_line))
        .and_then(|l| l.rsplit_once(' ').unwrap().1.parse().ok())
        .expect("histogram _count sample");
    assert_eq!(
        *bucket_counts.last().unwrap(),
        total,
        "+Inf bucket must equal _count"
    );
    stop(&path, handle);
}

/// The request log once it holds `checks` lines of op `check`, or as it
/// stands when the deadline passes. The daemon writes a request's line
/// *after* sending the reply (the line records the encode span, which
/// ends with the write), and connection threads outlive `run`: a client
/// that has its answer — even a joined daemon — can be ahead of the log.
fn wait_for_reqlog(log: &Path, checks: usize) -> Vec<ReqLogEntry> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = std::fs::read_to_string(log).expect("request log exists");
        // Whole lines only: a connection thread may be mid-write.
        let whole = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        let entries = parse_reqlog(whole).expect("request log parses");
        let logged = entries.iter().filter(|e| e.op == "check").count();
        if logged >= checks || Instant::now() > deadline {
            return entries;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The serving-timeline acceptance check: 8 concurrent clients × 5
/// rounds against a request-logging daemon; the log parses, every
/// request's phase spans sum exactly to its recorded wall time, and the
/// Chrome Trace export carries one slice per request plus the nested
/// phase slices.
#[test]
fn request_log_accounts_spans_and_exports_a_timeline() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;
    let log =
        std::env::temp_dir().join(format!("syncoptd-svc-{}-reqlog.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (path, handle) = start_with(
        "timeline",
        Some(TelemetryConfig {
            log: Some(log.clone()),
            slow_us: None,
            scrub: false,
        }),
    );
    let kernels = Arc::new(all_kernels(4));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let path = path.clone();
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || {
                let mut conn = DaemonClient::connect(&path).expect("connect");
                for round in 0..ROUNDS {
                    let kernel = &kernels[(client + round) % kernels.len()];
                    conn.query(&check_query(kernel.name, &kernel.source))
                        .expect("query");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread must not panic");
    }
    stop(&path, handle);

    let entries = wait_for_reqlog(&log, CLIENTS * ROUNDS);
    let queries = entries.iter().filter(|e| e.op == "check").count();
    assert_eq!(queries, CLIENTS * ROUNDS, "one log line per query");
    // Request spans sum exactly to recorded wall time, ids monotonic.
    verify_reqlog_accounting(&entries).expect("span accounting");

    let trace = daemon_chrome_trace(&entries);
    assert_eq!(
        trace.get("schema").and_then(Value::as_str),
        Some(syncopt::TRACE_SCHEMA)
    );
    assert_eq!(
        trace.get("requests").and_then(Value::as_int),
        Some(entries.len() as i64)
    );
    let conns: BTreeSet<u64> = entries.iter().map(|e| e.conn).collect();
    assert!(
        conns.len() >= CLIENTS,
        "at least one track per client, got {}",
        conns.len()
    );
    let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
    // One meta per connection, plus per request: 1 slice + 3 phases.
    assert_eq!(events.len(), conns.len() + entries.len() * 4);
    let _ = std::fs::remove_file(&log);
}

/// Telemetry is strictly observational: query responses must be
/// byte-identical across direct mode, a telemetry-enabled daemon, and a
/// `--no-telemetry` daemon — and the disabled daemon must reject the
/// `metrics` op while still answering `stats` with service fields.
#[test]
fn responses_are_byte_identical_with_telemetry_on_off_and_direct() {
    let (on_path, on_handle) = start_with("ident-on", Some(TelemetryConfig::default()));
    let (off_path, off_handle) = start_with("ident-off", None);
    let mut on = DaemonClient::connect(&on_path).expect("connect on");
    let mut off = DaemonClient::connect(&off_path).expect("connect off");
    for kernel in all_kernels(4).iter().take(3) {
        for command in ["check", "explain", "profile"] {
            for format in [Format::Human, Format::Json] {
                let q = Query {
                    command: command.to_string(),
                    format,
                    ..check_query(kernel.name, &kernel.source)
                };
                let direct = execute(&mut AnalysisSession::new(), &q);
                let (with_telemetry, _) = on.query(&q).expect(command);
                let (without_telemetry, _) = off.query(&q).expect(command);
                assert_eq!(
                    with_telemetry, direct,
                    "{command} {}: telemetry daemon must match direct mode",
                    kernel.name
                );
                assert_eq!(
                    without_telemetry, with_telemetry,
                    "{command} {}: telemetry must not change a single byte",
                    kernel.name
                );
            }
        }
    }
    let err = off.metrics().expect_err("metrics op needs telemetry");
    assert!(err.contains("telemetry"), "got: {err}");
    let stats = off.stats().expect("stats works without telemetry");
    assert!(stats.get("metrics").is_none(), "no metrics doc when off");
    assert_eq!(
        stats.get("version").and_then(Value::as_str),
        Some(SERVICE_VERSION)
    );
    stop(&on_path, on_handle);
    stop(&off_path, off_handle);
}

/// Drift test (the `tests/diagnostic_codes.rs` pattern): every service
/// metric named in the sources must be declared in
/// `SERVICE_METRIC_NAMES`, and every declared metric must be documented
/// with a backticked entry in `docs/OBSERVABILITY.md`.
#[test]
fn every_service_metric_is_declared_and_documented() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    // Scan the syncopt sources for `"rpc.<...>"` string literals.
    let mut emitted = BTreeSet::new();
    let dir = root.join("crates/syncopt/src");
    let mut stack = vec![dir];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                for (i, _) in text.match_indices("\"rpc.") {
                    // Take the base metric name only: stop at the first
                    // character outside [a-z_.] so labeled literals like
                    // "rpc.request_latency_us{op=\"check\"}" yield their
                    // family name rather than a label fragment.
                    let rest = &text[i + 1..];
                    let end = rest
                        .find(|c: char| !(c.is_ascii_lowercase() || c == '_' || c == '.'))
                        .unwrap_or(rest.len());
                    emitted.insert(rest[..end].to_string());
                }
            }
        }
    }
    assert!(
        emitted.contains("rpc.requests_total"),
        "scan looks broken: {emitted:?}"
    );
    for name in &emitted {
        assert!(
            SERVICE_METRIC_NAMES.contains(&name.as_str()),
            "`{name}` is emitted but missing from SERVICE_METRIC_NAMES"
        );
    }
    let docs = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();
    for name in SERVICE_METRIC_NAMES {
        assert!(
            docs.contains(&format!("`{name}`")),
            "`{name}` is declared but has no glossary entry in docs/OBSERVABILITY.md"
        );
        assert!(
            emitted.contains(*name),
            "`{name}` is declared in SERVICE_METRIC_NAMES but never used in the sources"
        );
    }
}

/// A committed before/after report keeps the envelope of the other
/// committed baselines: the all-integer `syncopt.bench_report.v1`,
/// readable by the std-only parser.
fn assert_bench_report_v1(text: &str, suite: &str, claimed_row: &str) {
    let doc = Value::parse(text.trim_end()).expect("the report parses (integers only)");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(syncopt::bench::BENCH_SCHEMA)
    );
    assert_eq!(doc.get("suite").and_then(Value::as_str), Some(suite));
    assert!(doc.get("host_cpus").and_then(Value::as_int).is_some());
    let configs = doc.get("configs").and_then(Value::as_arr).unwrap();
    let mut ids = BTreeSet::new();
    for config in configs {
        let id = config.get("id").and_then(Value::as_str).expect("id");
        assert!(ids.insert(id), "duplicate row {id}");
        for side in ["parent", "change"] {
            for key in ["q1_milli", "median_milli", "q3_milli"] {
                assert!(
                    config
                        .get(side)
                        .and_then(|s| s.get(key))
                        .and_then(Value::as_int)
                        .is_some(),
                    "{id}: {side}.{key}"
                );
            }
        }
    }
    assert!(ids.contains(claimed_row), "the claimed row");
}

/// `BENCH_service.json`: the before/after rows of `docs/PERFORMANCE.md` §8.
#[test]
fn committed_service_bench_report_is_a_bench_report_v1_document() {
    assert_bench_report_v1(
        include_str!("../BENCH_service.json"),
        "service",
        "serve_warm.ops_per_s",
    );
}

/// `BENCH_sim_interp.json`: the before/after rows of `docs/PERFORMANCE.md` §6.
#[test]
fn committed_sim_interp_bench_report_is_a_bench_report_v1_document() {
    assert_bench_report_v1(
        include_str!("../BENCH_sim_interp.json"),
        "sim_interp",
        "sim_seq.ops_per_s",
    );
}

/// `BENCH_analysis.json`: the before/after rows of `docs/PERFORMANCE.md` §9.
#[test]
fn committed_analysis_bench_report_is_a_bench_report_v1_document() {
    assert_bench_report_v1(
        include_str!("../BENCH_analysis.json"),
        "analysis",
        "compile_cold.ops_per_s",
    );
}
