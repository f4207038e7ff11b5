//! Integration tests for the `syncoptd` service telemetry layer:
//! `syncopt.metrics.v1` stats, Prometheus text exposition, the request
//! log → `daemon-trace` timeline with exact span accounting, metric-name
//! drift against `docs/OBSERVABILITY.md`, and byte-identity of query
//! responses with telemetry on, off, and in direct mode.

#![cfg(unix)]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use syncopt::client::DaemonClient;
use syncopt::commands::{execute, Format, Query};
use syncopt::core::diag::json::Value;
use syncopt::daemon::Daemon;
use syncopt::kernels::all_kernels;
use syncopt::rpc::{encode_request, Request, RequestBody};
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
/// every line is a `# TYPE` comment or a `name[{labels}] value` sample
/// (see [`assert_prometheus_line`]),
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
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert_prometheus_line(line);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
        } else {
            let name = line.rsplit_once(' ').unwrap().0;
            assert!(name.starts_with("syncopt_"), "unprefixed sample: {line}");
            samples.push(name.to_string());
        }
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

    let trace = Value::parse(&daemon_chrome_trace(&entries)).unwrap();
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

/// A Prometheus sample line split into its series and its value, with
/// the value of a timing-derived series (latency buckets and sums) set
/// aside.
fn series_and_value(line: &str) -> (&str, Option<&str>) {
    match line.rsplit_once(' ') {
        Some((series, value)) if !line.starts_with('#') => {
            let timing = series.starts_with("syncopt_rpc_request_latency_us_bucket")
                || series.starts_with("syncopt_rpc_request_latency_us_sum");
            (series, (!timing).then_some(value))
        }
        _ => (line, None),
    }
}

/// The service-metrics golden. A scrub-mode daemon serves a fixed script
/// on one connection: `ping`, `stats`, `check`, `lint`, `run` and a bad
/// envelope. Its `stats --format json` document must then match
/// `tests/golden/service.stats.json` byte for byte, the `cache` and
/// `kinds` objects of its `stats` reply `tests/golden/service.cache.json`
/// byte for byte, and its `metrics` text `tests/golden/service.metrics.prom`
/// series for series, with the same value for every series not derived
/// from timing. `UPDATE_GOLDEN=1` rewrites all three files; it writes each
/// timing-derived series with the value 0.
#[test]
fn scripted_session_matches_the_metrics_goldens() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let source = std::fs::read_to_string(root.join("programs/postwait.ms")).unwrap();
    let (path, handle) = start_with(
        "golden",
        Some(TelemetryConfig {
            log: None,
            // No request of the script may count as slow on a slow host.
            slow_us: Some(u64::MAX),
            scrub: true,
        }),
    );
    // One raw connection: the bad envelope shares it with the rest.
    let writer = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone socket"));
    let mut send = |line: String| {
        (&writer).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        Value::parse(reply.trim_end()).expect("reply is JSON")
    };
    let request = |id, body| encode_request(&Request { id, body }).to_string();
    let query = |command: &str| {
        RequestBody::Query(Query {
            command: command.to_string(),
            ..check_query("postwait.ms", &source)
        })
    };
    let script = [
        RequestBody::Ping,
        RequestBody::Stats,
        query("check"),
        query("lint"),
        query("run"),
    ];
    for (id, body) in (1..).zip(script) {
        let reply = send(request(id, body));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
    }
    let bad = send(r#"{"schema":"syncopt.rpc.v1","id":6,"op":"frobnicate"}"#.to_string());
    assert_eq!(bad.get("ok"), Some(&Value::Bool(false)), "{bad}");
    let stats = send(request(7, RequestBody::Stats));
    let member = |name| {
        stats
            .get(name)
            .unwrap_or_else(|| panic!("no `{name}`: {stats}"))
    };
    let cache = format!(
        "{{\"cache\":{},\"kinds\":{}}}\n",
        member("cache"),
        member("kinds")
    );
    let stats = format!("{}\n", member("metrics"));
    let metrics = send(request(8, RequestBody::Metrics));
    let metrics = metrics.get("metrics_text").and_then(Value::as_str).unwrap();
    stop(&path, handle);

    let golden = root.join("tests/golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden.join("service.stats.json"), &stats).unwrap();
        std::fs::write(golden.join("service.cache.json"), &cache).unwrap();
        // The masked series are written with 0, so that regenerating the
        // file does not churn with the run's latencies.
        let masked: String = metrics
            .lines()
            .map(|line| match series_and_value(line) {
                (series, None) if !line.starts_with('#') => format!("{series} 0\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        std::fs::write(golden.join("service.metrics.prom"), masked).unwrap();
        return;
    }
    let read = |name| std::fs::read_to_string(golden.join(name)).unwrap();
    assert_eq!(stats, read("service.stats.json"), "stats --format json");
    assert_eq!(
        cache,
        read("service.cache.json"),
        "the stats reply's cache counters"
    );
    let expected = read("service.metrics.prom");
    let expected: Vec<_> = expected.lines().map(series_and_value).collect();
    let actual: Vec<_> = metrics.lines().map(series_and_value).collect();
    assert_eq!(actual, expected, "metrics text:\n{metrics}");
}

/// A query whose command is `command`, sent on its own.
fn command_query(command: &str) -> Query {
    Query {
        command: command.to_string(),
        ..Query::default()
    }
}

/// The series of every line of a Prometheus text, values dropped.
fn series_only(text: &str) -> Vec<&str> {
    text.lines().map(|line| series_and_value(line).0).collect()
}

/// Commands no daemon knows must not grow the metrics: after 1 000
/// distinct unknown commands the `metrics` text carries the same series,
/// and so the same length once the values are set aside, as after one.
#[test]
fn unknown_commands_do_not_grow_the_metrics() {
    let (path, handle) = start_with("bounded", Some(TelemetryConfig::default()));
    let mut client = DaemonClient::connect(&path).expect("connect");
    let (out, _) = client.query(&command_query("bogus-0")).expect("query");
    assert!(out.failure.unwrap().contains("unknown command"));
    // The first `metrics` request puts the `metrics` op among those seen.
    client.metrics().expect("metrics");
    let after_one = client.metrics().expect("metrics");
    for i in 1..=1000 {
        client
            .query(&command_query(&format!("bogus-{i}")))
            .expect("query");
    }
    let after_many = client.metrics().expect("metrics");
    assert_eq!(
        series_only(&after_many).concat().len(),
        series_only(&after_one).concat().len(),
        "the metrics grew with the commands sent"
    );
    assert_eq!(series_only(&after_many), series_only(&after_one));
    assert!(after_many.contains("syncopt_rpc_requests_total{op=\"other\"} 1001"));
    stop(&path, handle);
}

/// Panics unless `line` is a `# TYPE name kind` line or a
/// `name{label="value",...} value` sample whose names and label values
/// are plain words (`+Inf` aside): no quote, brace or newline a client
/// sent.
fn assert_prometheus_line(line: &str) {
    let word = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
        let kind_ok = matches!(kind, "counter" | "gauge" | "histogram");
        assert!(word(name) && kind_ok, "bad TYPE line: {line:?}");
        return;
    }
    let (series, value) = line.rsplit_once(' ').unwrap_or((line, ""));
    let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
    let label_ok = |label: &str| {
        let (key, value) = label.split_once("=\"").unwrap_or((label, ""));
        let value = value.strip_suffix('"').unwrap_or("\"");
        word(key) && (word(value) || value == "+Inf")
    };
    let labels_ok = labels
        .strip_suffix('}')
        .is_some_and(|l| l.is_empty() || l.split(',').all(label_ok));
    assert!(
        word(name) && labels_ok && value.parse::<u64>().is_ok(),
        "bad sample: {line:?}"
    );
}

/// A command holding a quote, a brace and newlines reaches no metric
/// name, label or log line: every Prometheus line stays well-formed, no
/// forged series appears, the query is counted as `other`, and every
/// line of the request log parses.
#[test]
fn a_hostile_command_forges_no_metric_and_no_log_line() {
    let log =
        std::env::temp_dir().join(format!("syncoptd-svc-{}-hostile.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (path, handle) = start_with(
        "hostile",
        Some(TelemetryConfig {
            log: Some(log.clone()),
            ..TelemetryConfig::default()
        }),
    );
    let mut client = DaemonClient::connect(&path).expect("connect");
    let hostile = "\"} 1\nsyncopt_fake_metric 999\n#";
    let (out, _) = client.query(&command_query(hostile)).expect("query");
    assert!(out.failure.unwrap().contains("unknown command"));
    let text = client.metrics().expect("metrics");
    for line in text.lines() {
        assert_prometheus_line(line);
    }
    assert!(!text.contains("syncopt_fake_metric"), "{text}");
    assert!(text.contains("syncopt_rpc_requests_total{op=\"other\"} 1"));

    // The query's log line was written before its connection read the
    // `metrics` request; that request's own line may still be in flight.
    let written = std::fs::read_to_string(&log).expect("request log");
    let whole = &written[..written.rfind('\n').map_or(0, |i| i + 1)];
    let entries = parse_reqlog(whole).expect("every log line parses");
    let ops: Vec<&str> = entries.iter().map(|e| e.op.as_str()).collect();
    assert_eq!(ops.first(), Some(&"other"), "{ops:?}");
    stop(&path, handle);
    let _ = std::fs::remove_file(&log);
}
