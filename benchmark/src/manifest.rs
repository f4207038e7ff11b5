//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! [`render`]'s output, and a unit test keeps the two identical.

use std::fmt::Write as _;

/// Seconds one run measures for (the driver passes it back as
/// `--seconds`; it is also the default).
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the repository root; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compile_cold",
        "cold Syncopt::compile + report render of 236 programs on fresh sessions: core and codegen do the work, frontend/ir set the median, machine does none (bypass for simulator changes)",
    ),
    (
        "sim_seq",
        "compile + sequential simulation of 12 programs at Blocking and Full: machine::sim dominates, mixing event-dense and cycle-bound sparse programs; its traced run also probes the sharded engine",
    ),
    (
        "serve_warm",
        "a closed-loop client replays 30 warmed requests against an in-process syncoptd: wire, session lock, fingerprint, cache hit and render only (bypass for pipeline changes)",
    ),
    (
        "serve_edit",
        "a closed-loop client alternates never-seen checks (every key misses) and reformatted-source runs (canonical keys hit) against a cache filled to capacity: the insert and eviction side",
    ),
];

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether `higher` or `lower` is better.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected (0 for per-layer metrics,
    /// which have no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
///
/// Every bound is the contract's ceiling, a quarter. In quiet periods of
/// the reference host the timing metrics repeat within 2–5 % from run to
/// run, but the host has episodes, tens of seconds long, that slow the
/// syscall-heavy serving workloads by up to a third; one ten-run series in
/// three caught enough of them to reach a quartile spread of 12–16 %
/// (README.md, "How the bounds were derived"). A tighter bound would
/// reject innocent changes whenever an episode fell on their runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "op/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p90_us", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics, reported by the traced run. A metric reads 0 on a
/// workload that does not exercise its layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer("frontend.parse_us", "us", "lower"),
    layer("frontend.typeck_us", "us", "lower"),
    layer("frontend.inline_us", "us", "lower"),
    layer("frontend.src_bytes", "B", "lower"),
    layer("ir.lower_us", "us", "lower"),
    layer("core.analyze_us", "us", "lower"),
    layer("core.conflict_pairs", "count", "lower"),
    layer("core.backpath_queries", "count", "lower"),
    layer("core.delay_ss", "count", "lower"),
    layer("core.delay_sync", "count", "lower"),
    layer("codegen.optimize_us", "us", "lower"),
    layer("codegen.transforms", "count", "higher"),
    layer("machine.sim_us", "us", "lower"),
    layer("machine.events", "count", "lower"),
    layer("machine.events_per_us", "events/us", "higher"),
    layer("machine.bucket_rotations", "count", "lower"),
    layer("machine.rotations_per_event", "ratio", "lower"),
    layer("machine.shard_us", "us", "lower"),
    layer("machine.shard_windows", "count", "lower"),
    layer("machine.shard_us_per_window", "us", "lower"),
    layer("machine.shard_events_per_window", "count", "higher"),
    layer("machine.shard_idle_windows", "count", "lower"),
    layer("machine.shard_cross_messages", "count", "lower"),
    layer("machine.shard_imbalance_permille", "permille", "lower"),
    layer("machine.shard_speedup_milli", "permille", "higher"),
    layer("report.render_us", "us", "lower"),
    layer("report.bytes", "B", "lower"),
    layer("session.warm_execute_us", "us", "lower"),
    layer("session.fingerprint_us", "us", "lower"),
    layer("ir.print_us", "us", "lower"),
    layer("ir.cfg_text_bytes", "B", "lower"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.hit_ratio_permille", "permille", "higher"),
    layer("cache.lookup_ns", "ns", "lower"),
    layer("cache.evict_insert_ns", "ns", "lower"),
    layer("rpc.encode_request_us", "us", "lower"),
    layer("rpc.decode_request_us", "us", "lower"),
    layer("rpc.encode_response_us", "us", "lower"),
    layer("rpc.decode_response_us", "us", "lower"),
    layer("rpc.request_bytes", "B", "lower"),
    layer("rpc.response_bytes", "B", "lower"),
    layer("daemon.decode_us", "us", "lower"),
    layer("daemon.execute_us", "us", "lower"),
    layer("daemon.encode_us", "us", "lower"),
    layer("daemon.ping_us", "us", "lower"),
    layer("client.roundtrip_us", "us", "lower"),
    layer("client.overhead_us", "us", "lower"),
    layer("pipeline.unaccounted_us", "us", "lower"),
    layer("trace.overhead_permille", "permille", "lower"),
    layer("latency_p99_us", "us", "lower"),
    layer("opt_speedup_milli", "permille", "higher"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "BENCHMARK.json drifted from manifest.rs; regenerate it with the `manifest` subcommand"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
            names.push(name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            names.push(m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && render().len() <= 64 * 1024);
    }
}
