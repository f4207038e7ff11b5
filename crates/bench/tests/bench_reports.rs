//! The committed before/after reports of the wall-clock benchmark
//! (`BENCH_service.json`, `BENCH_sim_interp.json`, `BENCH_analysis.json`)
//! share the `syncopt.bench_report.v1` envelope of the counter baselines.

use std::collections::BTreeSet;

use syncopt_bench::counters::BENCH_SCHEMA;
use syncopt_core::diag::json::Value;

/// A committed before/after report keeps the envelope of the other
/// committed baselines: the all-integer `syncopt.bench_report.v1`,
/// readable by the std-only parser.
fn assert_bench_report_v1(text: &str, suite: &str, claimed_row: &str) {
    let doc = Value::parse(text.trim_end()).expect("the report parses (integers only)");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(BENCH_SCHEMA)
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
        include_str!("../../../BENCH_service.json"),
        "service",
        "serve_warm.ops_per_s",
    );
}

/// `BENCH_sim_interp.json`: the before/after rows of `docs/PERFORMANCE.md` §6.
#[test]
fn committed_sim_interp_bench_report_is_a_bench_report_v1_document() {
    assert_bench_report_v1(
        include_str!("../../../BENCH_sim_interp.json"),
        "sim_interp",
        "sim_seq.ops_per_s",
    );
}

/// `BENCH_analysis.json`: the before/after rows of `docs/PERFORMANCE.md` §9.
#[test]
fn committed_analysis_bench_report_is_a_bench_report_v1_document() {
    assert_bench_report_v1(
        include_str!("../../../BENCH_analysis.json"),
        "analysis",
        "compile_cold.ops_per_s",
    );
}
