//! What the JSON writers write, pinned by digest: pipeline and profile
//! reports, spliced query responses, and seeded `json::Value`s.
//!
//! Reports: hand-made edge reports, the five kernels at four widths and
//! every level (compile reports, run reports on the three machines,
//! profiles, traced runs with and without a truncated trace), and the
//! 220-program corpus (compile reports, and run reports of those that
//! simulate). Measured phase timings are replaced by fixed values before
//! rendering, so each line pins what was computed, not how long it took.
//!
//! The tables were written by the `json::Value`-tree encoders and the
//! `fmt` emitter that the direct writers replaced; the writers matched
//! them byte for byte. See `tests/common/digest.rs` for regenerating.

#[path = "common/digest.rs"]
mod digest;

use digest::{check_table, Digest};
use std::fmt::Write;
use syncopt::commands::{CmdOut, FileOutput};
use syncopt::core::corpus::{corpus_program, SplitMix64};
use syncopt::core::diag::json::Value;
use syncopt::core::{AnalysisCounters, PhaseTimings};
use syncopt::machine::sim::{NetStats, StallStats};
use syncopt::machine::SimMetrics;
use syncopt::report::level_label;
use syncopt::rpc::{decode_response, query_response, ReplyBody};
use syncopt::{
    AnalysisSession, AnalysisStats, CacheStats, DelayChoice, MachineConfig, OptLevel, OptStats,
    PipelineReport, ProfileReport, ReportMeta, SessionOptions, SimReport, Syncopt, TraceLevel,
    DEFAULT_TRACE_LIMIT,
};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];

fn line(table: &mut String, id: &str, json: &str) {
    let mut digest = Digest::default();
    digest.text(json);
    writeln!(table, "{id} {:016x}", digest.0).unwrap();
}

/// Measured timings replaced by each phase's position; the phases and
/// their order stay.
fn fixed(timings: &mut PhaseTimings) {
    if timings.enabled() {
        let mut pinned = PhaseTimings::new(true);
        for (n, (phase, _)) in timings.iter().enumerate() {
            pinned.record(phase, n as u64 + 1);
        }
        *timings = pinned;
    }
}

fn report_json(r: &PipelineReport) -> String {
    let mut r = r.clone();
    fixed(&mut r.timings);
    r.to_json()
}

fn profile_json(p: &ProfileReport) -> String {
    let mut p = p.clone();
    fixed(&mut p.blocking.timings);
    fixed(&mut p.optimized.timings);
    p.to_json()
}

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

/// The hand-made reports: no machine, no simulation, timings under a
/// phase the pipeline does not name, and the largest timing.
#[test]
fn the_writers_write_the_bytes_the_value_tree_wrote_on_edge_reports() {
    let mut table = String::new();
    let mut r = empty_report(OptLevel::Pipelined, Some(7));
    line(&mut table, "simulated", &r.to_json());
    r.meta.machine = None;
    r.sim = None;
    line(&mut table, "compile only", &r.to_json());
    r.timings = PhaseTimings::new(true);
    r.timings.record("parse", 12);
    r.timings.record("replay", u64::MAX);
    line(&mut table, "timed", &r.to_json());
    let p = ProfileReport {
        blocking: empty_report(OptLevel::Blocking, None),
        optimized: empty_report(OptLevel::Full, Some(3)),
    };
    line(&mut table, "profile", &p.to_json());
    check_table("tests/golden/digest/reports_edge.txt", &table);
}

#[test]
fn the_writers_write_the_bytes_the_value_tree_wrote_on_the_kernels() {
    let machines: [fn(u32) -> MachineConfig; 3] =
        [MachineConfig::cm5, MachineConfig::t3d, MachineConfig::dash];
    let mut table = String::new();
    for procs in [4, 16, 64, 256] {
        for kernel in syncopt::kernels::all_kernels(procs) {
            let mut session = AnalysisSession::new();
            for level in LEVELS {
                let id = format!("{} p{procs} {}", kernel.name, level_label(level));
                let opts = SessionOptions {
                    procs: Some(kernel.procs),
                    level,
                    trace: TraceLevel::Phases,
                    ..SessionOptions::default()
                };
                let compiled = session.compile(&kernel.source, &opts).unwrap();
                line(&mut table, &id, &report_json(&compiled.report));
                for machine in machines {
                    let config = machine(kernel.procs);
                    let run = session.run(&kernel.source, &opts, &config).unwrap();
                    let id = format!("{id} {}", config.name);
                    line(&mut table, &id, &report_json(run.report()));
                }
            }
            if procs > 16 {
                continue;
            }
            for machine in machines {
                let config = machine(kernel.procs);
                let p = Syncopt::new(&kernel.source).profile(&config).unwrap();
                let id = format!("{} p{procs} profile {}", kernel.name, config.name);
                line(&mut table, &id, &profile_json(&p));
            }
            for trace_limit in [8, DEFAULT_TRACE_LIMIT] {
                let opts = SessionOptions {
                    trace: TraceLevel::Events,
                    trace_limit,
                    ..SessionOptions::default()
                };
                let config = MachineConfig::cm5(kernel.procs);
                let run = session.run(&kernel.source, &opts, &config).unwrap();
                let truncated = run.report().sim.as_ref().unwrap().trace_truncated;
                assert_eq!(truncated, Some(trace_limit == 8), "{}", kernel.name);
                let id = format!("{} p{procs} traced {trace_limit}", kernel.name);
                line(&mut table, &id, &report_json(run.report()));
            }
        }
    }
    check_table("tests/golden/digest/reports_kernels.txt", &table);
}

#[test]
fn the_writers_write_the_bytes_the_value_tree_wrote_on_the_corpus() {
    let config = MachineConfig::cm5(4);
    let opts = SessionOptions {
        procs: Some(4),
        ..SessionOptions::default()
    };
    let mut session = AnalysisSession::new();
    let mut table = String::new();
    for draw in 1..=220 {
        let src = corpus_program(draw);
        let compiled = session.compile(&src, &opts).unwrap();
        line(
            &mut table,
            &format!("corpus {draw} compile"),
            &report_json(&compiled.report),
        );
        if let Ok(run) = session.run(&src, &opts, &config) {
            line(
                &mut table,
                &format!("corpus {draw} run"),
                &report_json(run.report()),
            );
        }
    }
    check_table("tests/golden/digest/reports_corpus.txt", &table);
}

/// Empty, failed and file-bearing results, and strings holding every
/// character that needs an escape and some that do not, spliced into a
/// query response under three ids; a client reads each back as it was.
#[test]
fn the_splice_writes_the_bytes_the_value_tree_wrote() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let awkward = format!("q\"uote \\ back {controls} \u{2028} \u{1f600} caf\u{e9}");
    let file = |content: &str| FileOutput {
        path: format!("dir/{awkward}.json"),
        content: content.to_string(),
        note: "wrote report".to_string(),
    };
    let outs = [
        CmdOut::default(),
        CmdOut {
            failure: Some("check failed: 2 error(s)".to_string()),
            ..CmdOut::default()
        },
        CmdOut {
            stdout: "execution: 12 cycles\n".to_string(),
            file: Some(file("{\"schema\":\"syncopt.report.v1\"}\n")),
            failure: None,
        },
        CmdOut {
            stdout: awkward.clone(),
            file: Some(file(&awkward)),
            failure: Some(awkward.clone()),
        },
    ];
    let caches = [
        CacheStats::default(),
        CacheStats {
            hits: 1,
            misses: u64::from(u32::MAX) + 7,
            evictions: 12,
        },
    ];
    let mut table = String::new();
    for (n, out) in outs.iter().enumerate() {
        for (id, cache) in [(0, caches[0]), (-3, caches[1]), (i64::MAX, caches[1])] {
            let response = query_response(id, out, cache);
            line(&mut table, &format!("out {n} id {id}"), &response);
            let reply = decode_response(&response).unwrap();
            assert_eq!(reply.id, id);
            assert_eq!(reply.body, ReplyBody::Query(out.clone(), cache));
        }
    }
    check_table("tests/golden/digest/rpc_query_responses.txt", &table);
}

/// Characters of every UTF-8 width, the boundary code points of each
/// width among them.
const WIDE: [char; 8] = [
    '\u{7f}', '\u{80}', 'é', '\u{7ff}', '\u{800}', '漢', '\u{ffff}', '😀',
];

fn plain_run(rng: &mut SplitMix64, out: &mut String) {
    for _ in 0..rng.below(12) {
        out.push(char::from(b' ' + rng.below(95) as u8));
    }
}

/// A string mixing plain runs, multi-byte characters, quotes, backslashes
/// and control characters. Control character `n % 32` is always in
/// string `n`.
fn random_text(rng: &mut SplitMix64, n: u64) -> String {
    let mut s = String::new();
    for piece in 0..rng.below(24) {
        match rng.below(6) {
            0 => s.push(WIDE[rng.below(8) as usize]),
            1 => s.push('"'),
            2 => s.push('\\'),
            3 => s.push(char::from(rng.below(0x20) as u8)),
            _ => plain_run(rng, &mut s),
        }
        if piece == 3 {
            s.push(char::from((n % 32) as u8));
        }
    }
    s
}

/// A value at most `depth` containers deep: every kind, strings from
/// [`random_text`] as values and as keys, and the integers at the edges
/// of `i64` as often as any other.
fn random_value(rng: &mut SplitMix64, depth: u32, n: u64) -> Value {
    match rng.below(if depth == 0 { 4 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int([i64::MIN, i64::MAX, 0, -1, rng.next() as i64][rng.below(5) as usize]),
        3 => Value::Str(random_text(rng, n)),
        4 => Value::Arr(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1, n))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (random_text(rng, n), random_value(rng, depth - 1, n)))
                .collect(),
        ),
    }
}

fn nesting(v: &Value) -> u32 {
    match v {
        Value::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        Value::Obj(fields) => 1 + fields.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// `write_to` writes the pinned bytes of 2 000 seeded values, `Display`
/// writes the same, and the parser reads each back as it was.
#[test]
fn write_to_writes_the_pinned_bytes_and_parses_back() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    let mut deepest = 0;
    let mut table = String::new();
    for n in 0..2_000 {
        let v = random_value(&mut rng, 8, n);
        deepest = deepest.max(nesting(&v));
        let mut text = String::new();
        v.write_to(&mut text);
        line(&mut table, &format!("value {n}"), &text);
        assert_eq!(v.to_string(), text, "value {n}: the `Display` shim");
        assert_eq!(Value::parse(&text), Ok(v), "value {n}");
    }
    assert_eq!(deepest, 8, "the generator must reach the depth it allows");
    check_table("tests/golden/digest/json_values.txt", &table);
}
