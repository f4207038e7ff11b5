//! The repo benchmark: wall-clock compile, simulate and serve workloads,
//! each verified, with a per-layer traced run. See `README.md`.
//!
//! ```text
//! syncopt-benchmark                      every workload, plain and traced
//! syncopt-benchmark --smoke              the same, one pass each (< 15 s)
//! syncopt-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                        one run; last stdout line is the result
//! syncopt-benchmark selfcheck [--runs N] run the set N times, compare with bounds
//! syncopt-benchmark regen-expected       rewrite expected/memory.json
//! syncopt-benchmark manifest             print BENCHMARK.json
//! ```
//!
//! Run it from the repository root.

mod affinity;
mod expected;
mod harness;
mod inputs;
mod manifest;
mod pipeline;
mod serve;
mod spans;
mod stats;

use harness::{Report, RunConfig};
use manifest::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: syncopt-benchmark [all | selfcheck | regen-expected | manifest] \
[--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--smoke]";

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 2,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or("--runs takes an integer of at least 2")?;
            }
            "--smoke" => args.smoke = true,
            "all" | "selfcheck" | "regen-expected" | "manifest" if args.command.is_empty() => {
                args.command = arg.clone();
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.command.is_empty() {
        args.command = if args.workload.is_some() {
            "run"
        } else {
            "all"
        }
        .to_string();
    }
    Ok(args)
}

/// One run of one workload in this process.
fn run_workload(name: &str, cfg: &RunConfig) -> Result<Report, String> {
    match name {
        "compile_cold" => harness::run::<pipeline::CompileCold>("compile_cold", cfg),
        "sim_seq" => harness::run::<pipeline::Sim>("sim_seq", cfg),
        "serve_warm" => harness::run::<serve::Serve<false>>("serve_warm", cfg),
        "serve_edit" => harness::run::<serve::Serve<true>>("serve_edit", cfg),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
        )),
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        host_cpus: std::thread::available_parallelism().map_or(0, usize::from),
    };
    let pinned = affinity::pin_to_one_cpu();
    let report = run_workload(name, &cfg)?;
    for line in &report.log {
        println!("{line}");
    }
    if !pinned {
        println!("  NOT PINNED to one CPU (unsupported here): expect noisier numbers");
    }
    if let Some(trace) = &report.trace_json {
        let path = format!("{}/trace-{}.json", serve::OUT_DIR, report.workload);
        std::fs::create_dir_all(serve::OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("cannot write {path} (run from the repository root): {e}"))?;
        println!("  trace written to {path}");
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// The metrics of one child run, parsed back from its result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Pulls `"key": <number>` out of a flat result line. The line is this
/// program's own output, so a full JSON reader is not needed (and the
/// repo's reads integers only).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_result_line(line: &str, names: &[&str]) -> Result<ChildResult, String> {
    let bad = || format!("unreadable result line: {line}");
    let mut metrics = BTreeMap::new();
    for name in names {
        let at = line.find(&format!("\"{name}\": {{")).ok_or_else(bad)?;
        metrics.insert(
            (*name).to_string(),
            number_after(&line[at..], "value").ok_or_else(bad)?,
        );
    }
    Ok(ChildResult {
        correct: line.contains("\"correct\": true"),
        attempted: number_after(line, "attempted").ok_or_else(bad)? as u64,
        failed: number_after(line, "failed").ok_or_else(bad)? as u64,
        metrics,
    })
}

/// Runs one workload in a fresh process (so `peak_rss_mb` is its own),
/// echoing its log, and returns its parsed result.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let names: Vec<&str> = if trace {
        manifest::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let result = parse_result_line(last, &names)
        .map_err(|e| format!("{workload} (exit {:?}): {e}", out.status.code()))?;
    if !out.status.success() || !result.correct {
        println!(
            "  {workload}: NOT CORRECT ({} of {} ops failed)",
            result.failed, result.attempted
        );
    }
    Ok(result)
}

fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            ok &= run_child(args, workload, args.seed, trace)?.correct;
        }
    }
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Runs the whole set `--runs` times and holds every end-to-end metric's
/// run-to-run spread against its bound in `BENCHMARK.json`; the
/// deterministic results must agree exactly.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    // values[(workload, metric)] = one value per run
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for run in 0..args.runs {
        println!("== selfcheck: run {} of {} ==", run + 1, args.runs);
        for (workload, _) in WORKLOADS {
            let plain = run_child(args, workload, args.seed, false)?;
            ok &= plain.correct;
            for m in END_TO_END {
                values
                    .entry((workload, m.name))
                    .or_default()
                    .push(plain.metrics[m.name]);
            }
            let ratio = plain.failed as f64 / plain.attempted.max(1) as f64;
            exact
                .entry((workload, "fail_ratio"))
                .or_default()
                .push(ratio);
            if *workload == "sim_seq" {
                let traced = run_child(args, workload, args.seed, true)?;
                ok &= traced.correct;
                exact
                    .entry((workload, "opt_speedup_milli"))
                    .or_default()
                    .push(traced.metrics["opt_speedup_milli"]);
            }
        }
    }
    println!(
        "== selfcheck: {} runs, host_cpus {} ==",
        args.runs,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:<14} {:<16} {:>9} {:>7}  values",
        "workload", "metric", "spread", "bound"
    );
    for ((workload, metric), runs) in &values {
        let bound = manifest::end_to_end(metric).map_or(0.0, |m| m.bound);
        let spread = stats::spread_share(runs);
        // The set-up time's spread is reported, not gated: it is short and
        // only its median is compared between commits.
        let gated = *metric != "setup_s";
        let verdict = if spread <= bound {
            ""
        } else if gated {
            ok = false;
            "  EXCEEDS BOUND"
        } else {
            "  (not gated)"
        };
        println!(
            "{workload:<14} {metric:<16} {:>8.2}% {:>6.0}%  {}{verdict}",
            spread * 100.0,
            bound * 100.0,
            runs.iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    for ((workload, metric), runs) in &exact {
        let same = runs.iter().all(|v| v == &runs[0]);
        let zero_failures = *metric != "fail_ratio" || runs[0] == 0.0;
        if !same || !zero_failures {
            ok = false;
        }
        println!(
            "{workload:<14} {metric:<16} {:>9} {:>7}  {}{}",
            if same { "exact" } else { "DIFFERS" },
            "exact",
            runs.iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(" "),
            if zero_failures { "" } else { "  OPS FAILED" },
        );
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "SELFCHECK FAILED"
        }
    );
    Ok(ok)
}

fn cmd_regen_expected() -> Result<bool, String> {
    let text = pipeline::regenerate_expected()?.render();
    std::fs::write(expected::PATH, &text).map_err(|e| {
        format!(
            "cannot write {} (run from the repository root): {e}",
            expected::PATH
        )
    })?;
    print!("{text}");
    println!("wrote {}; rebuild to embed it", expected::PATH);
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "regen-expected" => cmd_regen_expected(),
        "manifest" => {
            print!("{}", manifest::render());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("syncopt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse_args(&argv("--workload sim_seq --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("sim_seq"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn defaults_are_fixed_and_bad_arguments_are_refused() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(
            (a.command.as_str(), a.seed, a.seconds),
            ("all", 1, RUN_SECONDS as f64)
        );
        assert_eq!(parse_args(&argv("selfcheck --runs 5")).unwrap().runs, 5);
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--runs 1")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        let cfg = RunConfig {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            host_cpus: 2,
        };
        assert!(run_workload("nope", &cfg).is_err());
    }

    #[test]
    fn result_lines_round_trip() {
        let report = Report {
            workload: "w",
            metrics: vec![("ops_per_s", 1234.5678, "op/s"), ("setup_s", 0.25, "s")],
            attempted: 40,
            failed: 0,
            correct: true,
            log: Vec::new(),
            trace_json: None,
        };
        let parsed = parse_result_line(&report.result_line(), &["ops_per_s", "setup_s"]).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (40, 0));
        assert_eq!(parsed.metrics["ops_per_s"], 1234.5678);
        assert_eq!(parsed.metrics["setup_s"], 0.25);
        assert!(parse_result_line("garbage", &["ops_per_s"]).is_err());
    }
}
