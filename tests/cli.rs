//! End-to-end tests of the `syncoptc` command-line tool, run against the
//! sample programs in `programs/`.

use std::path::PathBuf;
use std::process::Command;

fn syncoptc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_syncoptc"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary should run");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn repo_root() -> PathBuf {
    // crates/syncopt/../..
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn analyze_reports_delay_sets() {
    let (ok, stdout, stderr) = syncoptc(&["analyze", "programs/figure1.ms"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("|D_SS| (Shasha-Snir):  2"), "{stdout}");
    assert!(stdout.contains("Write Data"), "{stdout}");
    assert!(stdout.contains("Read Flag"), "{stdout}");
}

/// A `MYPROC` coefficient of 2^64 used to abort a debug build
/// ("attempt to multiply with overflow") and, wrapped to 0 in a release
/// build, proved `A[0·MYPROC]` disjoint from `A[1]`. It is "not affine"
/// now: both writes conflict with each other and with themselves.
#[test]
fn analyze_survives_a_subscript_coefficient_past_i64() {
    let path = std::env::temp_dir().join(format!("syncopt-overflow-{}.ms", std::process::id()));
    std::fs::write(
        &path,
        "shared int A[8]; fn main() { A[MYPROC * 4611686018427387904 * 4] = 1; A[1] = 2; }",
    )
    .unwrap();
    let (ok, stdout, stderr) = syncoptc(&["analyze", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("conflicting pairs:     3"), "{stdout}");
    assert!(stdout.contains("|D_SS| (Shasha-Snir):  1"), "{stdout}");
}

/// `--delay ss --level full` used to drop a put `D_SS` forbids dropping:
/// the write-back pass read the refined delay set whatever `--delay` said.
/// `D_SS` keeps `(Write X, Write X)` here; §5 drops it once the `post`
/// orders the reader behind both writes.
#[test]
fn opt_write_back_consults_the_chosen_delay_set() {
    let path = std::env::temp_dir().join(format!("syncopt-delay-ss-{}.ms", std::process::id()));
    std::fs::write(
        &path,
        "shared int X; flag F; fn main() { int v; \
         if (MYPROC == 0) { X = 1; X = 2; post F; } else { wait F; v = X; work(v); } }",
    )
    .unwrap();
    let eliminated = |delay: &str| {
        let (ok, stdout, stderr) = syncoptc(&[
            "opt",
            path.to_str().unwrap(),
            "--procs",
            "4",
            "--level",
            "full",
            "--delay",
            delay,
        ]);
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .find(|l| l.contains("puts_eliminated"))
            .unwrap_or_else(|| panic!("no puts_eliminated line in {stdout}"))
            .trim()
            .to_string()
    };
    let (ss, sync) = (eliminated("ss"), eliminated("sync"));
    std::fs::remove_file(&path).ok();
    assert_eq!(ss, "puts_eliminated: 0,");
    assert_eq!(sync, "puts_eliminated: 1,");
}

/// `i = A[i]; j = A[i];` read two elements; `--level full` used to turn
/// the second get into `j = i`, because the first get's destination is an
/// operand of its own subscript.
#[test]
fn opt_keeps_a_get_whose_subscript_its_predecessor_redefined() {
    let path = std::env::temp_dir().join(format!("syncopt-self-index-{}.ms", std::process::id()));
    std::fs::write(
        &path,
        "shared int A[8]; shared int B[8];\n\
         fn main() { int i; int j; i = A[MYPROC]; i = A[i]; j = A[i]; B[MYPROC] = j; }\n",
    )
    .unwrap();
    let (ok, stdout, stderr) =
        syncoptc(&["opt", path.to_str().unwrap(), "--level", "full", "--dump"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert_eq!(stdout.matches("get_ctr(").count(), 3, "{stdout}");
    assert!(stdout.contains("get_ctr(j, A[i]"), "{stdout}");
    assert!(!stdout.contains("j = i"), "{stdout}");
}

/// The inliner's fresh name for `helper`'s `x` used to be `x__helper_1`,
/// the caller's own local: the call then overwrote the caller's 7.
#[test]
fn run_inlines_without_capturing_a_callers_local() {
    let path = std::env::temp_dir().join(format!("syncopt-capture-{}.ms", std::process::id()));
    std::fs::write(
        &path,
        "shared int Y[8]; fn helper(int x) { Y[MYPROC] = x; }\n\
         fn main() { int x__helper_1; x__helper_1 = 7; helper(1); Y[MYPROC] = x__helper_1; }\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = syncoptc(&["run", path.to_str().unwrap(), "--procs", "2"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Y = [7, 7, 0, 0, 0, 0, 0, 0]"), "{stdout}");
}

/// `i64::MIN % -1` overflows `rem_euclid`, and every entry point used to
/// panic on it and exit 101: the folder (`opt --level full`, `lint`), the
/// guard evaluator (`analyze`, `check`), the simulator (`run`) and the
/// litmus evaluator. The remainder wraps to 0 now, as `i64::MIN / -1`
/// already wrapped, so folded and simulated programs agree. Here the
/// operands are constants: folded at `--level full`, computed at run time
/// below it.
const I64_MIN_REMAINDER: &str = "shared int X;\n\
    fn main() { int x; x = ((0 - 9223372036854775807) - 1) % (0 - 1); if (MYPROC == 0) { X = x + 5; } }\n";

/// The same remainder in a branch guard, which the analysis evaluates
/// per processor: only processor 0 writes.
const I64_MIN_REMAINDER_GUARD: &str = "shared int X;\n\
    fn main() { if (((0 - 9223372036854775807) - 1) % (0 - 1) == MYPROC) { X = 1; } }\n";

/// The same remainder over a divisor read from shared memory, which only
/// the simulator computes.
const I64_MIN_REMAINDER_SHARED: &str = "shared int X; shared int Y;\n\
    fn main() { int x; x = ((0 - 9223372036854775807) - 1) % (Y - 1); if (MYPROC == 0) { X = x + 5; } }\n";

/// `syncoptc <command> <a file holding src> <flags>`.
fn syncoptc_on(command: &str, src: &str, flags: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = syncoptc_code_on(command, src, flags);
    (code == Some(0), stdout, stderr)
}

/// [`syncoptc_on`] with the exit code.
fn syncoptc_code_on(command: &str, src: &str, flags: &[&str]) -> (Option<i32>, String, String) {
    static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("syncopt-{command}-{}-{n}.ms", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_syncoptc"))
        .arg(command)
        .arg(&path)
        .args(flags)
        .current_dir(repo_root())
        .output()
        .expect("binary should run");
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn opt_folds_an_i64_min_remainder_to_zero() {
    let (ok, stdout, stderr) =
        syncoptc_on("opt", I64_MIN_REMAINDER, &["--level", "full", "--dump"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("x = 0\n"), "{stdout}");
}

#[test]
fn lint_survives_an_i64_min_remainder() {
    let (ok, _, stderr) = syncoptc_on("lint", I64_MIN_REMAINDER, &[]);
    assert!(ok, "{stderr}");
}

#[test]
fn analyze_evaluates_an_i64_min_remainder_guard() {
    let (ok, stdout, stderr) = syncoptc_on("analyze", I64_MIN_REMAINDER_GUARD, &[]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("conflicting pairs:     0"), "{stdout}");
}

#[test]
fn check_evaluates_an_i64_min_remainder_guard() {
    let (ok, _, stderr) = syncoptc_on("check", I64_MIN_REMAINDER_GUARD, &[]);
    assert!(ok, "{stderr}");
}

#[test]
fn run_computes_an_i64_min_remainder_as_zero() {
    for src in [I64_MIN_REMAINDER, I64_MIN_REMAINDER_SHARED] {
        let (ok, stdout, stderr) = syncoptc_on("run", src, &[]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("  X = 5\n"), "{stdout}");
    }
}

#[test]
fn litmus_evaluates_an_i64_min_remainder() {
    let (ok, stdout, stderr) = syncoptc_on("litmus", I64_MIN_REMAINDER, &[]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("refined D preserves SC:      true"),
        "{stdout}"
    );
}

/// `i64::MIN / -1` wraps to `i64::MIN` in the simulator, so no processor
/// takes this branch. The guard evaluator used `checked_div`, called the
/// guard unknown and let every processor write: `check` reported a proven
/// write-write race, and litmus refused the branch as depending on a
/// shared read.
const I64_MIN_QUOTIENT_GUARD: &str = "shared int X;\n\
    fn main() { if (((0 - 9223372036854775807) - 1) / (0 - 1) == MYPROC) { X = 1; } }\n";

/// `-i64::MIN` wraps to `i64::MIN`; the guard evaluator and litmus negated
/// with `-`, which a debug build aborts on.
const I64_MIN_NEGATION_GUARD: &str = "shared int X;\n\
    fn main() { if (-((0 - 9223372036854775807) - 1) == MYPROC) { X = 1; } }\n";

#[test]
fn check_evaluates_an_i64_min_quotient_guard_as_run_does() {
    let (ok, stdout, stderr) = syncoptc_on("check", I64_MIN_QUOTIENT_GUARD, &[]);
    assert!(ok, "{stdout}{stderr}");
    assert!(!stdout.contains("R001"), "{stdout}");
    assert!(stdout.contains("0 conflicting data pair(s)"), "{stdout}");
    let (ok, stdout, stderr) = syncoptc_on("run", I64_MIN_QUOTIENT_GUARD, &[]);
    assert!(ok, "{stderr}");
    assert!(stdout.ends_with("  X = 0\n"), "{stdout}");
}

#[test]
fn litmus_evaluates_an_i64_min_quotient_guard() {
    let (ok, stdout, stderr) = syncoptc_on("litmus", I64_MIN_QUOTIENT_GUARD, &[]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("refined D preserves SC:      true"),
        "{stdout}"
    );
}

#[test]
fn check_and_litmus_negate_i64_min_without_a_panic() {
    let written = "shared int X;\nfn main() { X = -((0 - 9223372036854775807) - 1); }\n";
    for (command, src) in [
        ("check", I64_MIN_NEGATION_GUARD),
        ("litmus", I64_MIN_NEGATION_GUARD),
        ("litmus", written),
    ] {
        let (code, stdout, stderr) = syncoptc_code_on(command, src, &[]);
        assert_eq!(code, Some(0), "{command} {src}: {stdout}{stderr}");
        assert!(!stderr.contains("panicked"), "{command} {src}: {stderr}");
    }
}

/// Litmus used to report any fault in a written value as "depends on a
/// shared read", and a fault in a local assignment not at all.
#[test]
fn litmus_reports_the_simulators_division_by_zero() {
    for src in [
        "shared int X; fn main() { X = 1 / (MYPROC - MYPROC); }\n",
        "shared int X; fn main() { int x; x = 1 / (MYPROC - MYPROC); X = 2; }\n",
    ] {
        let (code, _, stderr) = syncoptc_code_on("litmus", src, &[]);
        assert_eq!(code, Some(1), "{src}: {stderr}");
        assert_eq!(
            stderr, "syncoptc: simulation error: division by zero\n",
            "{src}"
        );
    }
}

/// The simulator's fault text, for divisors only known at run time.
#[test]
fn run_reports_division_and_modulo_by_a_runtime_zero() {
    for (op, text) in [("/", "division by zero"), ("%", "modulo by zero")] {
        let src = format!("shared int X; shared int Y; fn main() {{ X = 1 {op} Y; }}\n");
        let (code, stdout, stderr) = syncoptc_code_on("run", &src, &[]);
        assert_eq!(code, Some(1), "{src}: {stdout}{stderr}");
        assert_eq!(
            stderr,
            format!("syncoptc: simulation error: {text}\n"),
            "{src}"
        );
    }
}

/// `x * 0` folds to the int `0` only for an int `x`: a double times 0 is
/// a double, so `1 / z` is `inf` at every level rather than a division by
/// the int zero.
#[test]
fn run_full_keeps_a_double_times_zero_a_double() {
    let src = "shared double D; fn main() { double d; double z; d = 1.5; z = d * 0; \
               if (MYPROC == 0) { D = 1 / z; } }\n";
    for level in ["blocking", "full"] {
        let (ok, stdout, stderr) = syncoptc_on("run", src, &["--level", level]);
        assert!(ok, "{level}: {stderr}");
        assert!(stdout.contains("  D = inf\n"), "{level}: {stdout}");
    }
}

/// A guard that faults on every processor is not evaluated, so the
/// processors said to run its statement are assumed: the race there is
/// possible, not proven (and `run` faults before the write).
#[test]
fn check_calls_a_race_behind_a_faulting_guard_possible() {
    let src = "shared int X; fn main() { if ((MYPROC / (PROCS - PROCS)) == 0) { X = 1; } }\n";
    let (code, stdout, stderr) = syncoptc_code_on("check", src, &["--procs", "4"]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let out = format!("{stdout}{stderr}");
    assert!(
        out.contains("warning[R001]: possible write-write race on `X`"),
        "{out}"
    );
    assert!(out.contains("(0 proven)"), "{out}");
    let (code, _, stderr) = syncoptc_code_on("run", src, &["--procs", "4"]);
    assert_eq!(code, Some(1));
    assert_eq!(stderr, "syncoptc: simulation error: division by zero\n");
}

#[test]
fn run_reports_execution_and_memory() {
    let (ok, stdout, stderr) = syncoptc(&[
        "run",
        "programs/allreduce.ms",
        "--procs",
        "8",
        "--level",
        "full",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("barriers aligned:   true"), "{stdout}");
    // sum(1..=8) lands at the root.
    assert!(stdout.contains("Val = [36,"), "{stdout}");
}

#[test]
fn run_honors_machine_selection() {
    let (_, cm5, _) = syncoptc(&["run", "programs/stencil.ms", "--procs", "8"]);
    let (_, t3d, _) = syncoptc(&[
        "run",
        "programs/stencil.ms",
        "--procs",
        "8",
        "--machine",
        "t3d",
    ]);
    assert!(cm5.contains("CM-5"), "{cm5}");
    assert!(t3d.contains("T3D"), "{t3d}");
    let cycles = |s: &str| -> u64 {
        s.lines()
            .find(|l| l.contains("execution:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap()
    };
    assert!(cycles(&t3d) < cycles(&cm5), "T3D should be faster");
}

#[test]
fn litmus_detects_sc_preservation() {
    let (ok, stdout, stderr) = syncoptc(&["litmus", "programs/postwait.ms", "--procs", "2"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("refined D preserves SC:      true"),
        "{stdout}"
    );
}

#[test]
fn opt_dot_emits_graphviz() {
    let (ok, stdout, _) = syncoptc(&["opt", "programs/figure1.ms", "--dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("bb0"), "{stdout}");
}

#[test]
fn run_trace_prints_events() {
    let (ok, stdout, _) = syncoptc(&["run", "programs/postwait.ms", "--procs", "2", "--trace"]);
    assert!(ok);
    assert!(stdout.contains("service post"), "{stdout}");
    assert!(stdout.contains("finished"), "{stdout}");
}

/// The simulation shard knobs and the analysis `--threads` are gone from
/// the command line: `command` given `flag value` fails as an unknown flag
/// and prints nothing.
fn assert_unknown_flag(command: &str, flag: &str, value: &str) {
    let (ok, stdout, stderr) =
        syncoptc(&[command, "programs/postwait.ms", "--procs", "2", flag, value]);
    assert!(!ok, "{command} {flag} {value}");
    assert!(stdout.is_empty(), "{command} {flag} {value}: {stdout}");
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "{command} {flag} {value}: {stderr}"
    );
}

#[test]
fn the_shard_flags_are_unknown_flags() {
    assert_unknown_flag("run", "--sim-shards", "2");
    assert_unknown_flag("run", "--sim-partition", "block");
}

#[test]
fn threads_is_a_bench_only_flag() {
    assert_unknown_flag("analyze", "--threads", "2");
    assert_unknown_flag("lint", "--threads", "4");
}

#[test]
fn trace_rejects_sharded_engine() {
    assert_unknown_flag("trace", "--sim-shards", "4");
}

#[test]
fn trace_rejects_non_default_partition() {
    assert_unknown_flag("trace", "--sim-partition", "profiled");
}

#[test]
fn run_rejects_unknown_partition_strategy() {
    assert_unknown_flag("run", "--sim-partition", "striped");
}

#[test]
fn analyze_warns_on_orphaned_wait() {
    // Write a temp file with a deadlocking wait.
    let dir = std::env::temp_dir();
    let path = dir.join("syncoptc_cli_test_orphan.ms");
    std::fs::write(&path, "flag F; fn main() { wait F; }").unwrap();
    let (ok, stdout, _) = syncoptc(&["analyze", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("warning:"), "{stdout}");
    assert!(stdout.contains("deadlock"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_passes_synchronized_program() {
    let (ok, stdout, stderr) = syncoptc(&["check", "programs/postwait.ms"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("0 potentially racy"), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn check_fails_on_racy_program() {
    let (ok, stdout, stderr) = syncoptc(&["check", "programs/figure1_racy.ms"]);
    assert!(!ok, "racy program must exit nonzero");
    assert!(stdout.contains("error[R001]"), "{stdout}");
    assert!(stdout.contains("error[R002]"), "{stdout}");
    assert!(stderr.contains("check failed"), "{stderr}");
}

#[test]
fn check_strict_promotes_warnings() {
    // allreduce has conservative (unproven) race warnings but no errors.
    let (ok, _, _) = syncoptc(&["check", "programs/allreduce.ms"]);
    assert!(ok, "warnings alone must not fail a default check");
    let (ok, stdout, _) = syncoptc(&["check", "programs/allreduce.ms", "--strict"]);
    assert!(!ok, "--strict must fail on warnings");
    assert!(stdout.contains("error[R002]"), "{stdout}");
}

#[test]
fn check_json_output_round_trips() {
    use syncopt::core::diag::json::Value;

    let (ok, stdout, _) = syncoptc(&["check", "programs/figure1_racy.ms", "--format", "json"]);
    assert!(!ok, "exit code is independent of the output format");
    let v = Value::parse(stdout.trim()).expect("stdout should be valid JSON");
    assert_eq!(
        v.get("file").and_then(Value::as_str),
        Some("programs/figure1_racy.ms")
    );
    let summary = v.get("summary").expect("summary object");
    assert_eq!(summary.get("race_free"), Some(&Value::Bool(false)));
    assert!(summary.get("proven_races").and_then(Value::as_int).unwrap() >= 1);
    let diags = v.get("diagnostics").and_then(Value::as_arr).unwrap();
    assert!(!diags.is_empty());
    for d in diags {
        assert!(d.get("code").and_then(Value::as_str).is_some());
        assert!(d.get("severity").and_then(Value::as_str).is_some());
        let span = d.get("span").expect("span object");
        for key in ["start", "end", "line", "col"] {
            assert!(span.get(key).and_then(Value::as_int).is_some(), "{key}");
        }
    }
    // Canonical emission: parsing and re-emitting is a fixpoint.
    assert_eq!(v.to_string(), stdout.trim());
}

#[test]
fn check_kernels_are_race_free() {
    let (ok, stdout, stderr) = syncoptc(&["check", "--kernels", "--procs", "8"]);
    assert!(ok, "{stderr}");
    for name in ["Ocean", "EM3D", "Epithel", "Cholesky", "Health"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert!(stdout.contains("all 5 kernel(s) race-free"), "{stdout}");
}

#[test]
fn check_reports_sync_warnings_with_spans() {
    let dir = std::env::temp_dir();
    let path = dir.join("syncoptc_cli_test_check_warn.ms");
    std::fs::write(&path, "flag F; fn main() { wait F; }").unwrap();
    let (ok, stdout, _) = syncoptc(&["check", path.to_str().unwrap()]);
    assert!(ok, "W001 is a warning, not an error");
    assert!(stdout.contains("warning[W001]"), "{stdout}");
    assert!(stdout.contains("wait F"), "{stdout}");
    assert!(stdout.contains('^'), "{stdout}");
    let (ok, _, _) = syncoptc(&["check", path.to_str().unwrap(), "--strict"]);
    assert!(!ok, "--strict promotes W001 to an error");
    let _ = std::fs::remove_file(path);
}

#[test]
fn profile_compares_blocking_and_optimized() {
    let (ok, stdout, stderr) = syncoptc(&[
        "profile",
        "programs/figure1.ms",
        "--procs",
        "4",
        "--level",
        "full",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("profile: blocking vs full"), "{stdout}");
    assert!(stdout.contains("speedup:"), "{stdout}");
    assert!(stdout.contains("--- blocking ---"), "{stdout}");
    assert!(stdout.contains("--- optimized ---"), "{stdout}");
}

#[test]
fn profile_json_round_trips() {
    use syncopt::core::diag::json::Value;

    let (ok, stdout, stderr) = syncoptc(&["profile", "programs/stencil.ms", "--format", "json"]);
    assert!(ok, "{stderr}");
    let v = Value::parse(stdout.trim()).expect("stdout should be valid JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("syncopt.profile_report.v1")
    );
    assert!(v.get("blocking").is_some() && v.get("optimized").is_some());
    assert!(v
        .get("comparison")
        .and_then(|c| c.get("speedup_x100"))
        .is_some());
    // Canonical emission: parsing and re-emitting is a fixpoint.
    assert_eq!(v.to_string(), stdout.trim());
}

#[test]
fn run_emit_report_writes_pipeline_report() {
    use syncopt::core::diag::json::Value;

    let path = std::env::temp_dir().join("syncoptc_cli_test_report.json");
    let (ok, _, stderr) = syncoptc(&[
        "run",
        "programs/postwait.ms",
        "--procs",
        "2",
        "--emit-report",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("report file written");
    let v = Value::parse(text.trim()).expect("report should be valid JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("syncopt.pipeline_report.v1")
    );
    assert!(
        v.get("sim").and_then(|s| s.get("exec_cycles")).is_some(),
        "{text}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_format_json_emits_report_on_stdout() {
    use syncopt::core::diag::json::Value;

    let (ok, stdout, stderr) = syncoptc(&["run", "programs/figure1.ms", "--format", "json"]);
    assert!(ok, "{stderr}");
    let v = Value::parse(stdout.trim()).expect("stdout should be valid JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("syncopt.pipeline_report.v1")
    );
    assert!(v
        .get("sim")
        .and_then(|s| s.get("per_proc"))
        .and_then(Value::as_arr)
        .is_some_and(|a| a.len() == 4));
}

#[test]
fn bad_usage_fails_with_message() {
    let (ok, _, stderr) = syncoptc(&["frobnicate", "programs/figure1.ms"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = syncoptc(&["run", "programs/figure1.ms", "--machine", "pdp11"]);
    assert!(!ok);
    assert!(stderr.contains("unknown machine"), "{stderr}");

    let (ok, _, stderr) = syncoptc(&["run", "does_not_exist.ms"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

/// `--procs 0` used to panic `run`, `profile` and `trace` in the
/// simulator, fail `check --kernels` with an E002 on generated kernel
/// text and pass `analyze`. Every command refuses it before any stage.
#[test]
fn procs_zero_is_refused_before_any_stage_runs() {
    for args in [
        &["run", "programs/allreduce.ms"][..],
        &["profile", "programs/allreduce.ms"],
        &["trace", "programs/allreduce.ms"],
        &["analyze", "programs/allreduce.ms"],
        &["check", "--kernels"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_syncoptc"))
            .args(args)
            .args(["--procs", "0"])
            .current_dir(repo_root())
            .output()
            .expect("binary should run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(stderr, "syncoptc: `procs` must be at least 1\n", "{args:?}");
    }
}

#[test]
fn frontend_errors_are_rendered_with_position() {
    let dir = std::env::temp_dir();
    let path = dir.join("syncoptc_cli_test_badsyntax.ms");
    std::fs::write(&path, "shared int X;\nfn main() {\n    X = ;\n}\n").unwrap();
    let (ok, _, stderr) = syncoptc(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("3:"), "{stderr}");
    assert!(stderr.contains("syntax error"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

/// `X = ((((…1…))))` nested 100 000 deep used to abort `syncoptc` with a
/// stack overflow (exit 134). It is a coded diagnostic now, naming the
/// parenthesis that crossed the limit.
#[test]
fn a_source_nested_100_000_deep_is_a_coded_diagnostic_not_an_abort() {
    let path = std::env::temp_dir().join(format!("syncopt-deep-{}.ms", std::process::id()));
    let n = 100_000;
    let src = format!(
        "shared int X;\nfn main() {{\n    X = {}1{};\n}}\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    std::fs::write(&path, src).unwrap();
    for command in ["check", "analyze", "run"] {
        let out = Command::new(env!("CARGO_BIN_EXE_syncoptc"))
            .args([command, path.to_str().unwrap()])
            .output()
            .expect("binary should run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first_line = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(1), "{command}: {first_line}");
        assert!(
            first_line.contains("nesting deeper than 128 levels"),
            "{command}: {first_line}"
        );
        // The snippet quotes a window of the 200 KB line, not all of it.
        let longest = stderr.lines().map(str::len).max().unwrap_or(0);
        assert!(longest < 1024, "{command}: a {longest}-byte line");
        if command == "check" {
            assert!(first_line.contains("error[E007]"), "{first_line}");
            // Level 1 is the function body; the 128th parenthesis is the
            // 129th level.
            let at = format!(":3:{}", "    X = ".len() + 128);
            assert!(
                stderr.lines().nth(1).is_some_and(|l| l.ends_with(&at)),
                "expected the span at {at}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Satellite guarantee of the session/daemon redesign: with
/// `--format json`, every subcommand emits exactly one schema-versioned
/// JSON document on stdout, and nothing else; diagnostics go to stderr.
#[test]
fn every_subcommand_json_output_is_one_schema_versioned_document() {
    use syncopt::core::diag::json::Value;

    let cases: &[&[&str]] = &[
        &["analyze", "programs/figure1.ms"],
        &["opt", "programs/figure1.ms"],
        &["run", "programs/figure1.ms"],
        &["trace", "programs/figure1.ms"],
        &["explain", "programs/figure1.ms"],
        &["profile", "programs/figure1.ms"],
        &["litmus", "programs/postwait.ms", "--procs", "2"],
        &["check", "programs/figure1.ms"],
        &["check", "--kernels"],
        &["lint", "programs/figure1.ms"],
        &["lint", "--kernels"],
        &["lint", "--seeded", "redundant-barrier"],
        &["bench", "--smoke"],
    ];
    for case in cases {
        let mut args: Vec<&str> = case.to_vec();
        args.extend(["--format", "json"]);
        let (ok, stdout, stderr) = syncoptc(&args);
        // Some fixtures legitimately fail (figure1 is racy); the failure
        // must then be on stderr while stdout still carries the document.
        if !ok {
            assert!(
                stderr.contains("syncoptc:"),
                "{case:?}: failure must be reported on stderr: {stderr}"
            );
        }
        let doc = Value::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("{case:?}: stdout is not one JSON document: {e}"));
        let schema = doc.get("schema").and_then(Value::as_str);
        assert!(
            schema.is_some_and(|s| s.starts_with("syncopt.") && s.ends_with(".v1")),
            "{case:?}: missing schema-versioned marker in {doc}"
        );
        // Exactly one document, then nothing.
        assert_eq!(
            stdout,
            format!("{doc}\n"),
            "{case:?}: stdout must be the document and nothing else"
        );
    }
}

/// `check` exit codes must agree between human and JSON formats, with
/// diagnostics on stderr (JSON mode) and the document alone on stdout.
#[test]
fn check_json_and_human_agree_on_exit_code() {
    use syncopt::core::diag::json::Value;

    let dir = std::env::temp_dir();
    let path = dir.join("syncoptc_cli_test_racy.ms");
    std::fs::write(
        &path,
        "shared int X;\nfn main() {\n    X = MYPROC;\n    X = X + 1;\n}\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();

    let (ok_human, _, stderr_human) = syncoptc(&["check", file, "--strict"]);
    let (ok_json, stdout_json, stderr_json) =
        syncoptc(&["check", file, "--strict", "--format", "json"]);
    assert_eq!(ok_human, ok_json, "formats must agree on the exit code");
    assert!(!ok_json, "a racy program under --strict must fail");
    assert!(stderr_human.contains("check failed"), "{stderr_human}");
    assert!(stderr_json.contains("check failed"), "{stderr_json}");
    let doc = Value::parse(stdout_json.trim()).expect("one JSON document");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("syncopt.check.v1")
    );
    assert!(
        doc.get("summary")
            .and_then(|s| s.get("errors"))
            .and_then(Value::as_int)
            .is_some_and(|n| n > 0),
        "{doc}"
    );
    let _ = std::fs::remove_file(path);
}
