//! Integration tests of the synchronization lint engine: seeded-example
//! coverage, fence-coverage soundness across kernels and optimization
//! levels, determinism, the 220-program corpus sweep, and the
//! `syncoptc lint` command-line surface.

use std::path::PathBuf;
use std::process::Command;
use syncopt::core::corpus::{corpus_program, CORPUS_SEEDS};
use syncopt::core::{LintReport, SyncOptions};
use syncopt::frontend::prepare_program;
use syncopt::ir::lower::lower_main;

fn lint_src(src: &str, threads: usize) -> LintReport {
    let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
    syncopt::lint::lint_cfg(
        &cfg,
        &SyncOptions {
            procs: Some(4),
            threads,
            ..SyncOptions::default()
        },
    )
}

fn codes(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn seeded_examples_trigger_their_codes_with_witnesses() {
    for ex in syncopt::kernels::seeded::seeded_examples() {
        let report = lint_src(ex.source, 1);
        let hit = report.diagnostics.iter().find(|d| d.code == ex.code);
        let d = hit.unwrap_or_else(|| {
            panic!(
                "{}: expected {}, got {:?}",
                ex.name,
                ex.code,
                codes(&report)
            )
        });
        // Every seeded finding carries a rendered witness (at least one
        // note with the cycle / path / covering explanation).
        assert!(
            !d.notes.is_empty(),
            "{}: {} finding has no witness notes",
            ex.name,
            ex.code
        );
        let rendered = d.render(ex.source, ex.name);
        assert!(
            rendered.contains(ex.code),
            "{}: render missing code\n{rendered}",
            ex.name
        );
    }
}

#[test]
fn kernels_are_free_of_fence_errors_at_every_level() {
    for kernel in syncopt::kernels::all_kernels(4) {
        let report = lint_src(&kernel.source, 1);
        assert_eq!(
            report.fence_levels.len(),
            syncopt::lint::FENCE_LEVELS.len(),
            "{}: every optimization level must be verified",
            kernel.name
        );
        assert!(
            !codes(&report).contains(&"F001"),
            "{}: {:?}",
            kernel.name,
            codes(&report)
        );
    }
}

#[test]
fn lint_is_deterministic_across_reruns_and_threads() {
    let kernel = &syncopt::kernels::all_kernels(4)[0];
    let base = lint_src(&kernel.source, 1)
        .to_json(&kernel.source, "k.ms", 4)
        .to_string();
    for threads in [1, 2, 4] {
        let again = lint_src(&kernel.source, threads)
            .to_json(&kernel.source, "k.ms", 4)
            .to_string();
        assert_eq!(base, again, "threads={threads} diverged");
    }
}

#[test]
fn corpus_sweep_lints_without_panicking() {
    // The full difftest corpus: lint must complete on every program and
    // stay deterministic. Random programs may legitimately trigger any
    // finding; the invariant here is totality, not cleanliness.
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let a = lint_src(&src, 1);
        let b = lint_src(&src, 3);
        assert_eq!(
            a.to_json(&src, "corpus.ms", 4).to_string(),
            b.to_json(&src, "corpus.ms", 4).to_string(),
            "seed {seed} not deterministic"
        );
    }
}

// ---- command-line surface ----------------------------------------------

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
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn lint_cli_reports_seeded_deadlock_and_exits_nonzero() {
    let (ok, stdout, stderr) = syncoptc(&["lint", "--seeded", "postwait-deadlock"]);
    assert!(!ok, "seeded deadlock must fail the lint");
    assert!(stdout.contains("error[D003]"), "{stdout}");
    assert!(stderr.contains("lint failed"), "{stderr}");
}

#[test]
fn lint_cli_kernels_pass_and_emit_schema_json() {
    let (ok, stdout, stderr) = syncoptc(&["lint", "--kernels", "--format", "json"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("\"schema\":\"syncopt.lint.v1\""),
        "{stdout}"
    );
}

#[test]
fn lint_cli_file_reports_json_schema() {
    let (ok, stdout, stderr) = syncoptc(&["lint", "programs/figure1.ms", "--format", "json"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("\"schema\":\"syncopt.lint.v1\""),
        "{stdout}"
    );
}

#[test]
fn lint_cli_deny_and_allow_flip_exit_codes() {
    // D001 is a warning by default: exits 0 without --deny, 1 with it.
    let (ok, _, _) = syncoptc(&["lint", "--seeded", "lock-cycle"]);
    assert!(ok, "warning-severity lint must not fail");
    let (ok, stdout, _) = syncoptc(&["lint", "--seeded", "lock-cycle", "--deny", "D001"]);
    assert!(!ok, "--deny D001 must fail:\n{stdout}");
    // D003 is an error by default: --allow demotes it to a note.
    let (ok, stdout, _) = syncoptc(&["lint", "--seeded", "postwait-deadlock", "--allow", "D003"]);
    assert!(ok, "--allow D003 must pass:\n{stdout}");
    assert!(stdout.contains("note[D003]"), "{stdout}");
}

#[test]
fn lint_cli_rejects_unknown_codes_and_examples() {
    let (ok, _, stderr) = syncoptc(&["lint", "--seeded", "no-such-example"]);
    assert!(!ok);
    assert!(stderr.contains("unknown seeded example"), "{stderr}");
    let (ok, _, stderr) = syncoptc(&["lint", "programs/figure1.ms", "--deny", "Z999"]);
    assert!(!ok);
    assert!(stderr.contains("unknown diagnostic code"), "{stderr}");
}

#[test]
fn lint_cli_output_is_byte_identical_across_runs_and_threads() {
    let args = ["lint", "--kernels", "--format", "json"];
    let (_, first, _) = syncoptc(&args);
    let (_, second, _) = syncoptc(&args);
    assert_eq!(first, second, "rerun diverged");
    // `--threads` is `bench`-only; the thread-count arm is in-process:
    // see `lint_is_deterministic_across_reruns_and_threads`.
}

#[test]
fn check_strict_folds_lint_findings_in() {
    // The seeded redundant-barrier program is race-free, so plain check
    // passes; --strict runs the lint suite and surfaces the L001 notes.
    let ex = syncopt::kernels::seeded::seeded_example("redundant-barrier").unwrap();
    let dir = std::env::temp_dir().join("syncopt_lint_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("redundant.ms");
    std::fs::write(&path, ex.source).unwrap();
    let p = path.to_str().unwrap();
    let (ok, stdout, _) = syncoptc(&["check", p]);
    assert!(ok, "plain check must pass:\n{stdout}");
    assert!(
        !stdout.contains("L001"),
        "plain check must not lint:\n{stdout}"
    );
    let (ok, stdout, _) = syncoptc(&["check", p, "--strict"]);
    assert!(ok, "notes never fail the check:\n{stdout}");
    assert!(stdout.contains("note[L001]"), "{stdout}");
}
