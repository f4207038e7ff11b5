//! The synchronization lint engine: a multi-pass static checker layered
//! on the §5 analysis and the §9 fence planner.
//!
//! Three pass families, each producing [`crate::diag::Diagnostic`]s:
//!
//! - **deadlock** (`D001`–`D003`): lock-order cycles from a may-hold
//!   dataflow, barriers reachable by only some processors of a
//!   processor-dependent branch, and waits that provably precede every
//!   post that could release them;
//! - **redundant-sync** (`L001`/`L002`): barriers and post→wait pairs
//!   whose cross-processor orderings the rest of the precedence closure
//!   already implies — established by re-running the §5 pipeline with
//!   the site excluded ([`crate::AnalysisBase::refine`] under a
//!   [`crate::sync::SyncExclusion`]) and
//!   checking nothing else changes;
//! - **fence-coverage** (`F001`/`F002`): a soundness cross-check on
//!   codegen output — every live refined delay pair must be cut by an
//!   implicit synchronization point or a planned fence on *all* CFG
//!   paths, and every planned fence must be justified by some pair.
//!
//! Passes are registered in [`passes`] and run in order by
//! [`run_lints`], which assembles a [`LintReport`] carrying the sorted
//! findings, per-pass summaries, and the versioned
//! `syncopt.lint.v1` JSON form.

mod deadlock;
mod fence_cover;
mod redundant;

use crate::delay::DelaySet;
use crate::diag::json::{self, key};
use crate::diag::{sort_diagnostics, Diagnostic, Severity};
use crate::sync::SyncOptions;
use crate::Analysis;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::Position;

/// Schema marker of the JSON lint report.
pub const LINT_SCHEMA: &str = "syncopt.lint.v1";

/// One fence-verification target: an optimized CFG, the delay pairs
/// still live on it, and the fences the planner emitted for it.
#[derive(Debug)]
pub struct FenceCheck<'a> {
    /// Display label of the optimization level (e.g. `"pipelined"`).
    pub label: &'a str,
    /// The optimized (target-IR) CFG the fences were planned on.
    pub cfg: &'a Cfg,
    /// Refined delay pairs restricted to accesses still present in
    /// `cfg` (elimination passes may have removed some).
    pub delay: &'a DelaySet,
    /// Planned memory-fence sites, sorted.
    pub fences: &'a [Position],
}

/// Everything the lint passes read.
#[derive(Debug)]
pub struct LintInput<'a> {
    /// The source-level CFG the analysis ran on.
    pub cfg: &'a Cfg,
    /// The finished delay-set analysis for `cfg`.
    pub analysis: &'a Analysis,
    /// The options `analysis` was computed with.
    pub opts: &'a SyncOptions,
    /// One fence-verification target per optimization level (may be
    /// empty when the caller only wants the source-level passes).
    pub fence_checks: &'a [FenceCheck<'a>],
}

/// A registered lint pass.
pub struct LintPass {
    /// Stable pass name (appears in the JSON report).
    pub name: &'static str,
    /// The diagnostic codes this pass can emit.
    pub codes: &'static [&'static str],
    /// The pass body: appends findings to the output vector.
    pub run: fn(&LintInput<'_>, &mut Vec<Diagnostic>),
}

const PASSES: &[LintPass] = &[
    LintPass {
        name: "deadlock",
        codes: &["D001", "D002", "D003"],
        run: deadlock::run,
    },
    LintPass {
        name: "redundant-sync",
        codes: &["L001", "L002"],
        run: redundant::run,
    },
    LintPass {
        name: "fence-coverage",
        codes: &["F001", "F002"],
        run: fence_cover::run,
    },
];

/// The registered passes, in execution order.
pub fn passes() -> &'static [LintPass] {
    PASSES
}

/// Findings of one pass, for the report summary.
#[derive(Debug, Clone)]
pub struct PassSummary {
    /// Pass name.
    pub name: &'static str,
    /// Codes the pass can emit.
    pub codes: &'static [&'static str],
    /// How many findings it produced on this input.
    pub findings: usize,
}

/// Per-level fence-verification numbers, for the report summary.
#[derive(Debug, Clone)]
pub struct FenceLevelSummary {
    /// Optimization-level label.
    pub label: String,
    /// Live delay pairs verified.
    pub delay_pairs: usize,
    /// Fences the planner emitted.
    pub fences: usize,
}

/// The result of a full lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted by [`sort_diagnostics`].
    pub diagnostics: Vec<Diagnostic>,
    /// One summary per registered pass, in execution order.
    pub passes: Vec<PassSummary>,
    /// One summary per fence-verification target.
    pub fence_levels: Vec<FenceLevelSummary>,
}

impl LintReport {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// The versioned `syncopt.lint.v1` JSON document. `src` is the
    /// program source (for line/column resolution), `file` the display
    /// name.
    pub fn to_json(&self, src: &str, file: &str, procs: u32) -> String {
        let mut out = String::new();
        self.write_json(&mut out, src, file, procs);
        out
    }

    /// Appends the document [`LintReport::to_json`] returns to `out`.
    pub fn write_json(&self, out: &mut String, src: &str, file: &str, procs: u32) {
        let mut o = json::Obj::open(out);
        o.str(key!("schema"), LINT_SCHEMA);
        o.str(key!("file"), file);
        o.int(key!("procs"), u64::from(procs));
        json::write_array(o.key(key!("passes")), &self.passes, |out, p| {
            let mut pass = json::Obj::open(out);
            pass.str(key!("name"), p.name);
            json::write_array(pass.key(key!("codes")), p.codes, |out, c| {
                json::write_escaped(out, c);
            });
            pass.int(key!("findings"), p.findings as u64);
            pass.close();
        });
        json::write_array(o.key(key!("fence_levels")), &self.fence_levels, |out, f| {
            let mut level = json::Obj::open(out);
            level.str(key!("level"), &f.label);
            level.int(key!("delay_pairs"), f.delay_pairs as u64);
            level.int(key!("fences"), f.fences as u64);
            level.close();
        });
        json::write_ints(
            o.key(key!("summary")),
            &[
                (key!("errors"), self.count(Severity::Error) as u64),
                (key!("warnings"), self.count(Severity::Warning) as u64),
                (key!("notes"), self.count(Severity::Note) as u64),
            ],
        );
        json::write_array(o.key(key!("diagnostics")), &self.diagnostics, |out, d| {
            d.write_json(out, src);
        });
        o.close();
    }
}

/// Runs every registered pass over `input` and assembles the report.
/// Deterministic: identical input yields a byte-identical report
/// regardless of analysis thread count.
pub fn run_lints(input: &LintInput<'_>) -> LintReport {
    let mut diagnostics = Vec::new();
    let mut pass_summaries = Vec::new();
    for pass in PASSES {
        let before = diagnostics.len();
        (pass.run)(input, &mut diagnostics);
        pass_summaries.push(PassSummary {
            name: pass.name,
            codes: pass.codes,
            findings: diagnostics.len() - before,
        });
    }
    sort_diagnostics(&mut diagnostics);
    let fence_levels = input
        .fence_checks
        .iter()
        .map(|c| FenceLevelSummary {
            label: c.label.to_string(),
            delay_pairs: c.delay.len(),
            fences: c.fences.len(),
        })
        .collect();
    LintReport {
        diagnostics,
        passes: pass_summaries,
        fence_levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_with;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    pub(super) fn lint_source(src: &str) -> LintReport {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let opts = SyncOptions::default();
        let analysis = analyze_with(&cfg, &opts);
        run_lints(&LintInput {
            cfg: &cfg,
            analysis: &analysis,
            opts: &opts,
            fence_checks: &[],
        })
    }

    pub(super) fn codes_of(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_lints_clean() {
        let report = lint_source(
            "shared int X; flag F;
             fn main() { int v;
                 if (MYPROC == 0) { X = 1; post F; } else { wait F; v = X; } }",
        );
        assert!(report.diagnostics.is_empty(), "{:?}", codes_of(&report));
        assert_eq!(report.passes.len(), 3);
        assert!(report.passes.iter().all(|p| p.findings == 0));
    }

    #[test]
    fn report_json_has_schema_and_round_trips() {
        let src = "shared int X; fn main() { X = 1; barrier; }";
        let report = lint_source(src);
        let text = report.to_json(src, "test.ms", 4);
        let parsed = json::Value::parse(&text).expect("canonical JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(json::Value::as_str),
            Some(LINT_SCHEMA)
        );
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn registry_codes_are_known() {
        for pass in passes() {
            for code in pass.codes {
                assert!(
                    crate::diag::KNOWN_CODES.contains(code),
                    "{code} missing from KNOWN_CODES"
                );
            }
        }
    }
}
