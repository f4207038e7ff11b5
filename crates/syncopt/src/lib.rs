#![warn(missing_docs)]

//! `syncopt` — a sequential-consistency-preserving optimizer for
//! explicitly parallel SPMD programs.
//!
//! This workspace reproduces *Optimizing Parallel Programs with Explicit
//! Synchronization* (Krishnamurthy & Yelick, PLDI 1995): cycle detection à
//! la Shasha & Snir, refined with post-wait / barrier / lock
//! synchronization analysis, driving message pipelining, one-way
//! communication conversion, and remote-access elimination — evaluated on
//! a deterministic distributed-memory machine simulator.
//!
//! This crate is the facade: the [`Syncopt`] builder configures and drives
//! the whole pipeline, and every run produces a [`PipelineReport`]
//! describing what each stage did.
//!
//! ```
//! use syncopt::{Syncopt, OptLevel};
//! use syncopt::machine::MachineConfig;
//!
//! let src = r#"
//!     shared int A[32];
//!     fn main() {
//!         A[MYPROC] = MYPROC;
//!         barrier;
//!         int v; v = A[(MYPROC + 1) % PROCS];
//!         work(v);
//!     }
//! "#;
//! let config = MachineConfig::cm5(8);
//! let blocking = Syncopt::new(src).level(OptLevel::Blocking).run(&config)?;
//! let optimized = Syncopt::new(src).level(OptLevel::OneWay).run(&config)?;
//! assert!(optimized.sim.exec_cycles <= blocking.sim.exec_cycles);
//! // Optimization never changes the final memory image.
//! assert_eq!(optimized.sim.memory, blocking.sim.memory);
//! // Every run carries a structured report of what the pipeline did.
//! assert!(optimized.report().to_json().to_string().contains("exec_cycles"));
//! # Ok::<(), syncopt::SyncoptError>(())
//! ```

pub mod bench;
#[cfg(unix)]
pub mod client;
pub mod commands;
#[cfg(unix)]
pub mod daemon;
pub mod lint;
pub mod report;
pub mod rpc;
pub mod session;
pub mod telemetry;
pub mod trace_export;

pub use report::{PipelineReport, ProfileReport, ReportMeta, SimReport};
pub use session::{AnalysisSession, SessionOptions};
pub use syncopt_codegen::{DelayChoice, OptLevel, OptStats, Optimized};
pub use syncopt_core::{Analysis, AnalysisStats, CacheStats, DelaySet};
pub use syncopt_machine::{MachineConfig, SimResult};
pub use telemetry::{ServiceTelemetry, TelemetryConfig, METRICS_SCHEMA, REQLOG_SCHEMA};
pub use trace_export::{chrome_trace, verify_span_accounting, TRACE_SCHEMA};

/// Optimization stage (split-phase codegen and communication passes).
pub use syncopt_codegen as codegen;
/// Analysis stage (conflicts, cycle detection, synchronization analysis).
pub use syncopt_core as core;
/// Frontend stage (lexer, parser, type checker, inlining).
pub use syncopt_frontend as frontend;
/// IR stage (CFG, dominators, dataflow).
pub use syncopt_ir as ir;
/// The five evaluation kernels.
pub use syncopt_kernels as kernels;
/// Execution substrate (machine simulator, litmus explorer).
pub use syncopt_machine as machine;

use std::error::Error;
use std::fmt;
use syncopt_ir::cfg::Cfg;
use syncopt_machine::{SimError, Trace};

/// Any error from the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncoptError {
    /// Lexing, parsing, type checking, or inlining failed.
    Frontend(syncopt_frontend::FrontendError),
    /// AST → CFG lowering failed.
    Lower(syncopt_ir::lower::LowerError),
    /// Simulation failed (runtime fault, deadlock, step limit).
    Sim(syncopt_machine::SimError),
}

impl SyncoptError {
    /// Converts the error to a [`core::Diagnostic`] carrying the source
    /// span, for rustc-style rendering (`E001`–`E005` and `E007` for
    /// frontend and lowering errors; simulation errors have no source span
    /// and map to a dummy-span diagnostic with code `E006`).
    pub fn to_diagnostic(&self) -> syncopt_core::Diagnostic {
        match self {
            SyncoptError::Frontend(e) => syncopt_core::diag::frontend_diagnostic(e),
            SyncoptError::Lower(e) => syncopt_core::diag::lower_diagnostic(e),
            SyncoptError::Sim(e) => syncopt_core::Diagnostic::new(
                "E006",
                syncopt_core::Severity::Error,
                format!("simulation error: {}", e.message()),
                syncopt_frontend::Span::dummy(),
            ),
        }
    }
}

impl fmt::Display for SyncoptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncoptError::Frontend(e) => write!(f, "{e}"),
            SyncoptError::Lower(e) => write!(f, "{e}"),
            SyncoptError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SyncoptError {}

impl From<syncopt_frontend::FrontendError> for SyncoptError {
    fn from(e: syncopt_frontend::FrontendError) -> Self {
        SyncoptError::Frontend(e)
    }
}

impl From<syncopt_ir::lower::LowerError> for SyncoptError {
    fn from(e: syncopt_ir::lower::LowerError) -> Self {
        SyncoptError::Lower(e)
    }
}

impl From<syncopt_machine::SimError> for SyncoptError {
    fn from(e: syncopt_machine::SimError) -> Self {
        SyncoptError::Sim(e)
    }
}

/// How much the pipeline should observe about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No wall-clock timing, no event trace. Reports still carry all
    /// deterministic counters (with zeroed `_us` timings).
    #[default]
    Off,
    /// Measure wall-clock phase timings (parse → simulate).
    Phases,
    /// Phase timings plus a bounded simulator event trace and structured
    /// timeline (state/flow/lock/barrier spans) on [`RunResult::trace`].
    Events,
}

/// Default upper bound on captured simulator events and timeline spans at
/// [`TraceLevel::Events`]; override with
/// [`Syncopt::trace_limit`](Syncopt::trace_limit).
pub const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// The pipeline builder: configure once, then [`compile`](Syncopt::compile),
/// [`run`](Syncopt::run), [`run_two_version`](Syncopt::run_two_version), or
/// [`profile`](Syncopt::profile).
///
/// Defaults: [`OptLevel::Full`], [`DelayChoice::SyncRefined`],
/// [`TraceLevel::Off`], and the processor count taken from the
/// [`MachineConfig`] handed to `run` (or analysis unbounded in processor
/// count for a bare `compile`).
///
/// ```
/// use syncopt::{Syncopt, OptLevel, DelayChoice, TraceLevel};
/// use syncopt::machine::MachineConfig;
///
/// let src = "shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }";
/// let result = Syncopt::new(src)
///     .procs(8)
///     .level(OptLevel::Full)
///     .delay(DelayChoice::SyncRefined)
///     .trace(TraceLevel::Phases)
///     .run(&MachineConfig::cm5(8))?;
/// assert!(result.sim.barriers_aligned);
/// # Ok::<(), syncopt::SyncoptError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Syncopt<'a> {
    src: &'a str,
    opts: SessionOptions,
}

impl<'a> Syncopt<'a> {
    /// Starts a pipeline over `src` with default settings.
    pub fn new(src: &'a str) -> Self {
        Syncopt {
            src,
            opts: SessionOptions::default(),
        }
    }

    /// Analyzes for a fixed machine size (enables modular subscript
    /// disambiguation). `run` defaults this to the machine's processor
    /// count when unset.
    #[must_use]
    pub fn procs(mut self, procs: u32) -> Self {
        self.opts.procs = Some(procs);
        self
    }

    /// Sets the optimization level (default [`OptLevel::Full`]).
    #[must_use]
    pub fn level(mut self, level: OptLevel) -> Self {
        self.opts.level = level;
        self
    }

    /// Sets the delay set constraining code motion (default
    /// [`DelayChoice::SyncRefined`]).
    #[must_use]
    pub fn delay(mut self, delay: DelayChoice) -> Self {
        self.opts.delay = delay;
        self
    }

    /// Sets the observability level (default [`TraceLevel::Off`]).
    #[must_use]
    pub fn trace(mut self, trace: TraceLevel) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Caps captured simulator events and timeline spans at
    /// [`TraceLevel::Events`] (default [`DEFAULT_TRACE_LIMIT`]). When the
    /// cap is hit the trace and report carry `truncated: true` rather
    /// than silently looking like a short run.
    #[must_use]
    pub fn trace_limit(mut self, limit: usize) -> Self {
        self.opts.trace_limit = limit;
        self
    }

    /// Sets the simulation shard count for [`run`](Syncopt::run) (default
    /// 1 = sequential calendar engine). Values above 1 execute the
    /// simulation on the conservative parallel engine
    /// ([`machine::simulate_sharded`]), which is bit-identical to the
    /// sequential reference at every shard count. Incompatible with
    /// [`TraceLevel::Events`]. Kept only for the wall-clock benchmark
    /// (`benchmark/`), whose shard probe calls it.
    #[must_use]
    pub fn sim_shards(mut self, shards: usize) -> Self {
        self.opts.sim_shards = shards;
        self
    }

    /// Parses, checks, lowers, analyzes, and optimizes the program.
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors.
    pub fn compile(&self) -> Result<Compiled, SyncoptError> {
        // One request, each stage run once: a cache could never hit, so the
        // session has none, derives no cache key, and leaves every artifact
        // uniquely held — they are moved out, not copied.
        AnalysisSession::with_capacity(0).compile(self.src, &self.opts)
    }

    /// Compiles (analyzing for the machine's processor count unless
    /// [`procs`](Syncopt::procs) overrode it) and simulates the optimized
    /// program on `config`.
    ///
    /// # Errors
    ///
    /// Returns frontend, lowering, or simulation errors.
    pub fn run(&self, config: &MachineConfig) -> Result<RunResult, SyncoptError> {
        AnalysisSession::with_capacity(0).run(self.src, &self.opts, config)
    }

    /// The paper's §5.2 **two-version compilation**: barrier alignment is
    /// undecidable in general, so the compiler emits an *optimistic*
    /// version (barriers assumed aligned, full optimization) guarded by a
    /// runtime check, plus a *conservative* version (no barrier
    /// information). The optimistic version runs; if the dynamic
    /// barrier-sequence check fails (or the optimistic run faults), the
    /// conservative version's result is used and
    /// [`TwoVersionResult::fallback`] says why.
    ///
    /// # Errors
    ///
    /// Returns frontend/lowering errors, or simulation errors from the
    /// conservative version (the optimistic version's runtime faults
    /// trigger the fallback instead of failing).
    pub fn run_two_version(
        &self,
        config: &MachineConfig,
    ) -> Result<TwoVersionResult, SyncoptError> {
        let program = syncopt_frontend::prepare_program(self.src)?;
        let source_cfg = syncopt_ir::lower::lower_main(&program)?;
        let procs = self.opts.procs.unwrap_or(config.procs);

        // Optimistic: assume barriers align; the simulator double-checks.
        let optimistic = syncopt_core::analyze_with(
            &source_cfg,
            &syncopt_core::SyncOptions {
                barrier_policy: syncopt_core::BarrierPolicy::AssumeAligned,
                procs: Some(procs),
                ..syncopt_core::SyncOptions::default()
            },
        );
        let opt_cfg =
            syncopt_codegen::optimize(&source_cfg, &optimistic, self.opts.level, self.opts.delay);
        let fallback = match syncopt_machine::simulate(&opt_cfg.cfg, config) {
            Ok(sim) if sim.barriers_aligned => {
                return Ok(TwoVersionResult {
                    sim,
                    used: VersionUsed::Optimized,
                    fallback: None,
                });
            }
            Ok(sim) => FallbackReason::MisalignedBarriers {
                divergent_proc: divergent_proc(&sim.barrier_seqs),
            },
            Err(e) => FallbackReason::SimFailed(e),
        };

        // Conservative: no barrier information at all.
        let conservative = syncopt_core::analyze_with(
            &source_cfg,
            &syncopt_core::SyncOptions {
                barrier_policy: syncopt_core::BarrierPolicy::Disabled,
                procs: Some(procs),
                ..syncopt_core::SyncOptions::default()
            },
        );
        let cons_cfg =
            syncopt_codegen::optimize(&source_cfg, &conservative, self.opts.level, self.opts.delay);
        let sim = syncopt_machine::simulate(&cons_cfg.cfg, config)?;
        Ok(TwoVersionResult {
            sim,
            used: VersionUsed::Conservative,
            fallback: Some(fallback),
        })
    }

    /// Analyzes the program once and runs it twice on `config` — once at
    /// [`OptLevel::Blocking`] and once at the builder's configured level —
    /// and pairs the two [`PipelineReport`]s, the shape of the paper's
    /// Figure 12 bars.
    ///
    /// # Errors
    ///
    /// Returns frontend, lowering, or simulation errors from either run.
    pub fn profile(&self, config: &MachineConfig) -> Result<ProfileReport, SyncoptError> {
        AnalysisSession::with_capacity(0).profile(self.src, &self.opts, config)
    }
}

/// The first processor whose barrier-site sequence diverges from
/// processor 0's (0 when they all agree — callers only ask after a
/// misalignment was detected).
fn divergent_proc(seqs: &[Vec<syncopt_ir::ids::AccessId>]) -> u32 {
    seqs.iter()
        .position(|s| s != &seqs[0])
        .map_or(0, |p| p as u32)
}

/// The output of [`Syncopt::compile`]: the source CFG, the analysis, the
/// optimized target CFG, and the compile-side pipeline report.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The lowered (blocking-access) source CFG.
    pub source_cfg: Cfg,
    /// Conflict/delay analysis results.
    pub analysis: Analysis,
    /// The optimized program.
    pub optimized: Optimized,
    /// What every stage did (no simulation section yet).
    pub report: PipelineReport,
}

/// The output of [`Syncopt::run`]: compilation artifacts plus the
/// simulation result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Compilation artifacts; `compiled.report` includes the simulation
    /// section.
    pub compiled: Compiled,
    /// The simulated execution.
    pub sim: SimResult,
    /// The simulator event trace, when the builder asked for
    /// [`TraceLevel::Events`].
    pub trace: Option<Trace>,
}

impl RunResult {
    /// The full pipeline report (compile stages + simulation).
    pub fn report(&self) -> &PipelineReport {
        &self.compiled.report
    }
}

/// Which code version a two-version execution ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionUsed {
    /// The barrier-optimistic optimized version ran to completion and the
    /// runtime check confirmed barrier alignment.
    Optimized,
    /// The runtime check failed (or the optimistic run faulted) and the
    /// conservative version was used instead.
    Conservative,
}

/// Why a two-version execution fell back to the conservative version.
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackReason {
    /// The optimistic simulation aborted with a runtime fault (typically
    /// a barrier deadlock from the misalignment itself).
    SimFailed(SimError),
    /// The optimistic run completed, but the dynamic barrier-sequence
    /// check found processors disagreeing on which barriers they passed.
    MisalignedBarriers {
        /// The first processor whose barrier sequence diverges from
        /// processor 0's.
        divergent_proc: u32,
    },
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::SimFailed(e) => write!(f, "optimistic run failed: {}", e.message()),
            FallbackReason::MisalignedBarriers { divergent_proc } => write!(
                f,
                "barrier sequences misaligned (processor {divergent_proc} diverges from processor 0)"
            ),
        }
    }
}

/// The result of a two-version execution.
#[derive(Debug, Clone)]
pub struct TwoVersionResult {
    /// The simulation that "counts".
    pub sim: SimResult,
    /// Which version produced it.
    pub used: VersionUsed,
    /// Why the fallback fired (`None` when the optimized version was
    /// used).
    pub fallback: Option<FallbackReason>,
}

/// Asserts that `text` is one line of canonical JSON: its parse writes
/// back the same bytes.
#[cfg(test)]
pub(crate) fn assert_canonical(text: &str) {
    assert!(!text.contains('\n'), "one line: {text}");
    assert_eq!(
        core::diag::json::Value::parse(text).unwrap().to_string(),
        text
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        shared int A[16]; flag F;
        fn main() {
            A[MYPROC] = MYPROC * 2;
            barrier;
            int v; v = A[(MYPROC + 1) % PROCS];
            if (MYPROC == 0) { post F; } else { wait F; }
            work(v);
        }
    "#;

    #[test]
    fn compile_produces_valid_cfg_at_every_level() {
        for level in [
            OptLevel::Blocking,
            OptLevel::Pipelined,
            OptLevel::OneWay,
            OptLevel::Full,
        ] {
            let c = Syncopt::new(SRC).procs(4).level(level).compile().unwrap();
            c.optimized.cfg.validate().unwrap();
            assert_eq!(c.optimized.level, level);
            assert!(c.report.sim.is_none());
            assert_eq!(c.report.meta.level, level);
        }
    }

    #[test]
    fn run_executes_and_optimization_preserves_memory() {
        let config = MachineConfig::cm5(4);
        let base = Syncopt::new(SRC)
            .level(OptLevel::Blocking)
            .run(&config)
            .unwrap();
        let opt = Syncopt::new(SRC).run(&config).unwrap();
        assert_eq!(base.sim.memory, opt.sim.memory);
        assert!(opt.sim.exec_cycles <= base.sim.exec_cycles);
        // The default level is Full.
        assert_eq!(opt.compiled.optimized.level, OptLevel::Full);
    }

    #[test]
    fn run_report_covers_all_four_stages() {
        let config = MachineConfig::cm5(4);
        let r = Syncopt::new(SRC).run(&config).unwrap();
        let report = r.report();
        assert_eq!(report.meta.procs, 4);
        assert_eq!(report.meta.machine.as_deref(), Some("CM-5"));
        // Frontend: all phases recorded (zeros with tracing off).
        let phases: Vec<&str> = report.timings.iter().map(|(k, _)| k).collect();
        assert_eq!(
            phases,
            vec!["parse", "typeck", "inline", "lower", "analyze", "optimize", "simulate"]
        );
        // Analysis counters present.
        assert!(report.counters.get("conflict.pairs") > 0);
        // Codegen did something at Full.
        assert!(report.codegen.gets_split > 0);
        // Simulation section with conserved per-proc accounting.
        let sim = report.sim.as_ref().unwrap();
        assert_eq!(sim.exec_cycles, r.sim.exec_cycles);
        for p in &sim.metrics.per_proc {
            assert_eq!(p.accounted(), sim.exec_cycles);
        }
    }

    #[test]
    fn trace_levels_gate_timings_and_events() {
        let config = MachineConfig::cm5(2);
        let off = Syncopt::new(SRC).run(&config).unwrap();
        assert!(!off.report().timings.enabled());
        assert!(off.trace.is_none());
        let phases = Syncopt::new(SRC)
            .trace(TraceLevel::Phases)
            .run(&config)
            .unwrap();
        assert!(phases.report().timings.enabled());
        assert!(phases.trace.is_none());
        let events = Syncopt::new(SRC)
            .trace(TraceLevel::Events)
            .run(&config)
            .unwrap();
        assert!(events.trace.is_some());
        assert!(!events.trace.unwrap().events().is_empty());
    }

    #[test]
    fn profile_pairs_blocking_with_optimized() {
        let config = MachineConfig::cm5(4);
        let p = Syncopt::new(SRC)
            .level(OptLevel::OneWay)
            .profile(&config)
            .unwrap();
        assert_eq!(p.blocking.meta.level, OptLevel::Blocking);
        assert_eq!(p.optimized.meta.level, OptLevel::OneWay);
        assert!(p.speedup_x100() >= 100, "optimization never slows: {p:?}");
        let json = core::diag::json::Value::parse(&p.to_json()).unwrap();
        assert!(json.get("comparison").is_some());
    }

    #[test]
    fn builder_sim_shards_matches_sequential_run() {
        let config = MachineConfig::cm5(4);
        let seq = Syncopt::new(SRC).run(&config).unwrap();
        let par = Syncopt::new(SRC).sim_shards(4).run(&config).unwrap();
        assert_eq!(seq.sim.exec_cycles, par.sim.exec_cycles);
        assert_eq!(seq.sim.memory, par.sim.memory);
        assert_eq!(seq.sim.metrics.per_proc, par.sim.metrics.per_proc);
    }

    #[test]
    fn frontend_errors_propagate_with_spans() {
        let err = Syncopt::new("fn main() { x = 1; }")
            .procs(2)
            .compile()
            .unwrap_err();
        assert!(matches!(err, SyncoptError::Frontend(_)), "{err}");
        assert!(err.to_string().contains("unknown variable"));
        let d = err.to_diagnostic();
        assert_eq!(d.code, "E003");
        assert!(d.span.end > d.span.start);
    }

    #[test]
    fn two_version_uses_optimized_when_barriers_align() {
        let r = Syncopt::new(SRC)
            .level(OptLevel::OneWay)
            .run_two_version(&MachineConfig::cm5(4))
            .unwrap();
        assert_eq!(r.used, VersionUsed::Optimized);
        assert!(r.sim.barriers_aligned);
        assert!(r.fallback.is_none());
    }

    #[test]
    fn two_version_falls_back_on_misaligned_barriers() {
        // Same barrier COUNT everywhere but different sites per branch:
        // the optimistic run completes yet the sequence check fails.
        let src = r#"
            shared int X;
            fn main() {
                int v;
                if (MYPROC == 0) {
                    X = 1;
                    barrier;
                    work(10);
                    barrier;
                } else {
                    barrier;
                    barrier;
                    v = X;
                    work(v);
                }
            }
        "#;
        let r = Syncopt::new(src)
            .level(OptLevel::OneWay)
            .run_two_version(&MachineConfig::cm5(2))
            .unwrap();
        assert_eq!(r.used, VersionUsed::Conservative);
        match r.fallback {
            Some(FallbackReason::MisalignedBarriers { divergent_proc }) => {
                assert_eq!(divergent_proc, 1);
            }
            other => panic!("expected misaligned-barriers reason, got {other:?}"),
        }
    }

    #[test]
    fn two_version_propagates_when_both_versions_fail() {
        // Unequal barrier COUNTS deadlock every version — the conservative
        // run's error surfaces (its failure is not maskable by fallback).
        let src = r#"
            shared int X;
            fn main() {
                if (MYPROC == 0) { X = 1; barrier; }
                int v; v = X; work(v);
            }
        "#;
        let err = Syncopt::new(src)
            .level(OptLevel::OneWay)
            .run_two_version(&MachineConfig::cm5(2))
            .unwrap_err();
        assert!(matches!(err, SyncoptError::Sim(_)), "{err}");
    }

    #[test]
    fn fallback_reasons_render() {
        let f = FallbackReason::SimFailed(SimError::new("deadlock"));
        assert!(f.to_string().contains("optimistic run failed"), "{f}");
        let m = FallbackReason::MisalignedBarriers { divergent_proc: 3 };
        assert!(m.to_string().contains("processor 3"), "{m}");
    }

    #[test]
    fn sim_errors_propagate() {
        let err = Syncopt::new("shared int A[2]; fn main() { A[5] = 1; }")
            .level(OptLevel::Blocking)
            .run(&MachineConfig::cm5(2))
            .unwrap_err();
        assert!(matches!(err, SyncoptError::Sim(_)), "{err}");
        assert_eq!(err.to_diagnostic().code, "E006");
    }
}
