//! The session-oriented analysis API: incremental, content-addressed
//! pipeline runs.
//!
//! A [`Syncopt`](crate::Syncopt) builder is "one builder = one full run":
//! every call re-parses, re-checks, re-analyzes, and re-optimizes from
//! scratch. An [`AnalysisSession`] instead owns a content-addressed
//! [`ArtifactCache`] and keys every expensive artifact by a stable
//! [`Fingerprint`] of its inputs, so repeated queries — and queries over
//! *edited* programs that share most of their content — only recompute
//! what actually changed. This is the serving layer `syncoptd` exposes
//! over `syncopt.rpc.v1`.
//!
//! # Cache-key derivation
//!
//! | kind       | keyed by                                            | stores |
//! |------------|-----------------------------------------------------|--------|
//! | `ast`      | raw source text                                     | parsed [`Program`] (+ its memoized `fncheck` keys) |
//! | `fncheck`  | context fingerprint + canonical function text       | per-function type-check verdict |
//! | `inlined`  | raw source text                                     | inlined [`Program`] |
//! | `cfg`      | raw source text                                     | lowered source [`Cfg`] (+ the memoized fingerprint of its canonical text) |
//! | `analysis` | canonical source-CFG text + procs (`analysis.v2`)   | [`Analysis`] |
//! | `opt`      | canonical source-CFG text + procs + level + delay (`opt.v2`) | [`Optimized`], access spans cleared (+ the memoized fingerprint of its canonical text) |
//! | `sim`      | canonical optimized-CFG text + machine config (`sim.v2`) | [`SimResult`] |
//! | `races`    | raw source text + procs                             | [`RaceAnalysis`] |
//! | `lint`     | raw source text + procs                             | [`LintReport`] |
//! | `explain`  | raw source text + procs                             | [`ExplainReport`] |
//! | `reply`    | raw source text + every `Query` field but `threads` | the [`CmdOut`] of one [`execute`] request, failures included |
//!
//! Span-bearing artifacts (`ast`, `cfg`, `lint` diagnostics) key on the
//! *raw* source so two texts that differ only in whitespace never share
//! an artifact with stale spans. Span-free artifacts (`analysis`, `opt`,
//! `sim`) key on the canonical text of a CFG, so an edit that does not
//! change the program — a comment, a blank line, re-indentation — parses,
//! checks, inlines and lowers again, prints and hashes the new source CFG
//! once, and then hits all three: it is neither re-analyzed, re-optimized
//! nor re-simulated. `analysis` and `sim` identify accesses by dense
//! [`AccessId`]s. An optimized CFG does carry one span per access site,
//! so the cached `opt` artifact holds them cleared and the owned
//! [`Compiled`] a public entry point hands out gets each one copied from
//! *its own request's* source CFG (the optimizer never adds an access
//! site, so the ids line up); the command engine reads spans from the
//! source CFG only.
//!
//! The **canonical text** of a CFG is what these keys hash: a declaration
//! section — the number of variables, then per [`VarTable`] entry in id
//! order its name, storage kind, element count and element type — a
//! literal section — the position and bits of every float constant, then
//! the number of expression nodes — and then the printed blocks
//! ([`cfg_to_string`]). The printed blocks alone do not determine the
//! program: they name variables but say nothing else about them, so two
//! bodies that read the same over a `shared int A[8]` and a `shared int
//! A[4]` would share artifacts, and they print `1.0` as `1`, so `(t +
//! 1.0) / 2` and `(t + 1) / 2` would.
//!
//! Worker-thread counts are deliberately **not** part of any artifact
//! key: analysis results are bit-identical for every thread count. A
//! sharded run ([`SessionOptions::sim_shards`] above 1) is never cached:
//! its engine counters (`sim.work`) differ from a sequential run's, so it
//! neither reads nor writes the `sim` artifact a sequential run keys the
//! same way.
//!
//! The canonical-text keys are expensive to derive — print the whole CFG,
//! hash every byte — so the artifact that owns the CFG carries the
//! fingerprint of its canonical text, computed at most once: a warm request
//! hashes its source text and does lookups, nothing else. The public
//! entry points copy the cached artifacts into an owned [`Compiled`] /
//! [`RunResult`]; the command engine reads them in place.
//!
//! Caching never changes results, only the work needed to produce them:
//! a warm query is byte-identical to a cold one. That is what lets a
//! repeated [`execute`] request skip even the artifacts: its whole answer
//! is a deterministic function of the raw source and the query, so the
//! `reply` entry stores it — a racy `check`'s exit-1 answer as much as a
//! clean one — and a repeat gets a copy. Traces are request-scoped
//! observability, not artifacts: `trace` and `run --trace` are never
//! stored. A failed request's reply is stored like any other, but a
//! failed stage caches no artifact: the failure is re-diagnosed whenever
//! the reply misses.
//!
//! One request is one call of a public method or of [`execute`]: that is
//! the boundary [`AnalysisSession::last_request_stats`] counts from, and
//! the steps inside a request (a `check` compiles, then classifies races)
//! do not move it.
//!
//! A session of capacity 0 ([`AnalysisSession::with_capacity`]) has its
//! cache **disabled**, and derives none of the keys above: every key is
//! handed to the cache as a closure, which a disabled cache never calls.
//! The [`Syncopt`](crate::Syncopt) builder's `compile` and `run` — one
//! request, each stage run once, session dropped — run on such a session,
//! through the same pipeline and to the same bytes.
//!
//! ```
//! use syncopt::{AnalysisSession, SessionOptions};
//!
//! let src = "shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }";
//! let mut session = AnalysisSession::new();
//! let opts = SessionOptions { procs: Some(8), ..SessionOptions::default() };
//! let cold = session.compile(src, &opts)?;
//! let warm = session.compile(src, &opts)?;
//! assert_eq!(cold.report, warm.report);
//! // The second compile did no parsing/analysis work at all.
//! assert_eq!(session.last_request_stats().misses, 0);
//! assert!(session.last_request_stats().hits > 0);
//! # Ok::<(), syncopt::SyncoptError>(())
//! ```
//!
//! [`AccessId`]: syncopt_ir::ids::AccessId
//! [`CmdOut`]: crate::commands::CmdOut
//! [`execute`]: crate::commands::execute
//! [`Program`]: syncopt_frontend::Program
//! [`SimResult`]: syncopt_machine::SimResult
//! [`VarTable`]: syncopt_ir::vars::VarTable

use crate::commands::CmdOut;
use crate::report::{delay_label, level_label, meta_for};
use crate::{
    Compiled, DelayChoice, OptLevel, PipelineReport, ProfileReport, RunResult, SimReport,
    SyncoptError, TraceLevel, DEFAULT_TRACE_LIMIT,
};
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};
use syncopt_codegen::Optimized;
use syncopt_core::cache::{ArtifactCache, CacheStats};
use syncopt_core::{
    Analysis, Counters, ExplainReport, LintReport, PhaseTimings, RaceAnalysis, SyncOptions,
};
use syncopt_frontend::fingerprint::{context_fingerprint, Fingerprint};
use syncopt_frontend::pretty::function_to_string;
use syncopt_frontend::span::Span;
use syncopt_frontend::typeck::ProgramContext;
use syncopt_frontend::Program;
use syncopt_ir::cfg::{Cfg, Terminator};
use syncopt_ir::expr::Expr;
use syncopt_ir::print::cfg_to_string;
use syncopt_ir::vars::{VarKind, VarTable};
use syncopt_machine::{MachineConfig, SimResult, Trace};

/// Per-request pipeline knobs; the [`Syncopt`](crate::Syncopt) builder
/// holds one and sets it field by field.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Analyze for a fixed machine size (`None` = unbounded; `run`
    /// resolves it to the machine's processor count).
    pub procs: Option<u32>,
    /// Optimization level.
    pub level: OptLevel,
    /// Delay set constraining code motion.
    pub delay: DelayChoice,
    /// Observability level.
    pub trace: TraceLevel,
    /// Event-trace cap at [`TraceLevel::Events`].
    pub trace_limit: usize,
    /// Worker threads for the delay-set candidate loops (never part of a
    /// cache key: results are bit-identical for every value).
    pub threads: usize,
    /// Simulation shards for `run`: values above 1 execute the simulation
    /// on the conservative parallel engine
    /// ([`syncopt_machine::simulate_sharded`], block partition), and such
    /// a run is never cached. Kept only because the wall-clock benchmark
    /// (`benchmark/`) probes the sharded engine through
    /// [`Syncopt::sim_shards`](crate::Syncopt::sim_shards); no query or
    /// flag sets it.
    pub sim_shards: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            procs: None,
            level: OptLevel::Full,
            delay: DelayChoice::SyncRefined,
            trace: TraceLevel::Off,
            trace_limit: DEFAULT_TRACE_LIMIT,
            threads: 1,
            sim_shards: 1,
        }
    }
}

impl SessionOptions {
    fn sync_options(&self, procs: Option<u32>) -> SyncOptions {
        SyncOptions {
            procs,
            threads: self.threads,
            ..SyncOptions::default()
        }
    }
}

/// A cached artifact that owns a CFG, with the fingerprint of
/// `[tag, canonical text of that CFG]` memoized beside it — the stem of
/// the `analysis` and `opt` keys on the source CFG and of the `sim` key on
/// the optimized one, extended per request with the cheap parts
/// (processor count, level, delay choice, machine configuration).
#[derive(Debug, Clone)]
pub(crate) struct Keyed<T> {
    pub(crate) artifact: T,
    tag: &'static str,
    cfg_of: fn(&T) -> &Cfg,
    text_key: OnceLock<Fingerprint>,
}

impl<T> Keyed<T> {
    fn new(artifact: T, tag: &'static str, cfg_of: fn(&T) -> &Cfg) -> Self {
        Keyed {
            artifact,
            tag,
            cfg_of,
            text_key: OnceLock::new(),
        }
    }

    fn print_and_hash(&self) -> Fingerprint {
        let cfg = (self.cfg_of)(&self.artifact);
        let key = push_declarations(Fingerprint::of(self.tag), &cfg.vars);
        push_float_literals(key, cfg).push(&cfg_to_string(cfg))
    }

    /// The memoized fingerprint: printed and hashed on first use only.
    fn text_key(&self) -> Fingerprint {
        let key = *self.text_key.get_or_init(|| self.print_and_hash());
        debug_assert_eq!(key, self.print_and_hash(), "stale memoized fingerprint");
        key
    }
}

/// The `ast` artifact: the parsed program with the `fncheck` key of each
/// of its functions, derived (pretty-print, hash) on first use only.
#[derive(Debug)]
struct Parsed {
    program: Program,
    fncheck_keys: OnceLock<Vec<Fingerprint>>,
}

impl Parsed {
    fn derive_fncheck_keys(&self) -> Vec<Fingerprint> {
        let stem = context_fingerprint(&self.program).push("fncheck.v1");
        self.program
            .functions
            .iter()
            .map(|func| stem.push(&function_to_string(func)))
            .collect()
    }

    /// One key per function, in program order: the context fingerprint
    /// plus the function's canonical text.
    fn fncheck_keys(&self) -> &[Fingerprint] {
        let keys = self.fncheck_keys.get_or_init(|| self.derive_fncheck_keys());
        debug_assert_eq!(*keys, self.derive_fncheck_keys(), "stale fncheck keys");
        keys
    }
}

/// What the cached pipeline produced for one request, every artifact
/// still shared with the cache. [`AnalysisSession::compile`] copies out of
/// it; [`crate::commands::execute`] only reads.
pub(crate) struct SharedCompiled {
    source: Arc<Keyed<Cfg>>,
    pub(crate) analysis: Arc<Analysis>,
    optimized: Arc<Keyed<Optimized>>,
    pub(crate) report: PipelineReport,
}

impl SharedCompiled {
    pub(crate) fn source_cfg(&self) -> &Cfg {
        &self.source.artifact
    }

    pub(crate) fn optimized(&self) -> &Optimized {
        &self.optimized.artifact
    }

    /// Moves each artifact out where this is its last holder (a one-shot
    /// builder call that already dropped its session) and copies it where
    /// a live cache still shares it. The optimized CFG, cached without
    /// spans because other source texts share it, gets this request's.
    pub(crate) fn into_owned(self) -> Compiled {
        let mut optimized = Arc::unwrap_or_clone(self.optimized).artifact;
        let source = &self.source.artifact.accesses;
        assert_eq!(
            source.len(),
            optimized.cfg.accesses.len(),
            "the optimizer changed the number of access sites"
        );
        for (id, info) in source.iter() {
            optimized.cfg.accesses.info_mut(id).span = info.span;
        }
        Compiled {
            source_cfg: Arc::unwrap_or_clone(self.source).artifact,
            analysis: Arc::unwrap_or_clone(self.analysis),
            optimized,
            report: self.report,
        }
    }
}

/// [`SharedCompiled`] plus the simulation, shared with the `sim` cache
/// entry unless the run was traced or sharded.
pub(crate) struct SharedRun {
    pub(crate) compiled: SharedCompiled,
    pub(crate) sim: Arc<SimResult>,
    pub(crate) trace: Option<Trace>,
}

impl SharedRun {
    pub(crate) fn report(&self) -> &PipelineReport {
        &self.compiled.report
    }

    pub(crate) fn into_owned(self) -> RunResult {
        RunResult {
            compiled: self.compiled.into_owned(),
            sim: Arc::unwrap_or_clone(self.sim),
            trace: self.trace,
        }
    }
}

/// A long-lived analysis context: the same queries as the
/// [`Syncopt`](crate::Syncopt) builder, backed by a content-addressed
/// artifact cache shared across requests. See the [module
/// docs](self) for the cache-key derivation.
#[derive(Debug)]
pub struct AnalysisSession {
    cache: ArtifactCache,
    request_base: CacheStats,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        AnalysisSession::new()
    }
}

impl AnalysisSession {
    /// A session with the default cache capacity.
    pub fn new() -> Self {
        AnalysisSession {
            cache: ArtifactCache::default(),
            request_base: CacheStats::default(),
        }
    }

    /// A session whose cache holds at most `capacity` artifacts. Capacity
    /// 0 disables the cache: every request runs every stage, no artifact is
    /// kept and no cache key is derived — right for a session that serves
    /// one request, wasteful for any other.
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisSession {
            cache: ArtifactCache::new(capacity),
            request_base: CacheStats::default(),
        }
    }

    /// Cumulative cache counters over the session's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cache counters for the most recent request only (how much of it
    /// was served from cache): one public method call, or one
    /// [`execute`](crate::commands::execute) with every step it took.
    pub fn last_request_stats(&self) -> CacheStats {
        self.cache.stats().since(self.request_base)
    }

    /// Per-artifact-kind cache counters
    /// (`cache.<kind>.hits|misses|evictions`).
    pub fn kind_counters(&self) -> Counters {
        self.cache.kind_counters()
    }

    /// Number of artifacts currently cached.
    pub fn cached_artifacts(&self) -> usize {
        self.cache.len()
    }

    /// Maximum number of artifacts the cache will hold.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Copies the last request's cache counters into `report` so the
    /// pipeline report proves how much work the request reused. Reports
    /// omit the section by default: a warm run's *answer* stays
    /// byte-identical to a cold run's.
    pub fn annotate_report(&self, report: &mut PipelineReport) {
        report.cache = Some(self.last_request_stats());
    }

    /// Starts a request: [`last_request_stats`](Self::last_request_stats)
    /// counts from here. Only the public entry points and
    /// [`reply`](Self::reply) call it; the `*_shared` steps run inside
    /// their caller's request.
    fn begin(&mut self) {
        self.request_base = self.cache.stats();
    }

    /// One [`execute`](crate::commands::execute) request, answered with a
    /// copy of the stored `reply` under `key()` when there is one, and
    /// otherwise by `answer`, whose result — failure or not — is stored.
    /// `key` returns `None` for a request that must not be stored (a
    /// trace); a disabled cache never calls it.
    pub(crate) fn reply(
        &mut self,
        key: impl FnOnce() -> Option<Fingerprint>,
        answer: impl FnOnce(&mut Self) -> CmdOut,
    ) -> CmdOut {
        self.begin();
        let Some(key) = self.cache.enabled().then(key).flatten() else {
            return answer(self);
        };
        if let Some(stored) = self.cache.get::<CmdOut>("reply", key) {
            return CmdOut::clone(&stored);
        }
        let out = answer(self);
        self.cache.insert("reply", key, out.clone());
        out
    }

    /// Parses, checks, lowers, analyzes, and optimizes `src`, reusing
    /// every cached artifact whose inputs are unchanged.
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors (never cached — errors are
    /// re-diagnosed with fresh spans on every request).
    pub fn compile(&mut self, src: &str, opts: &SessionOptions) -> Result<Compiled, SyncoptError> {
        self.begin();
        self.compile_shared(src, opts)
            .map(SharedCompiled::into_owned)
    }

    /// [`compile`](AnalysisSession::compile) without the copies, inside
    /// the caller's request.
    pub(crate) fn compile_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<SharedCompiled, SyncoptError> {
        self.compile_inner(src, opts, opts.procs)
    }

    /// Compiles (analyzing for the machine's processor count unless
    /// `opts.procs` overrides it) and simulates on `config`.
    ///
    /// # Errors
    ///
    /// Returns frontend, lowering, or simulation errors.
    pub fn run(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> Result<RunResult, SyncoptError> {
        self.begin();
        self.run_shared(src, opts, config)
            .map(SharedRun::into_owned)
    }

    /// Runs `src` twice — once at [`OptLevel::Blocking`] and once at
    /// `opts.level` — sharing the analysis between the two runs via the
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns frontend, lowering, or simulation errors from either run.
    pub fn profile(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> Result<ProfileReport, SyncoptError> {
        self.begin();
        self.profile_shared(src, opts, config)
    }

    /// [`profile`](AnalysisSession::profile) inside the caller's request.
    pub(crate) fn profile_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> Result<ProfileReport, SyncoptError> {
        let blocking_opts = SessionOptions {
            level: OptLevel::Blocking,
            ..opts.clone()
        };
        let blocking = self.run_shared(src, &blocking_opts, config)?;
        let optimized = self.run_shared(src, opts, config)?;
        Ok(ProfileReport {
            blocking: blocking.compiled.report,
            optimized: optimized.compiled.report,
        })
    }

    /// The race detector's classification of every conflicting data pair
    /// (cached per source text and processor count).
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors.
    pub fn races(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<RaceAnalysis>, SyncoptError> {
        self.begin();
        self.races_shared(src, opts)
    }

    /// [`races`](AnalysisSession::races) inside the caller's request.
    pub(crate) fn races_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<RaceAnalysis>, SyncoptError> {
        self.derived("races", "races.v1", src, opts, syncopt_core::classify_races)
    }

    /// The full lint suite, including fence-coverage verification at
    /// every optimization level (cached per source text and processor
    /// count).
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors.
    pub fn lint(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<LintReport>, SyncoptError> {
        self.begin();
        self.lint_shared(src, opts)
    }

    /// [`lint`](AnalysisSession::lint) inside the caller's request.
    pub(crate) fn lint_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<LintReport>, SyncoptError> {
        self.derived(
            "lint",
            "lint.v1",
            src,
            opts,
            crate::lint::lint_with_analysis,
        )
    }

    /// Delay-set provenance: why each `D_SS` pair was kept or dropped
    /// (cached per source text and processor count).
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors.
    pub fn explain(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<ExplainReport>, SyncoptError> {
        self.begin();
        self.explain_shared(src, opts)
    }

    /// [`explain`](AnalysisSession::explain) inside the caller's request.
    pub(crate) fn explain_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Arc<ExplainReport>, SyncoptError> {
        self.derived("explain", "explain.v1", src, opts, syncopt_core::explain)
    }

    /// An artifact derived from the source CFG and its analysis, keyed by
    /// the raw source text, `tag` and the processor count.
    fn derived<T: Send + Sync + 'static>(
        &mut self,
        kind: &'static str,
        tag: &str,
        src: &str,
        opts: &SessionOptions,
        build: impl FnOnce(&Cfg, &Analysis, &SyncOptions) -> T,
    ) -> Result<Arc<T>, SyncoptError> {
        let key = self
            .cache
            .enabled()
            .then(|| src_fingerprint(src).push(tag).push(&procs_part(opts.procs)));
        if let Some(hit) = key.and_then(|key| self.cache.get::<T>(kind, key)) {
            return Ok(hit);
        }
        let cfg = self.cfg_inner(src)?;
        let analysis = analysis_cached(&mut self.cache, &cfg, opts, opts.procs);
        let artifact = Arc::new(build(
            &cfg.artifact,
            &analysis,
            &opts.sync_options(opts.procs),
        ));
        if let Some(key) = key {
            self.cache.insert_arc(kind, key, Arc::clone(&artifact));
        }
        Ok(artifact)
    }

    // ---- internal cached pipeline stages --------------------------------

    /// [`run`](AnalysisSession::run) without the copies, inside the
    /// caller's request.
    pub(crate) fn run_shared(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> Result<SharedRun, SyncoptError> {
        let procs = opts.procs.unwrap_or(config.procs);
        let mut compiled = self.compile_inner(src, opts, Some(procs))?;
        let mut trace = None;
        let cache = &mut self.cache;
        let optimized = &compiled.optimized;
        let sim = compiled.report.timings.time("simulate", || {
            let cfg = &optimized.artifact.cfg;
            if opts.trace >= TraceLevel::Events {
                if opts.sim_shards > 1 {
                    return Err(syncopt_machine::SimError::new(
                        "event tracing requires the sequential engine; \
                         rerun with sim_shards = 1",
                    ));
                }
                // Traces are request-scoped observability, not artifacts:
                // always simulate fresh so the trace matches this run.
                let (sim, t) = syncopt_machine::simulate_traced(cfg, config, opts.trace_limit)?;
                trace = Some(t);
                return Ok(Arc::new(sim));
            }
            if opts.sim_shards > 1 {
                // A sharded run's engine counters differ from those of the
                // sequential run the `sim` artifact holds: never cached.
                let outputs = syncopt_machine::SimOutputs::full();
                return syncopt_machine::simulate_sharded(cfg, config, opts.sim_shards, outputs)
                    .map(Arc::new);
            }
            let key = || push_machine(optimized.text_key(), config);
            cache.get_or_try_with("sim", key, || syncopt_machine::simulate(cfg, config))
        })?;
        compiled.report.meta.machine = Some(config.name.clone());
        let mut sim_report = SimReport::from_sim(&sim);
        sim_report.trace_truncated = trace.as_ref().map(Trace::truncated);
        compiled.report.sim = Some(sim_report);
        Ok(SharedRun {
            compiled,
            sim,
            trace,
        })
    }

    fn compile_inner(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        procs: Option<u32>,
    ) -> Result<SharedCompiled, SyncoptError> {
        let mut timings = PhaseTimings::new(opts.trace >= TraceLevel::Phases);
        let src_fp = SrcKey::new(src);
        let cache = &mut self.cache;
        let ast = timings.time("parse", || parse_cached(cache, &src_fp))?;
        timings.time("typeck", || check_cached(cache, &ast))?;
        let inlined = timings.time("inline", || inline_cached(cache, &ast, &src_fp))?;
        let source = timings.time("lower", || lower_cached(cache, &inlined, &src_fp))?;
        let analysis = timings.time("analyze", || analysis_cached(cache, &source, opts, procs));
        let optimized: Arc<Keyed<Optimized>> = timings.time("optimize", || {
            let key = || {
                source
                    .text_key()
                    .push("opt.v2")
                    .push(&procs_part(procs))
                    .push(level_label(opts.level))
                    .push(delay_label(opts.delay))
            };
            cache.get_or_with("opt", key, || {
                let mut optimized =
                    syncopt_codegen::optimize(&source.artifact, &analysis, opts.level, opts.delay);
                // Every source text with this canonical CFG shares the
                // artifact; `into_owned` puts each request's own spans back.
                for id in source.artifact.accesses.ids() {
                    optimized.cfg.accesses.info_mut(id).span = Span::dummy();
                }
                Keyed::new(optimized, "sim.v2", |optimized| &optimized.cfg)
            })
        });
        let report = PipelineReport {
            meta: meta_for(procs.unwrap_or(0), opts.level, opts.delay, None),
            timings,
            analysis: analysis.stats(),
            counters: analysis.metrics.clone(),
            codegen: optimized.artifact.stats,
            cache: None,
            sim: None,
        };
        Ok(SharedCompiled {
            source,
            analysis,
            optimized,
            report,
        })
    }

    /// The cached source CFG for `src` (the parse → typeck → inline →
    /// lower prefix of the pipeline, without timings).
    fn cfg_inner(&mut self, src: &str) -> Result<Arc<Keyed<Cfg>>, SyncoptError> {
        let src_fp = SrcKey::new(src);
        let cache = &mut self.cache;
        let ast = parse_cached(cache, &src_fp)?;
        check_cached(cache, &ast)?;
        let inlined = inline_cached(cache, &ast, &src_fp)?;
        Ok(lower_cached(cache, &inlined, &src_fp)?)
    }
}

/// A source text with its fingerprint — the key of every span-bearing
/// artifact — hashed when the first enabled cache asks for it, and never
/// for a disabled one.
struct SrcKey<'a> {
    src: &'a str,
    fingerprint: OnceCell<Fingerprint>,
}

impl<'a> SrcKey<'a> {
    fn new(src: &'a str) -> Self {
        SrcKey {
            src,
            fingerprint: OnceCell::new(),
        }
    }

    fn get(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| src_fingerprint(self.src))
    }
}

/// Fingerprint of the raw source text (the key for every span-bearing
/// artifact).
fn src_fingerprint(src: &str) -> Fingerprint {
    Fingerprint::of_parts(&["src.v1", src])
}

/// The processor-count component of option-dependent cache keys.
fn procs_part(procs: Option<u32>) -> String {
    procs.map_or_else(|| "any".to_string(), |p| p.to_string())
}

/// Folds the declaration section of a CFG's canonical text into `key`:
/// the number of variables, then each variable in id order as name,
/// storage kind, element count (0 for a scalar) and element type.
fn push_declarations(key: Fingerprint, vars: &VarTable) -> Fingerprint {
    let mut key = key.push_u64(vars.len() as u64);
    for (_, var) in vars.iter() {
        let (kind, len) = match var.kind {
            VarKind::SharedScalar => ("shared", 0),
            VarKind::SharedArray { len } => ("shared[]", len),
            VarKind::Flag => ("flag", 0),
            VarKind::FlagArray { len } => ("flag[]", len),
            VarKind::Lock => ("lock", 0),
            VarKind::Local => ("local", 0),
            VarKind::LocalArray { len } => ("local[]", len),
        };
        key = key
            .push(&var.name)
            .push(kind)
            .push_u64(len)
            .push(var.ty.name());
    }
    key
}

/// Folds the literal section of a CFG's canonical text into `key`. The
/// printed blocks show a float constant the way they show an integer
/// (`1.0` prints as `1`), so each float constant is named here: its place
/// among all expression nodes, counted in block, instruction and operand
/// order, and its bits. The total node count closes the section.
fn push_float_literals(mut key: Fingerprint, cfg: &Cfg) -> Fingerprint {
    let mut nodes = 0u64;
    let mut visit = |expr: &Expr| {
        expr.walk(&mut |node| {
            if let Expr::Float(value) = node {
                key = key.push_u64(nodes).push_u64(value.to_bits());
            }
            nodes += 1;
        });
    };
    for block in &cfg.blocks {
        for instr in &block.instrs {
            instr.for_each_expr(&mut visit);
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            visit(cond);
        }
    }
    key.push_u64(nodes)
}

/// Extends the optimized CFG's stem into the `sim` key with the machine:
/// its name, then every parameter as a number.
fn push_machine(stem: Fingerprint, config: &MachineConfig) -> Fingerprint {
    let (name, numbers) = config.cache_key_parts();
    numbers
        .iter()
        .fold(stem.push(name), |key, &n| key.push_u64(n))
}

/// The cached `ast` artifact for `src`.
fn parse_cached(
    cache: &mut ArtifactCache,
    src: &SrcKey<'_>,
) -> Result<Arc<Parsed>, syncopt_frontend::FrontendError> {
    cache.get_or_try_with(
        "ast",
        || src.get(),
        || {
            Ok(Parsed {
                program: syncopt_frontend::parse_program(src.src)?,
                fncheck_keys: OnceLock::new(),
            })
        },
    )
}

/// The cached `inlined` artifact: `ast` with every call expanded.
fn inline_cached(
    cache: &mut ArtifactCache,
    ast: &Parsed,
    src: &SrcKey<'_>,
) -> Result<Arc<Program>, syncopt_frontend::FrontendError> {
    cache.get_or_try_with(
        "inlined",
        || src.get(),
        || syncopt_frontend::inline::inline_program(&ast.program),
    )
}

/// The cached `cfg` artifact: the lowered source CFG of `inlined`.
fn lower_cached(
    cache: &mut ArtifactCache,
    inlined: &Program,
    src: &SrcKey<'_>,
) -> Result<Arc<Keyed<Cfg>>, syncopt_ir::lower::LowerError> {
    cache.get_or_try_with(
        "cfg",
        || src.get(),
        || {
            Ok(Keyed::new(
                syncopt_ir::lower::lower_main(inlined)?,
                "analysis.v2",
                |cfg| cfg,
            ))
        },
    )
}

/// Type checks the program with per-function caching: the program-level
/// checks run every time (they are cheap and produce the first error in
/// declaration order), while each function body's verdict is keyed by the
/// context fingerprint plus the function's canonical text — so editing
/// one function of an N-function program re-checks only that function.
/// Only successes are cached; errors re-diagnose with fresh spans. A
/// disabled cache has no verdicts and asks for no key, so no function is
/// printed: each one is just checked.
fn check_cached(
    cache: &mut ArtifactCache,
    ast: &Parsed,
) -> Result<(), syncopt_frontend::FrontendError> {
    let ctx = ProgramContext::build(&ast.program)?;
    for (i, func) in ast.program.functions.iter().enumerate() {
        cache.get_or_try_with(
            "fncheck",
            || ast.fncheck_keys()[i],
            || ctx.check_function(func),
        )?;
    }
    Ok(())
}

/// The cached delay-set analysis for a source CFG. Keyed by the
/// *canonical printed* CFG (span-free, like [`Analysis`] itself) plus the
/// processor count, so formatting-only edits reuse the analysis.
fn analysis_cached(
    cache: &mut ArtifactCache,
    cfg: &Keyed<Cfg>,
    opts: &SessionOptions,
    procs: Option<u32>,
) -> Arc<Analysis> {
    cache.get_or_with(
        "analysis",
        || cfg.text_key().push(&procs_part(procs)),
        || syncopt_core::analyze_with(&cfg.artifact, &opts.sync_options(procs)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Syncopt;

    const SRC: &str = r#"
        shared int A[16]; flag F;
        fn helper(int v) { work(v); }
        fn main() {
            A[MYPROC] = MYPROC * 2;
            barrier;
            int v; v = A[(MYPROC + 1) % PROCS];
            if (MYPROC == 0) { post F; } else { wait F; }
            helper(v);
        }
    "#;

    fn opts(procs: u32) -> SessionOptions {
        SessionOptions {
            procs: Some(procs),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn warm_compile_is_identical_and_all_hits() {
        let mut s = AnalysisSession::new();
        let cold = s.compile(SRC, &opts(4)).unwrap();
        assert!(s.last_request_stats().misses > 0);
        let warm = s.compile(SRC, &opts(4)).unwrap();
        assert_eq!(cold.report, warm.report);
        assert_eq!(
            syncopt_ir::print::cfg_to_string(&cold.optimized.cfg),
            syncopt_ir::print::cfg_to_string(&warm.optimized.cfg)
        );
        let stats = s.last_request_stats();
        assert_eq!(stats.misses, 0, "warm compile rebuilt something");
        assert!(stats.hits > 0);
    }

    #[test]
    fn session_matches_builder_exactly() {
        let mut s = AnalysisSession::new();
        let via_session = s.compile(SRC, &opts(4)).unwrap();
        let via_builder = Syncopt::new(SRC).procs(4).compile().unwrap();
        assert_eq!(via_session.report, via_builder.report);
        assert_eq!(
            via_session.analysis.delay_sync.pairs(),
            via_builder.analysis.delay_sync.pairs()
        );
    }

    /// The one-shot builder drops its session before taking the result,
    /// so the artifacts are moved (their heap buffers keep their
    /// addresses); a live session still shares them and hands out copies.
    #[test]
    fn a_dropped_session_gives_up_its_artifacts_without_copying() {
        let config = MachineConfig::cm5(4);
        let buffers = |run: &SharedRun| {
            (
                run.compiled.source_cfg().blocks.as_ptr(),
                run.compiled.optimized().cfg.blocks.as_ptr(),
                run.sim.proc_cycles.as_ptr(),
            )
        };

        let mut s = AnalysisSession::new();
        let shared = s.run_shared(SRC, &opts(4), &config).unwrap();
        let before = buffers(&shared);
        drop(s);
        let owned = shared.into_owned();
        let after = (
            owned.compiled.source_cfg.blocks.as_ptr(),
            owned.compiled.optimized.cfg.blocks.as_ptr(),
            owned.sim.proc_cycles.as_ptr(),
        );
        assert_eq!(before, after, "a unique artifact was deep-cloned");

        let mut s = AnalysisSession::new();
        let shared = s.run_shared(SRC, &opts(4), &config).unwrap();
        let cached = buffers(&shared);
        let copy = shared.into_owned();
        assert_ne!(copy.compiled.source_cfg.blocks.as_ptr(), cached.0);
        assert_ne!(copy.sim.proc_cycles.as_ptr(), cached.2);
        s.run(SRC, &opts(4), &config).unwrap();
        assert_eq!(s.last_request_stats().misses, 0, "the cache lost an entry");
    }

    /// A session without a cache runs the same stages to the same report
    /// and derives none of the keys: no CFG was printed, no function
    /// pretty-printed, nothing looked up, nothing kept.
    #[test]
    fn a_session_of_capacity_zero_derives_no_key_and_keeps_nothing() {
        let config = MachineConfig::cm5(4);
        let mut off = AnalysisSession::with_capacity(0);
        for _ in 0..2 {
            let run = off.run_shared(SRC, &opts(4), &config).unwrap();
            assert!(run.compiled.source.text_key.get().is_none());
            assert!(run.compiled.optimized.text_key.get().is_none());
            assert_eq!(Arc::strong_count(&run.compiled.source), 1);
            assert_eq!(Arc::strong_count(&run.compiled.analysis), 1);
            assert_eq!(Arc::strong_count(&run.compiled.optimized), 1);
            assert_eq!(Arc::strong_count(&run.sim), 1);
            let cached = AnalysisSession::new()
                .run_shared(SRC, &opts(4), &config)
                .unwrap();
            assert!(cached.compiled.source.text_key.get().is_some());
            assert_eq!(run.report(), cached.report());
        }
        assert_eq!(off.cache_stats(), CacheStats::default());
        assert_eq!((off.cached_artifacts(), off.cache_capacity()), (0, 0));
        assert!(off.kind_counters().is_empty());
        // The derived artifacts go the same way.
        let lint = off.lint(SRC, &opts(4)).unwrap();
        assert_eq!(Arc::strong_count(&lint), 1);
        let cached = AnalysisSession::new().lint(SRC, &opts(4)).unwrap();
        assert_eq!(format!("{lint:?}"), format!("{cached:?}"));
        assert_eq!(off.cache_stats(), CacheStats::default());
        // So do whole commands: no reply key is derived, every request
        // answers afresh, and the answer is a cached session's.
        for command in ["check", "run", "profile"] {
            let q = crate::commands::Query {
                command: command.to_string(),
                source: Some(SRC.to_string()),
                ..crate::commands::Query::default()
            };
            let cached = crate::commands::execute(&mut AnalysisSession::new(), &q);
            for _ in 0..2 {
                let mut answered = 0;
                let out = off.reply(
                    || unreachable!("a disabled cache derived a reply key"),
                    |session| {
                        answered += 1;
                        crate::commands::execute(session, &q)
                    },
                );
                assert_eq!((out, answered), (cached.clone(), 1), "{command}");
                assert_eq!(crate::commands::execute(&mut off, &q), cached, "{command}");
            }
        }
        assert_eq!(off.cache_stats(), CacheStats::default());
        assert_eq!(off.cached_artifacts(), 0);
    }

    #[test]
    fn single_function_edit_reuses_unedited_function_checks() {
        let mut s = AnalysisSession::new();
        s.compile(SRC, &opts(4)).unwrap();
        // Edit only `main`: `helper` keeps its fingerprint and its cached
        // verdict, so typeck re-checks exactly one function.
        let edited = SRC.replace("MYPROC * 2", "MYPROC * 3");
        s.compile(&edited, &opts(4)).unwrap();
        let kinds = s.kind_counters();
        assert_eq!(kinds.get("cache.fncheck.hits"), 1, "{kinds:?}");
        assert_eq!(kinds.get("cache.fncheck.misses"), 3, "{kinds:?}");
    }

    #[test]
    fn whitespace_edit_reuses_analysis_and_sim() {
        let mut s = AnalysisSession::new();
        let config = MachineConfig::cm5(4);
        let a = s.run(SRC, &opts(4), &config).unwrap();
        let spaced = SRC.replace("barrier;", "barrier   ;");
        let b = s.run(&spaced, &opts(4), &config).unwrap();
        assert_eq!(a.sim.memory, b.sim.memory);
        assert_eq!(a.sim.exec_cycles, b.sim.exec_cycles);
        // The reformatted source re-parses and re-lowers (raw-text keys)
        // but reuses the span-free analysis and simulation artifacts.
        let kinds = s.kind_counters();
        assert!(kinds.get("cache.analysis.hits") >= 1, "{kinds:?}");
        assert!(kinds.get("cache.sim.hits") >= 1, "{kinds:?}");
    }

    #[test]
    fn memoized_fingerprints_equal_the_hash_of_the_freshly_printed_text() {
        // The declaration section of `SRC`'s canonical text, spelled out:
        // inlining `helper` adds its parameter, and neither lowering nor
        // the optimizer needs a temporary.
        let declarations = |tag: &str| {
            let local =
                |key: Fingerprint, name: &str| key.push(name).push("local").push_u64(0).push("int");
            let key = Fingerprint::of(tag).push_u64(4);
            let key = key.push("A").push("shared[]").push_u64(16).push("int");
            let key = key.push("F").push("flag").push_u64(0).push("flag");
            local(local(key, "v"), "v__helper_1")
        };
        // `SRC` has no float constant, so its literal section is only the
        // closing count of expression nodes.
        let canonical = |tag: &str, cfg: &Cfg| {
            let mut nodes = 0;
            for block in &cfg.blocks {
                for instr in &block.instrs {
                    instr.for_each_expr(&mut |expr| nodes += expr.size() as u64);
                }
                if let Terminator::Branch { cond, .. } = &block.term {
                    nodes += cond.size() as u64;
                }
            }
            assert!(nodes > 0);
            declarations(tag).push_u64(nodes).push(&cfg_to_string(cfg))
        };
        let mut s = AnalysisSession::new();
        let config = MachineConfig::cm5(4);
        for level in [OptLevel::Blocking, OptLevel::Full] {
            let o = SessionOptions { level, ..opts(4) };
            // Twice: the second run reads the memo the first one filled.
            for _ in 0..2 {
                let r = s.run_shared(SRC, &o, &config).unwrap();
                let c = &r.compiled;
                assert_eq!(
                    c.source.text_key(),
                    canonical("analysis.v2", c.source_cfg())
                );
                assert_eq!(
                    c.optimized.text_key(),
                    canonical("sim.v2", &c.optimized().cfg)
                );
            }
        }
        // The keys the session looked up are the documented ones, part for
        // part: extending a memoized stem is hashing the parts in order.
        let source = s.cfg_inner(SRC).unwrap();
        let stem = canonical("analysis.v2", &source.artifact);
        assert!(s
            .cache
            .get::<Analysis>("analysis", stem.push("4"))
            .is_some());
        for level in ["blocking", "full"] {
            let opt_key = stem
                .push("opt.v2")
                .push("4")
                .push(level)
                .push("sync-refined");
            let optimized = s.cache.get::<Keyed<Optimized>>("opt", opt_key).unwrap();
            let cm5 = [4, 30, 25, 25, 160, 30, 15, 125, 2, 8, 200_000_000, 1];
            let sim_key = cm5
                .iter()
                .fold(optimized.text_key().push("CM-5"), |key, &n| key.push_u64(n));
            assert!(
                s.cache.get::<SimResult>("sim", sim_key).is_some(),
                "{level}"
            );
        }
        let ast = parse_cached(&mut s.cache, &SrcKey::new(SRC)).unwrap();
        let ctx_fp = context_fingerprint(&ast.program);
        for (func, key) in ast.program.functions.iter().zip(ast.fncheck_keys()) {
            let text = function_to_string(func);
            assert_eq!(*key, ctx_fp.push("fncheck.v1").push(&text), "{}", func.name);
            assert!(
                s.cache.get::<()>("fncheck", *key).is_some(),
                "{}",
                func.name
            );
        }

        // The remaining storage kinds, each with its element count and
        // type, and a float constant: `1.5` is the second of the five
        // expression nodes (`0`, `1.5`, `d[0]`, its `0`, `1`).
        let kinds = "shared double X; flag G[2]; lock L;\n\
                     fn main() { double d[3]; d[0] = 1.5; lock L; X = d[0]; unlock L; post G[1]; }";
        let cfg = s.cfg_inner(kinds).unwrap();
        let key = Fingerprint::of("analysis.v2").push_u64(4);
        let key = key.push("X").push("shared").push_u64(0).push("double");
        let key = key.push("G").push("flag[]").push_u64(2).push("flag");
        let key = key.push("L").push("lock").push_u64(0).push("lock");
        let key = key.push("d").push("local[]").push_u64(3).push("double");
        let key = key.push_u64(1).push_u64(1.5f64.to_bits()).push_u64(5);
        assert_eq!(cfg.text_key(), key.push(&cfg_to_string(&cfg.artifact)));
    }

    /// The `sim` key names every machine parameter: changing any single
    /// one changes the key, and an equal configuration built again gets
    /// the same key.
    #[test]
    fn sim_keys_tell_apart_every_machine_field() {
        let stem = Fingerprint::of("stem");
        let base = MachineConfig::cm5(8);
        let edits: [fn(&mut MachineConfig); 13] = [
            |c| c.name.push('x'),
            |c| c.procs += 1,
            |c| c.local_access_cycles += 1,
            |c| c.send_overhead += 1,
            |c| c.recv_overhead += 1,
            |c| c.network_latency += 1,
            |c| c.handler_cycles += 1,
            |c| c.ack_cycles += 1,
            |c| c.barrier_cycles += 1,
            |c| c.local_op_cycles += 1,
            |c| c.injection_gap_cycles += 1,
            |c| c.max_steps += 1,
            |c| c.check_barrier_alignment = !c.check_barrier_alignment,
        ];
        let mut keys = vec![push_machine(stem, &base)];
        for edit in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base);
            keys.push(push_machine(stem, &edited));
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two configurations share a key");
            }
        }
        // Neighbouring fields do not run together: swapping two values is
        // a different machine.
        let mut swapped = base.clone();
        std::mem::swap(&mut swapped.send_overhead, &mut swapped.network_latency);
        assert_ne!(push_machine(stem, &swapped), keys[0]);
        assert_eq!(push_machine(stem, &base.clone()), keys[0]);
        assert_eq!(push_machine(stem, &MachineConfig::cm5(8)), keys[0]);
        assert_ne!(push_machine(stem.push("other"), &base), keys[0]);
    }

    /// An edit that leaves the program alone is not re-optimized, and the
    /// owned result still carries the spans of the text it was asked about.
    #[test]
    fn a_reformatted_source_shares_the_optimized_program_and_keeps_its_own_spans() {
        let mut s = AnalysisSession::new();
        let first = s.compile(SRC, &opts(4)).unwrap();
        let moved = format!("// a comment\n\n{SRC}");
        let second = s.compile(&moved, &opts(4)).unwrap();
        let kinds = s.kind_counters();
        assert_eq!(kinds.get("cache.opt.hits"), 1, "{kinds:?}");
        assert_eq!(kinds.get("cache.opt.misses"), 1, "{kinds:?}");
        let cold = Syncopt::new(&moved).procs(4).compile().unwrap();
        assert_eq!(second.optimized.cfg, cold.optimized.cfg);
        assert_eq!(second.source_cfg, cold.source_cfg);
        let shift = "// a comment\n\n".len() as u32;
        for (id, info) in first.optimized.cfg.accesses.iter() {
            let span = second.optimized.cfg.accesses.info(id).span;
            assert!(!info.span.is_empty(), "{id} lost its span");
            assert_eq!(span.start, info.span.start + shift, "{id}");
            assert_eq!(span.end, info.span.end + shift, "{id}");
        }
    }

    #[test]
    fn profile_shares_analysis_between_levels() {
        let mut s = AnalysisSession::new();
        let config = MachineConfig::cm5(4);
        let p = s.profile(SRC, &opts(4), &config).unwrap();
        assert_eq!(p.blocking.meta.level, OptLevel::Blocking);
        // One analysis miss, one hit: blocking and optimized share it.
        assert_eq!(s.kind_counters().get("cache.analysis.misses"), 1);
        assert!(s.kind_counters().get("cache.analysis.hits") >= 1);
    }

    #[test]
    fn annotate_report_adds_cache_section() {
        let mut s = AnalysisSession::new();
        let mut c = s.compile(SRC, &opts(4)).unwrap();
        assert!(c.report.cache.is_none());
        s.annotate_report(&mut c.report);
        let cache = c.report.cache.unwrap();
        assert!(cache.misses > 0);
        let json = c.report.to_json();
        assert!(json.get("cache").is_some());
    }

    #[test]
    fn sharded_run_matches_sequential_observables() {
        let config = MachineConfig::cm5(4);
        // Separate sessions so the second run cannot just replay the
        // first's cached artifact.
        let seq = AnalysisSession::new().run(SRC, &opts(4), &config).unwrap();
        let sharded_opts = SessionOptions {
            sim_shards: 4,
            ..opts(4)
        };
        let par = AnalysisSession::new()
            .run(SRC, &sharded_opts, &config)
            .unwrap();
        assert_eq!(seq.sim.exec_cycles, par.sim.exec_cycles);
        assert_eq!(seq.sim.memory, par.sim.memory);
        assert_eq!(seq.sim.metrics.per_proc, par.sim.metrics.per_proc);
        assert!(par.sim.metrics.work.shard_horizon_advances > 0);
    }

    #[test]
    fn event_tracing_rejects_sharded_runs() {
        let mut s = AnalysisSession::new();
        let config = MachineConfig::cm5(4);
        let o = SessionOptions {
            sim_shards: 2,
            trace: TraceLevel::Events,
            ..opts(4)
        };
        let err = s.run(SRC, &o, &config).unwrap_err();
        assert!(
            err.to_string().contains("sequential engine"),
            "unexpected diagnostic: {err}"
        );
    }

    #[test]
    fn errors_are_not_cached_and_rediagnose() {
        let mut s = AnalysisSession::new();
        let bad = "fn main() { x = 1; }";
        let e1 = s.compile(bad, &opts(2)).unwrap_err();
        let e2 = s.compile(bad, &opts(2)).unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());
        assert!(e1.to_string().contains("unknown variable"));
    }
}
