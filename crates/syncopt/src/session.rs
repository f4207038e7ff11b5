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
//! | `cfg`      | raw source text                                     | lowered source [`Cfg`] (+ the memoized fingerprint of its canonical text) |
//! | `analysis` | canonical source-CFG text + procs (`analysis.v2`)   | [`Analysis`] |
//! | `opt`      | canonical source-CFG text + procs + level + delay (`opt.v2`) | [`Optimized`], access spans cleared (+ the memoized fingerprint of its canonical text) |
//! | `sim`      | canonical optimized-CFG text + machine config (`sim.v2`) | [`SimResult`] |
//! | `races`    | raw source text + procs                             | [`RaceAnalysis`] |
//! | `lint`     | raw source text + procs                             | [`LintReport`] |
//! | `explain`  | raw source text + procs                             | [`ExplainReport`] |
//! | `reply`    | raw source text + every `Query` field               | the escaped wire [`Answer`] of one [`execute`] request, failures included |
//!
//! # One pass per request
//!
//! Within a request each stage runs once and passes its artifact down;
//! the cache serves only later requests. The first stage is the front end
//! and the analysis. A request derives the key of its raw source text (at
//! most once), looks up `cfg` under it, and only on a miss parses,
//! type-checks, inlines and lowers the text: the parsed and inlined
//! programs are steps on the way to the CFG that every later stage reads,
//! and are not kept. It then looks up the `analysis`. Both, with the
//! source key, make one `Analyzed` value that every later stage reads
//! or extends. Optimizing extends it into a compiled program, and
//! simulating extends that. `races`, `lint` and `explain` read it and
//! cannot fail. `profile` optimizes and simulates both of its levels from
//! the one analysis. Commands that read only the analysis — `analyze`,
//! `check`, `explain`, `litmus`, `lint` — are handed it and never look
//! up `opt`. No stage goes back to the source text, so no request looks
//! up an artifact kind twice.
//!
//! Span-bearing artifacts (`cfg`, `lint` diagnostics) key on the
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
//! A sharded run ([`SessionOptions::sim_shards`] above 1) is never cached:
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
//! clean one. It stores the answer in its wire form, escaped once when it
//! was built, and not beside a [`CmdOut`]: a server's repeat
//! ([`commands::answer`](crate::commands::answer)) is handed the stored
//! bytes themselves, which `syncoptd` splices into its reply, while an
//! in-process repeat ([`execute`]) decodes them. Traces are request-scoped
//! observability, not artifacts: `trace` and `run --trace` are never
//! stored. A failed request's reply is stored like any other, but a
//! failed stage caches no artifact: the failure is re-diagnosed whenever
//! the reply misses.
//!
//! The session is a cache, not a request tracker: a caller that wants
//! one request's share of the work diffs two
//! [`cache_stats`](AnalysisSession::cache_stats) snapshots with
//! [`CacheStats::since`], as `syncoptd` does around each query.
//!
//! A session of capacity 0 ([`AnalysisSession::with_capacity`]) has its
//! cache **disabled**, and derives none of the keys above: every key is
//! handed to the cache as a closure, which a disabled cache never calls.
//! Since no request needs the cache to share work within itself, every
//! one-shot entry point runs on such a session — the
//! [`Syncopt`](crate::Syncopt) builder's `compile`, `run` and `profile`,
//! and `syncoptc` without `--daemon` — through the same pipeline and to
//! the same bytes, without a stored reply nobody would read.
//!
//! ```
//! use syncopt::{AnalysisSession, SessionOptions};
//!
//! let src = "shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }";
//! let mut session = AnalysisSession::new();
//! let opts = SessionOptions { procs: Some(8), ..SessionOptions::default() };
//! let cold = session.compile(src, &opts)?;
//! let before = session.cache_stats();
//! let warm = session.compile(src, &opts)?;
//! assert_eq!(cold.report, warm.report);
//! // The second compile did no parsing/analysis work at all.
//! let delta = session.cache_stats().since(before);
//! assert_eq!(delta.misses, 0);
//! assert!(delta.hits > 0);
//! # Ok::<(), syncopt::SyncoptError>(())
//! ```
//!
//! [`AccessId`]: syncopt_ir::ids::AccessId
//! [`Answer`]: crate::rpc::Answer
//! [`CmdOut`]: crate::commands::CmdOut
//! [`execute`]: crate::commands::execute
//! [`SimResult`]: syncopt_machine::SimResult
//! [`VarTable`]: syncopt_ir::vars::VarTable

use crate::commands::CmdOut;
use crate::report::{delay_label, level_label, meta_for};
use crate::rpc::Answer;
use crate::{
    Compiled, DelayChoice, OptLevel, PipelineReport, ProfileReport, RunResult, SimReport,
    SyncoptError, TraceLevel, DEFAULT_TRACE_LIMIT,
};
use std::sync::{Arc, OnceLock};
use syncopt_codegen::Optimized;
use syncopt_core::cache::{ArtifactCache, CacheStats};
use syncopt_core::{
    Analysis, Counters, ExplainReport, LintReport, PhaseTimings, RaceAnalysis, SyncOptions,
};
use syncopt_frontend::fingerprint::Fingerprint;
use syncopt_frontend::span::Span;
use syncopt_frontend::Program;
use syncopt_ir::cfg::{Cfg, Terminator};
use syncopt_ir::expr::Expr;
use syncopt_ir::print::cfg_to_string;
use syncopt_ir::vars::{VarKind, VarTable};
use syncopt_machine::{MachineConfig, SimResult, Trace};

/// Per-request pipeline knobs; the [`Syncopt`](crate::Syncopt) builder
/// holds one and sets it field by field.
#[derive(Debug, Clone, Copy)]
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
            sim_shards: 1,
        }
    }
}

impl SessionOptions {
    /// These options for a run on `config`: analyzed for its processor
    /// count unless `procs` overrides it.
    fn on(&self, config: &MachineConfig) -> SessionOptions {
        SessionOptions {
            procs: Some(self.procs.unwrap_or(config.procs)),
            ..*self
        }
    }

    fn sync_options(&self) -> SyncOptions {
        SyncOptions {
            procs: self.procs,
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

/// The first stage of a request: the source CFG and its delay-set
/// analysis, both shared with the cache, the options they were built for,
/// the key of the raw source text and the timings of the phases so far.
/// Every later stage of the request reads or extends this one value.
#[derive(Clone)]
pub(crate) struct Analyzed {
    /// The fingerprint of the raw source text, derived at most once per
    /// request; `None` when the cache is disabled.
    src_key: Option<Fingerprint>,
    opts: SessionOptions,
    source: Arc<Keyed<Cfg>>,
    pub(crate) analysis: Arc<Analysis>,
    timings: PhaseTimings,
}

impl Analyzed {
    pub(crate) fn source_cfg(&self) -> &Cfg {
        &self.source.artifact
    }
}

/// What the `parse` phase found: the cached source CFG, or a freshly
/// parsed program still to check, inline and lower.
enum Lookup {
    Hit(Arc<Keyed<Cfg>>),
    Miss(Program),
}

/// An [`Analyzed`] request optimized at one level, the optimized program
/// shared with the cache. [`AnalysisSession::compile`] copies out of it;
/// [`crate::commands::execute`] only reads.
pub(crate) struct SharedCompiled {
    pub(crate) analyzed: Analyzed,
    optimized: Arc<Keyed<Optimized>>,
    pub(crate) report: PipelineReport,
}

impl SharedCompiled {
    pub(crate) fn optimized(&self) -> &Optimized {
        &self.optimized.artifact
    }

    /// Moves each artifact out where this is its last holder (a session
    /// with its cache disabled) and copies it where a live cache still
    /// shares it. The optimized CFG, cached without spans because other
    /// source texts share it, gets this request's.
    pub(crate) fn into_owned(self) -> Compiled {
        let mut optimized = Arc::unwrap_or_clone(self.optimized).artifact;
        let source = &self.analyzed.source.artifact.accesses;
        assert_eq!(
            source.len(),
            optimized.cfg.accesses.len(),
            "the optimizer changed the number of access sites"
        );
        for (id, info) in source.iter() {
            optimized.cfg.accesses.info_mut(id).span = info.span;
        }
        Compiled {
            source_cfg: Arc::unwrap_or_clone(self.analyzed.source).artifact,
            analysis: Arc::unwrap_or_clone(self.analyzed.analysis),
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

/// What [`AnalysisSession::reply`] hands back.
pub(crate) enum Replied {
    /// A hit: the stored answer, shared with the cache.
    Stored(Arc<Answer>),
    /// A miss, or a request that is not stored: the output just built,
    /// with the answer a miss stored.
    Built(CmdOut, Option<Arc<Answer>>),
}

/// A long-lived analysis context: the same queries as the
/// [`Syncopt`](crate::Syncopt) builder, backed by a content-addressed
/// artifact cache shared across requests. See the [module
/// docs](self) for the cache-key derivation.
#[derive(Debug)]
pub struct AnalysisSession {
    cache: ArtifactCache,
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
        }
    }

    /// A session whose cache holds at most `capacity` artifacts. Capacity
    /// 0 disables the cache: every request runs every stage, no artifact is
    /// kept and no cache key is derived — right for a session that serves
    /// one request, wasteful for any other.
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisSession {
            cache: ArtifactCache::new(capacity),
        }
    }

    /// Cumulative cache counters over the session's lifetime; diff two
    /// snapshots with [`CacheStats::since`] for one request's share.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
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

    /// One [`execute`](crate::commands::execute) request: the stored
    /// `reply` under `key()` when there is one, and otherwise what `answer`
    /// builds, whose encoded [`Answer`] — failure or not — is stored.
    /// `key` returns `None` for a request that must not be stored (a
    /// trace); a disabled cache never calls it.
    pub(crate) fn reply(
        &mut self,
        key: impl FnOnce() -> Option<Fingerprint>,
        answer: impl FnOnce(&mut Self) -> CmdOut,
    ) -> Replied {
        let Some(key) = self.cache.enabled().then(key).flatten() else {
            return Replied::Built(answer(self), None);
        };
        if let Some(stored) = self.cache.get::<Answer>("reply", key) {
            return Replied::Stored(stored);
        }
        let out = answer(self);
        let stored = Arc::new(Answer::encode(&out));
        self.cache.insert_arc("reply", key, Arc::clone(&stored));
        Replied::Built(out, Some(stored))
    }

    /// Parses, checks, lowers, analyzes, and optimizes `src`, reusing
    /// every cached artifact whose inputs are unchanged.
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering errors (never cached — errors are
    /// re-diagnosed with fresh spans on every request).
    pub fn compile(&mut self, src: &str, opts: &SessionOptions) -> Result<Compiled, SyncoptError> {
        let analyzed = self.analyzed(src, opts)?;
        Ok(self.compile_shared(analyzed, opts.level).into_owned())
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
        let analyzed = self.analyzed(src, &opts.on(config))?;
        let compiled = self.compile_shared(analyzed, opts.level);
        self.run_shared(compiled, config).map(SharedRun::into_owned)
    }

    /// Analyzes `src` once and runs it twice from that analysis — at
    /// [`OptLevel::Blocking`] and at `opts.level` — on `config`.
    ///
    /// # Errors
    ///
    /// Returns frontend, lowering, or simulation errors from either run.
    pub(crate) fn profile(
        &mut self,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> Result<ProfileReport, SyncoptError> {
        let analyzed = self.analyzed(src, &opts.on(config))?;
        let mut report = |level| {
            let compiled = self.compile_shared(analyzed.clone(), level);
            self.run_shared(compiled, config)
                .map(|run| run.compiled.report)
        };
        Ok(ProfileReport {
            blocking: report(OptLevel::Blocking)?,
            optimized: report(opts.level)?,
        })
    }

    /// The race detector's classification of every conflicting data pair
    /// (cached per source text and processor count).
    pub(crate) fn races(&mut self, analyzed: &Analyzed) -> Arc<RaceAnalysis> {
        self.derived("races", "races.v1", analyzed, syncopt_core::classify_races)
    }

    /// The full lint suite, including fence-coverage verification at
    /// every optimization level (cached per source text and processor
    /// count).
    pub(crate) fn lint(&mut self, analyzed: &Analyzed) -> Arc<LintReport> {
        self.derived("lint", "lint.v1", analyzed, crate::lint::lint_with_analysis)
    }

    /// Delay-set provenance: why each `D_SS` pair was kept or dropped
    /// (cached per source text and processor count).
    pub(crate) fn explain(&mut self, analyzed: &Analyzed) -> Arc<ExplainReport> {
        self.derived("explain", "explain.v1", analyzed, syncopt_core::explain)
    }

    /// An artifact derived from the source CFG and its analysis, keyed by
    /// the request's raw-source key, `tag` and the processor count.
    fn derived<T: Send + Sync + 'static>(
        &mut self,
        kind: &'static str,
        tag: &str,
        analyzed: &Analyzed,
        build: impl FnOnce(&Cfg, &Analysis, &SyncOptions) -> T,
    ) -> Arc<T> {
        let build = || {
            build(
                analyzed.source_cfg(),
                &analyzed.analysis,
                &analyzed.opts.sync_options(),
            )
        };
        match analyzed.src_key {
            Some(src) => {
                let key = || src.push(tag).push(&procs_part(analyzed.opts.procs));
                self.cache.get_or_with(kind, key, build)
            }
            None => Arc::new(build()),
        }
    }

    // ---- internal cached pipeline stages --------------------------------

    /// The first stage: the source CFG of `src` and its analysis for
    /// `opts`. The CFG is the `cfg` entry under the raw source text; on a
    /// miss `src` is parsed, type-checked, inlined and lowered, each step
    /// timed as its own phase (on a hit the lookup is timed as `parse` and
    /// the other three record 0). Failures are returned, never cached.
    pub(crate) fn analyzed(
        &mut self,
        src: &str,
        opts: &SessionOptions,
    ) -> Result<Analyzed, SyncoptError> {
        let mut timings = PhaseTimings::new(opts.trace >= TraceLevel::Phases);
        let src_key = self.cache.enabled().then(|| src_fingerprint(src));
        let cache = &mut self.cache;
        let lookup = timings.time("parse", || {
            match src_key.and_then(|key| cache.get::<Keyed<Cfg>>("cfg", key)) {
                Some(hit) => Ok(Lookup::Hit(hit)),
                None => syncopt_frontend::parse_program(src).map(Lookup::Miss),
            }
        })?;
        let source = match lookup {
            Lookup::Hit(source) => {
                for phase in ["typeck", "inline", "lower"] {
                    timings.record(phase, 0);
                }
                source
            }
            Lookup::Miss(program) => {
                timings.time("typeck", || syncopt_frontend::typeck::check(&program))?;
                let inlined = timings.time("inline", || {
                    syncopt_frontend::inline::inline_program(program)
                })?;
                let cfg = timings.time("lower", || syncopt_ir::lower::lower_main(&inlined))?;
                let source = Arc::new(Keyed::new(cfg, "analysis.v2", |cfg| cfg));
                if let Some(key) = src_key {
                    cache.insert_arc("cfg", key, Arc::clone(&source));
                }
                source
            }
        };
        let analysis = timings.time("analyze", || {
            cache.get_or_with(
                "analysis",
                || source.text_key().push(&procs_part(opts.procs)),
                || syncopt_core::analyze_with(&source.artifact, &opts.sync_options()),
            )
        });
        Ok(Analyzed {
            src_key,
            opts: *opts,
            source,
            analysis,
            timings,
        })
    }

    /// The second stage: `analyzed` optimized at `level`.
    pub(crate) fn compile_shared(
        &mut self,
        mut analyzed: Analyzed,
        level: OptLevel,
    ) -> SharedCompiled {
        let (source, analysis) = (&analyzed.source, &analyzed.analysis);
        let SessionOptions { procs, delay, .. } = analyzed.opts;
        let mut timings = std::mem::take(&mut analyzed.timings);
        let cache = &mut self.cache;
        let optimized: Arc<Keyed<Optimized>> = timings.time("optimize", || {
            let key = || {
                source
                    .text_key()
                    .push("opt.v2")
                    .push(&procs_part(procs))
                    .push(level_label(level))
                    .push(delay_label(delay))
            };
            cache.get_or_with("opt", key, || {
                let mut optimized =
                    syncopt_codegen::optimize(&source.artifact, analysis, level, delay);
                // Every source text with this canonical CFG shares the
                // artifact; `into_owned` puts each request's own spans back.
                for id in source.artifact.accesses.ids() {
                    optimized.cfg.accesses.info_mut(id).span = Span::dummy();
                }
                Keyed::new(optimized, "sim.v2", |optimized| &optimized.cfg)
            })
        });
        let report = PipelineReport {
            meta: meta_for(procs.unwrap_or(0), level, delay, None),
            timings,
            analysis: analysis.stats(),
            counters: analysis.metrics,
            codegen: optimized.artifact.stats,
            sim: None,
        };
        SharedCompiled {
            analyzed,
            optimized,
            report,
        }
    }

    /// The third stage: `compiled` simulated on `config`.
    pub(crate) fn run_shared(
        &mut self,
        mut compiled: SharedCompiled,
        config: &MachineConfig,
    ) -> Result<SharedRun, SyncoptError> {
        let opts = compiled.analyzed.opts;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::Query;
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

    /// `src` through the three stages of a run.
    fn shared_run(
        s: &mut AnalysisSession,
        src: &str,
        opts: &SessionOptions,
        config: &MachineConfig,
    ) -> SharedRun {
        let analyzed = s.analyzed(src, opts).unwrap();
        let compiled = s.compile_shared(analyzed, opts.level);
        s.run_shared(compiled, config).unwrap()
    }

    #[test]
    fn warm_compile_is_identical_and_all_hits() {
        let mut s = AnalysisSession::new();
        let cold = s.compile(SRC, &opts(4)).unwrap();
        assert!(s.cache_stats().misses > 0);
        let before = s.cache_stats();
        let warm = s.compile(SRC, &opts(4)).unwrap();
        assert_eq!(cold.report, warm.report);
        assert_eq!(
            syncopt_ir::print::cfg_to_string(&cold.optimized.cfg),
            syncopt_ir::print::cfg_to_string(&warm.optimized.cfg)
        );
        let stats = s.cache_stats().since(before);
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
                run.compiled.analyzed.source_cfg().blocks.as_ptr(),
                run.compiled.optimized().cfg.blocks.as_ptr(),
                run.sim.proc_cycles.as_ptr(),
            )
        };

        let mut s = AnalysisSession::new();
        let shared = shared_run(&mut s, SRC, &opts(4), &config);
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
        let shared = shared_run(&mut s, SRC, &opts(4), &config);
        let cached = buffers(&shared);
        let copy = shared.into_owned();
        assert_ne!(copy.compiled.source_cfg.blocks.as_ptr(), cached.0);
        assert_ne!(copy.sim.proc_cycles.as_ptr(), cached.2);
        let before = s.cache_stats();
        s.run(SRC, &opts(4), &config).unwrap();
        let delta = s.cache_stats().since(before);
        assert_eq!(delta.misses, 0, "the cache lost an entry");
    }

    /// A session without a cache runs the same stages to the same answers
    /// and derives none of the keys: no source text hashed, no CFG
    /// printed, nothing looked up, nothing kept. That holds for every
    /// stage and for every shape of query, which is what lets a one-shot
    /// entry point run uncached.
    #[test]
    fn a_session_of_capacity_zero_derives_no_key_and_keeps_nothing() {
        let config = MachineConfig::cm5(4);
        let mut off = AnalysisSession::with_capacity(0);
        for _ in 0..2 {
            let run = shared_run(&mut off, SRC, &opts(4), &config);
            let analyzed = &run.compiled.analyzed;
            assert!(analyzed.src_key.is_none());
            assert!(analyzed.source.text_key.get().is_none());
            assert!(run.compiled.optimized.text_key.get().is_none());
            assert_eq!(Arc::strong_count(&analyzed.source), 1);
            assert_eq!(Arc::strong_count(&analyzed.analysis), 1);
            assert_eq!(Arc::strong_count(&run.compiled.optimized), 1);
            assert_eq!(Arc::strong_count(&run.sim), 1);
            let mut on = AnalysisSession::new();
            let cached = shared_run(&mut on, SRC, &opts(4), &config);
            assert!(cached.compiled.analyzed.src_key.is_some());
            assert!(cached.compiled.analyzed.source.text_key.get().is_some());
            assert_eq!(run.report(), cached.report());
            // The stages over the analysis go the same way.
            let on_analyzed = &cached.compiled.analyzed;
            let lint = off.lint(analyzed);
            assert_eq!(Arc::strong_count(&lint), 1);
            assert_eq!(format!("{lint:?}"), format!("{:?}", on.lint(on_analyzed)));
            let races = off.races(analyzed);
            assert_eq!(format!("{races:?}"), format!("{:?}", on.races(on_analyzed)));
            let explain = off.explain(analyzed);
            let cached_explain = on.explain(on_analyzed);
            assert_eq!(format!("{explain:?}"), format!("{cached_explain:?}"));
        }
        assert_eq!(off.cache_stats(), CacheStats::default());
        assert_eq!((off.cached_artifacts(), off.cache_capacity()), (0, 0));
        assert!(off.kind_counters().is_empty());
        // So do whole commands, in every shape a query takes: no reply key
        // is derived, every request answers afresh, and the answer is a
        // cached session's.
        let query = |command: &str| Query {
            command: command.to_string(),
            source: Some(SRC.to_string()),
            ..Query::default()
        };
        let sourceless = |command: &str| Query {
            source: None,
            ..query(command)
        };
        let shapes = [
            query("analyze"),
            query("check"),
            Query {
                strict: true,
                ..query("check")
            },
            Query {
                kernels: true,
                ..sourceless("check")
            },
            query("explain"),
            Query {
                pair: Some((0, 2)),
                ..query("explain")
            },
            query("lint"),
            Query {
                kernels: true,
                ..sourceless("lint")
            },
            Query {
                seeded: Some("lock-cycle".to_string()),
                ..sourceless("lint")
            },
            query("litmus"),
            Query {
                dump: true,
                ..query("opt")
            },
            query("profile"),
            query("run"),
            Query {
                emit_report: Some("report.json".to_string()),
                ..query("run")
            },
            query("trace"),
        ];
        for q in shapes {
            let cached = crate::commands::execute(&mut AnalysisSession::new(), &q);
            assert!(
                cached.failure.is_none() || q.command == "check",
                "{q:?}: {cached:?}"
            );
            for _ in 0..2 {
                let mut answered = 0;
                let replied = off.reply(
                    || unreachable!("a disabled cache derived a reply key"),
                    |session| {
                        answered += 1;
                        crate::commands::execute(session, &q)
                    },
                );
                let Replied::Built(out, None) = replied else {
                    panic!("a disabled cache stored or served a reply");
                };
                assert_eq!((out, answered), (cached.clone(), 1), "{q:?}");
                assert_eq!(crate::commands::execute(&mut off, &q), cached, "{q:?}");
            }
        }
        assert_eq!(off.cache_stats(), CacheStats::default());
        assert_eq!(off.cached_artifacts(), 0);
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
                let r = shared_run(&mut s, SRC, &o, &config);
                let c = &r.compiled;
                assert_eq!(
                    c.analyzed.source.text_key(),
                    canonical("analysis.v2", c.analyzed.source_cfg())
                );
                assert_eq!(
                    c.optimized.text_key(),
                    canonical("sim.v2", &c.optimized().cfg)
                );
            }
        }
        // The keys the session looked up are the documented ones, part for
        // part: extending a memoized stem is hashing the parts in order.
        let source = s.analyzed(SRC, &opts(4)).unwrap();
        let stem = canonical("analysis.v2", source.source_cfg());
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

        // The remaining storage kinds, each with its element count and
        // type, and a float constant: `1.5` is the second of the five
        // expression nodes (`0`, `1.5`, `d[0]`, its `0`, `1`).
        let kinds = "shared double X; flag G[2]; lock L;\n\
                     fn main() { double d[3]; d[0] = 1.5; lock L; X = d[0]; unlock L; post G[1]; }";
        let cfg = s.analyzed(kinds, &opts(4)).unwrap().source;
        let key = Fingerprint::of("analysis.v2").push_u64(4);
        let key = key.push("X").push("shared").push_u64(0).push("double");
        let key = key.push("G").push("flag[]").push_u64(2).push("flag");
        let key = key.push("L").push("lock").push_u64(0).push("lock");
        let key = key.push("d").push("local[]").push_u64(3).push("double");
        let key = key.push_u64(1).push_u64(1.5f64.to_bits()).push_u64(5);
        assert_eq!(cfg.text_key(), key.push(&cfg_to_string(&cfg.artifact)));
    }

    /// The canonical-text keys of the kernels at 16 processors, as the
    /// `format!` printer that came before the one-buffer writer made them:
    /// the source CFG's `analysis.v2` stem, then the optimized CFG's
    /// `sim.v2` stem at `Blocking`, `Pipelined`, `OneWay` and `Full`.
    #[test]
    fn kernel_canonical_keys_keep_their_fingerprints() {
        const PINNED: [(&str, &str, [&str; 4]); 5] = [
            (
                "Ocean",
                "0d921f6a0268f420e9c030509f3d3298",
                [
                    "ef950333df46120362a5b8526cf21b71",
                    "547944e93170236bc975decc43cf992a",
                    "b8117674cef60cf5cc94e0e68b62d559",
                    "b8117674cef60cf5cc94e0e68b62d559",
                ],
            ),
            (
                "EM3D",
                "e325bd404126d4fe13721e33a85da8d7",
                [
                    "dc120fb6c9906d351841739c2a2c2497",
                    "47e46b10086caaded440c0734f592133",
                    "5f699b5676116948174ed64c21151811",
                    "5f699b5676116948174ed64c21151811",
                ],
            ),
            (
                "Epithel",
                "1d958bdf0e2b82abf080a73a3058dee2",
                [
                    "13615606277fa066f7bdb43f1759c1ed",
                    "0aaba964f3b00dcbcea2bed39f61bc53",
                    "8bbeb5693e23b1a12ae9536848ba8df2",
                    "8bbeb5693e23b1a12ae9536848ba8df2",
                ],
            ),
            (
                "Cholesky",
                "c0560dcc6755e389717d0f2bded51fa1",
                [
                    "6163d462e6e9c49b6c6d908c92b99625",
                    "29f03778712a8cf23010ef8939201810",
                    "29f03778712a8cf23010ef8939201810",
                    "3e613fc8710debf6d040683f84a146ea",
                ],
            ),
            (
                "Health",
                "fb51b446ba3cd3cb3ec4fe98b539f81f",
                [
                    "05be4c5a1983a95dd8606671df32148b",
                    "045b5ebfedbf40b40dc25e68cafc8431",
                    "045b5ebfedbf40b40dc25e68cafc8431",
                    "045b5ebfedbf40b40dc25e68cafc8431",
                ],
            ),
        ];
        let levels = [
            OptLevel::Blocking,
            OptLevel::Pipelined,
            OptLevel::OneWay,
            OptLevel::Full,
        ];
        let mut s = AnalysisSession::new();
        let kernels = syncopt_kernels::all_kernels(16);
        assert_eq!(kernels.len(), PINNED.len());
        for (k, (name, source, optimized)) in kernels.iter().zip(PINNED) {
            assert_eq!(k.name, name);
            let analyzed = s.analyzed(&k.source, &opts(16)).unwrap();
            assert_eq!(analyzed.source.text_key().to_string(), source, "{name}");
            for (level, pinned) in levels.into_iter().zip(optimized) {
                let compiled = s.compile_shared(analyzed.clone(), level);
                let key = compiled.optimized.text_key().to_string();
                assert_eq!(key, pinned, "{name} at {level:?}");
            }
        }
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
        // One `cfg` and one `analysis` lookup: both levels read the one
        // analysis the request made, and each optimizes and simulates.
        let kinds = s.kind_counters();
        let count = |kind: &str, what: &str| kinds.get(&format!("cache.{kind}.{what}"));
        for (kind, misses) in [("cfg", 1), ("analysis", 1), ("opt", 2), ("sim", 2)] {
            let counts = (count(kind, "hits"), count(kind, "misses"));
            assert_eq!(counts, (0, misses), "{kind}");
        }
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
        // The source parses but fails type checking: nothing is kept.
        assert_eq!(s.cached_artifacts(), 0);
    }
}
