//! The shared command engine behind `syncoptc` and `syncoptd`.
//!
//! Every user-facing subcommand (`analyze`, `opt`, `run`, `trace`,
//! `explain`, `profile`, `litmus`, `check`, `lint`) is a pure function
//! from a [`Query`] to a [`CmdOut`]: the exact bytes for stdout, an
//! optional file artifact (written by the *caller*, so a daemon never
//! touches the client's filesystem), and an optional failure message for
//! stderr + exit code 1. The CLI running a query directly and the daemon
//! serving it over `syncopt.rpc.v1` both dispatch through [`execute`],
//! which is what makes daemon-mode output byte-identical to direct-mode
//! output.
//!
//! With `--format json` every command emits exactly one schema-versioned
//! JSON document on stdout; diagnostics and progress notes go to stderr.

use crate::report::{delay_cli_label, delay_label, level_label};
use crate::rpc::Answer;
use crate::session::{AnalysisSession, Analyzed, Replied, SessionOptions, SharedRun};
use crate::{DelayChoice, OptLevel, SyncoptError, TraceLevel, DEFAULT_TRACE_LIMIT};
use std::fmt::Write as _;
use std::sync::Arc;
use syncopt_core::diag::json::{self, key, write_array, write_escaped, write_int, Key, Obj};
use syncopt_core::diag::{sort_diagnostics, Diagnostic, Severity};
use syncopt_core::races::{race_diagnostics, RaceAnalysis};
use syncopt_core::LINT_SCHEMA;
use syncopt_frontend::fingerprint::Fingerprint;
use syncopt_machine::litmus::{sc_outcomes, weak_outcomes, Outcome};
use syncopt_machine::MachineConfig;

/// Schema identifier of the `check` JSON document.
pub const CHECK_SCHEMA: &str = "syncopt.check.v1";
/// Schema identifier of the `analyze` JSON document.
pub const ANALYSIS_SCHEMA: &str = "syncopt.analysis.v1";
/// Schema identifier of the `opt` JSON document.
pub const OPT_SCHEMA: &str = "syncopt.opt.v1";
/// Schema identifier of the `litmus` JSON document.
pub const LITMUS_SCHEMA: &str = "syncopt.litmus.v1";

/// Output format of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable text/tables.
    #[default]
    Human,
    /// One schema-versioned JSON document on stdout.
    Json,
}

impl Format {
    /// The stable wire label (`human` / `json`).
    pub fn label(self) -> &'static str {
        match self {
            Format::Human => "human",
            Format::Json => "json",
        }
    }

    /// Parses a wire/CLI label.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" | "table" => Some(Format::Human),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// One command request: which subcommand to run, over what source, with
/// which pipeline knobs. This is the unit the daemon protocol serializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Subcommand: `analyze`, `opt`, `run`, `trace`, `explain`,
    /// `profile`, `litmus`, `check`, or `lint`.
    pub command: String,
    /// Display name for diagnostics (usually the input path).
    pub file: String,
    /// The program text. `None` for kernel/seeded queries, which carry
    /// their own sources.
    pub source: Option<String>,
    /// Processor count to analyze/simulate for.
    pub procs: u32,
    /// Optimization level.
    pub level: OptLevel,
    /// Delay-set choice.
    pub delay: DelayChoice,
    /// Machine preset name (`cm5`, `t3d`, `dash`).
    pub machine: String,
    /// `opt --dump`: print the optimized CFG.
    pub dump: bool,
    /// `opt --dot`: emit Graphviz.
    pub dot: bool,
    /// `run --trace`: capture and print the first events.
    pub trace: bool,
    /// `check`/`lint --strict`: promote warnings to errors.
    pub strict: bool,
    /// `check`/`lint --kernels`: run over every built-in kernel.
    pub kernels: bool,
    /// Output format.
    pub format: Format,
    /// `run --emit-report PATH`: also produce the pipeline-report JSON
    /// as a file artifact.
    pub emit_report: Option<String>,
    /// `trace --out PATH`: produce the Chrome-trace JSON as a file
    /// artifact.
    pub out: Option<String>,
    /// Trace event cap.
    pub trace_limit: Option<usize>,
    /// `explain --pair a b`: restrict to one access pair.
    pub pair: Option<(u32, u32)>,
    /// Diagnostic codes forced to error.
    pub deny: Vec<String>,
    /// Diagnostic codes demoted to note.
    pub allow: Vec<String>,
    /// `lint --seeded NAME`: a built-in seeded example.
    pub seeded: Option<String>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            command: String::new(),
            file: String::new(),
            source: None,
            procs: 4,
            level: OptLevel::Pipelined,
            delay: DelayChoice::SyncRefined,
            machine: "cm5".to_string(),
            dump: false,
            dot: false,
            trace: false,
            strict: false,
            kernels: false,
            format: Format::Human,
            emit_report: None,
            out: None,
            trace_limit: None,
            pair: None,
            deny: Vec::new(),
            allow: Vec::new(),
            seeded: None,
        }
    }
}

/// The value of one [`Query`] field, as [`Query::walk`] hands it out.
pub(crate) enum Field<'a> {
    Str(&'a str),
    Int(u64),
    Bool(bool),
    Pair(u32, u32),
    List(&'a [String]),
}

impl Query {
    /// Hands every field that has a value to `visit`, under its wire name
    /// and in wire order; a `None` or an empty list is left out, which is
    /// what the default means. The request writer of [`crate::rpc`] writes this
    /// walk and the `reply` key hashes it, so every field on the wire is
    /// in the key. The destructuring names every field, so a field added
    /// to `Query` does not compile until it is walked.
    pub(crate) fn walk<'a>(&'a self, mut visit: impl FnMut(Key, Field<'a>)) {
        let Query {
            command,
            file,
            source,
            procs,
            level,
            delay,
            machine,
            dump,
            dot,
            trace,
            strict,
            kernels,
            format,
            emit_report,
            out,
            trace_limit,
            pair,
            deny,
            allow,
            seeded,
        } = self;
        visit(key!("command"), Field::Str(command));
        visit(key!("file"), Field::Str(file));
        if let Some(source) = source {
            visit(key!("source"), Field::Str(source));
        }
        visit(key!("procs"), Field::Int(u64::from(*procs)));
        visit(key!("level"), Field::Str(level_label(*level)));
        visit(key!("delay"), Field::Str(delay_cli_label(*delay)));
        visit(key!("machine"), Field::Str(machine));
        visit(key!("dump"), Field::Bool(*dump));
        visit(key!("dot"), Field::Bool(*dot));
        visit(key!("trace"), Field::Bool(*trace));
        visit(key!("strict"), Field::Bool(*strict));
        visit(key!("kernels"), Field::Bool(*kernels));
        visit(key!("format"), Field::Str(format.label()));
        if let Some(path) = emit_report {
            visit(key!("emit_report"), Field::Str(path));
        }
        if let Some(path) = out {
            visit(key!("out"), Field::Str(path));
        }
        if let Some(limit) = trace_limit {
            visit(key!("trace_limit"), Field::Int(*limit as u64));
        }
        if let Some((a, b)) = pair {
            visit(key!("pair"), Field::Pair(*a, *b));
        }
        for (name, codes) in [(key!("deny"), deny), (key!("allow"), allow)] {
            if !codes.is_empty() {
                visit(name, Field::List(codes));
            }
        }
        if let Some(name) = seeded {
            visit(key!("seeded"), Field::Str(name));
        }
    }
}

/// A file artifact a query produced. The caller — the CLI process, never
/// the daemon — writes `content` to `path` and prints `note` to stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileOutput {
    /// Destination path (as given by the user).
    pub path: String,
    /// File contents.
    pub content: String,
    /// Progress note for stderr.
    pub note: String,
}

/// The complete, deterministic result of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CmdOut {
    /// Exact bytes for stdout.
    pub stdout: String,
    /// Optional file artifact (e.g. `run --emit-report`, `trace --out`).
    pub file: Option<FileOutput>,
    /// Failure message for stderr; its presence means exit code 1.
    pub failure: Option<String>,
}

impl CmdOut {
    fn ok(stdout: String) -> CmdOut {
        CmdOut {
            stdout,
            file: None,
            failure: None,
        }
    }

    fn fail(msg: String) -> CmdOut {
        CmdOut {
            stdout: String::new(),
            file: None,
            failure: Some(msg),
        }
    }
}

/// Runs one query against a session as one request. A query the session
/// has answered before is answered from its stored answer (the `reply`
/// artifact, keyed by the raw source and every other field), decoded;
/// any other query finds every artifact it needs in — or inserts it
/// into — the session's content-addressed cache, so repeated queries over
/// unchanged sources reuse prior work while producing byte-identical
/// output. Traces are never stored: `trace` and `run --trace` always run.
pub fn execute(session: &mut AnalysisSession, q: &Query) -> CmdOut {
    match reply(session, q) {
        Replied::Stored(answer) => answer.decode(),
        Replied::Built(out, _) => out,
    }
}

/// [`execute`] for a server: the answer in its wire form. A hit hands back
/// the stored answer itself, so nothing is copied or encoded again; a
/// miss encodes the answer it stores, and a request that is not stored is
/// encoded for this reply alone.
pub fn answer(session: &mut AnalysisSession, q: &Query) -> Arc<Answer> {
    match reply(session, q) {
        Replied::Stored(answer) | Replied::Built(_, Some(answer)) => answer,
        Replied::Built(out, None) => Arc::new(Answer::encode(&out)),
    }
}

fn reply(session: &mut AnalysisSession, q: &Query) -> Replied {
    let stored = q.command != "trace" && !q.trace;
    session.reply(
        || stored.then(|| query_key(q)),
        |session| dispatch(session, q),
    )
}

/// The `reply` key of `q`: every field of [`Query::walk`], each as its
/// name then its value. A field left out of the walk has no name in the
/// key, and a list is hashed after its length, so no two queries run
/// together.
fn query_key(q: &Query) -> Fingerprint {
    let mut key = Fingerprint::of("reply.v2");
    q.walk(|name, value| {
        key = key.push(name.name());
        key = match value {
            Field::Str(text) => key.push(text),
            Field::Int(n) => key.push_u64(n),
            Field::Bool(b) => key.push_u64(u64::from(b)),
            Field::Pair(a, b) => key.push_u64(u64::from(a)).push_u64(u64::from(b)),
            Field::List(items) => items
                .iter()
                .fold(key.push_u64(items.len() as u64), |key, item| key.push(item)),
        };
    });
    key
}

/// What runs one query command.
type Handler = fn(&mut AnalysisSession, &Query) -> CmdOut;

/// Every query command, sorted by name, with its handler: the one list
/// [`dispatch`] looks a command up in and the daemon's `op` labels are
/// drawn from.
const COMMANDS: [(&str, Handler); 9] = [
    ("analyze", |s, q| with_analysis(s, q, cmd_analyze)),
    ("check", |s, q| {
        if q.kernels {
            cmd_check_kernels(s, q)
        } else {
            with_analysis(s, q, cmd_check)
        }
    }),
    ("explain", |s, q| with_analysis(s, q, cmd_explain)),
    ("lint", |s, q| {
        if q.kernels {
            cmd_lint_kernels(s, q)
        } else {
            cmd_lint(s, q)
        }
    }),
    ("litmus", |s, q| with_analysis(s, q, cmd_litmus)),
    ("opt", |s, q| with_source(s, q, cmd_opt)),
    ("profile", |s, q| with_source(s, q, cmd_profile)),
    ("run", |s, q| with_source(s, q, cmd_run)),
    ("trace", |s, q| with_source(s, q, cmd_trace)),
];

/// The name of every query command, sorted.
pub fn command_names() -> impl Iterator<Item = &'static str> {
    COMMANDS.iter().map(|&(name, _)| name)
}

fn dispatch(session: &mut AnalysisSession, q: &Query) -> CmdOut {
    // Every stage from the kernel generators to the simulator assumes at
    // least one processor.
    if q.procs == 0 {
        return CmdOut::fail("`procs` must be at least 1".to_string());
    }
    // What the daemon's panic containment is tested with.
    #[cfg(test)]
    if q.command == "panic" {
        panic!("the test-only command `panic` ran");
    }
    match COMMANDS.iter().find(|&&(name, _)| name == q.command) {
        Some((_, run)) => run(session, q),
        None => CmdOut::fail(format!("unknown command `{}`", q.command)),
    }
}

/// A document's one-line JSON text, ended as a line of output.
fn with_newline(mut text: String) -> String {
    text.push('\n');
    text
}

/// A JSON command's stdout: one document — its `schema`, the `file` it is
/// about (none for the kernels), the query's `procs`, then the members
/// `write` adds — and its newline.
fn document(
    schema: &str,
    file: Option<&str>,
    q: &Query,
    write: impl FnOnce(&mut Obj<'_>),
) -> String {
    let mut out = String::with_capacity(2 << 10);
    let mut o = Obj::open(&mut out);
    o.str(key!("schema"), schema);
    if let Some(file) = file {
        o.str(key!("file"), file);
    }
    o.int(key!("procs"), u64::from(q.procs));
    write(&mut o);
    o.close();
    with_newline(out)
}

/// Runs a command over the query's source file, which it needs.
fn with_source(
    session: &mut AnalysisSession,
    q: &Query,
    run: fn(&mut AnalysisSession, &str, &Query) -> CmdOut,
) -> CmdOut {
    match &q.source {
        Some(src) => run(session, src, q),
        None => needs_source(q),
    }
}

fn needs_source(q: &Query) -> CmdOut {
    CmdOut::fail(format!("command `{}` needs a source file", q.command))
}

/// Runs a command that reads the analysis of the query's source: the
/// source is analyzed once and the analysis handed down.
fn with_analysis(
    session: &mut AnalysisSession,
    q: &Query,
    run: fn(&mut AnalysisSession, &str, &Analyzed, &Query) -> CmdOut,
) -> CmdOut {
    let Some(src) = &q.source else {
        return needs_source(q);
    };
    match analyzed(session, src, &q.file, q) {
        Ok(analyzed) => run(session, src, &analyzed, q),
        Err(failed) => failed,
    }
}

/// `src` analyzed for the query's processor count, or the command's
/// failure: the frontend or lowering error rendered against `src` as
/// `file`.
fn analyzed(
    session: &mut AnalysisSession,
    src: &str,
    file: &str,
    q: &Query,
) -> Result<Analyzed, CmdOut> {
    session
        .analyzed(src, &session_options(q, OptLevel::Blocking))
        .map_err(|e| CmdOut::fail(render_err(src, file, &e)))
}

fn session_options(q: &Query, level: OptLevel) -> SessionOptions {
    SessionOptions {
        procs: Some(q.procs),
        level,
        delay: q.delay,
        trace_limit: q.trace_limit.unwrap_or(DEFAULT_TRACE_LIMIT),
        ..SessionOptions::default()
    }
}

fn machine_config(name: &str, procs: u32) -> Result<MachineConfig, String> {
    Ok(match name {
        "cm5" => MachineConfig::cm5(procs),
        "t3d" => MachineConfig::t3d(procs),
        "dash" => MachineConfig::dash(procs),
        other => return Err(format!("unknown machine `{other}`")),
    })
}

/// Renders a pipeline error for the terminal: frontend and lowering errors
/// get the rustc-style snippet (code, span, caret line); simulation errors
/// have no source span and stay one-line.
pub fn render_err(src: &str, file: &str, e: &SyncoptError) -> String {
    match e {
        SyncoptError::Sim(_) => e.to_string(),
        spanned => spanned.to_diagnostic().render(src, file),
    }
}

fn cmd_analyze(_: &mut AnalysisSession, src: &str, c: &Analyzed, q: &Query) -> CmdOut {
    let s = c.analysis.stats();
    let warnings = syncopt_core::sync_warnings(c.source_cfg());
    if q.format == Format::Json {
        return CmdOut::ok(document(ANALYSIS_SCHEMA, Some(&q.file), q, |o| {
            json::write_ints(o.key(key!("summary")), &s.fields());
            let pairs = c.analysis.delay_sync.pairs();
            write_array(o.key(key!("delay_pairs")), pairs, |out, (u, v)| {
                let ids = [(key!("u"), u.index() as u64), (key!("v"), v.index() as u64)];
                json::write_ints(out, &ids);
            });
            write_array(o.key(key!("warnings")), &warnings, |out, w| {
                write_escaped(out, &w.to_string());
            });
        }));
    }
    let mut out = String::new();
    let _ = writeln!(out, "access sites:          {}", s.accesses);
    let _ = writeln!(out, "conflicting pairs:     {}", s.conflict_pairs);
    let _ = writeln!(out, "|D_SS| (Shasha-Snir):  {}", s.delay_ss);
    let _ = writeln!(out, "|D|    (refined):      {}", s.delay_sync);
    let _ = writeln!(out, "|R|    (precedence):   {}", s.precedence_pairs);
    let _ = writeln!(out, "aligned barriers:      {}", s.aligned_barriers);
    out.push('\n');
    let _ = writeln!(out, "refined delay pairs:");
    for (u, v) in c.analysis.delay_sync.pairs() {
        let d = |a: syncopt_ir::ids::AccessId| {
            let i = c.source_cfg().accesses.info(a);
            let var = i
                .var
                .map(|v| c.source_cfg().vars.info(v).name.clone())
                .unwrap_or_default();
            let (line, col) = i.span.line_col(src);
            format!("{a} {:?} {var} @{line}:{col}", i.kind)
        };
        let _ = writeln!(out, "  {}  →  {}", d(u), d(v));
    }
    if !warnings.is_empty() {
        out.push('\n');
        for w in warnings {
            let _ = writeln!(out, "warning: {w}");
        }
    }
    CmdOut::ok(out)
}

fn cmd_opt(session: &mut AnalysisSession, src: &str, q: &Query) -> CmdOut {
    let c = match analyzed(session, src, &q.file, q) {
        Ok(analyzed) => session.compile_shared(analyzed, q.level),
        Err(failed) => return failed,
    };
    if q.format == Format::Json {
        let optimized = c.optimized();
        return CmdOut::ok(document(OPT_SCHEMA, Some(&q.file), q, |o| {
            o.str(key!("level"), level_label(q.level));
            o.str(key!("delay"), delay_label(q.delay));
            json::write_ints(o.key(key!("stats")), &optimized.stats.fields());
            if q.dump {
                o.str(
                    key!("cfg"),
                    &syncopt_ir::print::cfg_to_string(&optimized.cfg),
                );
            }
            if q.dot {
                let dot = syncopt_ir::print::cfg_to_dot(&optimized.cfg, &q.file);
                o.str(key!("dot"), &dot);
            }
        }));
    }
    if q.dot {
        return CmdOut::ok(format!(
            "{}\n",
            syncopt_ir::print::cfg_to_dot(&c.optimized().cfg, &q.file)
        ));
    }
    let mut out = format!("{:#?}\n", c.optimized().stats);
    if q.dump {
        let _ = writeln!(
            out,
            "\n{}",
            syncopt_ir::print::cfg_to_string(&c.optimized().cfg)
        );
    }
    CmdOut::ok(out)
}

/// Analyzes, optimizes and simulates `src` on the query's machine, or
/// fails the command.
fn simulate(
    session: &mut AnalysisSession,
    src: &str,
    q: &Query,
    trace: TraceLevel,
) -> Result<(SharedRun, MachineConfig), CmdOut> {
    let config = machine_config(&q.machine, q.procs).map_err(CmdOut::fail)?;
    let opts = SessionOptions {
        trace,
        ..session_options(q, q.level)
    };
    let analyzed = session.analyzed(src, &opts);
    let run = analyzed.and_then(|analyzed| {
        let compiled = session.compile_shared(analyzed, q.level);
        session.run_shared(compiled, &config)
    });
    run.map(|run| (run, config))
        .map_err(|e| CmdOut::fail(render_err(src, &q.file, &e)))
}

fn cmd_run(session: &mut AnalysisSession, src: &str, q: &Query) -> CmdOut {
    let trace = if q.trace {
        TraceLevel::Events
    } else {
        TraceLevel::Off
    };
    let (r, config) = match simulate(session, src, q, trace) {
        Ok(run) => run,
        Err(failed) => return failed,
    };
    let file = q.emit_report.as_ref().map(|path| FileOutput {
        path: path.clone(),
        content: with_newline(r.report().to_json()),
        note: format!("pipeline report written to {path}"),
    });
    if q.format == Format::Json {
        return CmdOut {
            stdout: with_newline(r.report().to_json()),
            file,
            failure: None,
        };
    }
    let mut out = String::new();
    if let Some(trace) = &r.trace {
        let _ = writeln!(out, "--- trace (first 200 events) ---");
        for e in trace.events().iter().take(200) {
            let _ = writeln!(out, "{e}");
        }
        let _ = writeln!(out, "--------------------------------");
    }
    let _ = writeln!(
        out,
        "machine:            {} × {}",
        config.procs, config.name
    );
    let _ = writeln!(out, "execution:          {} cycles", r.sim.exec_cycles);
    let _ = writeln!(out, "messages:           {}", r.sim.net.total_messages());
    let _ = writeln!(
        out,
        "  gets/replies:     {}/{}",
        r.sim.net.get_requests, r.sim.net.get_replies
    );
    let _ = writeln!(
        out,
        "  puts/acks:        {}/{}",
        r.sim.net.put_requests, r.sim.net.put_acks
    );
    let _ = writeln!(out, "  stores:           {}", r.sim.net.store_requests);
    let _ = writeln!(out, "  barriers:         {}", r.sim.net.barriers);
    let _ = writeln!(
        out,
        "stalls (cycles):    sync {} | barrier {} | wait {} | lock {} | blocking {}",
        r.sim.stalls.sync,
        r.sim.stalls.barrier,
        r.sim.stalls.wait,
        r.sim.stalls.lock,
        r.sim.stalls.blocking
    );
    let _ = writeln!(out, "barriers aligned:   {}", r.sim.barriers_aligned);
    let _ = writeln!(out, "final shared memory:");
    for (var, vals) in &r.sim.memory {
        let name = &r.compiled.analyzed.source_cfg().vars.info(*var).name;
        if vals.len() == 1 {
            let _ = writeln!(out, "  {name} = {}", vals[0]);
        } else {
            let shown: Vec<String> = vals.iter().take(16).map(|v| v.to_string()).collect();
            let ellipsis = if vals.len() > 16 { ", ..." } else { "" };
            let _ = writeln!(out, "  {name} = [{}{}]", shown.join(", "), ellipsis);
        }
    }
    CmdOut {
        stdout: out,
        file,
        failure: None,
    }
}

fn cmd_trace(session: &mut AnalysisSession, src: &str, q: &Query) -> CmdOut {
    let r = match simulate(session, src, q, TraceLevel::Events) {
        Ok((r, _)) => r,
        Err(failed) => return failed,
    };
    let trace = r.trace.as_ref().expect("Events tracing always captures");
    // The exported timeline must reproduce the cycle accounting exactly;
    // a mismatch is an instrumentation bug, not a user error.
    if !trace.truncated() {
        if let Err(e) = crate::verify_span_accounting(trace, &r.sim) {
            return CmdOut::fail(format!("trace/accounting invariant violated: {e}"));
        }
    }
    let (json, events) = crate::chrome_trace(trace, &r.sim, &r.compiled.optimized().cfg);
    match &q.out {
        Some(path) => CmdOut {
            stdout: String::new(),
            file: Some(FileOutput {
                path: path.clone(),
                content: with_newline(json),
                note: format!(
                    "trace written to {path} ({events} events{}); open in https://ui.perfetto.dev or chrome://tracing",
                    if trace.truncated() { ", TRUNCATED" } else { "" },
                ),
            }),
            failure: None,
        },
        None => CmdOut::ok(with_newline(json)),
    }
}

fn cmd_explain(session: &mut AnalysisSession, src: &str, c: &Analyzed, q: &Query) -> CmdOut {
    let mut report = (*session.explain(c)).clone();
    if let Some((a, b)) = q.pair {
        report
            .kept
            .retain(|k| (k.u.index(), k.v.index()) == (a as usize, b as usize));
        report
            .dropped
            .retain(|d| (d.u.index(), d.v.index()) == (a as usize, b as usize));
        if report.kept.is_empty() && report.dropped.is_empty() {
            return CmdOut::fail(format!(
                "pair (a{a}, a{b}) is not in D_SS — nothing to explain \
                 (run `syncoptc explain` without --pair to list all pairs)"
            ));
        }
    }
    if q.format == Format::Json {
        return CmdOut::ok(with_newline(report.to_json(c.source_cfg(), src)));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "delay-set provenance: {} kept, {} dropped (|D_SS| = {})",
        report.kept.len(),
        report.dropped.len(),
        report.kept.len() + report.dropped.len()
    );
    out.push('\n');
    for d in report.to_diagnostics(c.source_cfg()) {
        let _ = write!(out, "{}", d.render(src, &q.file));
    }
    CmdOut::ok(out)
}

fn cmd_profile(session: &mut AnalysisSession, src: &str, q: &Query) -> CmdOut {
    let config = match machine_config(&q.machine, q.procs) {
        Ok(c) => c,
        Err(e) => return CmdOut::fail(e),
    };
    let p = match session.profile(src, &session_options(q, q.level), &config) {
        Ok(p) => p,
        Err(e) => return CmdOut::fail(render_err(src, &q.file, &e)),
    };
    match q.format {
        Format::Json => CmdOut::ok(with_newline(p.to_json())),
        Format::Human => CmdOut::ok(p.render_table()),
    }
}

fn cmd_litmus(_: &mut AnalysisSession, _: &str, c: &Analyzed, q: &Query) -> CmdOut {
    let cfg = c.source_cfg();
    let sc = match sc_outcomes(cfg, q.procs) {
        Ok(s) => s,
        Err(e) => return CmdOut::fail(e.to_string()),
    };
    let none = match weak_outcomes(
        cfg,
        &syncopt_core::DelaySet::new(cfg.accesses.len()),
        q.procs,
    ) {
        Ok(s) => s,
        Err(e) => return CmdOut::fail(e.to_string()),
    };
    let refined = match weak_outcomes(cfg, &c.analysis.delay_sync, q.procs) {
        Ok(s) => s,
        Err(e) => return CmdOut::fail(e.to_string()),
    };
    if q.format == Format::Json {
        let outcomes = |out: &mut String, set: &std::collections::BTreeSet<Outcome>| {
            write_array(out, set, |out, o| {
                write_array(out, o, |out, &v| write_int(out, v));
            });
        };
        return CmdOut::ok(document(LITMUS_SCHEMA, Some(&q.file), q, |o| {
            outcomes(o.key(key!("sc")), &sc);
            outcomes(o.key(key!("weak_no_delays")), &none);
            outcomes(o.key(key!("weak_refined")), &refined);
            o.bool(key!("refined_preserves_sc"), refined.is_subset(&sc));
        }));
    }
    let mut out = String::new();
    let _ = writeln!(out, "SC outcomes:                 {sc:?}");
    let _ = writeln!(out, "weak outcomes, no delays:    {none:?}");
    let _ = writeln!(out, "weak outcomes, refined D:    {refined:?}");
    let _ = writeln!(
        out,
        "refined D preserves SC:      {}",
        refined.is_subset(&sc)
    );
    CmdOut::ok(out)
}

/// Everything `check` computes for one program.
struct CheckOutcome {
    races: Arc<RaceAnalysis>,
    diags: Vec<Diagnostic>,
}

impl CheckOutcome {
    fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }
}

/// Runs the race detector and the synchronization warnings over an
/// analyzed program, merging both into one sorted diagnostic list.
/// `--strict` additionally runs the full lint suite and promotes warnings
/// to errors; `--deny` / `--allow` override per-code severities first (so
/// `--allow` wins over the strict promotion).
fn run_check(session: &mut AnalysisSession, analyzed: &Analyzed, q: &Query) -> CheckOutcome {
    let cfg = analyzed.source_cfg();
    let races = session.races(analyzed);
    let mut diags = race_diagnostics(cfg, &races);
    for w in syncopt_core::sync_warnings(cfg) {
        diags.push(w.to_diagnostic(cfg));
    }
    if q.strict {
        diags.extend(session.lint(analyzed).diagnostics.iter().cloned());
    }
    finalize_diagnostics(&mut diags, q);
    CheckOutcome { races, diags }
}

/// Applies `--deny`/`--allow` severity overrides, then the `--strict`
/// warning→error promotion, then the canonical sort.
fn finalize_diagnostics(diags: &mut [Diagnostic], q: &Query) {
    syncopt_core::apply_severity_overrides(diags, &q.deny, &q.allow);
    if q.strict {
        for d in diags.iter_mut() {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }
    sort_diagnostics(diags);
}

/// Appends the `summary` object of a `check` document.
fn write_check_summary(out: &mut String, outcome: &CheckOutcome) {
    let races = &outcome.races;
    let mut o = Obj::open(out);
    o.ints(&[
        (key!("errors"), outcome.errors() as u64),
        (key!("warnings"), outcome.count(Severity::Warning) as u64),
        (key!("notes"), outcome.count(Severity::Note) as u64),
        (
            key!("conflicting_pairs"),
            (races.races.len() + races.ordered.len()) as u64,
        ),
        (key!("ordered"), races.ordered.len() as u64),
        (key!("races"), races.races.len() as u64),
        (key!("proven_races"), races.proven() as u64),
    ]);
    o.bool(key!("race_free"), races.race_free());
    o.close();
}

fn cmd_check(session: &mut AnalysisSession, src: &str, c: &Analyzed, q: &Query) -> CmdOut {
    let outcome = run_check(session, c, q);
    let mut out = String::new();
    match q.format {
        Format::Json => {
            out = document(CHECK_SCHEMA, Some(&q.file), q, |o| {
                write_check_summary(o.key(key!("summary")), &outcome);
                write_array(o.key(key!("diagnostics")), &outcome.diags, |out, d| {
                    d.write_json(out, src);
                });
            });
        }
        Format::Human => {
            for d in &outcome.diags {
                let _ = writeln!(out, "{}", d.render(src, &q.file));
            }
            let r = &outcome.races;
            let _ = writeln!(
                out,
                "{}: {} conflicting data pair(s): {} ordered, {} potentially racy ({} proven)",
                q.file,
                r.races.len() + r.ordered.len(),
                r.ordered.len(),
                r.races.len(),
                r.proven()
            );
            let _ = writeln!(
                out,
                "{} error(s), {} warning(s), {} note(s)",
                outcome.errors(),
                outcome.count(Severity::Warning),
                outcome.count(Severity::Note)
            );
        }
    }
    let failure =
        (outcome.errors() > 0).then(|| format!("check failed: {} error(s)", outcome.errors()));
    CmdOut {
        stdout: out,
        file: None,
        failure,
    }
}

fn cmd_check_kernels(session: &mut AnalysisSession, q: &Query) -> CmdOut {
    let mut failed = 0usize;
    let mut rows = Vec::new();
    for kernel in syncopt_kernels::all_kernels(q.procs) {
        let outcome = match analyzed(session, &kernel.source, kernel.name, q) {
            Ok(analyzed) => run_check(session, &analyzed, q),
            Err(failed) => return failed,
        };
        failed += usize::from(outcome.errors() > 0);
        rows.push((kernel.name, outcome));
    }
    let mut out = String::new();
    match q.format {
        Format::Json => {
            out = document(CHECK_SCHEMA, None, q, |o| {
                write_array(o.key(key!("kernels")), &rows, |out, (name, outcome)| {
                    let mut kernel = Obj::open(out);
                    kernel.str(key!("name"), name);
                    write_check_summary(kernel.key(key!("summary")), outcome);
                    kernel.close();
                });
            });
        }
        Format::Human => {
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>8} {:>6} {:>7} {:>6} {:>6}",
                "kernel", "conflicts", "ordered", "races", "proven", "warns", "notes"
            );
            for (name, outcome) in &rows {
                let r = &outcome.races;
                let _ = writeln!(
                    out,
                    "{:<10} {:>9} {:>8} {:>6} {:>7} {:>6} {:>6}",
                    name,
                    r.races.len() + r.ordered.len(),
                    r.ordered.len(),
                    r.races.len(),
                    r.proven(),
                    outcome.count(Severity::Warning),
                    outcome.count(Severity::Note)
                );
            }
            let racy: Vec<&str> = rows
                .iter()
                .filter(|(_, o)| !o.races.race_free())
                .map(|(n, _)| *n)
                .collect();
            if racy.is_empty() {
                let _ = writeln!(out, "all {} kernel(s) race-free", rows.len());
            } else {
                let _ = writeln!(out, "race reports in: {}", racy.join(", "));
            }
        }
    }
    let failure = (failed > 0).then(|| format!("check failed: {failed} kernel(s) with errors"));
    CmdOut {
        stdout: out,
        file: None,
        failure,
    }
}

fn cmd_lint(session: &mut AnalysisSession, q: &Query) -> CmdOut {
    let (src, display) = match &q.seeded {
        Some(name) => match syncopt_kernels::seeded::seeded_example(name) {
            Some(ex) => (ex.source.to_string(), format!("seeded:{name}")),
            None => {
                let names: Vec<&str> = syncopt_kernels::seeded::seeded_examples()
                    .iter()
                    .map(|e| e.name)
                    .collect();
                return CmdOut::fail(format!(
                    "unknown seeded example `{name}` (available: {})",
                    names.join(", ")
                ));
            }
        },
        None => match &q.source {
            Some(src) => (src.clone(), q.file.clone()),
            None => return needs_source(q),
        },
    };
    let mut report = match analyzed(session, &src, &display, q) {
        Ok(analyzed) => (*session.lint(&analyzed)).clone(),
        Err(failed) => return failed,
    };
    finalize_diagnostics(&mut report.diagnostics, q);
    let mut out = String::new();
    match q.format {
        Format::Json => {
            report.write_json(&mut out, &src, &display, q.procs);
            out.push('\n');
        }
        Format::Human => {
            for d in &report.diagnostics {
                let _ = writeln!(out, "{}", d.render(&src, &display));
            }
            for p in &report.passes {
                let _ = writeln!(
                    out,
                    "pass {:<15} [{}]: {} finding(s)",
                    p.name,
                    p.codes.join(", "),
                    p.findings
                );
            }
            for f in &report.fence_levels {
                let _ = writeln!(
                    out,
                    "fences @ {:<9}: {} live delay pair(s), {} fence(s), all covered",
                    f.label, f.delay_pairs, f.fences
                );
            }
            let _ = writeln!(
                out,
                "{} error(s), {} warning(s), {} note(s)",
                report.errors(),
                report.count(Severity::Warning),
                report.count(Severity::Note)
            );
        }
    }
    let failure =
        (report.errors() > 0).then(|| format!("lint failed: {} error(s)", report.errors()));
    CmdOut {
        stdout: out,
        file: None,
        failure,
    }
}

fn cmd_lint_kernels(session: &mut AnalysisSession, q: &Query) -> CmdOut {
    let mut failed = 0usize;
    let mut rows = Vec::new();
    for kernel in syncopt_kernels::all_kernels(q.procs) {
        let mut report = match analyzed(session, &kernel.source, kernel.name, q) {
            Ok(analyzed) => (*session.lint(&analyzed)).clone(),
            Err(failed) => return failed,
        };
        finalize_diagnostics(&mut report.diagnostics, q);
        failed += usize::from(report.errors() > 0);
        rows.push((kernel.name, kernel.source.clone(), report));
    }
    let mut out = String::new();
    match q.format {
        Format::Json => {
            out = document(LINT_SCHEMA, None, q, |o| {
                write_array(o.key(key!("kernels")), &rows, |out, (name, src, report)| {
                    report.write_json(out, src, name, q.procs);
                });
            });
        }
        Format::Human => {
            let _ = writeln!(
                out,
                "{:<10} {:>7} {:>6} {:>6} {:>6}  fences(blocking→full)",
                "kernel", "errors", "warns", "notes", "D/L/F"
            );
            for (name, _, report) in &rows {
                let dlf = report
                    .passes
                    .iter()
                    .map(|p| p.findings.to_string())
                    .collect::<Vec<_>>();
                let fences = report
                    .fence_levels
                    .iter()
                    .map(|f| f.fences.to_string())
                    .collect::<Vec<_>>();
                let _ = writeln!(
                    out,
                    "{:<10} {:>7} {:>6} {:>6} {:>6}  {}",
                    name,
                    report.errors(),
                    report.count(Severity::Warning),
                    report.count(Severity::Note),
                    dlf.join("/"),
                    fences.join("→")
                );
            }
        }
    }
    let failure = (failed > 0).then(|| format!("lint failed: {failed} kernel(s) with errors"));
    CmdOut {
        stdout: out,
        file: None,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }";

    fn query(command: &str, format: Format) -> Query {
        Query {
            command: command.to_string(),
            file: "test.ms".to_string(),
            source: Some(SRC.to_string()),
            format,
            ..Query::default()
        }
    }

    /// Every command, and `check` and `lint` over the kernels too (which
    /// run without a source), writes one schema-versioned document on one
    /// line, in canonical form: its parse writes back the same bytes.
    #[test]
    fn every_json_command_emits_one_schema_versioned_document() {
        let mut session = AnalysisSession::new();
        for command in command_names() {
            let doc = one_json_document(&mut session, &query(command, Format::Json));
            assert!(doc.get("kernels").is_none(), "{command}");
        }
    }

    #[test]
    fn kernels_queries_run_without_source() {
        let mut session = AnalysisSession::new();
        for command in ["check", "lint"] {
            let q = Query {
                kernels: true,
                source: None,
                ..query(command, Format::Json)
            };
            let doc = one_json_document(&mut session, &q);
            assert!(doc.get("kernels").is_some(), "{command}");
        }
    }

    /// Runs `q`, asserts its stdout is exactly one schema-versioned JSON
    /// document on one line in canonical form, and returns its parse.
    fn one_json_document(session: &mut AnalysisSession, q: &Query) -> json::Value {
        let label = format!("{} kernels={}", q.command, q.kernels);
        let out = execute(session, q);
        assert!(out.failure.is_none(), "{label}: {:?}", out.failure);
        let doc = json::Value::parse(&out.stdout)
            .unwrap_or_else(|e| panic!("{label}: invalid JSON: {e}"));
        let schema = doc.get("schema").and_then(json::Value::as_str);
        assert!(
            schema.is_some_and(|s| s.starts_with("syncopt.")),
            "{label}: missing schema in {doc}"
        );
        // Exactly one document on one line: the whole stdout is that
        // document, and its parse writes back the same bytes.
        assert_eq!(out.stdout.lines().count(), 1, "{label}");
        assert_eq!(out.stdout, format!("{doc}\n"), "{label}");
        doc
    }

    #[test]
    fn repeated_queries_are_byte_identical() {
        let mut session = AnalysisSession::new();
        for command in ["check", "explain", "lint", "profile"] {
            let cold = execute(&mut session, &query(command, Format::Human));
            let warm = execute(&mut session, &query(command, Format::Human));
            assert_eq!(cold, warm, "{command}");
        }
    }

    /// Changing any one field changes the `reply` key, and no two of the
    /// changed queries share one.
    #[test]
    fn every_answer_bearing_field_is_part_of_the_reply_key() {
        let base = query("run", Format::Json);
        let edits: [fn(&mut Query); 23] = [
            |q| q.command.push('x'),
            |q| q.file.push('x'),
            |q| q.source.as_mut().unwrap().push(' '),
            |q| q.source = None,
            |q| q.procs += 1,
            |q| q.level = OptLevel::Full,
            |q| q.delay = DelayChoice::ShashaSnir,
            |q| q.machine = "t3d".to_string(),
            |q| q.dump = true,
            |q| q.dot = true,
            |q| q.trace = true,
            |q| q.strict = true,
            |q| q.kernels = true,
            |q| q.format = Format::Human,
            |q| q.emit_report = Some("r.json".to_string()),
            |q| q.out = Some("t.json".to_string()),
            |q| q.trace_limit = Some(10),
            |q| q.pair = Some((0, 1)),
            |q| q.deny = vec!["W001".to_string()],
            |q| q.allow = vec!["W001".to_string()],
            |q| q.seeded = Some("lock-cycle".to_string()),
            // Two lists with the same items split differently.
            |q| q.deny = vec!["W001".to_string(), "W002".to_string()],
            |q| {
                q.deny = vec!["W001".to_string()];
                q.allow = vec!["W002".to_string()];
            },
        ];
        let mut keys = vec![query_key(&base)];
        for edit in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base);
            keys.push(query_key(&edited));
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two queries share a reply key");
            }
        }
        assert_eq!(query_key(&base.clone()), keys[0]);
    }

    /// A field's value cannot stand in for the fields after it: a `file`
    /// that spells out a `source` part is a different query, so a query
    /// with no source is not answered from the reply of one with it.
    #[test]
    fn a_file_name_holding_later_fields_does_not_share_their_reply() {
        let mut session = AnalysisSession::new();
        let with_source = Query {
            command: "check".to_string(),
            file: "x".to_string(),
            source: Some("fn main() { }".to_string()),
            ..Query::default()
        };
        assert!(execute(&mut session, &with_source).failure.is_none());
        let spelled_out = Query {
            file: "x\u{1f}source\u{1f}fn main() { }".to_string(),
            source: None,
            ..with_source
        };
        let out = execute(&mut session, &spelled_out);
        assert_eq!(
            out.failure.as_deref(),
            Some("command `check` needs a source file")
        );
    }

    #[test]
    fn unknown_command_fails_cleanly() {
        let mut session = AnalysisSession::new();
        let out = execute(&mut session, &query("frobnicate", Format::Human));
        assert!(out.failure.unwrap().contains("unknown command"));
        assert!(out.stdout.is_empty());
    }

    #[test]
    fn every_listed_command_dispatches_under_its_own_label() {
        assert!(command_names().is_sorted());
        let mut session = AnalysisSession::new();
        for name in command_names() {
            let out = execute(&mut session, &query(name, Format::Json));
            let failure = format!("{:?}", out.failure);
            assert!(!failure.contains("unknown command"), "{name}: {failure}");
            assert_eq!(crate::telemetry::query_op(name), name);
        }
        let out = execute(&mut session, &query("frobnicate", Format::Json));
        assert!(out.failure.unwrap().contains("unknown command"));
        assert_eq!(crate::telemetry::query_op("frobnicate"), "other");
    }
}
