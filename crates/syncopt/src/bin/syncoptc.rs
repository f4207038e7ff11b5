//! `syncoptc` — command-line driver for the syncopt pipeline.
//!
//! ```text
//! syncoptc analyze <file> [--procs N]
//!     print conflict/delay-set statistics and the delay pairs
//! syncoptc opt <file> [--procs N] [--level L] [--delay D] [--dump]
//!     optimize and (with --dump) print the target CFG
//! syncoptc run <file> [--procs N] [--machine M] [--level L] [--delay D]
//!          [--sim-shards S] [--sim-partition P]
//!     simulate and report cycles, messages, stalls, final memory;
//!     --sim-shards > 1 runs the conservative parallel engine, which is
//!     bit-identical to the sequential reference at any shard count;
//!     --sim-partition picks the processor-to-shard assignment
//!     (P ∈ block|cyclic|profiled, default block) — results are
//!     bit-identical under every strategy, only load balance changes
//! syncoptc trace <file> [--procs N] [--machine M] [--level L] [--delay D]
//!          [--trace-limit N] [--out PATH]
//!     simulate with the structured timeline on and emit Chrome Trace
//!     Event Format JSON (schema syncopt.trace.v1) for Perfetto /
//!     chrome://tracing; verifies the span/counter accounting invariant
//! syncoptc explain <file> [--procs N] [--pair a b] [--format json]
//!     report why each delay pair was kept (back-path witness) or
//!     dropped (the sync fact that removed it), with source spans
//! syncoptc profile <file> [--procs N] [--machine M] [--level L] [--delay D]
//!     run blocking vs optimized and compare (the paper's Figure 12 shape)
//! syncoptc litmus <file> [--procs N]
//!     enumerate weak vs sequentially consistent outcomes
//! syncoptc check <file> [--procs N] [--strict] [--format json]
//!     static race/synchronization check; exit 1 if errors are found
//!     (`--strict` also runs the full lint suite and promotes warnings)
//! syncoptc check --kernels [--procs N] [--format json]
//!     check every built-in evaluation kernel, with per-kernel statistics
//! syncoptc lint <file> [--procs N] [--strict] [--format json]
//!     synchronization lint suite (schema syncopt.lint.v1): static
//!     deadlock detection (D001–D003), redundant-synchronization
//!     analysis (L001/L002), and fence-coverage verification of the
//!     codegen output at every optimization level (F001/F002); exit 1
//!     if errors are found
//! syncoptc lint --kernels [--procs N] [--format json]
//!     lint every built-in evaluation kernel
//! syncoptc lint --seeded <name> [--format json]
//!     lint a built-in seeded example (lock-cycle | barrier-divergence |
//!     postwait-deadlock | redundant-barrier)
//! syncoptc bench [--suite S] [--smoke] [--threads T] [--out PATH] [--check BASELINE]
//!     run a benchmark suite and emit its work-counter report (schema
//!     syncopt.bench_report.v1). S ∈ delay|sim (default delay): `delay`
//!     runs the delay-set analysis scaling trajectory, `sim` the
//!     simulator-throughput sweep over the evaluation kernels. `--check`
//!     compares the fresh counters against a committed baseline and exits
//!     1 on a >20% regression or a missing gated counter; `--threads` is
//!     the analysis worker count for `delay` and fans independent configs
//!     across workers for `sim`, without changing any counter
//! syncoptc ping|stats|metrics|shutdown [--socket PATH]
//!     control a running syncoptd: liveness probe, service statistics,
//!     Prometheus metrics, clean shutdown. `stats` renders a table
//!     (uptime, cache, per-op latency); `stats --format json` emits the
//!     syncopt.metrics.v1 document; `stats --watch [--interval-ms N]`
//!     refreshes the table live. `metrics` prints Prometheus text
//!     exposition format for scraping
//! syncoptc daemon-trace <reqlog> [--out PATH]
//!     convert a syncoptd request log (syncoptd --log FILE, schema
//!     syncopt.reqlog.v1) into Chrome Trace Event Format (schema
//!     syncopt.trace.v1) for Perfetto: one track per connection, one
//!     slice per request with nested decode/execute/encode phases;
//!     verifies span accounting (phases sum to recorded wall time)
//! ```
//!
//! `opt --dot` emits Graphviz instead of text; `run --trace` appends the
//! first 200 trace events; `run --emit-report <path>` writes the pipeline
//! report JSON to a file; `check --strict` promotes warnings to errors.
//! `check` and `lint` accept `--deny CODE` (force a diagnostic code to
//! error) and `--allow CODE` (demote it to a note); `--allow` wins over
//! `--strict` promotion.
//! `run` and `profile` honor `--format json` (machine-readable report on
//! stdout); `profile` also accepts `--format table` for the side-by-side
//! comparison (the default). With `--format json` every command emits
//! exactly one schema-versioned JSON document on stdout; diagnostics and
//! notes go to stderr.
//!
//! Every command except `bench` also accepts `--daemon [--socket PATH]`,
//! which sends the query to a running `syncoptd` (speaking
//! syncopt.rpc.v1) instead of analyzing in-process. The daemon keeps a
//! content-addressed artifact cache across requests, so repeated queries
//! are answered without recomputing, with byte-identical output. File
//! artifacts (`--emit-report`, `trace --out`) are returned over the
//! protocol and written locally by the client.
//!
//! ```text
//! L ∈ blocking|pipelined|oneway|full      (default pipelined)
//! D ∈ ss|sync                             (default sync)
//! M ∈ cm5|t3d|dash                        (default cm5)
//! N                                        (default 4)
//! ```

use std::process::ExitCode;
use syncopt::commands::{execute, parse_delay, parse_level, CmdOut, Format, Query};
use syncopt::core::diag::json;
use syncopt::session::AnalysisSession;
use syncopt::{DelayChoice, OptLevel, ShardPartition};

struct Args {
    command: String,
    file: String,
    procs: u32,
    level: OptLevel,
    delay: DelayChoice,
    machine: String,
    dump: bool,
    dot: bool,
    trace: bool,
    strict: bool,
    kernels: bool,
    format: Format,
    emit_report: Option<String>,
    threads: usize,
    sim_shards: usize,
    sim_partition: ShardPartition,
    smoke: bool,
    suite: String,
    out: Option<String>,
    check_baseline: Option<String>,
    trace_limit: Option<usize>,
    pair: Option<(u32, u32)>,
    deny: Vec<String>,
    allow: Vec<String>,
    seeded: Option<String>,
    daemon: bool,
    socket: Option<String>,
    watch: bool,
    interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next().ok_or("missing command")?;
    // The input file is optional for `check --kernels`.
    let file = match argv.peek() {
        Some(a) if !a.starts_with("--") => argv.next().unwrap(),
        _ => String::new(),
    };
    let mut args = Args {
        command,
        file,
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
        threads: 1,
        sim_shards: 1,
        sim_partition: ShardPartition::Block,
        smoke: false,
        suite: "delay".to_string(),
        out: None,
        check_baseline: None,
        trace_limit: None,
        pair: None,
        deny: Vec::new(),
        allow: Vec::new(),
        seeded: None,
        daemon: false,
        socket: None,
        watch: false,
        interval_ms: 1000,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--procs" => {
                args.procs = argv
                    .next()
                    .ok_or("--procs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --procs: {e}"))?;
            }
            "--level" => {
                let label = argv.next().ok_or("--level needs a value")?;
                args.level =
                    parse_level(&label).ok_or_else(|| format!("unknown level `{label}`"))?;
            }
            "--delay" => {
                let label = argv.next().ok_or("--delay needs a value")?;
                args.delay =
                    parse_delay(&label).ok_or_else(|| format!("unknown delay choice `{label}`"))?;
            }
            "--machine" => {
                args.machine = argv.next().ok_or("--machine needs a value")?;
            }
            "--dump" => args.dump = true,
            "--dot" => args.dot = true,
            "--trace" => args.trace = true,
            "--strict" => args.strict = true,
            "--kernels" => args.kernels = true,
            "--format" => {
                let label = argv.next().ok_or("--format needs a value")?;
                args.format =
                    Format::parse(&label).ok_or_else(|| format!("unknown format `{label}`"))?;
            }
            "--emit-report" => {
                args.emit_report = Some(argv.next().ok_or("--emit-report needs a path")?);
            }
            "--threads" => {
                args.threads = argv
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--sim-shards" => {
                args.sim_shards = argv
                    .next()
                    .ok_or("--sim-shards needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --sim-shards: {e}"))?;
            }
            "--sim-partition" => {
                let label = argv
                    .next()
                    .ok_or("--sim-partition needs a value (block|cyclic|profiled)")?;
                args.sim_partition = ShardPartition::from_label(&label).ok_or_else(|| {
                    format!("unknown partition strategy `{label}` (block|cyclic|profiled)")
                })?;
            }
            "--smoke" => args.smoke = true,
            "--suite" => {
                args.suite = argv.next().ok_or("--suite needs a value (delay|sim)")?;
            }
            "--out" => {
                args.out = Some(argv.next().ok_or("--out needs a path")?);
            }
            "--check" => {
                args.check_baseline = Some(argv.next().ok_or("--check needs a baseline path")?);
            }
            "--trace-limit" => {
                args.trace_limit = Some(
                    argv.next()
                        .ok_or("--trace-limit needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --trace-limit: {e}"))?,
                );
            }
            "--deny" => {
                args.deny.push(known_code(
                    argv.next().ok_or("--deny needs a diagnostic code")?,
                )?);
            }
            "--allow" => {
                args.allow.push(known_code(
                    argv.next().ok_or("--allow needs a diagnostic code")?,
                )?);
            }
            "--seeded" => {
                args.seeded = Some(argv.next().ok_or("--seeded needs an example name")?);
            }
            "--pair" => {
                let a = argv
                    .next()
                    .ok_or("--pair needs two access ids (e.g. --pair 3 7)")?;
                let b = argv
                    .next()
                    .ok_or("--pair needs two access ids (e.g. --pair 3 7)")?;
                let parse = |s: &str| {
                    s.trim_start_matches('a')
                        .parse::<u32>()
                        .map_err(|e| format!("bad --pair access id `{s}`: {e}"))
                };
                args.pair = Some((parse(&a)?, parse(&b)?));
            }
            "--daemon" => args.daemon = true,
            "--socket" => {
                args.socket = Some(argv.next().ok_or("--socket needs a path")?);
            }
            "--watch" => args.watch = true,
            "--interval-ms" => {
                args.interval_ms = argv
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --interval-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let file_optional = (args.command == "check" && args.kernels)
        || (args.command == "lint" && (args.kernels || args.seeded.is_some()))
        || matches!(
            args.command.as_str(),
            "bench" | "ping" | "stats" | "metrics" | "shutdown"
        );
    if args.file.is_empty() && !file_optional {
        return Err("missing input file".to_string());
    }
    Ok(args)
}

/// Validates a `--deny`/`--allow` argument against the known code list.
fn known_code(code: String) -> Result<String, String> {
    if syncopt::core::KNOWN_CODES.contains(&code.as_str()) {
        Ok(code)
    } else {
        Err(format!(
            "unknown diagnostic code `{code}` (known: {})",
            syncopt::core::KNOWN_CODES.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`syncoptc ... | head`):
    // println! panics on EPIPE, which is noise, not an error.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("Broken pipe"))
            .unwrap_or(false);
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("syncoptc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nrun with: syncoptc <analyze|opt|run|trace|explain|profile|litmus|check|lint|bench> <file> [flags]"
        )
    })?;
    if args.command == "bench" {
        if args.daemon {
            return Err(
                "`bench` measures this machine and does not route through the daemon".into(),
            );
        }
        return cmd_bench(&args);
    }
    if matches!(
        args.command.as_str(),
        "ping" | "stats" | "metrics" | "shutdown"
    ) {
        return cmd_daemon_control(&args);
    }
    if args.command == "daemon-trace" {
        return cmd_daemon_trace(&args);
    }
    // Read the input locally even in daemon mode: the source travels in
    // the query, so the daemon never needs access to the client's files.
    let needs_file = !(args.kernels || args.seeded.is_some());
    let source = if needs_file {
        Some(
            std::fs::read_to_string(&args.file)
                .map_err(|e| format!("cannot read {}: {e}", args.file))?,
        )
    } else {
        None
    };
    let query = Query {
        command: args.command.clone(),
        file: args.file.clone(),
        source,
        procs: args.procs,
        level: args.level,
        delay: args.delay,
        machine: args.machine.clone(),
        dump: args.dump,
        dot: args.dot,
        trace: args.trace,
        strict: args.strict,
        kernels: args.kernels,
        format: args.format,
        emit_report: args.emit_report.clone(),
        threads: args.threads,
        sim_shards: args.sim_shards,
        sim_partition: args.sim_partition,
        out: args.out.clone(),
        trace_limit: args.trace_limit,
        pair: args.pair,
        deny: args.deny.clone(),
        allow: args.allow.clone(),
        seeded: args.seeded.clone(),
    };
    let out = if args.daemon {
        daemon_query(&args, &query)?
    } else {
        execute(&mut AnalysisSession::new(), &query)
    };
    emit(out)
}

/// Prints a command result exactly as the engine produced it: the file
/// artifact first (matching the pre-daemon flag order), then stdout
/// verbatim, then the failure (if any) via the exit-1 path.
fn emit(out: CmdOut) -> Result<(), String> {
    if let Some(file) = out.file {
        std::fs::write(&file.path, &file.content)
            .map_err(|e| format!("cannot write {}: {e}", file.path))?;
        eprintln!("{}", file.note);
    }
    print!("{}", out.stdout);
    match out.failure {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

#[cfg(unix)]
fn socket_path(args: &Args) -> std::path::PathBuf {
    args.socket
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(syncopt::daemon::default_socket_path)
}

#[cfg(unix)]
fn connect(args: &Args) -> Result<syncopt::client::DaemonClient, String> {
    let path = socket_path(args);
    syncopt::client::DaemonClient::connect(&path).map_err(|e| {
        format!(
            "cannot connect to syncoptd at {}: {e} (start it with `syncoptd --socket {}`)",
            path.display(),
            path.display()
        )
    })
}

#[cfg(unix)]
fn daemon_query(args: &Args, query: &Query) -> Result<CmdOut, String> {
    let (out, _cache) = connect(args)?.query(query)?;
    Ok(out)
}

#[cfg(unix)]
fn cmd_daemon_control(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    match args.command.as_str() {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "stats" => {
            if args.watch {
                // Refresh the table until interrupted (or the daemon
                // goes away, which surfaces as the call error).
                loop {
                    let stats = client.stats()?;
                    // Clear the screen and home the cursor.
                    print!(
                        "\x1b[2J\x1b[H{}",
                        syncopt::report::render_stats_table(&stats)
                    );
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(std::time::Duration::from_millis(args.interval_ms.max(50)));
                }
            }
            let stats = client.stats()?;
            match args.format {
                // The machine format is the syncopt.metrics.v1 document
                // when telemetry is on; a --no-telemetry daemon falls
                // back to the raw rpc.v1 stats payload.
                Format::Json => match stats.get("metrics") {
                    Some(doc) => println!("{doc}"),
                    None => {
                        let mut doc = vec![(
                            "schema".into(),
                            json::Value::Str(syncopt::rpc::RPC_SCHEMA.to_string()),
                        )];
                        if let json::Value::Obj(fields) = stats {
                            doc.extend(fields);
                        }
                        println!("{}", json::Value::Obj(doc));
                    }
                },
                Format::Human => print!("{}", syncopt::report::render_stats_table(&stats)),
            }
        }
        "metrics" => {
            let text = client.metrics()?;
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
        }
        "shutdown" => {
            client.shutdown()?;
            eprintln!("syncoptd stopped");
        }
        _ => unreachable!("guarded by the caller"),
    }
    Ok(())
}

/// `daemon-trace`: convert a `syncopt.reqlog.v1` request log into the
/// `syncopt.trace.v1` Chrome Trace file, verifying span accounting.
/// Runs locally — no daemon connection needed.
fn cmd_daemon_trace(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let entries =
        syncopt::telemetry::parse_reqlog(&text).map_err(|e| format!("{}: {e}", args.file))?;
    syncopt::telemetry::verify_reqlog_accounting(&entries)
        .map_err(|e| format!("{}: span accounting violated: {e}", args.file))?;
    let trace = syncopt::telemetry::daemon_chrome_trace(&entries);
    match &args.out {
        Some(path) => {
            std::fs::write(path, format!("{trace}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "daemon trace written to {path}: {} request(s) on {} connection(s), {} us wall time",
                trace.get("requests").and_then(json::Value::as_int).unwrap_or(0),
                trace.get("connections").and_then(json::Value::as_int).unwrap_or(0),
                trace.get("wall_us").and_then(json::Value::as_int).unwrap_or(0),
            );
        }
        None => println!("{trace}"),
    }
    Ok(())
}

#[cfg(not(unix))]
fn daemon_query(_args: &Args, _query: &Query) -> Result<CmdOut, String> {
    Err("--daemon requires Unix domain sockets".to_string())
}

#[cfg(not(unix))]
fn cmd_daemon_control(_args: &Args) -> Result<(), String> {
    Err("daemon control requires Unix domain sockets".to_string())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let suite = syncopt::bench::suite(&args.suite)
        .ok_or_else(|| format!("unknown bench suite `{}` (delay|sim)", args.suite))?;
    let report = suite
        .run(args.smoke, args.threads)
        .map_err(|e| format!("{} bench failed: {e}", suite.name))?;
    let report_json = report.to_json();
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{report_json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("bench report written to {path}");
    }
    match args.format {
        Format::Json => println!("{report_json}"),
        Format::Human => print!("{}", report.render_table()),
    }
    if let Some(baseline_path) = &args.check_baseline {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let baseline = json::Value::parse(&text)
            .map_err(|e| format!("baseline {baseline_path} is not valid JSON: {e}"))?;
        report
            .check_against(&baseline)
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        eprintln!(
            "work counters within {}% of {baseline_path}",
            syncopt::bench::TOLERANCE_PCT
        );
    }
    Ok(())
}
