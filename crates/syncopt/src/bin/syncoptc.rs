//! `syncoptc` — command-line driver for the syncopt pipeline.
//!
//! ```text
//! syncoptc analyze <file> [--procs N]
//!     print conflict/delay-set statistics and the delay pairs
//! syncoptc opt <file> [--procs N] [--level L] [--delay D] [--dump]
//!     optimize and (with --dump) print the target CFG
//! syncoptc run <file> [--procs N] [--machine M] [--level L] [--delay D]
//!     simulate and report cycles, messages, stalls, final memory
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
//! syncoptc ping|stats|metrics|shutdown [--socket PATH]
//!     control a running syncoptd: liveness probe, service statistics,
//!     Prometheus metrics, clean shutdown. `stats` renders a table
//!     (uptime, cache, per-op latency); `stats --format json` emits the
//!     syncopt.metrics.v1 document; `stats --watch [--interval-ms N]`
//!     refreshes the table live (no other command takes either flag).
//!     `metrics` prints Prometheus text exposition format for scraping
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
//! Every query command also accepts `--daemon [--socket PATH]`,
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
use syncopt::commands::{command_names, execute, CmdOut, Format, Query};
use syncopt::core::diag::json;
use syncopt::report::{parse_delay, parse_level};
use syncopt::session::AnalysisSession;

/// The flags that never reach a [`Query`]: daemon routing and `stats
/// --watch`. Every other flag sets a query field directly.
struct Cli {
    daemon: bool,
    socket: Option<String>,
    watch: bool,
    interval_ms: u64,
}

/// The commands that control a running `syncoptd`.
const CONTROL_COMMANDS: [&str; 4] = ["ping", "stats", "metrics", "shutdown"];

/// Every command `syncoptc` runs: the query commands, the daemon controls
/// and `daemon-trace`.
fn commands() -> impl Iterator<Item = &'static str> {
    command_names()
        .chain(CONTROL_COMMANDS)
        .chain(["daemon-trace"])
}

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    argv.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

fn parse_args() -> Result<(Query, Cli), String> {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next().ok_or("missing command")?;
    if !commands().any(|c| c == command) {
        return Err(format!("unknown command `{command}`"));
    }
    // The input file is optional for `check --kernels`.
    let file = match argv.peek() {
        Some(a) if !a.starts_with("--") => argv.next().unwrap(),
        _ => String::new(),
    };
    let mut q = Query {
        command,
        file,
        ..Query::default()
    };
    let mut cli = Cli {
        daemon: false,
        socket: None,
        watch: false,
        interval_ms: 1000,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--procs" => q.procs = value(&mut argv, "--procs")?,
            "--level" => {
                let label = argv.next().ok_or("--level needs a value")?;
                q.level = parse_level(&label).ok_or_else(|| format!("unknown level `{label}`"))?;
            }
            "--delay" => {
                let label = argv.next().ok_or("--delay needs a value")?;
                q.delay =
                    parse_delay(&label).ok_or_else(|| format!("unknown delay choice `{label}`"))?;
            }
            "--machine" => {
                q.machine = argv.next().ok_or("--machine needs a value")?;
            }
            "--dump" => q.dump = true,
            "--dot" => q.dot = true,
            "--trace" => q.trace = true,
            "--strict" => q.strict = true,
            "--kernels" => q.kernels = true,
            "--format" => {
                let label = argv.next().ok_or("--format needs a value")?;
                q.format =
                    Format::parse(&label).ok_or_else(|| format!("unknown format `{label}`"))?;
            }
            "--emit-report" => {
                q.emit_report = Some(argv.next().ok_or("--emit-report needs a path")?);
            }
            "--out" => {
                q.out = Some(argv.next().ok_or("--out needs a path")?);
            }
            "--trace-limit" => q.trace_limit = Some(value(&mut argv, "--trace-limit")?),
            "--deny" => {
                q.deny.push(known_code(
                    argv.next().ok_or("--deny needs a diagnostic code")?,
                )?);
            }
            "--allow" => {
                q.allow.push(known_code(
                    argv.next().ok_or("--allow needs a diagnostic code")?,
                )?);
            }
            "--seeded" => {
                q.seeded = Some(argv.next().ok_or("--seeded needs an example name")?);
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
                q.pair = Some((parse(&a)?, parse(&b)?));
            }
            "--daemon" => cli.daemon = true,
            "--socket" => {
                cli.socket = Some(argv.next().ok_or("--socket needs a path")?);
            }
            "--watch" if q.command == "stats" => cli.watch = true,
            "--interval-ms" if q.command == "stats" => {
                cli.interval_ms = value(&mut argv, "--interval-ms")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let file_optional = (q.command == "check" && q.kernels)
        || (q.command == "lint" && (q.kernels || q.seeded.is_some()))
        || CONTROL_COMMANDS.contains(&q.command.as_str());
    if q.file.is_empty() && !file_optional {
        return Err("missing input file".to_string());
    }
    Ok((q, cli))
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
    let (mut query, cli) = parse_args().map_err(|e| {
        let commands: Vec<_> = commands().collect();
        format!(
            "{e}\nrun with: syncoptc <{}> <file> [flags]",
            commands.join("|")
        )
    })?;
    if CONTROL_COMMANDS.contains(&query.command.as_str()) {
        return cmd_daemon_control(&query, &cli);
    }
    if query.command == "daemon-trace" {
        return cmd_daemon_trace(&query);
    }
    // Read the input locally even in daemon mode: the source travels in
    // the query, so the daemon never needs access to the client's files.
    if !(query.kernels || query.seeded.is_some()) {
        query.source = Some(
            std::fs::read_to_string(&query.file)
                .map_err(|e| format!("cannot read {}: {e}", query.file))?,
        );
    }
    let out = if cli.daemon {
        daemon_query(&cli, &query)?
    } else {
        // One request: each stage runs once and hands its artifact down, so
        // a cache could only derive keys and store what is dropped on exit.
        execute(&mut AnalysisSession::with_capacity(0), &query)
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
fn socket_path(cli: &Cli) -> std::path::PathBuf {
    cli.socket
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(syncopt::daemon::default_socket_path)
}

#[cfg(unix)]
fn connect(cli: &Cli) -> Result<syncopt::client::DaemonClient, String> {
    let path = socket_path(cli);
    syncopt::client::DaemonClient::connect(&path).map_err(|e| {
        format!(
            "cannot connect to syncoptd at {}: {e} (start it with `syncoptd --socket {}`)",
            path.display(),
            path.display()
        )
    })
}

#[cfg(unix)]
fn daemon_query(cli: &Cli, query: &Query) -> Result<CmdOut, String> {
    let (out, _cache) = connect(cli)?.query(query)?;
    Ok(out)
}

#[cfg(unix)]
fn cmd_daemon_control(q: &Query, cli: &Cli) -> Result<(), String> {
    let mut client = connect(cli)?;
    match q.command.as_str() {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "stats" => {
            if cli.watch {
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
                    std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms.max(50)));
                }
            }
            let stats = client.stats()?;
            match q.format {
                // The machine format is the syncopt.metrics.v1 document
                // when telemetry is on; a --no-telemetry daemon falls
                // back to the raw rpc.v1 stats payload.
                Format::Json => match stats.get("metrics") {
                    Some(doc) => println!("{doc}"),
                    None => {
                        let mut doc = String::new();
                        let mut o = json::Obj::open(&mut doc);
                        o.str(json::key!("schema"), syncopt::rpc::RPC_SCHEMA);
                        if let json::Value::Obj(fields) = &stats {
                            for (name, value) in fields {
                                value.write_to(o.key_escaped(&[name]));
                            }
                        }
                        o.close();
                        println!("{doc}");
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
fn cmd_daemon_trace(q: &Query) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&q.file).map_err(|e| format!("cannot read {}: {e}", q.file))?;
    let entries =
        syncopt::telemetry::parse_reqlog(&text).map_err(|e| format!("{}: {e}", q.file))?;
    syncopt::telemetry::verify_reqlog_accounting(&entries)
        .map_err(|e| format!("{}: span accounting violated: {e}", q.file))?;
    let trace = syncopt::telemetry::daemon_chrome_trace(&entries);
    match &q.out {
        Some(path) => {
            std::fs::write(path, format!("{trace}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let (conns, wall_us) = syncopt::telemetry::reqlog_extent(&entries);
            eprintln!(
                "daemon trace written to {path}: {} request(s) on {} connection(s), {wall_us} us wall time",
                entries.len(),
                conns.len(),
            );
        }
        None => println!("{trace}"),
    }
    Ok(())
}

#[cfg(not(unix))]
fn daemon_query(_cli: &Cli, _query: &Query) -> Result<CmdOut, String> {
    Err("--daemon requires Unix domain sockets".to_string())
}

#[cfg(not(unix))]
fn cmd_daemon_control(_q: &Query, _cli: &Cli) -> Result<(), String> {
    Err("daemon control requires Unix domain sockets".to_string())
}
