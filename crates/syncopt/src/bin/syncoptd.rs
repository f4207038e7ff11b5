//! `syncoptd` — the long-running syncopt analysis daemon.
//!
//! ```text
//! syncoptd [--socket PATH] [--cache-capacity N]
//!          [--log FILE] [--slow-ms N] [--no-telemetry]
//! ```
//!
//! Binds a Unix domain socket (default: `syncoptd.sock` in the system
//! temp directory) and serves `syncopt.rpc.v1` requests until a client
//! sends `shutdown`. All clients share one analysis session, so repeated
//! queries over the same sources are answered from the content-addressed
//! artifact cache. Run queries against it with `syncoptc <cmd> --daemon
//! [--socket PATH]`; see `docs/API.md` for the wire protocol.
//!
//! Telemetry is on by default: requests get monotonic ids and
//! decode/execute/encode spans, served back via `syncoptc stats`
//! (`syncopt.metrics.v1`) and `syncoptc metrics` (Prometheus text).
//! `--log FILE` additionally appends one `syncopt.reqlog.v1` JSON line
//! per request (convert to a Perfetto timeline with `syncoptc
//! daemon-trace`); `--slow-ms N` sets the slow-request threshold
//! (default 500); `--no-telemetry` disables all of it. Setting
//! `SYNCOPT_METRICS_SCRUB=1` zeroes timing-derived metric fields while
//! keeping counts exact, for byte-stable golden checks.

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    use std::process::ExitCode;
    use syncopt::daemon::{default_socket_path, Daemon};
    use syncopt::session::AnalysisSession;
    use syncopt::telemetry::TelemetryConfig;

    let mut socket = default_socket_path();
    let mut capacity = None;
    let mut log = None;
    let mut slow_us = None;
    let mut telemetry_on = true;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--socket" => match argv.next() {
                Some(path) => socket = path.into(),
                None => return usage("--socket needs a path"),
            },
            "--cache-capacity" => match argv.next().map(|v| v.parse::<usize>()) {
                // 0 would disable the cache (`AnalysisSession::with_capacity`),
                // and a daemon exists to share one.
                Some(Ok(n)) if n > 0 => capacity = Some(n),
                _ => return usage("--cache-capacity needs a positive integer"),
            },
            "--log" => match argv.next() {
                Some(path) => log = Some(std::path::PathBuf::from(path)),
                None => return usage("--log needs a file path"),
            },
            "--slow-ms" => match argv.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => slow_us = Some(ms.saturating_mul(1000)),
                _ => return usage("--slow-ms needs a non-negative integer"),
            },
            "--no-telemetry" => telemetry_on = false,
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    if !telemetry_on && (log.is_some() || slow_us.is_some()) {
        return usage("--no-telemetry conflicts with --log/--slow-ms");
    }
    let telemetry = telemetry_on.then(|| TelemetryConfig {
        log,
        slow_us,
        scrub: std::env::var("SYNCOPT_METRICS_SCRUB").is_ok_and(|v| v == "1"),
    });
    let session = match capacity {
        Some(n) => AnalysisSession::with_capacity(n),
        None => AnalysisSession::new(),
    };
    let daemon = match Daemon::bind_with(&socket, session, telemetry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("syncoptd: cannot bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("syncoptd: serving on {}", socket.display());
    match daemon.run() {
        Ok(()) => {
            eprintln!("syncoptd: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("syncoptd: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn usage(msg: &str) -> std::process::ExitCode {
    eprintln!(
        "syncoptd: {msg}\nrun with: syncoptd [--socket PATH] [--cache-capacity N] [--log FILE] [--slow-ms N] [--no-telemetry]"
    );
    std::process::ExitCode::FAILURE
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("syncoptd: the daemon requires Unix domain sockets");
    std::process::ExitCode::FAILURE
}
