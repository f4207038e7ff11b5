//! `syncoptd` — a long-running analysis service over a Unix socket.
//!
//! The daemon owns one [`AnalysisSession`] and serves `syncopt.rpc.v1`
//! requests (see [`crate::rpc`]) from any number of concurrent clients:
//! each accepted connection gets its own thread, reads newline-delimited
//! requests, and writes one response line per request, in order. All
//! queries share the session's content-addressed artifact cache, so a
//! client re-checking a program another client already analyzed is served
//! from cache — the per-request `cache` delta in each response shows
//! exactly how much work was reused.
//!
//! The daemon never touches the client's filesystem: file-producing
//! queries (`run --emit-report`, `trace --out`) return the artifact in
//! the response and the client writes it locally.
//!
//! Telemetry (see [`crate::telemetry`]) is on by default: every request
//! gets a monotonic id and a decode → execute → encode span recorded
//! into the service metrics, served back via the extended `stats` op
//! (`syncopt.metrics.v1`) and the `metrics` op (Prometheus text). It is
//! strictly observational — responses are byte-identical whether
//! telemetry is on or off, because it never touches response fields.

use crate::commands::answer;
use crate::rpc::{
    decode_request, error_response, metrics_response, ping_response, shutdown_response,
    stats_response, write_message, write_query_response, Answer, Request, RequestBody, RpcError,
    ServiceStats,
};
use crate::session::AnalysisSession;
use crate::telemetry::{query_op, RequestOutcome, RequestSpan, ServiceTelemetry, TelemetryConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use syncopt_core::cache::CacheStats;

/// The longest request line the daemon reads, framing newline excluded.
/// A longer line is answered with a `bad-request` error (`id` 0) and its
/// connection is closed; other connections are unaffected.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// The default socket path: `syncoptd.sock` in the system temp directory.
pub fn default_socket_path() -> PathBuf {
    std::env::temp_dir().join("syncoptd.sock")
}

struct State {
    session: Mutex<AnalysisSession>,
    shutdown: AtomicBool,
    socket_path: PathBuf,
    /// `None` ⇒ `--no-telemetry`: no ids, no timestamps, no metrics.
    telemetry: Option<Arc<ServiceTelemetry>>,
    /// Service fields of the `stats` response, maintained even with
    /// telemetry off (one atomic increment per request, no allocation).
    started: Instant,
    requests: AtomicU64,
}

impl State {
    /// The shared session. A query that panics is caught inside the lock
    /// and its session replaced, so the lock is never poisoned.
    fn session(&self) -> MutexGuard<'_, AnalysisSession> {
        self.session
            .lock()
            .expect("a panic under the session lock is caught before the guard drops")
    }
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: UnixListener,
    state: Arc<State>,
}

impl Daemon {
    /// Binds the service socket at `path` with a fresh session.
    ///
    /// A leftover socket file from a dead daemon is detected (nothing
    /// accepts connections on it) and replaced; a *live* daemon on the
    /// same path is reported as an error.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures, and refuses the path if
    /// another daemon is already serving it.
    pub fn bind(path: &Path) -> std::io::Result<Daemon> {
        Daemon::bind_with_session(path, AnalysisSession::new())
    }

    /// [`bind`](Daemon::bind) with a caller-configured session (e.g. a
    /// custom cache capacity). Telemetry is on with default settings.
    ///
    /// # Errors
    ///
    /// See [`bind`](Daemon::bind).
    pub fn bind_with_session(path: &Path, session: AnalysisSession) -> std::io::Result<Daemon> {
        Daemon::bind_with(path, session, Some(TelemetryConfig::default()))
    }

    /// [`bind`](Daemon::bind) with a caller-configured session and
    /// telemetry: `None` disables telemetry entirely (`--no-telemetry`),
    /// `Some(config)` enables it with a request log and slow threshold.
    ///
    /// # Errors
    ///
    /// See [`bind`](Daemon::bind); additionally propagates request-log
    /// creation failures.
    pub fn bind_with(
        path: &Path,
        session: AnalysisSession,
        telemetry: Option<TelemetryConfig>,
    ) -> std::io::Result<Daemon> {
        let telemetry = match telemetry {
            Some(config) => Some(Arc::new(ServiceTelemetry::new(&config)?)),
            None => None,
        };
        let listener = match UnixListener::bind(path) {
            Ok(listener) => listener,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving {}", path.display()),
                    ));
                }
                // Stale socket file from an unclean exit: reclaim it.
                std::fs::remove_file(path)?;
                UnixListener::bind(path)?
            }
            Err(e) => return Err(e),
        };
        Ok(Daemon {
            listener,
            state: Arc::new(State {
                session: Mutex::new(session),
                shutdown: AtomicBool::new(false),
                socket_path: path.to_path_buf(),
                telemetry,
                started: Instant::now(),
                requests: AtomicU64::new(0),
            }),
        })
    }

    /// The path the daemon is serving on.
    pub fn socket_path(&self) -> &Path {
        &self.state.socket_path
    }

    /// Serves connections until a client sends `shutdown`, then ends every
    /// connection — an idle one is woken by shutting its socket down, one
    /// in the middle of a request finishes it — joins their threads and
    /// removes the socket file. When this returns no thread of the daemon
    /// is left, and the session and everything it cached have been freed.
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures (after the same teardown);
    /// per-connection I/O errors only end that connection.
    pub fn run(self) -> std::io::Result<()> {
        let mut connections: Vec<Connection> = Vec::new();
        let mut result = Ok(());
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            // A long-lived daemon does not keep a handle per client it
            // ever had.
            connections.retain(|c| !c.thread.is_finished());
            // Without a second handle the connection could not be woken
            // at shutdown: refuse it (the client sees the socket close).
            let Ok(waker) = stream.try_clone() else {
                continue;
            };
            let state = Arc::clone(&self.state);
            let thread = std::thread::spawn(move || {
                let stream = HangUp(stream);
                serve_connection(&stream.0, &state);
            });
            connections.push(Connection { waker, thread });
        }
        for c in &connections {
            let _ = c.waker.shutdown(Shutdown::Both);
        }
        for c in connections {
            // A connection thread that panicked took only its own client
            // down; the teardown goes on.
            let _ = c.thread.join();
        }
        let _ = std::fs::remove_file(&self.state.socket_path);
        result
    }
}

/// Shuts the client's socket down when its connection thread is done with
/// it, however it ends. Dropping the stream is not enough: the accept loop
/// holds a second handle on the same socket, which would keep a client
/// that waits for the end of the stream waiting.
struct HangUp(UnixStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// One accepted connection, as the accept loop keeps it.
struct Connection {
    /// A second handle on the client's socket: shutting it down ends the
    /// blocked read of a connection that is waiting for a request.
    waker: UnixStream,
    thread: std::thread::JoinHandle<()>,
}

/// Lowers the open-connections gauge on every exit path.
struct ConnGuard<'a>(Option<&'a ServiceTelemetry>);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.0 {
            t.close_connection();
        }
    }
}

/// What [`handle_line`] observed about one request, for telemetry.
struct ReqMeta {
    /// Operation label: the RPC op for control requests, [`query_op`]
    /// of the command for queries, `invalid` for undecodable lines.
    op: &'static str,
    /// Protocol-level success (`ok: true` response).
    ok: bool,
    /// A query ran but reported a command failure.
    failed: bool,
    /// Per-request cache delta (zero for control ops).
    cache: CacheStats,
    /// Shut the server down after answering.
    shutdown: bool,
}

/// Reads the next request line into `line`, without its framing `\n` or
/// `\r\n`. Returns the bytes the line took on the wire and whether it was
/// longer than [`MAX_REQUEST_BYTES`]; such a line is skipped through its
/// newline, never held in memory, and `line` is left empty. `None` is the
/// end of the input or an I/O error.
fn read_request_line(
    reader: &mut BufReader<&UnixStream>,
    line: &mut String,
) -> Option<(usize, bool)> {
    line.clear();
    let mut limited = reader.by_ref().take(MAX_REQUEST_BYTES as u64 + 1);
    let read = limited.read_line(line);
    // The limit ran out before a newline came. (Check this first:
    // `read_line` itself fails when the cut falls inside a character.)
    if limited.limit() == 0 && !line.ends_with('\n') {
        line.clear();
        // Skipping to the newline before answering means the reply finds
        // the client reading, not still writing.
        let skipped = reader.skip_until(b'\n').ok()?;
        return Some((MAX_REQUEST_BYTES + 1 + skipped, true));
    }
    if read.ok()? == 0 {
        return None;
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    // +1: the framing newline.
    Some((line.len() + 1, false))
}

/// Reads request lines from one client until EOF or shutdown, answering
/// each in order. The request line and the reply line each live in one
/// buffer reused for the whole connection, and a reply is one write.
fn serve_connection(stream: &UnixStream, state: &State) {
    let telemetry = state.telemetry.as_deref();
    let conn_id = telemetry.map(|t| t.open_connection()).unwrap_or(0);
    let _guard = ConnGuard(telemetry);
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut reply = String::new();
    while let Some((bytes_in, over_long)) = read_request_line(&mut reader, &mut line) {
        if !over_long && line.trim().is_empty() {
            continue;
        }
        let mut span = telemetry.map(|t| t.begin_request(conn_id, bytes_in as u64));
        let (response, meta) = handle_line(&line, over_long, state, span.as_mut());
        let sent = write_message(&mut writer, &mut reply, |buf| response.write_to(buf));
        if let (Some(t), Some(span)) = (telemetry, span.take()) {
            t.finish_request(
                span,
                &RequestOutcome {
                    op: meta.op,
                    ok: meta.ok,
                    failed: meta.failed,
                    bytes_out: reply.len() as u64,
                    cache: meta.cache,
                },
            );
        }
        // A client that sends an over-long line loses its connection.
        if sent.is_err() || over_long {
            return;
        }
        if meta.shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `run` can observe the flag.
            let _ = UnixStream::connect(&state.socket_path);
            return;
        }
    }
}

/// A response, ready to be written.
enum Response {
    /// A control reply or a protocol error, written out.
    Doc(String),
    /// A completed query: its answer, spliced into the envelope with its
    /// id and cache delta as it is written.
    Query(i64, Arc<Answer>, CacheStats),
}

impl Response {
    fn write_to(&self, buf: &mut String) {
        match self {
            Response::Doc(doc) => buf.push_str(doc),
            Response::Query(id, answer, cache) => write_query_response(buf, *id, answer, *cache),
        }
    }
}

/// Answers one request line (`over_long`: the line passed
/// [`MAX_REQUEST_BYTES`] and was not kept). Returns the response and the
/// request metadata for telemetry. The span (when telemetry is on) has its
/// decode phase closed right after the envelope parse and its execute
/// phase closed once the response is ready and the session lock released;
/// the encode remainder — writing the response — is measured by
/// `finish_request`.
fn handle_line(
    line: &str,
    over_long: bool,
    state: &State,
    mut span: Option<&mut RequestSpan>,
) -> (Response, ReqMeta) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    // An error response echoes the id when the envelope carried one; a
    // request too broken (or too long) to carry an id gets id 0.
    let decoded = if over_long {
        Err((
            0,
            RpcError::bad_request(format!(
                "request line longer than {MAX_REQUEST_BYTES} bytes"
            )),
        ))
    } else {
        decode_request(line)
    };
    if let Some(s) = span.as_deref_mut() {
        s.decode_done();
    }
    let answer = respond(decoded, state);
    if let Some(s) = span {
        s.execute_done();
    }
    answer
}

/// Builds the response to one decoded (or undecodable) request.
fn respond(decoded: Result<Request, (i64, RpcError)>, state: &State) -> (Response, ReqMeta) {
    let meta = |op, ok, failed, cache, shutdown| ReqMeta {
        op,
        ok,
        failed,
        cache,
        shutdown,
    };
    let control = |op, doc, ok| {
        (
            Response::Doc(doc),
            meta(op, ok, false, CacheStats::default(), false),
        )
    };
    let Request { id, body } = match decoded {
        Ok(req) => req,
        Err((id, e)) => return control("invalid", error_response(id, &e), false),
    };
    match body {
        RequestBody::Ping => control("ping", ping_response(id), true),
        RequestBody::Stats => {
            let session = state.session();
            let service = ServiceStats {
                uptime_ms: match &state.telemetry {
                    Some(t) => t.uptime_ms(),
                    None => u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                },
                requests_total: state.requests.load(Ordering::Relaxed),
                version: crate::telemetry::SERVICE_VERSION.to_string(),
            };
            let doc = stats_response(
                id,
                session.cache_stats(),
                session.cached_artifacts(),
                session.cache_capacity(),
                &session.kind_counters(),
                &service,
                state.telemetry.as_deref(),
            );
            control("stats", doc, true)
        }
        RequestBody::Metrics => match &state.telemetry {
            Some(t) => control("metrics", metrics_response(id, &t.prometheus_text()), true),
            None => {
                let e =
                    RpcError::unsupported("telemetry is disabled on this daemon (--no-telemetry)");
                control("metrics", error_response(id, &e), false)
            }
        },
        RequestBody::Shutdown => (
            Response::Doc(shutdown_response(id)),
            meta("shutdown", true, false, CacheStats::default(), true),
        ),
        RequestBody::Query(q) => {
            let op = query_op(&q.command);
            // One session serves all clients; the lock makes each query
            // atomic with respect to the cache, and per-request stats are
            // deltas over the executed query only.
            let mut session = state.session();
            let before = session.cache_stats();
            // If the query panics, the cache it may have left half-updated
            // is replaced by an empty one before any other query sees it.
            match catch_unwind(AssertUnwindSafe(|| answer(&mut session, &q))) {
                Ok(answer) => {
                    let delta = session.cache_stats().since(before);
                    // A hit's answer is the stored one, shared: the lock
                    // is released before a byte of the reply is written.
                    drop(session);
                    let failed = answer.failed;
                    (
                        Response::Query(id, answer, delta),
                        meta(op, true, failed, delta, false),
                    )
                }
                Err(_) => {
                    *session = AnalysisSession::with_capacity(session.cache_capacity());
                    if let Some(t) = &state.telemetry {
                        t.record_panic();
                    }
                    let e = RpcError::internal(format!(
                        "`{}` panicked; the daemon dropped its cache and serves on",
                        q.command
                    ));
                    control(op, error_response(id, &e), false)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DaemonClient;
    use crate::commands::{execute, CmdOut, Format, Query};
    use std::io::Write;

    fn test_socket(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("syncoptd-test-{}-{name}.sock", std::process::id()))
    }

    fn spawn(name: &str) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
        let path = test_socket(name);
        let _ = std::fs::remove_file(&path);
        let daemon = Daemon::bind(&path).expect("bind");
        let handle = std::thread::spawn(move || daemon.run());
        (path, handle)
    }

    fn check_query() -> Query {
        Query {
            command: "check".to_string(),
            file: "unit.ms".to_string(),
            source: Some("shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }".to_string()),
            format: Format::Json,
            ..Query::default()
        }
    }

    #[test]
    fn ping_query_stats_shutdown() {
        let (path, handle) = spawn("basic");
        let mut client = DaemonClient::connect(&path).expect("connect");
        client.ping().expect("ping");

        let (out, cache) = client.query(&check_query()).expect("query");
        assert!(out.failure.is_none());
        assert!(out.stdout.contains("syncopt.check.v1"));
        assert!(cache.misses > 0, "cold query must build artifacts");

        // Same query again: served from the shared cache.
        let (warm, cache) = client.query(&check_query()).expect("warm query");
        assert_eq!(warm, out, "daemon answers must be deterministic");
        assert_eq!(cache.misses, 0, "warm query must be all hits");
        assert!(cache.hits > 0);

        let stats = client.stats().expect("stats");
        assert!(stats.get("cache").is_some());

        client.shutdown().expect("shutdown");
        handle.join().unwrap().expect("daemon exits cleanly");
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn daemon_matches_direct_execution() {
        let (path, handle) = spawn("direct");
        let mut client = DaemonClient::connect(&path).expect("connect");
        for command in ["check", "explain", "lint", "profile"] {
            let q = Query {
                command: command.to_string(),
                ..check_query()
            };
            let mut session = AnalysisSession::new();
            let direct: CmdOut = execute(&mut session, &q);
            let (remote, _) = client.query(&q).expect(command);
            assert_eq!(remote, direct, "{command}: daemon must match direct mode");
        }
        client.shutdown().expect("shutdown");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_requests_get_protocol_errors() {
        let (path, handle) = spawn("malformed");
        let stream = UnixStream::connect(&path).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();

        writeln!(writer, "this is not json").unwrap();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.contains("bad-request"), "got: {line}");

        line.clear();
        writeln!(
            writer,
            r#"{{"schema":"syncopt.rpc.v1","id":5,"op":"warp"}}"#
        )
        .unwrap();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.contains("unsupported"), "got: {line}");
        assert!(line.contains("\"id\":5"), "id echoed: {line}");

        drop(writer);
        drop(reader);
        let mut client = DaemonClient::connect(&path).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().unwrap().unwrap();
    }

    /// A query that panics costs its client an `internal` error and the
    /// daemon its cache, nothing more: the same connection is served on,
    /// from an empty cache, and `stats` counts the panic.
    #[test]
    fn a_panicking_query_is_answered_internal_and_the_daemon_serves_on() {
        use syncopt_core::diag::json::Value;
        let (path, handle) = spawn("panic");
        let mut client = DaemonClient::connect(&path).expect("connect");
        client
            .query(&check_query())
            .expect("a query that fills the cache");
        let err = client
            .query(&Query {
                command: "panic".to_string(),
                ..check_query()
            })
            .unwrap_err();
        assert!(err.contains("(internal)"), "got: {err}");

        let stats = client.stats().expect("stats on the same connection");
        let int = |path: &[&str]| {
            path.iter()
                .try_fold(&stats, |v, key| v.get(key))
                .and_then(Value::as_int)
        };
        assert_eq!(int(&["artifacts"]), Some(0), "{stats}");
        assert_eq!(int(&["cache", "hits"]), Some(0), "{stats}");
        assert_eq!(int(&["cache", "misses"]), Some(0), "{stats}");
        assert_eq!(
            int(&["metrics", "metrics", "counters", "rpc.panics_total"]),
            Some(1),
            "{stats}"
        );

        // The next query runs as it would on a new session.
        let (out, cache) = client.query(&check_query()).expect("the next query");
        let mut fresh = AnalysisSession::new();
        assert_eq!(out, execute(&mut fresh, &check_query()));
        assert_eq!(cache, fresh.cache_stats());
        client.shutdown().expect("shutdown");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn run_returns_only_after_every_connection_thread_let_go_of_the_session() {
        let path = test_socket("teardown");
        let _ = std::fs::remove_file(&path);
        let daemon = Daemon::bind(&path).expect("bind");
        let state = Arc::downgrade(&daemon.state);
        let handle = std::thread::spawn(move || daemon.run());

        // Two clients that stay connected and idle — one has used the
        // session, one never sent a byte — and a third that shuts down.
        let mut used = DaemonClient::connect(&path).expect("connect");
        used.query(&check_query()).expect("query");
        let silent = UnixStream::connect(&path).expect("connect");
        // The daemon has accepted `silent` once it answers a later client.
        let mut last = DaemonClient::connect(&path).expect("connect");
        last.ping().expect("ping");
        assert!(state.upgrade().is_some());
        last.shutdown().expect("shutdown");

        handle.join().unwrap().expect("daemon exits cleanly");
        assert!(
            state.upgrade().is_none(),
            "run() returned while a connection thread still held the session"
        );
        assert!(!path.exists(), "socket file removed on shutdown");
        // The idle clients were hung up on, not left waiting.
        assert!(used.ping().is_err());
        let mut byte = [0u8; 1];
        assert_eq!((&silent).read(&mut byte).expect("clean end of stream"), 0);
    }

    #[test]
    fn stale_socket_file_is_reclaimed() {
        let path = test_socket("stale");
        let _ = std::fs::remove_file(&path);
        // A socket file nobody listens on.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists());
        let daemon = Daemon::bind(&path).expect("reclaims stale socket");
        let handle = std::thread::spawn(move || daemon.run());
        let mut client = DaemonClient::connect(&path).expect("connect");
        client.ping().expect("ping");
        client.shutdown().expect("shutdown");
        handle.join().unwrap().unwrap();
    }
}
