//! The `syncopt.rpc.v1` wire protocol.
//!
//! `syncoptd` and `syncoptc --daemon` speak newline-delimited JSON over a
//! Unix domain socket: each request is one JSON object on one line, and
//! each response is one JSON object on one line, in request order per
//! connection. The `syncopt_core::diag::json` writer escapes every control
//! character, so a document never spans lines and the framing is
//! unambiguous.
//!
//! Every envelope carries `"schema": "syncopt.rpc.v1"` and the client's
//! `id`, which the server echoes back. Five operations exist:
//!
//! * `ping` — liveness probe; the response carries `"pong": true`.
//! * `stats` — cumulative cache statistics of the server's
//!   [`AnalysisSession`](crate::AnalysisSession): totals, artifact count,
//!   capacity, and the per-kind `cache.<kind>.*` counters — plus service
//!   fields (`uptime_ms`, `requests_total`, `version`) and, when
//!   telemetry is enabled, a full `syncopt.metrics.v1` document under
//!   `metrics`.
//! * `metrics` — Prometheus text exposition format of the service
//!   metrics registry, carried as one JSON string (`metrics_text`);
//!   `unsupported` when the daemon runs with `--no-telemetry`.
//! * `query` — run one [`Query`] through the shared command engine
//!   ([`crate::commands::execute`]); the response carries the exact
//!   stdout bytes, the optional failure message, the optional file
//!   artifact (which the *client* writes — the daemon never touches the
//!   filesystem), and the per-request cache delta.
//! * `shutdown` — ask the server to stop accepting connections and exit.
//!
//! A malformed or unsupported request yields `"ok": false` with an
//! `error` object (`code` ∈ `bad-request` | `unsupported` | `internal`,
//! the last for a query whose execution panicked); a query that
//! *ran* but failed (lint errors, bad source, …) is still `"ok": true`
//! with a non-null `failure`, mirroring the CLI's stdout/stderr/exit-code
//! split. The full schema is documented in `docs/API.md`.

use crate::commands::{CmdOut, Field, FileOutput, Format, Query};
use crate::report::{parse_delay, parse_level};
use crate::telemetry::ServiceTelemetry;
use syncopt_core::cache::{CacheStats, KindStats};
use syncopt_core::diag::json::{
    key, write_array, write_bool, write_escaped, write_int, write_ints, Obj, Value,
};

/// Protocol identifier carried by every request and response.
pub const RPC_SCHEMA: &str = "syncopt.rpc.v1";

/// A protocol-level failure (never a *command* failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// `bad-request` (malformed envelope), `unsupported` (wrong schema /
    /// unknown op) or `internal` (the server failed on a valid request).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RpcError {
    /// A malformed-envelope error.
    pub fn bad_request(message: impl Into<String>) -> RpcError {
        RpcError {
            code: "bad-request",
            message: message.into(),
        }
    }

    /// A wrong-schema / unknown-op error.
    pub fn unsupported(message: impl Into<String>) -> RpcError {
        RpcError {
            code: "unsupported",
            message: message.into(),
        }
    }

    /// A server-side failure on a well-formed request.
    pub fn internal(message: impl Into<String>) -> RpcError {
        RpcError {
            code: "internal",
            message: message.into(),
        }
    }
}

/// What a request asks the server to do.
///
/// `Query` dominates the size of this enum; a request is decoded once and
/// consumed immediately, so the indirection of boxing it buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe.
    Ping,
    /// Cumulative session cache statistics.
    Stats,
    /// Prometheus text exposition of the service metrics registry.
    Metrics,
    /// Run one command query.
    Query(Query),
    /// Stop the server.
    Shutdown,
}

/// One decoded request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: i64,
    /// The operation.
    pub body: RequestBody,
}

/// Opens a message with the members every envelope starts with: the
/// schema and the correlation id.
fn open_envelope(out: &mut String, id: i64) -> Obj<'_> {
    let mut o = Obj::open(out);
    o.str(key!("schema"), RPC_SCHEMA);
    o.signed(key!("id"), id);
    o
}

/// Appends a query's wire object: every field that has a value, in wire
/// order — the walk the `reply` key hashes too.
fn write_query(out: &mut String, q: &Query) {
    let mut o = Obj::open(out);
    q.walk(|key, value| {
        let out = o.key(key);
        match value {
            Field::Str(text) => write_escaped(out, text),
            Field::Int(n) => write_int(out, n as i64),
            Field::Bool(b) => write_bool(out, b),
            Field::Pair(a, b) => write_array(out, [a, b], |out, id| write_int(out, id.into())),
            Field::List(items) => write_array(out, items, |out, item| write_escaped(out, item)),
        }
    });
    o.close();
}

/// Moves the string out of a parsed value: sources, stdout and file
/// payloads are the bulk of a message and are never copied on decode.
fn expect_str(v: Value, key: &str) -> Result<String, RpcError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(RpcError::bad_request(format!("`{key}` must be a string"))),
    }
}

fn expect_bool(v: &Value, key: &str) -> Result<bool, RpcError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(RpcError::bad_request(format!("`{key}` must be a boolean"))),
    }
}

fn expect_int(v: &Value, key: &str) -> Result<i64, RpcError> {
    v.as_int()
        .ok_or_else(|| RpcError::bad_request(format!("`{key}` must be an integer")))
}

fn expect_codes(v: Value, key: &str) -> Result<Vec<String>, RpcError> {
    match v {
        Value::Arr(items) => items.into_iter().map(|i| expect_str(i, key)).collect(),
        _ => Err(RpcError::bad_request(format!("`{key}` must be an array"))),
    }
}

/// Moves the value of `key` out of a parsed object, leaving `null` in
/// its place (first match, like [`Value::get`]).
fn take(v: &mut Value, key: &str) -> Option<Value> {
    match v {
        Value::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Value::Null)),
        _ => None,
    }
}

/// Decodes a query object, consuming it. Missing fields take the
/// [`Query::default`] values; unknown fields are rejected so typos
/// surface instead of being silently ignored.
pub fn decode_query(v: Value) -> Result<Query, RpcError> {
    let fields = match v {
        Value::Obj(fields) => fields,
        _ => return Err(RpcError::bad_request("`query` must be an object")),
    };
    let mut q = Query::default();
    for (key, value) in fields {
        let key = &*key;
        match key {
            "command" => q.command = expect_str(value, key)?,
            "file" => q.file = expect_str(value, key)?,
            "source" => q.source = Some(expect_str(value, key)?),
            "procs" => {
                q.procs = u32::try_from(expect_int(&value, key)?)
                    .map_err(|_| RpcError::bad_request("`procs` out of range"))?;
            }
            "level" => {
                let label = expect_str(value, key)?;
                q.level = parse_level(&label)
                    .ok_or_else(|| RpcError::bad_request(format!("unknown level `{label}`")))?;
            }
            "delay" => {
                let label = expect_str(value, key)?;
                q.delay = parse_delay(&label).ok_or_else(|| {
                    RpcError::bad_request(format!("unknown delay choice `{label}`"))
                })?;
            }
            "machine" => q.machine = expect_str(value, key)?,
            "dump" => q.dump = expect_bool(&value, key)?,
            "dot" => q.dot = expect_bool(&value, key)?,
            "trace" => q.trace = expect_bool(&value, key)?,
            "strict" => q.strict = expect_bool(&value, key)?,
            "kernels" => q.kernels = expect_bool(&value, key)?,
            "format" => {
                let label = expect_str(value, key)?;
                q.format = Format::parse(&label)
                    .ok_or_else(|| RpcError::bad_request(format!("unknown format `{label}`")))?;
            }
            "emit_report" => q.emit_report = Some(expect_str(value, key)?),
            "out" => q.out = Some(expect_str(value, key)?),
            "trace_limit" => {
                q.trace_limit = Some(
                    usize::try_from(expect_int(&value, key)?)
                        .map_err(|_| RpcError::bad_request("`trace_limit` out of range"))?,
                );
            }
            "pair" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| RpcError::bad_request("`pair` must be an array of two ids"))?;
                match items {
                    [a, b] => {
                        let id = |v: &Value| {
                            expect_int(v, "pair").and_then(|n| {
                                u32::try_from(n)
                                    .map_err(|_| RpcError::bad_request("`pair` id out of range"))
                            })
                        };
                        q.pair = Some((id(a)?, id(b)?));
                    }
                    _ => return Err(RpcError::bad_request("`pair` must be an array of two ids")),
                }
            }
            "deny" => q.deny = expect_codes(value, key)?,
            "allow" => q.allow = expect_codes(value, key)?,
            "seeded" => q.seeded = Some(expect_str(value, key)?),
            other => {
                return Err(RpcError::bad_request(format!(
                    "unknown query field `{other}`"
                )))
            }
        }
    }
    if q.command.is_empty() {
        return Err(RpcError::bad_request("`command` is required"));
    }
    Ok(q)
}

/// Encodes a request envelope (one line, no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut out = String::new();
    let op = match &req.body {
        RequestBody::Ping => "ping",
        RequestBody::Stats => "stats",
        RequestBody::Metrics => "metrics",
        RequestBody::Shutdown => "shutdown",
        RequestBody::Query(q) => {
            // The source is the bulk of a request: one allocation holds it.
            out.reserve(q.source.as_ref().map_or(0, String::len) + 256);
            write_query_request(&mut out, req.id, q);
            return out;
        }
    };
    write_control_request(&mut out, req.id, op);
    out
}

/// Appends the envelope of a request that carries nothing but its `op`.
pub(crate) fn write_control_request(out: &mut String, id: i64, op: &str) {
    let mut o = open_envelope(out, id);
    o.str(key!("op"), op);
    o.close();
}

/// Appends the envelope of a `query` request, written from the borrowed
/// query.
pub(crate) fn write_query_request(out: &mut String, id: i64, q: &Query) {
    let mut o = open_envelope(out, id);
    o.str(key!("op"), "query");
    write_query(o.key(key!("query")), q);
    o.close();
}

/// Has `write` append one message to `buf` (cleared first, so one
/// buffer serves a whole connection), adds the framing newline and hands
/// the line to `w` in a single `write_all`: a message is one write,
/// whatever its size.
pub(crate) fn write_message(
    w: &mut impl std::io::Write,
    buf: &mut String,
    write: impl FnOnce(&mut String),
) -> std::io::Result<()> {
    buf.clear();
    write(buf);
    buf.push('\n');
    w.write_all(buf.as_bytes())
}

/// Decodes one request line.
///
/// # Errors
///
/// [`RpcError`] with code `bad-request` for malformed JSON or envelopes,
/// `unsupported` for a wrong schema or unknown op — paired with the
/// request's integer `id` when the line had one (0 otherwise), so the
/// error response can echo it without parsing the line again.
pub fn decode_request(line: &str) -> Result<Request, (i64, RpcError)> {
    let mut v =
        Value::parse(line).map_err(|e| (0, RpcError::bad_request(format!("invalid JSON: {e}"))))?;
    let id = v.get("id").and_then(Value::as_int);
    let fail = |e: RpcError| (id.unwrap_or(0), e);
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(RpcError::bad_request("missing `schema`")))?;
    if schema != RPC_SCHEMA {
        return Err(fail(RpcError::unsupported(format!(
            "unsupported schema `{schema}` (this server speaks {RPC_SCHEMA})"
        ))));
    }
    let id = id.ok_or_else(|| fail(RpcError::bad_request("missing integer `id`")))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(RpcError::bad_request("missing `op`")))?;
    let body = match op {
        "ping" => RequestBody::Ping,
        "stats" => RequestBody::Stats,
        "metrics" => RequestBody::Metrics,
        "shutdown" => RequestBody::Shutdown,
        "query" => {
            let q = take(&mut v, "query")
                .ok_or_else(|| fail(RpcError::bad_request("`query` op needs a `query` object")))?;
            RequestBody::Query(decode_query(q).map_err(fail)?)
        }
        other => return Err(fail(RpcError::unsupported(format!("unknown op `{other}`")))),
    };
    Ok(Request { id, body })
}

/// A control reply or a protocol error: the envelope, `ok`, and the
/// members `write` adds.
fn response(id: i64, ok: bool, write: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    let mut o = open_envelope(&mut out, id);
    o.bool(key!("ok"), ok);
    write(&mut o);
    o.close();
    out
}

/// Encodes a successful `ping` response.
pub fn ping_response(id: i64) -> String {
    response(id, true, |o| o.bool(key!("pong"), true))
}

/// Service-level fields of a `stats` response, always present since
/// `syncopt.metrics.v1` (PR 10) regardless of whether telemetry is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Total requests handled (all ops, all connections).
    pub requests_total: u64,
    /// Daemon build version (`CARGO_PKG_VERSION`).
    pub version: String,
}

/// Encodes a successful `stats` response. `metrics` is the telemetry
/// whose full `syncopt.metrics.v1` document the response carries, present
/// only when telemetry is on.
pub fn stats_response(
    id: i64,
    stats: CacheStats,
    artifacts: usize,
    capacity: usize,
    kinds: &KindStats,
    service: &ServiceStats,
    metrics: Option<&ServiceTelemetry>,
) -> String {
    response(id, true, |o| {
        write_ints(o.key(key!("cache")), &stats.fields());
        o.int(key!("artifacts"), artifacts as u64);
        o.int(key!("capacity"), capacity as u64);
        kinds.write_json(o.key(key!("kinds")));
        o.int(key!("uptime_ms"), service.uptime_ms);
        o.int(key!("requests_total"), service.requests_total);
        o.str(key!("version"), &service.version);
        if let Some(t) = metrics {
            t.write_metrics_json(o.key(key!("metrics")));
        }
    })
}

/// Encodes a successful `metrics` response: the Prometheus text
/// exposition is carried as one JSON string so the one-line framing
/// holds (the writer escapes every `\n`).
pub fn metrics_response(id: i64, text: &str) -> String {
    response(id, true, |o| o.str(key!("metrics_text"), text))
}

/// Encodes a successful `shutdown` acknowledgement.
pub fn shutdown_response(id: i64) -> String {
    response(id, true, |o| o.bool(key!("shutdown"), true))
}

/// One query's answer in its wire form: the object of the members of a
/// query response between the envelope and the cache delta, escaped once —
/// `{"stdout":…,"failure":…}` and, when the query produced a file artifact,
/// `"file":{"path":…,"content":…,"note":…}` before the closing brace. The
/// session stores a repeated query's answer this way, so the daemon
/// answers a hit by splicing bytes instead of encoding them again. Only
/// [`Answer::encode`] makes one, so the object always decodes.
#[derive(Debug)]
pub struct Answer {
    /// The escaped object; a `Box<str>` keeps no spare capacity resident.
    object: Box<str>,
    /// Whether the answer carries a `failure` (exit code 1).
    pub(crate) failed: bool,
}

impl Answer {
    /// Escapes `out`'s members, reading it in place.
    pub fn encode(out: &CmdOut) -> Answer {
        let CmdOut {
            stdout,
            file,
            failure,
        } = out;
        let mut object = String::new();
        let mut o = Obj::open(&mut object);
        o.str(key!("stdout"), stdout);
        o.str_or_null(key!("failure"), failure.as_deref());
        if let Some(file) = file {
            let mut f = Obj::open(o.key(key!("file")));
            f.str(key!("path"), &file.path);
            f.str(key!("content"), &file.content);
            f.str(key!("note"), &file.note);
            f.close();
        }
        o.close();
        Answer {
            // A copy of exactly the written length, not `into_boxed_str`:
            // shrinking in place would leave a freed tail beside every
            // stored answer, and those holes cost a full cache about a
            // tenth of its resident memory.
            object: Box::from(object.as_str()),
            failed: failure.is_some(),
        }
    }

    /// The [`CmdOut`] these members encode, read back the way a client
    /// reads a query response.
    pub fn decode(&self) -> CmdOut {
        Value::parse(&self.object)
            .map_err(RpcError::bad_request)
            .and_then(|mut v| decode_out(&mut v))
            .expect("an answer holds the object `Answer::encode` wrote")
    }
}

/// Appends the response line of a completed query to `buf`: the envelope
/// with `id`, the answer's members as they are, and the request's cache
/// delta. Nothing but the delta is written anew.
pub(crate) fn write_query_response(buf: &mut String, id: i64, answer: &Answer, cache: CacheStats) {
    let mut o = open_envelope(buf, id);
    o.bool(key!("ok"), true);
    o.splice(&answer.object);
    write_ints(o.key(key!("cache")), &cache.fields());
    o.close();
}

/// Encodes a completed query: the command ran, and this is its result
/// (which may be a command *failure* — that is not a protocol error).
pub fn query_response(id: i64, out: &CmdOut, cache: CacheStats) -> String {
    let answer = Answer::encode(out);
    let mut line = String::with_capacity(answer.object.len() + 128);
    write_query_response(&mut line, id, &answer, cache);
    line
}

/// Encodes a protocol error.
pub fn error_response(id: i64, err: &RpcError) -> String {
    response(id, false, |o| {
        let mut e = Obj::open(o.key(key!("error")));
        e.str(key!("code"), err.code);
        e.str(key!("message"), &err.message);
        e.close();
    })
}

/// A decoded response envelope, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed correlation id.
    pub id: i64,
    /// The payload.
    pub body: ReplyBody,
}

/// Client-side view of a response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// `ping` acknowledgement.
    Pong,
    /// `stats` payload (the raw object, for display).
    Stats(Value),
    /// `metrics` payload: Prometheus text exposition.
    Metrics(String),
    /// `shutdown` acknowledgement.
    Shutdown,
    /// A completed query with its per-request cache delta.
    Query(CmdOut, CacheStats),
    /// A protocol error.
    Error(RpcError),
}

fn decode_cache_stats(v: &Value) -> Result<CacheStats, RpcError> {
    let mut values = [0; CacheStats::COUNT];
    for (value, key) in values.iter_mut().zip(CacheStats::NAMES) {
        *value = v
            .get(key)
            .and_then(Value::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| RpcError::bad_request(format!("cache stats missing `{key}`")))?;
    }
    Ok(CacheStats::from_values(values))
}

/// Moves a query's result out of the members of a response object (or
/// of an [`Answer`]): `stdout`, the optional `failure` and `file`.
fn decode_out(v: &mut Value) -> Result<CmdOut, RpcError> {
    let stdout = take(v, "stdout")
        .ok_or_else(|| RpcError::bad_request("query response missing `stdout`"))
        .and_then(|stdout| expect_str(stdout, "stdout"))?;
    let failure = match take(v, "failure") {
        None | Some(Value::Null) => None,
        Some(other) => Some(expect_str(other, "failure")?),
    };
    let file = match take(v, "file") {
        None => None,
        Some(mut file) => {
            let mut part = |key: &str, label: &str| {
                take(&mut file, key)
                    .ok_or_else(|| RpcError::bad_request(format!("file artifact missing `{key}`")))
                    .and_then(|v| expect_str(v, label))
            };
            Some(FileOutput {
                path: part("path", "file.path")?,
                content: part("content", "file.content")?,
                note: part("note", "file.note")?,
            })
        }
    };
    Ok(CmdOut {
        stdout,
        file,
        failure,
    })
}

/// Decodes one response line.
///
/// # Errors
///
/// [`RpcError`] (code `bad-request`) if the line is not a well-formed
/// `syncopt.rpc.v1` response. A server-reported error decodes
/// successfully as [`ReplyBody::Error`].
pub fn decode_response(line: &str) -> Result<Reply, RpcError> {
    let mut v =
        Value::parse(line).map_err(|e| RpcError::bad_request(format!("invalid JSON: {e}")))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(RPC_SCHEMA) => {}
        Some(other) => {
            return Err(RpcError::bad_request(format!(
                "unsupported response schema `{other}`"
            )))
        }
        None => return Err(RpcError::bad_request("missing `schema`")),
    }
    let id = v
        .get("id")
        .and_then(Value::as_int)
        .ok_or_else(|| RpcError::bad_request("missing integer `id`"))?;
    let ok = match v.get("ok") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(RpcError::bad_request("missing boolean `ok`")),
    };
    if !ok {
        let err = v
            .get("error")
            .ok_or_else(|| RpcError::bad_request("error response missing `error`"))?;
        let code = match err.get("code").and_then(Value::as_str) {
            Some("unsupported") => "unsupported",
            Some("internal") => "internal",
            _ => "bad-request",
        };
        let message = err
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_string();
        return Ok(Reply {
            id,
            body: ReplyBody::Error(RpcError { code, message }),
        });
    }
    let body = if v.get("pong").is_some() {
        ReplyBody::Pong
    } else if v.get("shutdown").is_some() {
        ReplyBody::Shutdown
    } else if let Some(text) = take(&mut v, "metrics_text") {
        ReplyBody::Metrics(expect_str(text, "metrics_text")?)
    } else if v.get("stdout").is_some() {
        let out = decode_out(&mut v)?;
        let cache = v
            .get("cache")
            .map(decode_cache_stats)
            .transpose()?
            .unwrap_or_default();
        ReplyBody::Query(out, cache)
    } else if let Some(stats) = take(&mut v, "cache") {
        let mut part =
            |key: &'static str, default: Value| (key.into(), take(&mut v, key).unwrap_or(default));
        let mut fields = vec![
            ("cache".into(), stats),
            part("artifacts", Value::Int(0)),
            part("capacity", Value::Int(0)),
            part("kinds", Value::Obj(Vec::new())),
            part("uptime_ms", Value::Int(0)),
            part("requests_total", Value::Int(0)),
            part("version", Value::Str(String::new())),
        ];
        if let Some(doc) = take(&mut v, "metrics") {
            fields.push(("metrics".into(), doc));
        }
        ReplyBody::Stats(Value::Obj(fields))
    } else {
        return Err(RpcError::bad_request("unrecognized response payload"));
    };
    Ok(Reply { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_canonical;

    /// Every field off its default, so a field the walk leaves out fails
    /// the round trip.
    fn sample_query() -> Query {
        Query {
            command: "check".to_string(),
            file: "prog.ms".to_string(),
            source: Some("shared int X; fn main() { X = 1; }".to_string()),
            procs: 8,
            level: crate::OptLevel::Full,
            delay: crate::DelayChoice::ShashaSnir,
            machine: "t3d".to_string(),
            dump: true,
            dot: true,
            trace: true,
            strict: true,
            kernels: true,
            format: Format::Json,
            emit_report: Some("report.json".to_string()),
            out: Some("trace.json".to_string()),
            trace_limit: Some(512),
            pair: Some((3, 7)),
            deny: vec!["W001".to_string()],
            allow: vec!["W002".to_string(), "L001".to_string()],
            seeded: Some("lock-cycle".to_string()),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 42,
            body: RequestBody::Query(sample_query()),
        };
        let line = encode_request(&req).to_string();
        assert!(!line.contains('\n'), "framing requires one line");
        let back = decode_request(&line).unwrap();
        assert_eq!(back, req);
    }

    /// Accepts whatever one `write` hands it, and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_is_one_write_whatever_its_size() {
        // 64 KiB of text that needs escaping in every line.
        let payload = "A[MYPROC] = \"é\";\t// \\ \n".repeat((64 << 10) / 24 + 1);
        assert!(payload.len() > 64 << 10);
        let mut line = String::new();

        // What `DaemonClient::query` sends.
        let q = Query {
            source: Some(payload.clone()),
            ..sample_query()
        };
        let mut sent = CountingWriter::default();
        write_message(&mut sent, &mut line, |buf| write_query_request(buf, 7, &q)).unwrap();
        assert_eq!(sent.calls, 1, "client send");
        assert_eq!(sent.bytes, line.as_bytes());
        let text = std::str::from_utf8(&sent.bytes).unwrap();
        assert_eq!(text.matches('\n').count(), 1, "one line");
        let request = decode_request(text.trim_end()).unwrap();
        assert_eq!(request.body, RequestBody::Query(q));

        // What the daemon answers, through the same reused buffer.
        let out = CmdOut {
            stdout: payload,
            file: None,
            failure: None,
        };
        let mut replied = CountingWriter::default();
        let answer = Answer::encode(&out);
        write_message(&mut replied, &mut line, |buf| {
            write_query_response(buf, 7, &answer, CacheStats::default())
        })
        .unwrap();
        assert_eq!(replied.calls, 1, "daemon reply");
        let response = query_response(7, &out, CacheStats::default());
        let text = std::str::from_utf8(&replied.bytes).unwrap();
        assert_eq!(text, format!("{response}\n"), "nothing of the request left");
        let reply = decode_response(text.trim_end()).unwrap();
        assert_eq!(reply.body, ReplyBody::Query(out, CacheStats::default()));
    }

    #[test]
    fn control_ops_round_trip() {
        for body in [
            RequestBody::Ping,
            RequestBody::Stats,
            RequestBody::Metrics,
            RequestBody::Shutdown,
        ] {
            let req = Request { id: 7, body };
            let line = encode_request(&req);
            assert_canonical(&line);
            let back = decode_request(&line).unwrap();
            assert_eq!(back, req);
        }
        for line in [ping_response(7), shutdown_response(7)] {
            assert_canonical(&line);
            assert_eq!(decode_response(&line).unwrap().id, 7);
        }
    }

    #[test]
    fn query_response_round_trips_with_failure_and_file() {
        let out = CmdOut {
            stdout: "line one\nline two\n".to_string(),
            file: Some(FileOutput {
                path: "report.json".to_string(),
                content: "{}\n".to_string(),
                note: "written".to_string(),
            }),
            failure: Some("check failed: 2 error(s)".to_string()),
        };
        let cache = CacheStats {
            hits: 5,
            misses: 1,
            evictions: 0,
        };
        let line = query_response(9, &out, cache);
        assert!(!line.contains('\n'));
        let reply = decode_response(&line).unwrap();
        assert_eq!(reply.id, 9);
        assert_eq!(reply.body, ReplyBody::Query(out.clone(), cache));
        // The stored answer knows whether it failed, and reads back too.
        for out in [out, CmdOut::default()] {
            let answer = Answer::encode(&out);
            assert_eq!(answer.failed, out.failure.is_some());
            assert_eq!(answer.decode(), out);
        }
    }

    #[test]
    fn metrics_response_round_trips_multiline_text() {
        let text = "# TYPE syncopt_rpc_requests_total counter\nsyncopt_rpc_requests_total 5\n";
        let line = metrics_response(4, text).to_string();
        assert!(!line.contains('\n'), "framing requires one line");
        let reply = decode_response(&line).unwrap();
        assert_eq!(reply.id, 4);
        assert_eq!(reply.body, ReplyBody::Metrics(text.to_string()));
    }

    #[test]
    fn stats_response_carries_service_fields() {
        let service = ServiceStats {
            uptime_ms: 1234,
            requests_total: 17,
            version: "0.1.0".to_string(),
        };
        let telemetry = ServiceTelemetry::new(&Default::default()).unwrap();
        let mut cache = syncopt_core::ArtifactCache::new(1);
        let fp = syncopt_frontend::Fingerprint::of("cfg");
        for _ in 0..3 {
            cache.get_or_with("cfg", || fp, || 0usize);
        }
        let kinds = cache.kind_counters();
        let stats =
            |metrics| stats_response(2, CacheStats::default(), 3, 64, &kinds, &service, metrics);
        assert_canonical(&stats(None));
        let line = stats(Some(&telemetry));
        assert_canonical(&line);
        let reply = decode_response(&line).unwrap();
        let ReplyBody::Stats(obj) = reply.body else {
            panic!("expected stats body");
        };
        assert_eq!(obj.get("uptime_ms").and_then(Value::as_int), Some(1234));
        assert_eq!(obj.get("requests_total").and_then(Value::as_int), Some(17));
        assert_eq!(obj.get("version").and_then(Value::as_str), Some("0.1.0"));
        assert_eq!(
            obj.get("kinds").map(Value::to_string).as_deref(),
            Some(r#"{"cache.cfg.hits":2,"cache.cfg.misses":1}"#)
        );
        assert_eq!(
            obj.get("metrics")
                .and_then(|m| m.get("schema"))
                .and_then(Value::as_str),
            Some("syncopt.metrics.v1")
        );
    }

    #[test]
    fn wrong_schema_is_unsupported() {
        let line = r#"{"schema":"syncopt.rpc.v999","id":1,"op":"ping"}"#;
        let (id, err) = decode_request(line).unwrap_err();
        assert_eq!((id, err.code), (1, "unsupported"));
    }

    #[test]
    fn unknown_query_field_is_rejected() {
        let line = r#"{"schema":"syncopt.rpc.v1","id":6,"op":"query","query":{"command":"check","sourcefile":"x"}}"#;
        let (id, err) = decode_request(line).unwrap_err();
        assert_eq!((id, err.code), (6, "bad-request"));
        assert!(err.message.contains("sourcefile"));
    }

    /// A `\u` escape whose four digits carry a sign is malformed JSON,
    /// not the character of the three digits after it.
    #[test]
    fn a_signed_unicode_escape_is_a_bad_request() {
        let line = r#"{"schema":"syncopt.rpc.v1","id":7,"op":"query","query":{"command":"check","file":"\u+041"}}"#;
        let (id, err) = decode_request(line).unwrap_err();
        assert_eq!((id, err.code), (0, "bad-request"));
        assert_eq!(err.message, "invalid JSON: bad \\u escape");
    }

    #[test]
    fn error_response_round_trips() {
        for err in [
            RpcError::bad_request("missing `op`"),
            RpcError::unsupported("unknown op `frobnicate`"),
            RpcError::internal("the query panicked"),
        ] {
            let line = error_response(3, &err);
            assert_canonical(&line);
            let reply = decode_response(&line).unwrap();
            assert_eq!(reply.body, ReplyBody::Error(err));
        }
    }
}
