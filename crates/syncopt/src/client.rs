//! Client side of the `syncopt.rpc.v1` protocol.
//!
//! [`DaemonClient`] wraps one Unix-socket connection to a running
//! `syncoptd` and exposes typed calls for the protocol operations.
//! `syncoptc --daemon` is a thin shell around this: it builds the same
//! [`Query`] it would execute directly, sends it
//! here instead, and prints the returned [`CmdOut`] — which is why the
//! two modes are byte-identical.

use crate::commands::{CmdOut, Query};
use crate::rpc::{
    decode_response, write_control_request, write_message, write_query_request, Reply, ReplyBody,
    RpcError,
};
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;
use syncopt_core::cache::CacheStats;
use syncopt_core::diag::json::Value;

/// One connection to a running `syncoptd`.
pub struct DaemonClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: i64,
    /// The outgoing request line, then the incoming reply line: one
    /// buffer for the whole connection.
    line: String,
}

impl DaemonClient {
    /// Connects to the daemon socket at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure (most commonly: no daemon is
    /// running there).
    pub fn connect(path: &Path) -> std::io::Result<DaemonClient> {
        let stream = UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Ok(DaemonClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            line: String::new(),
        })
    }

    /// Sends the request `write` appends for the next id and decodes the
    /// reply to it.
    fn call(&mut self, write: impl FnOnce(&mut String, i64)) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        write_message(&mut self.writer, &mut self.line, |buf| write(buf, id))
            .map_err(|e| format!("cannot send request: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        let reply =
            decode_response(self.line.trim_end()).map_err(|RpcError { code, message }| {
                format!("malformed response ({code}): {message}")
            })?;
        if reply.id != id {
            return Err(format!(
                "response id {} does not match request id {id}",
                reply.id
            ));
        }
        if let ReplyBody::Error(RpcError { code, message }) = &reply.body {
            return Err(format!("daemon rejected request ({code}): {message}"));
        }
        Ok(reply)
    }

    /// Sends the control request `op` and decodes the reply to it.
    fn control(&mut self, op: &str) -> Result<ReplyBody, String> {
        Ok(self
            .call(|buf, id| write_control_request(buf, id, op))?
            .body)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, as a displayable message.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.control("ping")? {
            ReplyBody::Pong => Ok(()),
            other => Err(format!("unexpected reply to ping: {other:?}")),
        }
    }

    /// Fetches the server's cumulative cache statistics.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, as a displayable message.
    pub fn stats(&mut self) -> Result<Value, String> {
        match self.control("stats")? {
            ReplyBody::Stats(v) => Ok(v),
            other => Err(format!("unexpected reply to stats: {other:?}")),
        }
    }

    /// Fetches the service metrics in Prometheus text exposition format.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, as a displayable message — including the
    /// daemon rejecting the op because it runs with `--no-telemetry`.
    pub fn metrics(&mut self) -> Result<String, String> {
        match self.control("metrics")? {
            ReplyBody::Metrics(text) => Ok(text),
            other => Err(format!("unexpected reply to metrics: {other:?}")),
        }
    }

    /// Runs one query on the daemon, returning its result and the
    /// per-request cache delta.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, as a displayable message. A *command*
    /// failure is not an error here — it comes back inside [`CmdOut`].
    pub fn query(&mut self, q: &Query) -> Result<(CmdOut, CacheStats), String> {
        match self.call(|buf, id| write_query_request(buf, id, q))?.body {
            ReplyBody::Query(out, cache) => Ok((out, cache)),
            other => Err(format!("unexpected reply to query: {other:?}")),
        }
    }

    /// Asks the daemon to exit.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, as a displayable message.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.control("shutdown")? {
            ReplyBody::Shutdown => Ok(()),
            other => Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }
}
