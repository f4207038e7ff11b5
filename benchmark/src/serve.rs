//! The two serving workloads: an in-process `syncoptd` on a Unix socket
//! and one closed-loop [`DaemonClient`], which sends its next request only
//! after the previous reply arrived — an editor or CI job holding a
//! connection.
//!
//! * `serve_warm` replays 30 requests that were all warmed during set-up,
//!   so every artifact hits: what is timed is the wire, the session
//!   mutex, fingerprinting, cache lookups and rendering.
//! * `serve_edit` alternates a `check` of a program the daemon has never
//!   seen (every key misses) with a `run` of a kernel whose source carries
//!   a fresh trailing comment (raw-source keys miss, canonical-CFG keys
//!   hit). Set-up fills the cache to capacity first, so every insert of
//!   the timed passes evicts.

use crate::harness::{elapsed_ns, Layers, Pass, Workload};
use crate::inputs::Rng;
use crate::spans::{self, Kind, Span, Tracer};
use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use syncopt::client::DaemonClient;
use syncopt::commands::{execute, CmdOut, Format, Query};
use syncopt::core::cache::{ArtifactCache, CacheStats, DEFAULT_CACHE_CAPACITY};
use syncopt::core::corpus::corpus_program;
use syncopt::core::diag::json::Value;
use syncopt::daemon::Daemon;
use syncopt::frontend::Fingerprint;
use syncopt::ir::cfg::Cfg;
use syncopt::ir::print::cfg_to_string;
use syncopt::kernels::all_kernels;
use syncopt::rpc::{self, Request, RequestBody};
use syncopt::telemetry::{parse_reqlog, ReqLogEntry, REQLOG_SCHEMA, SERVICE_VERSION};
use syncopt::{AnalysisSession, OptLevel, Syncopt, TelemetryConfig};

/// Processor count of every served kernel.
const PROCS: u32 = 16;
/// The commands `serve_warm` cycles through, per kernel.
const COMMANDS: [&str; 6] = ["check", "analyze", "opt", "run", "lint", "profile"];
/// Ops per `serve_edit` pass: even positions check one of
/// `EDIT_OPS / 2` corpus programs, odd positions run one of the kernels.
const EDIT_OPS: usize = 100;
/// Pings per traced pass (the transport floor).
const PINGS: usize = 10;

/// Where run artifacts go: the socket, the daemon's request log, traces.
pub const OUT_DIR: &str = "benchmark/out";

fn base_query(command: &str, file: &str, source: String) -> Query {
    Query {
        command: command.to_string(),
        file: file.to_string(),
        source: Some(source),
        procs: PROCS,
        level: OptLevel::Full,
        format: Format::Json,
        ..Query::default()
    }
}

/// The answer a request must get: a direct `execute` of the same query on
/// a fresh session, no daemon, no cache.
fn direct(q: &Query) -> CmdOut {
    execute(&mut AnalysisSession::new(), q)
}

/// `source` made new to the daemon in every key: a `work(rev)` statement
/// appended to `main` changes the canonical CFG (so `analysis` and every
/// key derived from it miss), the trailing comment changes the raw text.
/// Neither changes what `check` reports.
fn never_seen(source: &str, rev: u64) -> String {
    let body = source.trim_end().strip_suffix('}').unwrap_or(source);
    format!("{body}    work({rev});\n}}\n// rev {rev}\n")
}

/// `source` with only its raw text made new: raw-source keys miss,
/// canonical-CFG keys (`analysis`, `sim`) hit.
fn reformatted(source: &str, rev: u64) -> String {
    format!("{source}// rev {rev}\n")
}

/// The CFGs a warm request pretty-prints again to rebuild its
/// canonical-CFG cache keys (`analysis` on the source CFG, `sim` on the
/// optimized one), for the `ir.print` / `session.fingerprint` probes.
fn reprinted_cfgs(command: &str, source: &str) -> Result<Vec<Cfg>, String> {
    let compile = |level| {
        Syncopt::new(source)
            .procs(PROCS)
            .level(level)
            .compile()
            .map_err(|e| e.to_string())
    };
    Ok(match command {
        "lint" => Vec::new(),
        "run" => {
            let c = compile(OptLevel::Full)?;
            vec![c.source_cfg, c.optimized.cfg]
        }
        "profile" => {
            let (b, f) = (compile(OptLevel::Blocking)?, compile(OptLevel::Full)?);
            vec![b.source_cfg, b.optimized.cfg, f.source_cfg, f.optimized.cfg]
        }
        _ => vec![compile(OptLevel::Full)?.source_cfg],
    })
}

/// One request with the answer it must get.
#[derive(Clone)]
struct Case {
    query: Query,
    expected: CmdOut,
    class: &'static str,
    /// Traced `serve_warm` only; see [`reprinted_cfgs`].
    reprinted: Vec<Cfg>,
}

impl Case {
    fn new(query: Query, class: &'static str) -> Case {
        Case {
            expected: direct(&query),
            query,
            class,
            reprinted: Vec::new(),
        }
    }
}

fn check_reply(case: &Case, reply: &Result<(CmdOut, CacheStats), String>) -> Result<(), String> {
    let label = || format!("{} {}", case.query.command, case.query.file);
    match reply {
        Err(e) => Err(format!("{}: {e}", label())),
        Ok((out, _)) if out.failure.is_some() => {
            Err(format!("{}: failure {:?}", label(), out.failure))
        }
        Ok((out, _)) if *out != case.expected => Err(format!(
            "{}: reply differs from direct execution ({} vs {} stdout bytes)",
            label(),
            out.stdout.len(),
            case.expected.stdout.len()
        )),
        Ok(_) => Ok(()),
    }
}

/// Counts taken beside the spans of one traced pass.
#[derive(Default)]
struct PassCounts {
    cache: CacheStats,
    source_bytes: usize,
    request_bytes: usize,
    response_bytes: usize,
    cfg_text_bytes: usize,
}

/// The daemon's request log, read incrementally.
struct ReqLog {
    path: PathBuf,
    offset: u64,
    /// The entries, in request order (there is one connection).
    entries: Vec<ReqLogEntry>,
}

impl ReqLog {
    /// Reads the lines appended since the last call.
    fn poll(&mut self) -> Result<(), String> {
        let mut file = std::fs::File::open(&self.path).map_err(|e| e.to_string())?;
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| e.to_string())?;
        let mut chunk = String::new();
        file.read_to_string(&mut chunk).map_err(|e| e.to_string())?;
        // Only whole lines; the daemon may be mid-write.
        let whole = chunk.rfind('\n').map_or(0, |i| i + 1);
        let chunk = &chunk[..whole];
        self.offset += whole as u64;
        let header = format!(r#"{{"schema":"{REQLOG_SCHEMA}","version":"{SERVICE_VERSION}"}}"#);
        let body = chunk.strip_prefix(&header).unwrap_or(chunk);
        let fresh = parse_reqlog(&format!("{header}\n{body}"))?;
        self.entries.extend(fresh);
        Ok(())
    }

    /// Polls until the daemon has logged `count` requests (it writes a
    /// request's line just *after* sending its reply).
    fn wait_for(&mut self, count: u64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            self.poll()?;
            if self.entries.len() as u64 >= count {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "request log has {} of {count} entries",
                    self.entries.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// `ArtifactCache` driven directly at its default capacity: mean time of
/// a hit, and of an insert that must evict.
fn cache_probe() -> (f64, f64) {
    let mut cache = ArtifactCache::new(DEFAULT_CACHE_CAPACITY);
    let keys: Vec<Fingerprint> = (0..DEFAULT_CACHE_CAPACITY + 2048)
        .map(|i| Fingerprint::of(&i.to_string()))
        .collect();
    let (resident, fresh) = keys.split_at(DEFAULT_CACHE_CAPACITY);
    for (i, key) in resident.iter().enumerate() {
        cache.insert("probe", *key, i);
    }
    let t = Instant::now();
    for _ in 0..4 {
        for key in resident {
            black_box(cache.get::<usize>("probe", *key));
        }
    }
    let lookup_ns = elapsed_ns(t) as f64 / (4 * resident.len()) as f64;
    let t = Instant::now();
    for (i, key) in fresh.iter().enumerate() {
        cache.insert("probe", *key, i);
    }
    let evict_insert_ns = elapsed_ns(t) as f64 / fresh.len() as f64;
    assert_eq!(cache.stats().evictions, fresh.len() as u64);
    (lookup_ns, evict_insert_ns)
}

/// `serve_warm` (`EDIT == false`) and `serve_edit` (`EDIT == true`).
pub struct Serve<const EDIT: bool> {
    socket: PathBuf,
    daemon: JoinHandle<std::io::Result<()>>,
    client: DaemonClient,
    /// Requests sent on the client connection so far (the daemon logs
    /// them in this order).
    sent: u64,
    /// `serve_warm`: the shuffled request list. `serve_edit`: the list's
    /// templates, whose sources every pass makes new.
    cases: Vec<Case>,
    /// Traced `serve_warm`: a local session warmed with the same
    /// requests, for the in-process `session.warm_execute` probe.
    local: AnalysisSession,
    epoch: Instant,
    /// Tracer-clock time at which the daemon's own clock reads zero.
    daemon_zero_ns: u64,
    reqlog: Option<ReqLog>,
    cache_probe: (f64, f64),
}

impl<const EDIT: bool> Serve<EDIT> {
    const NAME: &'static str = if EDIT { "serve_edit" } else { "serve_warm" };

    /// The op list of one pass. `serve_edit` rewrites every source so that
    /// no two requests of a run carry the same text.
    fn pass_cases(&self, pass: u64) -> Vec<Case> {
        if !EDIT {
            return self.cases.clone();
        }
        self.cases
            .iter()
            .enumerate()
            .map(|(i, template)| {
                let rev = pass * EDIT_OPS as u64 + i as u64;
                let mut case = template.clone();
                let source = case.query.source.take().unwrap_or_default();
                case.query.source = Some(if case.class == "check" {
                    never_seen(&source, rev)
                } else {
                    reformatted(&source, rev)
                });
                case
            })
            .collect()
    }

    fn query(&mut self, q: &Query) -> Result<(CmdOut, CacheStats), String> {
        self.sent += 1;
        self.client.query(q)
    }

    /// One pass, tracing off.
    fn sweep(&mut self, pass_index: u64) -> Pass {
        let mut pass = Pass::default();
        for case in self.pass_cases(pass_index) {
            let t = Instant::now();
            let reply = black_box(self.query(black_box(&case.query)));
            let ns = elapsed_ns(t);
            pass.push(ns, check_reply(&case, &reply));
        }
        pass
    }

    /// One pass with spans on.
    fn sweep_traced(&mut self, pass_index: u64, layers: &mut Layers) -> Pass {
        let cases = self.pass_cases(pass_index);
        let mut pass = Pass::default();
        let mut t = Tracer::new(self.epoch);
        let mut counts = PassCounts::default();
        // (op span, ordinal of its request on the connection)
        let mut ops: Vec<(usize, u64)> = Vec::new();
        let op_base = pass_index * 1_000_000;
        for _ in 0..PINGS {
            self.sent += 1;
            let _ = t.probe("daemon.ping", op_base, "ping", || self.client.ping());
        }
        for (i, case) in cases.iter().enumerate() {
            let (op, class, q) = (op_base + i as u64, case.class, &case.query);
            let ordinal = self.sent;
            let (span, reply) = t.span("op", Kind::Op, op, class, |_| self.query(q));
            ops.push((span, ordinal));
            pass.push(t.spans()[span].dur_ns(), check_reply(case, &reply));
            counts.source_bytes += q.source.as_ref().map_or(0, String::len);

            // The wire format, timed in isolation. Encoding the request
            // and decoding the reply happen inside the op on the client's
            // side, where no other span covers them: they are layers. The
            // other two directions repeat work the daemon's own decode and
            // encode phases already cover: probes.
            let id = i as i64 + 1;
            let line = t.layer("rpc.encode_request", op, class, || {
                let request = Request {
                    id,
                    body: RequestBody::Query(q.clone()),
                };
                rpc::encode_request(&request).to_string()
            });
            counts.request_bytes += line.len() + 1;
            let _ = t.probe("rpc.decode_request", op, class, || {
                rpc::decode_request(&line)
            });
            if let Ok((out, stats)) = &reply {
                counts.cache.hits += stats.hits;
                counts.cache.misses += stats.misses;
                counts.cache.evictions += stats.evictions;
                let line = t.probe("rpc.encode_response", op, class, || {
                    rpc::query_response(id, out, *stats).to_string()
                });
                counts.response_bytes += line.len() + 1;
                let _ = t.layer("rpc.decode_response", op, class, || {
                    rpc::decode_response(&line)
                });
            }
            if !EDIT {
                // What the daemon's `execute` phase does, without the daemon.
                let local = &mut self.local;
                let _ = t.probe("session.warm_execute", op, class, || execute(local, q));
                let source = q.source.as_deref().unwrap_or_default();
                let texts = t.probe("ir.print", op, class, || {
                    case.reprinted.iter().map(cfg_to_string).collect::<Vec<_>>()
                });
                t.probe("session.fingerprint", op, class, || {
                    black_box(Fingerprint::of_parts(&["src.v1", source]));
                    for text in &texts {
                        black_box(Fingerprint::of_parts(&["analysis.v1", text, "16"]));
                    }
                });
                counts.cfg_text_bytes += texts.iter().map(String::len).sum::<usize>();
            }
        }
        let mut spans = t.spans().to_vec();
        if let Err(e) = self.adopt_daemon_spans(&mut spans, &ops) {
            pass.failed += 1;
            pass.first_error.get_or_insert(e);
        }

        let n = pass.op_ns.len().max(1) as f64;
        let summary = layers.record_spans(spans);
        let (op_self_ns, op_count) = summary.by_name.get("op").copied().unwrap_or((0, 1));
        layers.push("client.roundtrip_us", summary.op_ns as f64 / n / 1e3);
        layers.push(
            "client.overhead_us",
            op_self_ns as f64 / op_count.max(1) as f64 / 1e3,
        );
        layers.push("cache.hits", counts.cache.hits as f64);
        layers.push("cache.misses", counts.cache.misses as f64);
        layers.push("cache.evictions", counts.cache.evictions as f64);
        layers.push(
            "cache.hit_ratio_permille",
            counts.cache.hits as f64 * 1000.0 / counts.cache.lookups().max(1) as f64,
        );
        layers.push("cache.lookup_ns", self.cache_probe.0);
        layers.push("cache.evict_insert_ns", self.cache_probe.1);
        layers.push("rpc.request_bytes", counts.request_bytes as f64 / n);
        layers.push("rpc.response_bytes", counts.response_bytes as f64 / n);
        layers.push("frontend.src_bytes", counts.source_bytes as f64);
        if !EDIT {
            layers.push("ir.cfg_text_bytes", counts.cfg_text_bytes as f64);
        }
        pass
    }

    /// Nests the daemon's own decode / execute / encode phases, read from
    /// its request log, under each op span.
    fn adopt_daemon_spans(
        &mut self,
        spans: &mut Vec<Span>,
        ops: &[(usize, u64)],
    ) -> Result<(), String> {
        let log = self
            .reqlog
            .as_mut()
            .ok_or("traced run without a request log")?;
        let Some(&(_, last)) = ops.last() else {
            return Ok(());
        };
        log.wait_for(last + 1)?;
        for &(span, ordinal) in ops {
            let e = &log.entries[ordinal as usize];
            if matches!(e.op.as_str(), "ping" | "stats" | "invalid") {
                return Err(format!(
                    "request log line {} is `{}`, not a query",
                    e.id, e.op
                ));
            }
            let start = self.daemon_zero_ns + e.start_us * 1000;
            let end = spans::adopt(spans, span, "daemon.decode", start, e.decode_us * 1000, 0);
            let end = spans::adopt(spans, span, "daemon.execute", end, e.execute_us * 1000, end);
            spans::adopt(spans, span, "daemon.encode", end, e.encode_us * 1000, end);
        }
        Ok(())
    }

    /// Sends throwaway `analyze` requests of distinct one-line programs
    /// until the daemon's cache is at capacity, so that every insert of
    /// the timed passes evicts — also in the passes a best-of picks.
    fn fill_cache(&mut self) -> Result<(), String> {
        for n in 0u64.. {
            if n % 64 == 0 {
                self.sent += 1;
                let stats = self.client.stats()?;
                let field = |key| stats.get(key).and_then(Value::as_int);
                match (field("artifacts"), field("capacity")) {
                    (Some(have), Some(capacity)) if have >= capacity => return Ok(()),
                    (Some(_), Some(_)) => {}
                    _ => return Err("stats reply lacks artifacts/capacity".to_string()),
                }
            }
            let filler = format!("shared int X; fn main() {{ X = {n}; }}\n");
            let reply = self.query(&base_query("analyze", "fill.ms", filler))?;
            if let Some(failure) = reply.0.failure {
                return Err(format!("filler request failed: {failure}"));
            }
        }
        unreachable!("the loop only ends by returning")
    }
}

impl<const EDIT: bool> Workload for Serve<EDIT> {
    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        std::fs::create_dir_all(OUT_DIR)
            .map_err(|e| format!("cannot create {OUT_DIR} (run from the repository root): {e}"))?;
        let socket = PathBuf::from(format!("{OUT_DIR}/{}.sock", Self::NAME));
        let log_path = PathBuf::from(format!("{OUT_DIR}/reqlog-{}.jsonl", Self::NAME));

        // Expected answers first, so no daemon is left running if an
        // input turns out bad.
        let kernels = all_kernels(PROCS);
        let mut cases = Vec::new();
        if EDIT {
            let mut draw = seed;
            for i in 0..EDIT_OPS {
                if i % 2 == 1 {
                    let k = &kernels[(i / 2) % kernels.len()];
                    let query = base_query("run", &format!("{}.ms", k.name), k.source.clone());
                    cases.push(Case::new(query, "run"));
                    continue;
                }
                // A racy draw makes `check` exit 1, and ops must not
                // fail: draw on until one checks clean.
                loop {
                    let source = corpus_program(draw);
                    draw = draw.wrapping_add(1);
                    let mut case = Case::new(
                        base_query("check", "edit.ms", never_seen(&source, 0)),
                        "check",
                    );
                    if case.expected.failure.is_none() {
                        case.query.source = Some(source);
                        cases.push(case);
                        break;
                    }
                }
            }
        } else {
            for k in &kernels {
                for command in COMMANDS {
                    let query = base_query(command, &format!("{}.ms", k.name), k.source.clone());
                    let mut case = Case::new(query, command);
                    if traced {
                        case.reprinted = reprinted_cfgs(command, &k.source)?;
                    }
                    cases.push(case);
                }
            }
            Rng::new(seed).shuffle(&mut cases);
        }

        let epoch = Instant::now();
        let telemetry = TelemetryConfig {
            log: traced.then(|| log_path.clone()),
            ..TelemetryConfig::default()
        };
        let before_ns = elapsed_ns(epoch);
        let daemon = Daemon::bind_with(&socket, AnalysisSession::new(), Some(telemetry))
            .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
        let daemon_zero_ns = (before_ns + elapsed_ns(epoch)) / 2;
        let daemon = std::thread::spawn(move || daemon.run());
        let mut client =
            DaemonClient::connect(&socket).map_err(|e| format!("cannot connect: {e}"))?;
        client.ping()?;

        let mut local = AnalysisSession::new();
        if traced && !EDIT {
            for case in &cases {
                execute(&mut local, &case.query);
            }
        }
        let mut w = Serve {
            socket,
            daemon,
            client,
            sent: 1,
            cases,
            local,
            epoch,
            daemon_zero_ns,
            reqlog: traced.then(|| ReqLog {
                path: log_path,
                offset: 0,
                entries: Vec::new(),
            }),
            cache_probe: if traced { cache_probe() } else { (0.0, 0.0) },
        };
        // One validating pass: it checks every kind of op once and warms
        // the daemon (every request of `serve_warm`; the kernels'
        // canonical artifacts for `serve_edit`).
        let first = w.sweep(0);
        if let Some(e) = first.first_error {
            return Err(format!("validating pass: {e}"));
        }
        if EDIT {
            w.fill_cache()?;
        }
        Ok(w)
    }

    fn pass(&mut self, index: u64) -> Pass {
        self.sweep(index + 1)
    }

    fn traced_pass(&mut self, index: u64, layers: &mut Layers) -> Pass {
        self.sweep_traced(index + 1, layers)
    }

    fn finish(mut self) -> Result<(), String> {
        self.client.shutdown()?;
        drop(self.client);
        self.daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon exited with {e}"))?;
        if self.socket.exists() {
            return Err(format!("{} left behind", self.socket.display()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_probe_measures_hits_and_evicting_inserts() {
        let (lookup_ns, evict_insert_ns) = cache_probe();
        assert!(lookup_ns > 0.0 && evict_insert_ns > lookup_ns);
    }

    #[test]
    fn wrong_reply_is_a_failed_op() {
        let case = Case::new(base_query("check", "t.ms", corpus_program(3)), "check");
        let stats = CacheStats::default();
        assert!(check_reply(&case, &Ok((case.expected.clone(), stats))).is_ok());
        let mut wrong = case.expected.clone();
        wrong.stdout.push(' ');
        assert!(check_reply(&case, &Ok((wrong, stats)))
            .unwrap_err()
            .contains("differs"));
        assert!(check_reply(&case, &Err("daemon closed".to_string())).is_err());
        let mut failed = case.expected.clone();
        failed.failure = Some("boom".to_string());
        assert!(check_reply(&case, &Ok((failed, stats)))
            .unwrap_err()
            .contains("failure"));
    }

    #[test]
    fn edits_change_the_keys_they_should_and_never_the_answer() {
        // A reformatted kernel: same answer, same canonical CFG.
        let kernel = &all_kernels(PROCS)[0];
        let run = |source: String| direct(&base_query("run", "k.ms", source));
        assert_eq!(
            run(kernel.source.clone()),
            run(reformatted(&kernel.source, 7))
        );
        let cfg_text = |source: &str| {
            cfg_to_string(
                &Syncopt::new(source)
                    .procs(PROCS)
                    .compile()
                    .unwrap()
                    .source_cfg,
            )
        };
        assert_eq!(
            cfg_text(&kernel.source),
            cfg_text(&reformatted(&kernel.source, 7))
        );
        // A never-seen program: same answer whatever the revision, but a
        // canonical CFG of its own, so nothing cached can serve it.
        for draw in 0..20 {
            let source = corpus_program(draw);
            let check = |rev| direct(&base_query("check", "c.ms", never_seen(&source, rev)));
            assert_eq!(check(0), check(123_456), "corpus_{draw}");
            assert_ne!(
                cfg_text(&never_seen(&source, 1)),
                cfg_text(&never_seen(&source, 2)),
                "corpus_{draw}"
            );
        }
    }
}
