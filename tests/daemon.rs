//! Integration tests for `syncoptd`: daemon-mode answers must be
//! byte-identical to direct-mode execution, and one daemon must serve
//! many concurrent clients without interleaving or corrupting responses.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use syncopt::client::DaemonClient;
use syncopt::commands::{command_names, execute, CmdOut, Format, Query};
use syncopt::core::corpus::corpus_program;
use syncopt::core::diag::json::Value;
use syncopt::core::CacheStats;
use syncopt::daemon::{Daemon, MAX_REQUEST_BYTES};
use syncopt::kernels::all_kernels;
use syncopt::rpc::{self, Request, RequestBody};
use syncopt::session::AnalysisSession;

fn test_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("syncoptd-it-{}-{name}.sock", std::process::id()))
}

fn start(name: &str) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let path = test_socket(name);
    let _ = std::fs::remove_file(&path);
    let daemon = Daemon::bind(&path).expect("bind daemon socket");
    let handle = std::thread::spawn(move || daemon.run());
    (path, handle)
}

fn stop(path: &Path, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    DaemonClient::connect(path)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    handle.join().unwrap().expect("daemon exits cleanly");
}

fn query(command: &str, name: &str, source: &str, format: Format) -> Query {
    Query {
        command: command.to_string(),
        file: name.to_string(),
        source: Some(source.to_string()),
        format,
        ..Query::default()
    }
}

#[test]
fn daemon_output_is_byte_identical_to_direct_mode_on_all_kernels() {
    let (path, handle) = start("kernels");
    let mut client = DaemonClient::connect(&path).expect("connect");
    for kernel in all_kernels(4) {
        for command in ["check", "explain", "lint", "profile"] {
            for format in [Format::Human, Format::Json] {
                let q = query(command, kernel.name, &kernel.source, format);
                let direct = execute(&mut AnalysisSession::new(), &q);
                let (remote, _) = client.query(&q).expect(command);
                assert_eq!(
                    remote, direct,
                    "{command} {} must be byte-identical over the daemon",
                    kernel.name
                );
            }
        }
    }
    stop(&path, handle);
}

/// A daemon that has served a program answers a reformatted copy of it —
/// new raw text, so no stored reply; same canonical CFG, so `analysis`,
/// `opt` and `sim` hit —
/// with the bytes a direct run of the reformatted text prints.
#[test]
fn reformatted_source_on_a_warm_daemon_is_byte_identical_to_direct_mode() {
    use syncopt::core::corpus::CORPUS_SEEDS;
    let (path, handle) = start("reformatted");
    let mut client = DaemonClient::connect(&path).expect("connect");
    let mut programs: Vec<(String, String)> = all_kernels(4)
        .into_iter()
        .map(|k| (k.name.to_string(), k.source))
        .collect();
    programs
        .extend((0..CORPUS_SEEDS).map(|seed| (format!("corpus-{seed}.ms"), corpus_program(seed))));
    for (name, source) in &programs {
        for command in ["run", "opt", "profile"] {
            let request = |text: &str| Query {
                dump: command == "opt",
                ..query(command, name, text, Format::Human)
            };
            client.query(&request(source)).expect(command);
            // A text the daemon has not seen, for each command.
            let reformatted = format!("// moved for {command}\n\n{source}\n\n// trailing\n");
            let q = request(&reformatted);
            let direct = execute(&mut AnalysisSession::new(), &q);
            let (remote, served) = client.query(&q).expect(command);
            assert_eq!(remote, direct, "{command} {name}");
            // cfg and the stored reply are keyed by the raw text; nothing
            // else is rebuilt — except a simulation that fails, which is
            // never cached.
            let rebuilt = 2 + u64::from(remote.failure.is_some());
            assert_eq!(served.misses, rebuilt, "{command} {name}: {served:?}");
        }
    }
    stop(&path, handle);
}

#[test]
fn daemon_cache_warms_across_clients() {
    let (path, handle) = start("warm");
    let kernel = &all_kernels(4)[0];
    let q = query("check", kernel.name, &kernel.source, Format::Json);

    let (first, cold) = DaemonClient::connect(&path)
        .expect("client 1")
        .query(&q)
        .expect("cold query");
    assert!(cold.misses > 0, "first client builds the artifacts");

    // A *different* connection benefits from the shared session cache.
    let (second, warm) = DaemonClient::connect(&path)
        .expect("client 2")
        .query(&q)
        .expect("warm query");
    assert_eq!(second, first, "cache reuse must not change the bytes");
    assert_eq!(warm.misses, 0, "second client is served from cache");
    assert!(warm.hits > 0);
    stop(&path, handle);
}

/// N parallel clients hammer one daemon with a mixed workload; every
/// response must match the direct-mode result for *that* request — no
/// interleaved, truncated, or cross-wired payloads.
#[test]
fn parallel_clients_get_deterministic_uncorrupted_responses() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;

    // Mixed workload: distinct corpus programs + one shared kernel, over
    // several commands, so requests contend on the session lock while
    // carrying different payloads.
    let kernel = Arc::new(all_kernels(4)[0].clone());
    let workload: Arc<Vec<(Query, CmdOut)>> = Arc::new(
        (0..CLIENTS)
            .flat_map(|client| {
                let kernel = Arc::clone(&kernel);
                (0..ROUNDS).map(move |round| {
                    let (command, format) = match round % 3 {
                        0 => ("check", Format::Json),
                        1 => ("lint", Format::Human),
                        _ => ("explain", Format::Json),
                    };
                    if round % 2 == 0 {
                        let seed = (client * ROUNDS + round) as u64;
                        query(
                            command,
                            &format!("corpus-{seed}.ms"),
                            &corpus_program(seed),
                            format,
                        )
                    } else {
                        query(command, kernel.name, &kernel.source, format)
                    }
                })
            })
            .map(|q| {
                let expected = execute(&mut AnalysisSession::new(), &q);
                (q, expected)
            })
            .collect(),
    );

    let (path, handle) = start("parallel");
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let path = path.clone();
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || {
                let mut conn = DaemonClient::connect(&path).expect("connect");
                for round in 0..ROUNDS {
                    let (q, expected) = &workload[client * ROUNDS + round];
                    let (got, _) = conn.query(q).expect("query");
                    assert_eq!(
                        &got, expected,
                        "client {client} round {round} ({}) got a wrong or corrupted response",
                        q.command
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread must not panic");
    }
    stop(&path, handle);
}

/// Pins the `daemon.rs` claim that per-request cache deltas are "atomic
/// with respect to the cache": with 8 concurrent clients contending on
/// the shared session, every delta must be internally consistent, and —
/// because each delta is computed under the session lock around exactly
/// one query — the deltas must sum *exactly* to the global cache
/// counters. A race (delta windows overlapping another client's query)
/// would double-count or drop lookups and break the equality.
#[test]
fn concurrent_cache_deltas_sum_to_global_counters() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;
    let (path, handle) = start("deltas");
    let kernels = Arc::new(all_kernels(4));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let path = path.clone();
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || {
                let mut conn = DaemonClient::connect(&path).expect("connect");
                let mut sum = CacheStats::default();
                for round in 0..ROUNDS {
                    let kernel = &kernels[(client + round) % kernels.len()];
                    let q = query("check", kernel.name, &kernel.source, Format::Json);
                    let (out, delta) = conn.query(&q).expect("query");
                    assert!(out.failure.is_none(), "kernel check must pass");
                    // Internal consistency: every check performs cache
                    // lookups, and nothing can be evicted that was not
                    // first inserted on a miss.
                    assert!(
                        delta.hits + delta.misses > 0,
                        "client {client} round {round}: empty delta"
                    );
                    assert!(
                        delta.evictions <= delta.misses,
                        "client {client} round {round}: more evictions than insertions"
                    );
                    sum.add(&delta);
                }
                sum
            })
        })
        .collect();
    let mut total = CacheStats::default();
    for t in threads {
        let sum = t.join().expect("client thread must not panic");
        total.add(&sum);
    }
    // Queries are the only cache traffic, so the summed deltas must
    // equal the session's global counters exactly.
    let stats = DaemonClient::connect(&path)
        .expect("connect for stats")
        .stats()
        .expect("stats");
    let global = |key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(syncopt::core::diag::json::Value::as_int)
            .unwrap_or(-1) as u64
    };
    for (name, n) in CacheStats::NAMES.into_iter().zip(total.values()) {
        assert_eq!(global(name), n, "`{name}` deltas must tile the total");
    }
    stop(&path, handle);
}

/// Two request lines that used to take the daemon down or its memory
/// with it: nesting deep enough to overflow the recursive JSON parser's
/// stack, and a line with no end in sight. Each must come back as a
/// coded `bad-request` to the connection that sent it, and a second
/// client must find the daemon serving afterwards.
#[test]
fn hostile_request_lines_get_bad_request_and_leave_the_daemon_serving() {
    let (path, handle) = start("hostile");
    let ping_from_a_second_client = || {
        DaemonClient::connect(&path)
            .expect("second client connects")
            .ping()
            .expect("second client's ping");
    };
    let connect = || {
        let stream = UnixStream::connect(&path).expect("connect");
        (stream.try_clone().unwrap(), BufReader::new(stream))
    };
    let mut reply = String::new();

    let (mut writer, mut reader) = connect();
    writer
        .write_all(format!("{}\n", "[".repeat(200_000)).as_bytes())
        .unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""code":"bad-request""#), "got: {reply}");
    assert!(reply.contains(r#""id":0"#), "got: {reply}");
    assert!(
        reply.contains("nesting deeper than 128 at byte 128"),
        "got: {reply}"
    );
    ping_from_a_second_client();
    // A malformed line is that request's problem only: the connection
    // that sent it is still served.
    reply.clear();
    writer
        .write_all(b"{\"schema\":\"syncopt.rpc.v1\",\"id\":2,\"op\":\"ping\"}\n")
        .unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""pong":true"#), "got: {reply}");

    let (mut writer, mut reader) = connect();
    let mut line = vec![b' '; MAX_REQUEST_BYTES + 1];
    line.push(b'\n');
    writer.write_all(&line).unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""code":"bad-request""#), "got: {reply}");
    assert!(reply.contains(r#""id":0"#), "got: {reply}");
    assert!(
        reply.contains(&format!("longer than {MAX_REQUEST_BYTES} bytes")),
        "got: {reply}"
    );
    // The daemon closes the connection that sent it, and only that one.
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "got: {reply}");
    ping_from_a_second_client();

    // A line of exactly the limit is read whole and answered on its
    // merits (here: blank, so skipped), and the connection lives on.
    let (mut writer, mut reader) = connect();
    line.remove(0);
    writer.write_all(&line).unwrap();
    writer
        .write_all(b"{\"schema\":\"syncopt.rpc.v1\",\"id\":3,\"op\":\"ping\"}\n")
        .unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""id":3"#), "got: {reply}");
    stop(&path, handle);
}

/// The simulation shard fields and `threads` left the wire: a query that
/// names one is a coded `bad-request` for that request alone, and the same
/// connection is served the query without it.
#[test]
fn a_query_naming_a_removed_shard_field_gets_bad_request_and_the_daemon_keeps_serving() {
    let (path, handle) = start("shard-fields");
    let mut conn = raw_connection(&path);
    let source = r#""shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }""#;
    let request = |id: i64, extra: &str| {
        format!(
            r#"{{"schema":"syncopt.rpc.v1","id":{id},"op":"query","query":{{"command":"run","source":{source}{extra}}}}}"#
        )
    };
    for (id, field, extra) in [
        (1, "sim_shards", r#","sim_shards":2"#),
        (2, "sim_partition", r#","sim_partition":"block""#),
        (3, "threads", r#","threads":2"#),
    ] {
        let reply = exchange(&mut conn, &request(id, extra));
        assert!(reply.contains(r#""code":"bad-request""#), "got: {reply}");
        assert!(reply.contains(&format!(r#""id":{id}"#)), "got: {reply}");
        assert!(
            reply.contains(&format!("unknown query field `{field}`")),
            "got: {reply}"
        );
    }
    let reply = exchange(&mut conn, &request(4, ""));
    assert!(reply.contains(r#""ok":true"#), "got: {reply}");
    assert!(reply.contains("execution:"), "got: {reply}");
    stop(&path, handle);
}

/// `procs 0` is a query failure, not a panic: the daemon counts none and
/// keeps its cache, so a repeated query still hits.
#[test]
fn a_zero_processor_query_fails_without_a_panic_and_the_cache_survives() {
    let (path, handle) = start("procs-zero");
    let mut client = DaemonClient::connect(&path).expect("connect");
    let src = "shared int A[8]; fn main() { A[MYPROC] = 1; barrier; }";
    let warm = query("check", "p.ms", src, Format::Json);
    client.query(&warm).expect("a query that fills the cache");
    for command in ["run", "profile", "trace", "analyze", "check"] {
        let zero = Query {
            procs: 0,
            ..query(command, "p.ms", src, Format::Human)
        };
        let (out, _) = client.query(&zero).expect(command);
        let failure = out.failure.as_deref();
        assert_eq!(failure, Some("`procs` must be at least 1"), "{command}");
        assert!(out.stdout.is_empty(), "{command}");
    }
    let stats = client.stats().expect("stats");
    let panics = ["metrics", "metrics", "counters", "rpc.panics_total"]
        .iter()
        .try_fold(&stats, |v, key| v.get(key))
        .and_then(Value::as_int);
    assert_eq!(panics, Some(0), "{stats}");
    let (_, cache) = client.query(&warm).expect("the warm query");
    assert_eq!((cache.hits, cache.misses), (1, 0));
    stop(&path, handle);
}

/// `i64::MIN % -1` — folded, evaluated in a guard and simulated — used to
/// panic in every command that reached it, each answered `internal` with
/// the session's cache thrown away. It is an ordinary answer now.
#[test]
fn an_i64_min_remainder_is_answered_without_a_panic_and_the_cache_survives() {
    let (path, handle) = start("min-remainder");
    let mut client = DaemonClient::connect(&path).expect("connect");
    let warm = query(
        "check",
        "p.ms",
        "shared int A[8]; fn main() { A[MYPROC] = 1; }",
        Format::Json,
    );
    client.query(&warm).expect("a query that fills the cache");
    let constant = "shared int X;\n\
        fn main() { int x; x = ((0 - 9223372036854775807) - 1) % (0 - 1); if (MYPROC == 0) { X = x; } }";
    let guard = "shared int X;\n\
        fn main() { if (((0 - 9223372036854775807) - 1) % (0 - 1) == MYPROC) { X = 1; } }";
    let cases = [
        ("opt", constant),
        ("lint", constant),
        ("analyze", guard),
        ("check", guard),
        ("run", constant),
        ("litmus", constant),
    ];
    for (command, src) in cases {
        let q = Query {
            level: syncopt::OptLevel::Full,
            ..query(command, "rem.ms", src, Format::Human)
        };
        let (out, _) = client.query(&q).expect(command);
        assert_eq!(out.failure, None, "{command}");
    }
    let stats = client.stats().expect("stats");
    let panics = ["metrics", "metrics", "counters", "rpc.panics_total"]
        .iter()
        .try_fold(&stats, |v, key| v.get(key))
        .and_then(Value::as_int);
    assert_eq!(panics, Some(0), "{stats}");
    let (_, cache) = client.query(&warm).expect("the warm query");
    assert_eq!((cache.hits, cache.misses), (1, 0));
    stop(&path, handle);
}

/// Sends one raw request line on a connection and returns the reply line.
fn exchange(conn: &mut (UnixStream, BufReader<UnixStream>), line: &str) -> String {
    conn.0.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    conn.1.read_line(&mut reply).unwrap();
    reply
}

fn raw_connection(path: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(path).expect("connect");
    (stream.try_clone().unwrap(), BufReader::new(stream))
}

/// A JSON string literal as Python's `json.dumps` writes it: ASCII only,
/// `\b` and `\f` for a backspace and a form feed, and every other
/// character past `~` as `\u` escapes of its UTF-16 code units.
fn python_json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// A client that encodes its requests the way Python's `json` module does
/// gets the bytes our own client gets: a backspace, a form feed and an
/// emoji in a comment, and an escaped `/` in the file name, all decode.
#[test]
fn a_request_encoded_by_python_gets_the_same_reply_bytes() {
    let (path, handle) = start("python");
    let source = "shared int A[8];\n// caf\u{e9} \u{1f600} \u{8}\u{c} \"q\" \\ done\nfn main() { A[MYPROC] = 1; barrier; }\n";
    let q = query("check", "dir/emoji.ms", source, Format::Json);
    let ours = syncopt::rpc::encode_request(&syncopt::rpc::Request {
        id: 7,
        body: syncopt::rpc::RequestBody::Query(q.clone()),
    })
    .to_string();
    let python = format!(
        r#"{{"schema": "syncopt.rpc.v1", "id": 7, "op": "query", "query": {{"command": "check", "file": "dir\/emoji.ms", "source": {}, "format": "json"}}}}"#,
        python_json_string(source)
    );
    assert!(python.is_ascii() && python.contains(r"\ud83d\ude00") && python.contains(r"\b\f"));
    let mut conn = raw_connection(&path);
    // The first request fills the cache, so the two compared both hit it.
    let cold = exchange(&mut conn, &ours);
    assert!(cold.contains(r#""ok":true"#), "{cold}");
    let from_python = exchange(&mut conn, &python);
    let warm = exchange(&mut conn, &ours);
    assert_eq!(from_python, warm);
    let direct = execute(&mut AnalysisSession::new(), &q);
    assert!(direct.failure.is_none(), "{direct:?}");
    let reply = syncopt::rpc::decode_response(warm.trim_end()).unwrap();
    assert!(matches!(reply.body, syncopt::rpc::ReplyBody::Query(out, _) if out == direct));
    stop(&path, handle);
}

/// The reply line a client reads is, byte for byte, the line
/// `rpc::query_response` writes for the direct answer and the request's
/// cache delta — cold and warm, for every command, a file artifact and a
/// failure. The suites above compare decoded answers, which a reply that
/// reordered or re-escaped a member would pass.
#[test]
fn raw_reply_lines_are_the_direct_answer_spliced_cold_and_warm() {
    let figure1 = include_str!("../programs/figure1.ms");
    let racy = include_str!("../programs/figure1_racy.ms");
    let mut queries: Vec<Query> = [Format::Human, Format::Json]
        .into_iter()
        .flat_map(|format| command_names().map(move |c| query(c, "figure1.ms", figure1, format)))
        .collect();
    let emit_report = Query {
        emit_report: Some("reports/figure1.json".to_string()),
        ..query("run", "figure1.ms", figure1, Format::Human)
    };
    let racy_check = query("check", "figure1_racy.ms", racy, Format::Human);
    assert!(execute(&mut AnalysisSession::new(), &emit_report)
        .file
        .is_some());
    assert!(execute(&mut AnalysisSession::new(), &racy_check)
        .failure
        .is_some());
    queries.extend([emit_report, racy_check]);

    let (path, handle) = start("raw-lines");
    let mut conn = raw_connection(&path);
    // Sees the queries the daemon's session sees, in the same order, so
    // its delta around each is the one the daemon reports.
    let mut mirror = AnalysisSession::new();
    let mut id = 0;
    for pass in ["cold", "warm"] {
        for q in &queries {
            id += 1;
            let before = mirror.cache_stats();
            execute(&mut mirror, q);
            let delta = mirror.cache_stats().since(before);
            let direct = execute(&mut AnalysisSession::new(), q);
            let request = rpc::encode_request(&Request {
                id,
                body: RequestBody::Query(q.clone()),
            });
            let line = exchange(&mut conn, &request.to_string());
            assert_eq!(
                line,
                format!("{}\n", rpc::query_response(id, &direct, delta)),
                "{pass} {} ({:?})",
                q.command,
                q.format
            );
        }
    }
    stop(&path, handle);
}

/// A request that fails to decode is answered with the `id` it carried —
/// whatever part of it was wrong — and with 0 when it carried none.
#[test]
fn a_request_that_fails_to_decode_gets_its_own_id_back() {
    let (path, handle) = start("ids");
    let mut conn = raw_connection(&path);
    for (line, id, code) in [
        (
            r#"{"schema":"syncopt.rpc.v9","id":11,"op":"ping"}"#,
            11,
            "unsupported",
        ),
        (
            r#"{"schema":"syncopt.rpc.v1","id":12,"op":"warp"}"#,
            12,
            "unsupported",
        ),
        (
            r#"{"schema":"syncopt.rpc.v1","id":13,"op":"query","query":{"command":"check","procs":"many"}}"#,
            13,
            "bad-request",
        ),
        (
            r#"{"schema":"syncopt.rpc.v1","op":"ping"}"#,
            0,
            "bad-request",
        ),
        ("this is not json", 0, "bad-request"),
    ] {
        let reply = exchange(&mut conn, line);
        let v = Value::parse(reply.trim_end()).expect("a JSON reply");
        assert_eq!(
            v.get("id").and_then(Value::as_int),
            Some(id),
            "{line}: {reply}"
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some(code),
            "{line}: {reply}"
        );
    }
    stop(&path, handle);
}

/// A rendered one-line-source diagnostic: every line under 1 KiB (the
/// snippet quotes a window of the line, `...` where it was cut), and the
/// window holds the source text at the column the `-->` line names, with
/// the caret under that column.
fn assert_snippet_quotes_the_span(rendered: &str, source: &str) {
    let longest = rendered.lines().map(str::len).max().unwrap_or(0);
    assert!(longest < 1024, "a {longest}-byte line");
    let col: usize = rendered
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("-->"))
        .and_then(|at| at.rsplit(':').next()?.parse().ok())
        .expect("a --> line");
    let lines: Vec<&str> = rendered.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains('^'))
        .expect("a caret line");
    let after_bar = |l: &str| l[l.find("| ").expect("a gutter") + 2..].to_string();
    let (quoted, caret) = (
        after_bar(lines[at - 1]),
        after_bar(lines[at]).find('^').unwrap(),
    );
    let skip = if quoted.starts_with("...") { 3 } else { 0 };
    let text = quoted[skip..]
        .strip_suffix("...")
        .unwrap_or(&quoted[skip..]);
    let from = col - 1 - (caret - skip);
    assert!(
        source[from..].starts_with(text),
        "the window is not the source at column {col}"
    );
}

/// A source nested 100 000 deep fits under the request-line limit; it used
/// to overflow the stack of the connection thread and take the whole
/// daemon — every client's session — down with it. It is answered with the
/// parser's coded diagnostic, and the daemon goes on serving.
#[test]
fn a_deeply_nested_source_is_refused_and_the_daemon_stays_up() {
    let (path, handle) = start("nesting");
    let mut client = DaemonClient::connect(&path).expect("connect");
    let n = 100_000;
    let deep = format!(
        "shared int X; fn main() {{ X = {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    assert!(deep.len() < MAX_REQUEST_BYTES);
    for command in ["check", "run", "lint", "explain"] {
        let q = query(command, "deep.ms", &deep, Format::Human);
        let (out, _) = client.query(&q).expect("the daemon answers");
        let failure = out.failure.clone().expect("the query fails");
        assert!(
            failure.contains("nesting deeper than 128 levels"),
            "{command}: {}",
            failure.lines().next().unwrap_or_default()
        );
        assert_snippet_quotes_the_span(&failure, &deep);
        assert_eq!(out, execute(&mut AnalysisSession::new(), &q), "{command}");
    }
    client.ping().expect("the same connection still answers");
    let kernel = &all_kernels(4)[0];
    let q = query("check", kernel.name, &kernel.source, Format::Json);
    let (out, _) = DaemonClient::connect(&path)
        .expect("a new connection is accepted")
        .query(&q)
        .expect("check");
    assert!(out.failure.is_none());
    stop(&path, handle);
}
