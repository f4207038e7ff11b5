#!/usr/bin/env sh
# CI smoke test for the syncoptd analysis daemon.
#
# Usage: scripts/daemon_smoke.sh SYNCOPTC_BIN [SYNCOPTD_BIN]
#
# Starts a daemon on a private socket, routes check / explain / lint
# through `syncoptc --daemon`, and diffs every byte of stdout against
# direct (in-process) mode — the two must be identical. Also verifies
# ping/stats control ops, that `stats --format json` returns a
# `syncopt.metrics.v1` document with the required service metrics, that
# the `metrics` op emits well-shaped Prometheus text, that a repeated
# daemon query is served from the artifact cache (stats hits grow,
# misses do not) and, sent twice raw, answered from its stored reply
# alone (one hit, byte-equal stdout), that `run --procs 0` fails with a
# message and counts no panic, that query stdout is byte-identical with telemetry
# enabled and disabled (`--no-telemetry`), that a request line nested
# 200 000 deep and one longer than the 16 MiB line limit each come back
# as `bad-request` with the daemon still answering `ping` afterwards
# (sent raw with python3; skipped with a notice where there is none),
# that a query whose command holds a quote, a brace and newlines leaves
# the Prometheus text well-formed and is counted under op="other", and
# that `shutdown` stops the daemon cleanly and removes the socket file.
# See docs/API.md for the syncopt.rpc.v1 protocol and
# docs/OBSERVABILITY.md for the service metrics.
set -eu

BIN="${1:-./target/release/syncoptc}"
DBIN="${2:-$(dirname "$BIN")/syncoptd}"

for b in "$BIN" "$DBIN"; do
    if [ ! -x "$b" ]; then
        echo "daemon_smoke: $b not found or not executable (build with: cargo build --release)" >&2
        exit 2
    fi
done

TMPDIR_SMOKE="$(mktemp -d)"
SOCK="$TMPDIR_SMOKE/syncoptd.sock"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT

echo "== start syncoptd =="
"$DBIN" --socket "$SOCK" 2> "$TMPDIR_SMOKE/daemon.log" &
DAEMON_PID=$!

# Wait for the socket to accept connections.
tries=0
until "$BIN" ping --socket "$SOCK" > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "daemon_smoke: daemon did not come up" >&2
        cat "$TMPDIR_SMOKE/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== direct vs daemon byte-identity (check / explain / lint) =="
for cmd in check explain lint; do
    for fmt in human json; do
        direct="$TMPDIR_SMOKE/direct-$cmd-$fmt.out"
        daemon="$TMPDIR_SMOKE/daemon-$cmd-$fmt.out"
        # figure1.ms is the paper's racy example: `check` exits 1 in both
        # modes. The exit codes must agree, and so must every stdout byte.
        set +e
        "$BIN" "$cmd" programs/figure1.ms --format "$fmt" > "$direct" 2>/dev/null
        direct_rc=$?
        "$BIN" "$cmd" programs/figure1.ms --format "$fmt" --daemon --socket "$SOCK" > "$daemon" 2>/dev/null
        daemon_rc=$?
        set -e
        if [ "$direct_rc" -ne "$daemon_rc" ]; then
            echo "daemon_smoke: $cmd --format $fmt exit codes differ (direct $direct_rc, daemon $daemon_rc)" >&2
            exit 1
        fi
        if ! cmp -s "$direct" "$daemon"; then
            echo "daemon_smoke: $cmd --format $fmt output differs between direct and daemon mode" >&2
            diff "$direct" "$daemon" >&2 || true
            exit 1
        fi
    done
done

echo "== syncopt.metrics.v1 required keys =="
stats1="$TMPDIR_SMOKE/stats1.json"
"$BIN" stats --socket "$SOCK" --format json > "$stats1"
grep -q '"schema":"syncopt.metrics.v1"' "$stats1" || {
    echo "daemon_smoke: stats --format json missing metrics.v1 schema marker" >&2
    exit 1
}
for key in version uptime_ms requests_total; do
    grep -q "\"$key\":" "$stats1" || {
        echo "daemon_smoke: metrics.v1 document missing required key `$key`" >&2
        exit 1
    }
done
for metric in rpc.requests_total rpc.request_latency_us rpc.bytes_in \
    rpc.bytes_out rpc.cache_hits_total rpc.cache_misses_total \
    rpc.connections_opened; do
    grep -q "\"$metric" "$stats1" || {
        echo "daemon_smoke: metrics.v1 document missing metric `$metric`" >&2
        exit 1
    }
done

echo "== Prometheus exposition shape =="
prom="$TMPDIR_SMOKE/metrics.prom"
"$BIN" metrics --socket "$SOCK" > "$prom"
grep -q '^# TYPE syncopt_uptime_seconds gauge$' "$prom" || {
    echo "daemon_smoke: Prometheus output missing uptime gauge TYPE line" >&2
    exit 1
}
grep -q '^# TYPE syncopt_rpc_requests_total counter$' "$prom" || {
    echo "daemon_smoke: Prometheus output missing requests_total TYPE line" >&2
    exit 1
}
grep -q '^syncopt_rpc_request_latency_us_bucket{.*le="+Inf".*} [0-9]' "$prom" || {
    echo "daemon_smoke: Prometheus output missing +Inf histogram bucket" >&2
    exit 1
}

echo "== cache reuse across requests =="
# Repeat a query: the daemon must answer it from cache (misses stay put).
misses_before=$(sed 's/.*"rpc.cache_misses_total":\([0-9]*\).*/\1/' "$stats1")
"$BIN" check programs/figure1.ms --format json --daemon --socket "$SOCK" > /dev/null 2>&1 || true
stats2="$TMPDIR_SMOKE/stats2.json"
"$BIN" stats --socket "$SOCK" --format json > "$stats2"
misses_after=$(sed 's/.*"rpc.cache_misses_total":\([0-9]*\).*/\1/' "$stats2")
if [ "$misses_before" != "$misses_after" ]; then
    echo "daemon_smoke: repeated check rebuilt artifacts (misses $misses_before -> $misses_after)" >&2
    exit 1
fi

echo "== --procs 0 is a query failure, not a panic =="
# It used to panic the simulator: the reply was `internal` and the
# daemon dropped its whole cache.
set +e
zero_err=$("$BIN" run programs/figure1.ms --procs 0 --daemon --socket "$SOCK" 2>&1 > /dev/null)
zero_rc=$?
set -e
if [ "$zero_rc" -ne 1 ] || [ "$zero_err" != 'syncoptc: `procs` must be at least 1' ]; then
    echo "daemon_smoke: run --procs 0 exited $zero_rc with: $zero_err" >&2
    exit 1
fi
"$BIN" stats --socket "$SOCK" --format json | grep -q '"rpc.panics_total":0' || {
    echo "daemon_smoke: run --procs 0 counted a panic" >&2
    exit 1
}

echo "== a repeated query is answered from its stored reply =="
# One query never sent before, twice on one connection (raw protocol, with
# python3; skipped with a notice where there is none): the second reply
# must be one `reply` hit and no other lookup, with the first reply's
# stdout byte for byte, and `stats` must count the hit under
# `cache.reply.hits`.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$SOCK" programs/postwait.ms <<'PY' || exit 1
import json, socket, sys
path, prog = sys.argv[1], sys.argv[2]
with open(prog, encoding="utf-8") as f:
    query = {"command": "run", "file": "memo.ms", "source": f.read(), "format": "json"}
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
lines = s.makefile("r", encoding="utf-8")
def ask(id, op, **body):
    s.sendall((json.dumps({"schema": "syncopt.rpc.v1", "id": id, "op": op, **body}) + "\n").encode())
    return json.loads(lines.readline())
first, second = ask(1, "query", query=query), ask(2, "query", query=query)
stats = ask(3, "stats")
def fail(msg):
    sys.exit(f"daemon_smoke: {msg}")
if first["cache"]["misses"] == 0:
    fail(f"the first of two new queries missed nothing: {first['cache']}")
if second["cache"] != {"hits": 1, "misses": 0, "evictions": 0}:
    fail(f"the repeated query was not one reply hit: {second['cache']}")
if second["stdout"].encode() != first["stdout"].encode() or second["failure"] != first["failure"]:
    fail("the stored reply differs from the first answer")
if stats["kinds"].get("cache.reply.hits", 0) < 1:
    fail(f"stats counts no cache.reply.hits: {stats['kinds']}")
PY
else
    echo "daemon_smoke: python3 not found, stored-reply check skipped" >&2
fi

echo "== a stored reply is the first reply's bytes =="
# A file artifact (`run --emit-report`) and a failure (the racy `check`),
# each sent twice raw: the second reply line is served from the stored
# answer and must equal the first byte for byte, but for `id` and `cache`.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$SOCK" programs/postwait.ms programs/figure1_racy.ms <<'PY' || exit 1
import json, re, socket, sys
path, clean, racy = sys.argv[1:4]
def source(prog):
    with open(prog, encoding="utf-8") as f:
        return f.read()
queries = [
    {"command": "run", "file": "lines.ms", "source": source(clean), "emit_report": "lines.json"},
    {"command": "check", "file": "racy-lines.ms", "source": source(racy)},
]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
lines = s.makefile("rb")
shape = re.compile(rb'^(\{"schema":"syncopt\.rpc\.v1","id":)[0-9]+(,"ok":true,.*,"cache":)'
                   rb'\{"hits":[0-9]+,"misses":[0-9]+,"evictions":[0-9]+\}\}\n$', re.S)
def fail(msg):
    sys.exit(f"daemon_smoke: {msg}")
for n, query in enumerate(queries):
    replies = []
    for id in (2 * n + 1, 2 * n + 2):
        s.sendall((json.dumps({"schema": "syncopt.rpc.v1", "id": id, "op": "query", "query": query}) + "\n").encode())
        replies.append(lines.readline())
    first, second = (shape.match(r) for r in replies)
    if not first or not second:
        fail(f"{query['command']}: a reply line is not a query response: {replies[0][:80]!r}")
    if first.groups() != second.groups():
        fail(f"{query['command']}: the stored reply's line differs from the first")
    body = json.loads(replies[1])
    if json.loads(replies[0])["cache"]["misses"] == 0 or body["cache"] != {"hits": 1, "misses": 0, "evictions": 0}:
        fail(f"{query['command']}: the second reply was not one stored-reply hit: {body['cache']}")
    if query["command"] == "run" and "file" not in body:
        fail("run --emit-report: the reply carries no file artifact")
    if query["command"] == "check" and body["failure"] is None:
        fail("the racy check: the reply carries no failure")
PY
else
    echo "daemon_smoke: python3 not found, stored-reply line check skipped" >&2
fi

echo "== hostile request lines =="
# Raw lines no well-behaved client sends: the first used to overflow the
# JSON parser's stack and abort the daemon, the second was read into
# memory without bound. Each must be answered `bad-request`, and a fresh
# client must find the daemon alive after each.
if command -v python3 > /dev/null 2>&1; then
    for kind in deep-nesting over-long-line; do
        reply=$(python3 - "$SOCK" "$kind" <<'PY'
import socket, sys
path, kind = sys.argv[1], sys.argv[2]
line = b"[" * 200_000 if kind == "deep-nesting" else b" " * ((16 << 20) + 1)
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(line + b"\n")
sys.stdout.write(s.makefile("r", encoding="utf-8").readline())
PY
        )
        case "$reply" in
            *'"id":0'*'"code":"bad-request"'*) ;;
            *)
                echo "daemon_smoke: $kind request was not answered bad-request (got: $reply)" >&2
                exit 1
                ;;
        esac
        "$BIN" ping --socket "$SOCK" > /dev/null 2>&1 || {
            echo "daemon_smoke: daemon stopped answering after the $kind request" >&2
            cat "$TMPDIR_SMOKE/daemon.log" >&2
            exit 1
        }
    done
else
    echo "daemon_smoke: python3 not found, hostile-line requests skipped" >&2
fi

echo "== a hostile command is labeled other =="
# A query whose command holds a quote, a brace and newlines (sent raw
# with python3; skipped with a notice where there is none) must be
# refused as an unknown command, and the Prometheus text must stay
# well-formed, with the query counted under op="other".
if command -v python3 > /dev/null 2>&1; then
    python3 - "$SOCK" <<'PY' || exit 1
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
query = {"command": '"} 1\nsyncopt_fake_metric 999\n#', "file": "hostile.ms"}
s.sendall((json.dumps({"schema": "syncopt.rpc.v1", "id": 1, "op": "query", "query": query}) + "\n").encode())
reply = json.loads(s.makefile("r", encoding="utf-8").readline())
if "unknown command" not in (reply.get("failure") or ""):
    sys.exit(f"daemon_smoke: the hostile command was not refused: {reply}")
PY
    prom_hostile="$TMPDIR_SMOKE/metrics-hostile.prom"
    "$BIN" metrics --socket "$SOCK" > "$prom_hostile"
    name='[a-zA-Z_:][a-zA-Z0-9_:]*'
    label='[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
    malformed=$(grep -Ev "^# TYPE $name (counter|gauge|histogram)\$|^$name(\{$label(,$label)*\})? -?[0-9]+\$" "$prom_hostile" || true)
    if [ -n "$malformed" ]; then
        echo "daemon_smoke: Prometheus output is malformed after a hostile command:" >&2
        echo "$malformed" >&2
        exit 1
    fi
    grep -q '^syncopt_rpc_requests_total{op="other"} [1-9]' "$prom_hostile" || {
        echo "daemon_smoke: the hostile command was not counted under op=\"other\"" >&2
        exit 1
    }
else
    echo "daemon_smoke: python3 not found, hostile-command check skipped" >&2
fi

echo "== telemetry on vs off byte-identity =="
SOCK_OFF="$TMPDIR_SMOKE/syncoptd-off.sock"
"$DBIN" --socket "$SOCK_OFF" --no-telemetry 2> "$TMPDIR_SMOKE/daemon-off.log" &
OFF_PID=$!
tries=0
until "$BIN" ping --socket "$SOCK_OFF" > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "daemon_smoke: --no-telemetry daemon did not come up" >&2
        cat "$TMPDIR_SMOKE/daemon-off.log" >&2
        exit 1
    fi
    sleep 0.1
done
for cmd in check explain; do
    on="$TMPDIR_SMOKE/on-$cmd.out"
    off="$TMPDIR_SMOKE/off-$cmd.out"
    "$BIN" "$cmd" programs/figure1.ms --format json --daemon --socket "$SOCK" > "$on" 2>/dev/null || true
    "$BIN" "$cmd" programs/figure1.ms --format json --daemon --socket "$SOCK_OFF" > "$off" 2>/dev/null || true
    if ! cmp -s "$on" "$off"; then
        echo "daemon_smoke: $cmd output differs between telemetry-on and --no-telemetry daemons" >&2
        diff "$on" "$off" >&2 || true
        exit 1
    fi
done
"$BIN" shutdown --socket "$SOCK_OFF" 2>/dev/null
wait "$OFF_PID" || true

echo "== clean shutdown =="
"$BIN" shutdown --socket "$SOCK" 2>/dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
if [ -e "$SOCK" ]; then
    echo "daemon_smoke: socket file survived shutdown" >&2
    exit 1
fi

echo "daemon_smoke: daemon output byte-identical (direct / telemetry on / telemetry off), metrics well-formed, cache reused, repeats answered from their stored reply (same reply line but id and cache), hostile lines refused, hostile commands labeled other, clean shutdown"
