#!/usr/bin/env sh
# Shared CI regression gate for the work-counter benchmark suites.
#
# Usage: scripts/bench_gate.sh SYNCOPTC_BIN
#
# Re-runs the smoke subset of both counter suites (`delay`, `sim`)
# with the `counters` binary built beside SYNCOPTC_BIN (the
# syncopt-bench package) and compares the fresh all-integer work
# counters against the committed baselines (BENCH_delay_scaling.json,
# BENCH_sim_throughput.json). A gated counter more than 20% above its
# baseline, or missing on either side, fails the gate; wall-clock buckets
# are never compared. See docs/PERFORMANCE.md for the schema and
# the refresh commands.
#
# Also gates the service-telemetry overhead claim: analysis counters in
# query output must be bit-identical whether a request is served
# directly, by a telemetry-enabled daemon, or by a `--no-telemetry`
# daemon (the disabled path takes no timestamps and allocates nothing
# per request — see docs/OBSERVABILITY.md).
set -eu

BIN="${1:-./target/release/syncoptc}"
CBIN="$(dirname "$BIN")/counters"

for bin in "$BIN" "$CBIN"; do
    if [ ! -x "$bin" ]; then
        echo "bench_gate: $bin not found or not executable (build with: cargo build --release --workspace)" >&2
        exit 2
    fi
done

echo "== delay_scaling gate =="
"$CBIN" --suite delay --smoke --check BENCH_delay_scaling.json

echo "== sim_throughput gate =="
"$CBIN" --suite sim --smoke --check BENCH_sim_throughput.json

echo "== telemetry-off overhead gate =="
DBIN="$(dirname "$BIN")/syncoptd"
if [ -x "$DBIN" ]; then
    TMPDIR_GATE="$(mktemp -d)"
    ON_PID=""
    OFF_PID=""
    cleanup_gate() {
        [ -n "$ON_PID" ] && kill "$ON_PID" 2>/dev/null || true
        [ -n "$OFF_PID" ] && kill "$OFF_PID" 2>/dev/null || true
        rm -rf "$TMPDIR_GATE"
    }
    trap cleanup_gate EXIT
    SOCK_ON="$TMPDIR_GATE/on.sock"
    SOCK_OFF="$TMPDIR_GATE/off.sock"
    "$DBIN" --socket "$SOCK_ON" 2>/dev/null &
    ON_PID=$!
    "$DBIN" --socket "$SOCK_OFF" --no-telemetry 2>/dev/null &
    OFF_PID=$!
    for sock in "$SOCK_ON" "$SOCK_OFF"; do
        tries=0
        until "$BIN" ping --socket "$sock" > /dev/null 2>&1; do
            tries=$((tries + 1))
            if [ "$tries" -ge 50 ]; then
                echo "bench_gate: daemon on $sock did not come up" >&2
                exit 1
            fi
            sleep 0.1
        done
    done
    # Work counters in profile/check JSON are all-integer and
    # deterministic: telemetry must not perturb a single byte.
    for cmd in profile check; do
        "$BIN" "$cmd" programs/stencil.ms --format json > "$TMPDIR_GATE/direct.out" 2>/dev/null || true
        "$BIN" "$cmd" programs/stencil.ms --format json --daemon --socket "$SOCK_ON" > "$TMPDIR_GATE/on.out" 2>/dev/null || true
        "$BIN" "$cmd" programs/stencil.ms --format json --daemon --socket "$SOCK_OFF" > "$TMPDIR_GATE/off.out" 2>/dev/null || true
        for mode in on off; do
            if ! cmp -s "$TMPDIR_GATE/direct.out" "$TMPDIR_GATE/$mode.out"; then
                echo "bench_gate: $cmd counters differ between direct mode and the telemetry-$mode daemon" >&2
                diff "$TMPDIR_GATE/direct.out" "$TMPDIR_GATE/$mode.out" >&2 || true
                exit 1
            fi
        done
    done
    "$BIN" shutdown --socket "$SOCK_ON" 2>/dev/null || true
    "$BIN" shutdown --socket "$SOCK_OFF" 2>/dev/null || true
    wait "$ON_PID" 2>/dev/null || true
    wait "$OFF_PID" 2>/dev/null || true
    ON_PID=""
    OFF_PID=""
    echo "bench_gate: telemetry on/off counters bit-identical to direct mode"
else
    echo "bench_gate: $DBIN not found, skipping telemetry-off gate" >&2
fi

echo "bench_gate: all suites within tolerance"
