#!/usr/bin/env sh
# Alternating parent / change pairs of one repo-benchmark workload.
#
# Usage: scripts/bench_pairs.sh --parent REV --pairs N --workload W
#                               [--seconds S] [--seed K] [--trace 0|1]
#                               [--env NAME=VALUE]...
#
# Builds the benchmark package (benchmark/, see BENCHMARK.json) twice,
# both --offline: once from a checkout of REV extracted under
# target/bench_pairs/, once from the working tree as it stands. Then runs
# the workload N times on each side with tracing off, alternating which
# side goes first, each run from its own tree's root so that it builds
# what it measures and reads its own inputs.
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles, the pairs the change won (ties count for neither) and the
# ratio of the medians as a markdown table, with host_cpus, rustc and
# both commits; then the same numbers as `configs` rows of a
# syncopt.bench_report.v1 document (the shape of BENCH_service.json),
# one row per line. Exits 1 if any run was not `correct`.
#
# With --trace 1 the same alternation runs traced, and the table and rows
# are the per-layer metrics of BENCHMARK.json instead (those the workload
# reports: a layer that reads 0 in every run is left out). A traced run
# says where a gain sits; the gain itself is claimed from --trace 0 runs.
#
# Each --env NAME=VALUE (repeatable) is set in the environment of every
# run, on both sides alike, and printed with the table: a comparison under
# MALLOC_ARENA_MAX=1, say, is then a recorded command and not a hand-run.
#
# S defaults to the benchmark's run_seconds, K to 1. A gain is claimed
# from ten pairs or more (docs/PERFORMANCE.md); CI runs one 2-second pair
# so that this script cannot rot.
set -eu

usage() {
    sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

PARENT=""
PAIRS=""
WORKLOAD=""
SECONDS_PER_RUN=""
SEED=1
TRACE=0
# The --env settings, one NAME=VALUE per line.
RUN_ENV=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent | --pairs | --workload | --seconds | --seed | --trace | --env)
            [ $# -ge 2 ] || { echo "bench_pairs: $1 needs a value" >&2; usage; }
            case "$1" in
                --parent) PARENT="$2" ;;
                --pairs) PAIRS="$2" ;;
                --workload) WORKLOAD="$2" ;;
                --seconds) SECONDS_PER_RUN="$2" ;;
                --seed) SEED="$2" ;;
                --trace) TRACE="$2" ;;
                --env)
                    case "$2" in
                        [A-Za-z_]*=*) RUN_ENV="$RUN_ENV$2
" ;;
                        *) echo "bench_pairs: --env takes NAME=VALUE" >&2; exit 2 ;;
                    esac
                    ;;
            esac
            shift 2
            ;;
        *)
            echo "bench_pairs: unknown argument \`$1\`" >&2
            usage
            ;;
    esac
done
[ -n "$PARENT" ] && [ -n "$PAIRS" ] && [ -n "$WORKLOAD" ] || usage
case "$PAIRS" in
    '' | *[!0-9]* | 0) echo "bench_pairs: --pairs takes a positive integer" >&2; exit 2 ;;
esac
case "$TRACE" in
    0 | 1) ;;
    *) echo "bench_pairs: --trace takes 0 or 1" >&2; exit 2 ;;
esac

ROOT="$(git rev-parse --show-toplevel)"
cd "$ROOT"
PARENT_SHA="$(git rev-parse --verify --quiet "$PARENT^{commit}")" || {
    echo "bench_pairs: \`$PARENT\` is not a commit" >&2
    exit 2
}
CHANGE_SHA="$(git rev-parse HEAD)"
[ -z "$(git status --porcelain)" ] || CHANGE_SHA="$CHANGE_SHA+uncommitted"
[ -n "$SECONDS_PER_RUN" ] ||
    SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

# The parent's files, as committed, in a directory of their own. A commit
# never changes, so an earlier extraction (and its build) is reused.
PARENT_DIR="$ROOT/target/bench_pairs/$PARENT_SHA"
if [ ! -f "$PARENT_DIR/benchmark/Cargo.toml" ]; then
    rm -rf "$PARENT_DIR"
    mkdir -p "$PARENT_DIR"
    git archive "$PARENT_SHA" | tar -x -C "$PARENT_DIR"
fi

BIN=benchmark/target/release/syncopt-benchmark
for tree in "$PARENT_DIR" "$ROOT"; do
    echo "bench_pairs: building $tree" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" \
        --target-dir "$tree/benchmark/target"
done

RESULTS="$(mktemp)"
trap 'rm -f "$RESULTS"' EXIT

# One run; the result is the last line the benchmark prints.
run_side() {
    side="$1"
    tree="$2"
    line="$(
        cd "$tree"
        # One setting per line; a value may hold spaces, not newlines.
        while IFS= read -r setting; do
            [ -z "$setting" ] || export "$setting"
        done <<SETTINGS
$RUN_ENV
SETTINGS
        "./$BIN" --workload "$WORKLOAD" --seed "$SEED" \
            --seconds "$SECONDS_PER_RUN" --trace "$TRACE" | tail -n 1
    )"
    printf '%s\t%s\n' "$side" "$line" >>"$RESULTS"
    echo "bench_pairs: pair $pair $side: $line" >&2
}

pair=1
while [ "$pair" -le "$PAIRS" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$PARENT_DIR"
        run_side change "$ROOT"
    else
        run_side change "$ROOT"
        run_side parent "$PARENT_DIR"
    fi
    pair=$((pair + 1))
done

HOST_CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
RUSTC="$(rustc --version)"
python3 - "$RESULTS" "$WORKLOAD" "$SEED" "$SECONDS_PER_RUN" "$PARENT_SHA" "$CHANGE_SHA" \
    "$HOST_CPUS" "$RUSTC" "$TRACE" "$RUN_ENV" <<'EOF'
import json
import sys

results, workload, seed, seconds, parent_sha, change_sha, host_cpus, rustc, trace, env = sys.argv[1:]
env = env.splitlines()
trace = int(trace)
runs = {"parent": [], "change": []}
for line in open(results):
    side, text = line.rstrip("\n").split("\t", 1)
    runs[side].append(json.loads(text))
pairs = len(runs["parent"])
assert pairs == len(runs["change"]) and pairs > 0


def quartiles(values):
    """q1, median, q3 by linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(q):
        pos = q * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def milli(x):
    return round(x * 1000)


print(f"`{workload}`, seed {seed}, {pairs} alternating {seconds} s pairs, "
      f"tracing {'on' if trace else 'off'}; "
      f"host_cpus {host_cpus}, {rustc}; parent `{parent_sha}`, change `{change_sha}`"
      + (f"; both sides run with `{' '.join(env)}`" if env else ""))
print()
print("| metric | unit | parent q1 / median / q3 | change q1 / median / q3 | change ÷ parent | pairs won |")
print("|---|---|---|---|---|---|")
rows = []
for metric in json.load(open("BENCHMARK.json"))["per_layer" if trace else "end_to_end"]:
    name, unit, higher = metric["name"], metric["unit"], metric["better"] == "higher"
    parent = [run["metrics"][name]["value"] for run in runs["parent"]]
    change = [run["metrics"][name]["value"] for run in runs["change"]]
    if trace and not any(parent) and not any(change):
        continue  # a layer this workload does not exercise
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    ratio = cq[1] / pq[1] if pq[1] else 0.0

    def cell(q):
        return " / ".join(f"{v:.4g}" for v in q)

    print(f"| `{name}` | {unit} | {cell(pq)} | {cell(cq)} | ×{ratio:.3f} | {wins} of {pairs} |")
    rows.append({
        "id": f"{workload}.{name}", "workload": workload, "metric": name, "unit": unit,
        "trace": trace, "seed": int(seed), "pairs": pairs, **({"env": env} if env else {}),
        "parent": dict(zip(("q1_milli", "median_milli", "q3_milli"), map(milli, pq))),
        "change": dict(zip(("q1_milli", "median_milli", "q3_milli"), map(milli, cq))),
        "change_wins": wins, "ties": ties, "ratio_milli": milli(ratio),
    })
print()
all_correct = True
for side in ("parent", "change"):
    attempted = sum(run["attempted"] for run in runs[side])
    failed = sum(run["failed"] for run in runs[side])
    wrong = sum(not run["correct"] for run in runs[side])
    all_correct &= wrong == 0
    print(f"{side}: {failed} of {attempted} ops failed, {wrong} of {pairs} runs not correct")
print()
print("syncopt.bench_report.v1 `configs` rows:")
for row in rows:
    print(json.dumps(row, separators=(",", ":")))
sys.exit(0 if all_correct else 1)
EOF
