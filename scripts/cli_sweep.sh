#!/usr/bin/env sh
# Parent-vs-change byte identity of the whole `syncoptc` command surface.
#
# Usage: scripts/cli_sweep.sh --parent REV
#
# Builds `syncoptc` twice, both --offline: once from a checkout of REV
# extracted under target/cli_sweep/, once from the working tree as it
# stands. Then runs the same cases with each binary and compares, case by
# case, stdout, stderr, the exit code and every file the case wrote.
#
# The cases are every query command (the `COMMANDS` table of
# crates/syncopt/src/commands.rs) alone and with each of its flags, in
# both formats, over programs/*.ms and one source that fails typeck; then
# `check` and `lint` over the built-in kernels, `lint` over every seeded
# example, and `run --emit-report` and `trace --out`, whose files are
# compared too. A command that has no flag list here fails the sweep, so
# a new command cannot go unswept.
#
# The only bytes masked are wall-clock measurements: the `*_us` phase
# timings of a report (the values under `"timings"`, and the
# `timings (us):` line of a table). Prints the number of cases and every
# difference; exits 1 if there is one.
set -eu

usage() {
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

PARENT=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent)
            [ $# -ge 2 ] || { echo "cli_sweep: --parent needs a value" >&2; usage; }
            PARENT="$2"
            shift 2
            ;;
        *)
            echo "cli_sweep: unknown argument \`$1\`" >&2
            usage
            ;;
    esac
done
[ -n "$PARENT" ] || usage

ROOT="$(git rev-parse --show-toplevel)"
cd "$ROOT"
PARENT_SHA="$(git rev-parse --verify --quiet "$PARENT^{commit}")" || {
    echo "cli_sweep: \`$PARENT\` is not a commit" >&2
    exit 2
}

# The parent's files, as committed, in a directory of their own. A commit
# never changes, so an earlier extraction (and its build) is reused.
PARENT_DIR="$ROOT/target/cli_sweep/$PARENT_SHA"
if [ ! -f "$PARENT_DIR/Cargo.toml" ]; then
    rm -rf "$PARENT_DIR"
    mkdir -p "$PARENT_DIR"
    git archive "$PARENT_SHA" | tar -x -C "$PARENT_DIR"
fi
for tree in "$PARENT_DIR" "$ROOT"; do
    echo "cli_sweep: building $tree" >&2
    cargo build --release --offline --quiet --bin syncoptc \
        --manifest-path "$tree/Cargo.toml" --target-dir "$tree/target"
done

WORK="$(mktemp -d "$ROOT/target/cli_sweep/work.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# The inputs, shared by both sides and named alike in every case: each
# case runs in its own directory two levels below $WORK.
mkdir -p "$WORK/in"
cp programs/*.ms "$WORK/in/"
printf 'shared int X;\nfn main() { X = missing + 1; }\n' >"$WORK/in/fails_typeck.ms"

# The flags of each command, one case per line: a line is the arguments
# that follow the input file (an empty line is the command alone).
flags() {
    case "$1" in
        analyze | litmus) printf '%s\n' "" "--procs 2" ;;
        explain) printf '%s\n' "" "--procs 2" "--pair 0 1" ;;
        opt)
            printf '%s\n' "" "--procs 2" "--level blocking" "--level oneway" "--level full" \
                "--delay ss" "--dump" "--dot"
            ;;
        run)
            printf '%s\n' "" "--procs 2" "--machine t3d" "--machine dash" "--level blocking" \
                "--level oneway" "--level full" "--delay ss" "--trace" "--trace --trace-limit 16" \
                "--emit-report report.json"
            ;;
        trace)
            printf '%s\n' "" "--procs 2" "--machine t3d" "--machine dash" "--level blocking" \
                "--level full" "--delay ss" "--trace-limit 16" "--out trace.json"
            ;;
        profile)
            printf '%s\n' "" "--procs 2" "--machine t3d" "--machine dash" "--level oneway" \
                "--level full" "--delay ss"
            ;;
        check | lint)
            printf '%s\n' "" "--procs 2" "--strict" "--deny W001" "--allow R001" \
                "--strict --allow W002"
            ;;
        *) return 1 ;;
    esac
}

COMMANDS="$(sed -n 's/^    ("\([a-z]*\)", |.*/\1/p' crates/syncopt/src/commands.rs)"
[ -n "$COMMANDS" ] || { echo "cli_sweep: no commands found in commands.rs" >&2; exit 2; }
for command in $COMMANDS; do
    flags "$command" >/dev/null || {
        echo "cli_sweep: command \`$command\` has no flag list in $0" >&2
        exit 2
    }
done
SEEDED="$("$ROOT/target/release/syncoptc" lint --seeded '' 2>&1 |
    sed -n 's/.*(available: \(.*\))$/\1/p' | tr -d ',')"
[ -n "$SEEDED" ] || { echo "cli_sweep: no seeded examples listed" >&2; exit 2; }

# Every case, one line of arguments each.
CASES="$WORK/cases"
for command in $COMMANDS; do
    for input in "$WORK"/in/*.ms; do
        flags "$command" | while IFS= read -r extra; do
            for format in human json; do
                echo "$command ../../in/$(basename "$input") --format $format $extra"
            done
        done
    done
done >"$CASES"
for format in human json; do
    for command in check lint; do
        echo "$command --kernels --format $format"
        echo "$command --kernels --procs 2 --strict --format $format"
    done
    for name in $SEEDED; do
        echo "lint --seeded $name --format $format"
    done
done >>"$CASES"

# Runs every case with one side's binary, each in a directory of its own.
run_side() {
    bin="$1"
    dir="$2"
    n=0
    while IFS= read -r args; do
        n=$((n + 1))
        mkdir -p "$dir/$n"
        (
            cd "$dir/$n"
            echo "$args" >args
            # Word splitting of the case's arguments is intended.
            # shellcheck disable=SC2086
            set +e
            "$bin" $args >stdout 2>stderr
            echo "$?" >exit
        )
    done <"$CASES"
}
echo "cli_sweep: $(wc -l <"$CASES") cases per side" >&2
run_side "$PARENT_DIR/target/release/syncoptc" "$WORK/parent"
run_side "$ROOT/target/release/syncoptc" "$WORK/change"

# Zeroes the wall-clock phase timings of every report, JSON and table.
find "$WORK/parent" "$WORK/change" -type f ! -name args ! -name exit -exec sed -E -i \
    -e ':json' -e 's/("timings":\{[^}]*"[a-z_]+_us":)[1-9][0-9]*/\10/' -e 't json' \
    -e '/^ *timings \(us\):/s/ [0-9]+/ 0/g' {} +

if diff -r "$WORK/parent" "$WORK/change" >"$WORK/diff"; then
    echo "cli_sweep: $(wc -l <"$CASES") cases, parent $PARENT_SHA and the working tree agree byte for byte"
else
    cat "$WORK/diff"
    for n in $(sed -E -n 's#^(diff -r|Only in) .*/(parent|change)/([0-9]+).*#\3#p' "$WORK/diff" | sort -nu); do
        echo "cli_sweep: case $n differs: syncoptc $(cat "$WORK/parent/$n/args")"
    done
    echo "cli_sweep: the working tree differs from parent $PARENT_SHA" >&2
    exit 1
fi
