#!/usr/bin/env sh
# Where the CPU time of one benchmark or example run goes, by sampling.
#
# Usage: scripts/profile.sh [--top N] --workload W [--seconds S]
#        scripts/profile.sh [--top N] --example NAME [-- ARGS...]
#
# Builds a frame-pointer copy of the repo benchmark (benchmark/, the
# workload W run untraced for S seconds, default 5) or of the example NAME
# of the syncopt package into target/profile (release, --offline, with
# line tables), compiles scripts/profile_sampler.c with gcc into
# target/profile/sampler.so and preloads it into that one run. The
# sampler asks for a stack every millisecond of process CPU time by
# SIGPROF; a CPU-time timer fires on the kernel's tick, so on a 250 Hz
# kernel a sample comes every 4 ms.
#
# Prints two tables of the top N functions (default 25): self (the
# function a sample was taken in) and inclusive (every function on its
# stack, once per sample), each with its share of all samples. Function
# names come from `nm` on the binary (addresses placed by `readelf -l`);
# a sample inside glibc, whose internal symbols are stripped, is bucketed
# by the exported symbols around it: `[libc malloc]` (malloc, calloc,
# realloc, free and the helpers between them), `[libc string]` (mem*,
# str* and the export-free stretches that hold their ifunc variants) or
# `[libc other]`. The hottest address of
# each of the top self functions is resolved to a source line with
# `addr2line`.
#
# The build differs from the measured one only by
# `-C force-frame-pointers=yes` and line tables, which cost a few percent;
# compare shares between two profiles, not their wall time with a
# benchmark run. Samples of every thread land in one table.
set -eu

usage() {
    sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

TOP=25
WORKLOAD=""
SECONDS_PER_RUN=5
EXAMPLE=""
while [ $# -gt 0 ]; do
    case "$1" in
        --top | --workload | --seconds | --example)
            [ $# -ge 2 ] || { echo "profile: $1 needs a value" >&2; usage; }
            case "$1" in
                --top) TOP="$2" ;;
                --workload) WORKLOAD="$2" ;;
                --seconds) SECONDS_PER_RUN="$2" ;;
                --example) EXAMPLE="$2" ;;
            esac
            shift 2
            ;;
        --) shift; break ;;
        *) echo "profile: unknown argument $1" >&2; usage ;;
    esac
done
if [ -n "$WORKLOAD" ] && [ -n "$EXAMPLE" ] || [ -z "$WORKLOAD$EXAMPLE" ]; then
    echo "profile: give one of --workload and --example" >&2
    usage
fi

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT="$ROOT/target/profile"
mkdir -p "$OUT"
export CARGO_TARGET_DIR="$OUT"
export RUSTFLAGS="-C force-frame-pointers=yes"
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
cd "$ROOT"
if [ -n "$WORKLOAD" ]; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    BIN="$OUT/release/syncopt-benchmark"
    set -- --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_PER_RUN" --trace 0
else
    cargo build --release --offline --quiet -p syncopt --example "$EXAMPLE"
    BIN="$OUT/release/examples/$EXAMPLE"
fi
gcc -O2 -shared -fPIC -o "$OUT/sampler.so" scripts/profile_sampler.c

rm -f "$OUT"/samples.*
SYNCOPT_PROFILE_OUT="$OUT/samples" LD_PRELOAD="$OUT/sampler.so" "$BIN" "$@" > "$OUT/run.out"
echo "profile: $BIN $*"

python3 - "$BIN" "$TOP" "$OUT"/samples.* <<'EOF'
import bisect, collections, os, re, subprocess, sys

binary, top, files = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
symbols = {}  # module path -> (sorted addresses, names)
segments = {}  # module path -> [(file offset, size, vaddr - file offset)]


def vaddr_of(path, offset):
    """The link-time address of file offset `offset` of `path`."""
    if path not in segments:
        text = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        segments[path] = [(int(f[1], 16), int(f[4], 16), int(f[2], 16) - int(f[1], 16))
                          for f in (l.split() for l in text.splitlines()) if f and f[0] == "LOAD"]
    for start, size, bias in segments[path]:
        if start <= offset < start + size:
            return offset + bias
    return offset


def symbols_of(path):
    if path not in symbols:
        rows = []
        for dynamic in ([], ["-D"]):
            text = subprocess.run(["nm", "-C", "-S", "--defined-only", *dynamic, path],
                                  capture_output=True, text=True).stdout
            for line in text.splitlines():
                parts = line.split(" ", 3)
                if len(parts) == 4 and parts[2] in "tTwWiI":
                    rows.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            if rows:
                break
        rows.sort()
        symbols[path] = ([a for a, _, _ in rows], rows)
    return symbols[path]


MALLOC = re.compile(r"_*(libc_)?(malloc|free|cfree|calloc|realloc|memalign|aligned_alloc|valloc|"
                    r"pvalloc|posix_memalign|mallinfo|mallopt|default_morecore)")
STRING = re.compile(r"_*(mem|str|wmem|wcs|stp|bcmp|bzero)")


def libc_bucket(addrs, rows, vaddr):
    """glibc exports only its public symbols: malloc.c's helpers sit in
    the gaps around malloc's exports, and the ifunc variants of mem* and
    str* in export-free stretches of 64 KiB or more."""
    j = bisect.bisect_right(addrs, vaddr) - 1
    if j >= 0 and vaddr < addrs[j] + rows[j][1]:
        below = above = rows[j][2]
    else:
        below = rows[j][2] if j >= 0 else ""
        above = rows[j + 1][2] if j + 1 < len(rows) else ""
        gap_start = addrs[j] + rows[j][1] if j >= 0 else 0
        gap_end = addrs[j + 1] if j + 1 < len(rows) else gap_start
        if gap_end - gap_start >= 1 << 16:
            return "[libc string]"
    if MALLOC.match(below) or MALLOC.match(above):
        return "[libc malloc]"
    if STRING.match(below) and STRING.match(above):
        return "[libc string]"
    return "[libc other]"


def frame_name(addr, maps):
    i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
    if i < 0 or addr >= maps[i][1]:
        return "[unknown]", None
    start, end, offset, path = maps[i]
    vaddr = vaddr_of(path, addr - start + offset)
    addrs, rows = symbols_of(path)
    base = os.path.basename(path)
    if base.startswith("libc.so") or base.startswith("libc-"):
        return libc_bucket(addrs, rows, vaddr), None
    j = bisect.bisect_right(addrs, vaddr) - 1
    name = rows[j][2] if j >= 0 else "?"
    if os.path.realpath(path) != os.path.realpath(binary):
        return "[" + base + "]", None
    return re.sub(r"::h[0-9a-f]{16}$", "", name), vaddr


self_counts, incl_counts = collections.Counter(), collections.Counter()
hot = collections.defaultdict(collections.Counter)  # name -> vaddr counts
total = 0
for path in files:
    lines = open(path).read().split("\nmaps\n")
    maps = []
    for row in lines[1].splitlines():
        f = row.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    maps.sort()
    for sample in lines[0].splitlines():
        frames = [frame_name(int(a, 16), maps) for a in sample.split()]
        if not frames:
            continue
        total += 1
        name, vaddr = frames[0]
        self_counts[name] += 1
        if vaddr is not None:
            hot[name][vaddr] += 1
        for n in {n for n, _ in frames}:
            incl_counts[n] += 1

if total == 0:
    sys.exit("profile: no samples were taken")
print(f"{total} samples")
for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
    print(f"\n| {title} % | samples | function |\n|---:|---:|---|")
    for name, n in counts.most_common(top):
        print(f"| {100 * n / total:.1f} | {n} | `{name}` |")

print("\n| hottest line of the top self functions |\n|---|")
for name, _ in self_counts.most_common(top):
    if name in hot:
        vaddr = hot[name].most_common(1)[0][0]
        where = subprocess.run(["addr2line", "-e", binary, hex(vaddr)],
                               capture_output=True, text=True).stdout.strip()
        print(f"| `{name}`: {where} |")
EOF
