#!/usr/bin/env bash
# Paired before/after benchmark of one perfbench workload.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <first-seed> <pairs> [seconds]
#
# Builds the perfbench of <parent-rev> in a temporary git worktree under
# target/ (removed on exit) and the perfbench of the working tree, then
# runs `pairs` pairs of plain runs (`--trace 0`), one seed per pair from
# <first-seed> up. The two sides of a pair run back to back, the parent
# first in odd pairs and second in even ones, so slow phases of a shared
# host fall on both sides alike. `seconds` (default 20) is passed to
# perfbench as `--seconds`.
#
# Prints one line per pair, then, for each end-to-end metric of
# BENCHMARK.json, the median [lower quartile, upper quartile] of each side
# (quartiles interpolated linearly between order statistics), the pairs
# the working tree won (strictly better in the metric's direction) and one
# verdict against the metric's relative `bound`, the first that applies:
#   gain          the working tree won at least 9/10 of the pairs and its
#                 median is better than the parent's by more than the
#                 parent's interquartile range;
#   regression    the working tree's median is worse than the parent's by
#                 more than the bound (as a share of the parent's median);
#   unresolved    the parent's interquartile range exceeds the bound (as a
#                 share of its median): the runs spread too widely to tell;
#   within bound  anything else.
# The verdicts are printed only; they do not change the exit status.
#
# A run that reports `"correct": false`, or a pair whose two sides
# attempted or failed different numbers of operations, does not stop the
# pairs: every pair runs and the summary prints, then each such pair is
# listed with both sides' correctness, attempted and failed counts and
# failed shares, and the script exits 1. It exits 1 at once if a run
# fails outright (no result), and 2 on bad arguments. Needs only bash,
# git, awk and cargo.
set -euo pipefail

usage="usage: scripts/bench_pairs.sh <parent-rev> <workload> <first-seed> <pairs> [seconds]"
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "$usage" >&2
    exit 2
fi
rev=$1 workload=$2 first=$3 pairs=$4 seconds=${5:-20}
case "$first$pairs" in
*[!0-9]*)
    echo "bench_pairs: <first-seed> and <pairs> must be unsigned integers" >&2
    exit 2
    ;;
esac
if [ "$pairs" -lt 1 ]; then
    echo "bench_pairs: <pairs> must be at least 1" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
# The repository's path inside its git checkout ("" at the top level).
sub=$(git rev-parse --show-prefix)
commit=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "bench_pairs: unknown revision '$rev'" >&2
    exit 2
}

work="$root/target/bench_pairs.$$"
wt="$work/parent"
mkdir -p "$work"
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== building perfbench of $rev ($commit) and of the working tree =="
git worktree add --quiet --detach "$wt" "$commit"
cargo build --release --offline --quiet --manifest-path "$wt/${sub}perfbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
parent_bin="$wt/${sub}perfbench/target/release/perfbench"
head_bin="$root/perfbench/target/release/perfbench"

# One plain run; its result line (the last line of standard output) goes
# to $2. Standard error is kept for a failure report.
run() {
    local bin=$1 out=$2 seed=$3
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out.stdout" 2>"$out.stderr"; then
        echo "bench_pairs: $bin failed on seed $seed:" >&2
        cat "$out.stderr" >&2
        exit 1
    fi
    tail -n 1 "$out.stdout" >"$out"
}

# The declared end-to-end metrics as "name better bound" lines.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' BENCHMARK.json)

# Flattens a result line to "correct attempted failed name=value ...".
flatten() {
    awk -v names="$(echo "$metrics" | awk '{printf "%s ", $1}')" '
        function field(key,    m) {
            if (!match($0, "\"" key "\": [^,}]*")) return "missing"
            m = substr($0, RSTART, RLENGTH)
            sub(/^[^:]*: /, "", m)
            return m
        }
        {
            line = field("correct") " " field("attempted") " " field("failed")
            n = split(names, ns, " ")
            for (i = 1; i <= n; i++) {
                if (match($0, "\"" ns[i] "\": \\{\"value\": [^,}]*")) {
                    v = substr($0, RSTART, RLENGTH)
                    sub(/.*: /, "", v)
                } else {
                    v = "missing"
                }
                line = line " " ns[i] "=" v
            }
            print line
        }' "$1"
}

table="$work/pairs.tsv"
mismatches="$work/mismatches.txt"
: >"$table"
: >"$mismatches"
echo "== $pairs pair(s) of $workload, seeds $first..$((first + pairs - 1)), --seconds $seconds =="
for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run "$parent_bin" "$work/p" "$seed"
        run "$head_bin" "$work/h" "$seed"
    else
        run "$head_bin" "$work/h" "$seed"
        run "$parent_bin" "$work/p" "$seed"
    fi
    p=$(flatten "$work/p")
    h=$(flatten "$work/h")
    echo "$seed $p | $h" >>"$table"
    awk -v pair=$((i + 1)) -v seed="$seed" '
        {
            split($0, side, " \\| ")
            np = split(side[1], p, " ")
            split(side[2], h, " ")
            out = sprintf("pair %d seed %d:", pair, seed)
            for (j = 5; j <= np; j++) {
                split(p[j], pv, "=")
                split(h[j - 1], hv, "=")
                d = pv[2] != 0 ? sprintf(" (%+.1f%%)", 100 * (hv[2] - pv[2]) / pv[2]) : ""
                out = out sprintf(" %s %.4g -> %.4g%s", pv[1], pv[2], hv[2], d)
            }
            print out
        }' <<<"$seed $p | $h"
    read -r p_ok p_att p_fail _ <<<"$p"
    read -r h_ok h_att h_fail _ <<<"$h"
    if [ "$p_ok $h_ok" != "true true" ] || [ "$p_att $p_fail" != "$h_att $h_fail" ]; then
        awk -v pair=$((i + 1)) -v seed="$seed" \
            -v p="$p_ok $p_att $p_fail" -v h="$h_ok $h_att $h_fail" '
            function side(name, s,    f) {
                split(s, f, " ")
                return sprintf("%s correct %s, attempted %s, failed %s (share %s)", name, f[1],
                    f[2], f[3], f[2] + 0 > 0 ? sprintf("%.4g", f[3] / f[2]) : "n/a")
            }
            BEGIN { printf "pair %d seed %d: %s; %s\n", pair, seed, side("parent", p), side("working tree", h) }' \
            >>"$mismatches"
    fi
done

echo "== summary: median [quartiles], parent vs working tree =="
while read -r name better bound; do
    awk -v name="$name" -v better="$better" -v bound="$bound" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
        }
        function q(a, n, f,    r, lo) {
            r = 1 + f * (n - 1)
            lo = int(r)
            return lo >= n ? a[n] : a[lo] + (r - lo) * (a[lo + 1] - a[lo])
        }
        function value(s, prefix,    k, m, kv) {
            m = split(s, kv, " ")
            for (k = 1; k <= m; k++)
                if (index(kv[k], prefix "=") == 1) return substr(kv[k], length(prefix) + 2) + 0
        }
        {
            split($0, side, " \\| ")
            n++
            p[n] = value(side[1], name)
            h[n] = value(side[2], name)
            if (better == "lower" ? h[n] < p[n] : h[n] > p[n]) won++
        }
        # Share of the parent median `x` is of it (0 when that is 0).
        function rel(x, base) { return base != 0 ? x / (base < 0 ? -base : base) : 0 }
        END {
            sort(p, n); sort(h, n)
            pm = q(p, n, 0.5); hm = q(h, n, 0.5)
            iqr = q(p, n, 0.75) - q(p, n, 0.25)
            gap = better == "lower" ? pm - hm : hm - pm
            if (10 * won >= 9 * n && gap > iqr) verdict = "gain"
            else if (rel(-gap, pm) > bound) verdict = "regression"
            else if (rel(iqr, pm) > bound) verdict = "unresolved"
            else verdict = "within bound"
            printf "%s (%s is better, bound %s): parent %.4g [%.4g, %.4g], working tree %.4g [%.4g, %.4g], won %d/%d: %s\n",
                name, better, bound, pm, q(p, n, 0.25), q(p, n, 0.75),
                hm, q(h, n, 0.25), q(h, n, 0.75), won, n, verdict
        }' "$table"
done <<<"$metrics"

if [ -s "$mismatches" ]; then
    echo "bench_pairs: $(wc -l <"$mismatches") pair(s) not correct or with differing attempted/failed counts:" >&2
    cat "$mismatches" >&2
    exit 1
fi
