#!/bin/sh
# A parent-vs-change comparison of the farm benchmark in alternating
# pairs. `ab.sh <rev> <pairs> -- <bench run args>` exports `<rev>` with
# `git archive` (no git worktree), builds the benchmark once for it and
# once for this checkout, each into a target directory of its own, then
# runs `bench run <bench run args>` `<pairs>` times a side, the two sides
# taking turns at going first (the first run of a pair is not the
# second's equal: a slot's speed drifts, and `setup_s` moves with run
# order). It keeps each run's last stdout line, the result object, and
# prints, for every end-to-end metric `BENCHMARK.json` lists: each
# side's median and quartiles, the median's relative change against the
# metric's bound, the spread (interquartile range over the median) of
# each side, and in how many pairs the change won by the metric's
# `better`; then every run's `failed` count and the host (nproc, CPU
# model, load average before and after).
#
# Everything it writes is under `$AB_DIR` (default
# `${TMPDIR:-/tmp}/biodist-ab`): the export, both target directories and
# each side's `benchmark/out` reports (the benchmark writes its reports
# under `$CARGO_MANIFEST_DIR`). This checkout's `benchmark/` is not
# written to. E.g.
#   sh scripts/ab.sh HEAD~1 10 -- --workload dsearch-fetch
#   sh scripts/ab.sh HEAD 1 -- --workload dispatch-journal --smoke
set -eu
cd "$(dirname "$0")/.."
usage() {
    echo "usage: $0 <rev> <pairs> -- <bench run args>" >&2
    exit 2
}
[ $# -ge 3 ] && [ "$3" = "--" ] || usage
rev=$1 pairs=$2
shift 3
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "$0: no such revision: $rev" >&2
    exit 2
}

work=${AB_DIR:-${TMPDIR:-/tmp}/biodist-ab}
rm -rf "$work/base" "$work/change" "$work/runs"
mkdir -p "$work/base" "$work/change/benchmark" "$work/runs"
git archive "$rev" | tar -x -C "$work/base"

# `build <checkout> <side>`: the benchmark package, release, offline.
build() {
    echo "ab: building $2 ($1)" >&2
    CARGO_TARGET_DIR="$work/$2-target" cargo build -q --release --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/base" base
build . change

load() { cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo unknown; }
load_before=$(load)

# `run <side> <pair> <bench run args>`: one run; its result line is
# appended to `runs/<side>`, its report (stderr) kept as
# `runs/<side>.<pair>.log`.
run() {
    side=$1 pair=$2
    shift 2
    echo "ab: pair $pair, $side" >&2
    line=$(CARGO_MANIFEST_DIR="$work/$side/benchmark" \
        "$work/$side-target/release/bench" run "$@" \
        2>"$work/runs/$side.$pair.log" | tail -n 1) || true
    [ -n "$line" ] || line='{}'
    echo "$line" >>"$work/runs/$side"
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        run "$side" "$i" "$@"
    done
    i=$((i + 1))
done

# The end-to-end metrics as `name better bound` lines.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /\]/ { exit }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' BENCHMARK.json)

# `values <side> <metric>`: the metric's value in each run, in pair
# order (`nan` for a run that reported none).
values() {
    sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p; t; s/.*/nan/p" "$work/runs/$1"
}

echo
echo "ab: $rev (base) vs this checkout (change), $pairs pair(s) of bench run $*"
printf '%-12s %-6s %-32s %-32s %9s %6s %7s %7s %5s\n' \
    metric better "base median [q1, q3]" "change median [q1, q3]" "change" bound \
    "spread" "spread" wins
printf '%-12s %-6s %-32s %-32s %9s %6s %7s %7s %5s\n' \
    "" "" "" "" "" "" base change ""
echo "$metrics" | while read -r name better bound; do
    values base "$name" >"$work/runs/base.$name"
    values change "$name" >"$work/runs/change.$name"
    paste "$work/runs/base.$name" "$work/runs/change.$name" | awk -v name="$name" \
        -v better="$better" -v bound="$bound" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Linear interpolation between the order statistics.
        function q(a, n, p,   h, l) {
            if (n == 0) return "nan"
            h = 1 + p * (n - 1); l = int(h)
            return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
        }
        function won(b, c) { return better == "lower" ? c < b : c > b }
        $1 != "nan" && $2 != "nan" { nb++; b[nb] = $1; nc++; c[nc] = $2; wins += won($1, $2) }
        END {
            sort(b, nb); sort(c, nc)
            bm = q(b, nb, 0.5); cm = q(c, nc, 0.5)
            rel = bm == 0 ? 0 : (cm - bm) / bm
            worse = better == "lower" ? rel > bound : -rel > bound
            printf "%-12s %-6s %-32s %-32s %+8.1f%% %6s %6.1f%% %6.1f%% %2d/%-2d%s\n", name, better,
                sprintf("%.4g [%.4g, %.4g]", bm, q(b, nb, 0.25), q(b, nb, 0.75)),
                sprintf("%.4g [%.4g, %.4g]", cm, q(c, nc, 0.25), q(c, nc, 0.75)),
                100 * rel, bound, bm == 0 ? 0 : 100 * (q(b, nb, 0.75) - q(b, nb, 0.25)) / bm,
                cm == 0 ? 0 : 100 * (q(c, nc, 0.75) - q(c, nc, 0.25)) / cm, wins, nb,
                worse ? "  WORSE than the bound" : ""
        }'
done
for side in base change; do
    printf 'failed (%s): %s\n' "$side" "$(sed -n 's/.*"failed":\([^,}]*\).*/\1/p; t; s/.*/none/p' \
        "$work/runs/$side" | tr '\n' ' ')"
done
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
echo "host: $(nproc) CPUs (${cpu:-unknown}), load $load_before before, $(load) after"
