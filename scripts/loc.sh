#!/bin/sh
# Non-test Rust lines per crates/core/src module; counting stops at a
# file's first `#[cfg(test)]`. `loc.sh [rev]` reads a git revision
# (default: the working tree), so CI prints the merge base and HEAD one
# after the other and every PR's log shows its line delta. Two subtotals
# follow the grand total: `net/` (ROADMAP item 3: "net LOC down") and
# `server.rs + leases.rs` (items 2 / 4b: the server and its lease table);
# then the number of `unsafe` blocks, fns and impls in the counted lines
# (ROADMAP item 8b: the audited surface, comments not counted); then
# `knobs`, the public fields of the four option structs — `SchedulerConfig`,
# `SimConfig`, `NetServerOptions`, `NetClientOptions` — and of
# `HealthConfig` in revisions that still have it (ROADMAP item 7: a
# value nobody chooses is a constant, not a field).
# Last, so that deletions outside `crates/core` count (item 7 again):
# `workspace`, the same non-test count over every crate's `src/`, the
# umbrella `src/` and `examples/` (not `benchmark/`, a package of its
# own), then that total split into one indented line per crate, `src/`
# and `examples/`, so a delta shows where it came from; and `tests/`,
# every line of the integration suites.
set -eu
cd "$(dirname "$0")/.."
rev=${1:-}
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" crates/core/src)
else
    files=$(find crates/core/src -type f | sort)
fi
for f in $files; do
    case $f in *.rs) ;; *) continue ;; esac
    if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi |
        awk -v f="${f#crates/core/src/}" \
            '/#\[cfg\(test\)\]/ { exit } { n++ }
            !/^[ \t]*\/\// && /(^|[^A-Za-z_])unsafe[ \t]*(\{|fn |impl )/ { u++ }
            /^pub struct (SchedulerConfig|HealthConfig|SimConfig|NetServerOptions|NetClientOptions) \{/ { opts = 1 }
            /^}/ { opts = 0 }
            opts && /^    pub [a-z_0-9]+:/ { k++ }
            END { printf "%6d %s %d %d\n", n, f, u, k }'
done | awk '{ printf "%6d %s\n", $1, $2; total += $1; unsafe += $3; knobs += $4 }
    $2 ~ /^net\// { net += $1 }
    $2 == "server.rs" || $2 == "leases.rs" { server += $1 }
    END { printf "%6d total\n%6d net/\n%6d server.rs + leases.rs\n%6d unsafe blocks/fns\n%6d knobs\n",
        total, net, server, unsafe, knobs }'
# `count <label> <non-test only> <path>...`: Rust lines under the paths.
count() {
    label=$1 stop=$2
    shift 2
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" "$@"
    else
        find "$@" -type f | sort
    fi | grep '\.rs$' | while read -r f; do
        if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi |
            awk -v stop="$stop" 'stop && /#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
    done | awk -v label="$label" '{ total += $1 } END { printf "%6d %s\n", total, label }'
}
count workspace 1 crates/*/src src examples
if [ -n "$rev" ]; then
    crates=$(git ls-tree -d --name-only "$rev" crates/)
else
    crates=$(find crates -mindepth 1 -maxdepth 1 -type d | sort)
fi
for c in $crates; do
    count "  $c" 1 "$c/src"
done
count "  src/" 1 src
count "  examples/" 1 examples
count tests/ "" tests
