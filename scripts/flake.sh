#!/bin/sh
# The failure rate of one test under load. `flake.sh <test-binary>
# <test> <n> <k>` runs `<test>` (its exact name) from an already built
# test binary `n` times, one run at a time, with `k` busy-loop
# processes beside it (at most twice the CPU count; all of them are
# killed when the script exits), then prints failures/n and the host.
# Build the binary first, e.g.
#   cargo test --release --offline --test stress --no-run
#   sh scripts/flake.sh target/release/deps/stress-<hash> \
#       stress_soak_24_donors_two_passes_are_exactly_once 20 0
set -u
if [ $# -ne 4 ]; then
    echo "usage: $0 <test-binary> <test> <n> <k>" >&2
    exit 2
fi
bin=$1 test=$2 n=$3 k=$4
case "$n$k" in *[!0-9]*) echo "n and k must be counts" >&2; exit 2 ;; esac
if ! "$bin" --exact "$test" --list 2>/dev/null | grep -q ': test$'; then
    echo "$bin has no test named $test" >&2
    exit 2
fi
cpus=$(nproc)
[ "$k" -le $((2 * cpus)) ] || k=$((2 * cpus))

loads=
trap 'for p in $loads; do kill "$p" 2>/dev/null; done; wait' EXIT
trap 'exit 130' INT TERM
i=0
while [ "$i" -lt "$k" ]; do
    sh -c 'while :; do :; done' &
    loads="$loads $!"
    i=$((i + 1))
done

fails=0
i=0
while [ "$i" -lt "$n" ]; do
    "$bin" --exact "$test" --test-threads=1 -q >/dev/null 2>&1 || fails=$((fails + 1))
    i=$((i + 1))
done
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
echo "$fails/$n failed: $test, $k busy loops, $cpus CPUs ($cpu)"
