#!/bin/sh
# Runs the whole set twice on this commit and compares the two against
# the bounds in BENCHMARK.json: `bench compare` exits non-zero on any
# regression between the sets, i.e. when the benchmark cannot hold its
# own bounds on this host. Pass --smoke for a seconds-long dry run.
set -eu
cd "$(dirname "$0")"
bench() { cargo run --release --offline --quiet -- "$@"; }
bench all "$@"
cp out/all.json out/all.first.json
bench all "$@"
bench compare out/all.first.json out/all.json
