#!/usr/bin/env sh
# Tier-1 verification: the exact gate every PR must keep green
# (see ROADMAP.md). Fully offline — the workspace has no external
# dependencies and Cargo.lock is committed.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline
# --workspace: `cargo test` at the root runs only the umbrella crate's
# integration suites; the in-crate unit tests of every member (wire,
# cache, client, server, scheduler, kernels, ...) gate merges too.
cargo test -q --offline --workspace

# Run the net-loopback suites by name so the gate fails loudly if they
# are ever filtered out of the default run (disabled test target,
# harness config drift) instead of passing vacuously: the TCP chaos
# sweep with the donors' own wire faults, the kill-and-restart checkpoint
# recovery, the 24-donor two-pass stress soak with its digest and
# exactly-once checks, the replica-tier acceptance runs (failover
# through killed/stalled replicas against the sequential digest), and
# the ops-plane suite (wire-correlated four-phase spans, donor metrics
# shipping into the live status view, and the planted-straggler
# simulator run that pins the end-game's makespan), and
# the scale tier (the 1k-donor sharded event-loop soak with
# exactly-once audit, O(shards) thread count, and the silent-donor
# case), and — by its own name — the control plane's budget (donor
# writes, frames each way and journal commits per round trip, not per
# unit), the payload path's allocation budget (a test binary of its
# own: its counting allocator is process-wide) and the wire's and log's
# byte parity (golden frame and `Turn` record bytes, borrowed-vs-owned
# decode, the CRC differential, torn and malformed turns) with the
# log's replay beside it (`server::recovery`) and the event loop's own
# tests (`net::evloop`: accepting on the loop, the accept back-off, the
# tick on the loop), the fault plan's one record per donor with the
# simulator that reads it (`fault`, `sim_backend`), and the one record
# of what a donor holds (`donor::`: plan order, crash). Last, the
# farm benchmark's own tests: `benchmark/` is a
# separate package that perf PRs may not edit, so a change to
# `biodist-core`'s public wire/server API that breaks it (its probe
# speaks the raw clients' single-unit frames) fails here, before the
# benchmark driver does.
cargo test -q --offline --test chaos tcp
cargo test -q --offline --test net_recovery
cargo test -q --offline --test stress
cargo test -q --offline --test replica
cargo test -q --offline --test ops
cargo test -q --offline --test scale
cargo test -q --offline --test scale control_plane_syscalls_are_paid_per_round_trip_not_per_unit
cargo test -q --offline --test alloc_budget
cargo test -q --offline -p biodist-core --lib -- net::wire net::crc net::checkpoint server::recovery net::evloop fault sim_backend donor::
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "tier1: OK"
