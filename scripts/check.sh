#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, tests. CI and pre-commit both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

# Chaos gate: replay the paper's queries under the deterministic fault
# injector (fixed seed — CI adds a randomized-seed leg on top).
echo "==> chaos replay (fixed seed)"
cargo test -q --test resilience

# Memory-governance smoke: the pressure x faults replay, saturation
# shedding, and the circuit breaker (the `memory` tests in the chaos
# suite; CI's `overload` job runs the full memlimit bench on top).
echo "==> tight-memory smoke (pressure + shedding + breaker)"
cargo test -q --test resilience memory

# Concurrency proof: N submitters race combined statistics + config
# snapshot swaps; no torn (epoch, config) pair may ever be observed and
# plan-cache accounting must reconcile (CI adds a TSan leg on top).
echo "==> concurrency proof (torn snapshots + cache reconciliation)"
cargo test -q --test scaling

# Serving gate: the wire protocol end to end over loopback — pipelined
# prepared replay reconciling server counters against plan-cache stats,
# malformed/oversized rejection, graceful-shutdown drain, and the
# per-tenant QoS paths (429 queue-full, 503 circuit-open). CI's
# `server` job runs the loopback bench on top.
echo "==> serving gate (wire protocol + tenant QoS + drain)"
cargo test -q --test server

# Plan-space audit: the enumeration oracle over Q1-Q4 in quick mode —
# every plan the memo encodes executes to identical canonical bytes and
# the winner is cost-minimal over the whole space. Rule-graph
# termination and confluence run inside oodb-core's unit tests above;
# this is the executable half (CI's `audit` job runs the same corpus).
echo "==> plan-space audit (enumeration oracle, quick corpus)"
OODB_AUDIT_QUICK=1 cargo test -q --test audit

# Accounting golden: buffer hits/misses, bit-exact simulated disk
# seconds, operation counts and per-node trace rows of every enumerated
# Q1-Q4 audit plan and every exec_validation plan, pinned against
# tests/golden/exec_accounting.txt. An executor change must not move them.
echo "==> executor accounting golden (audit + exec_validation plans)"
cargo test -q --test exec_accounting

# Durability gate: the deterministic crash harness — the WAL killed at
# every record boundary plus hundreds of seeded mid-record offsets and
# bit flips, write faults injected on the append/flush/sync paths, and
# the service round-trip recovering Q1-Q4 byte-identically (CI's
# `durability` job adds a randomized-seed leg and the overhead bench).
echo "==> durability gate (crash harness, fixed seed)"
cargo test -q --test durability

# Feedback-loop gate: the suspect -> probe -> re-optimize ladder must
# converge on the skewed fixture, the untraced hot path must feed the
# drift detector, and feedback must retire cleanly across epoch bumps
# and cache clears (CI's `reopt` job replays the bench gates on top).
echo "==> feedback gate (drift ladder + re-optimization)"
cargo test -q --test feedback

# The benchmark package is a workspace of its own, so the workspace
# test run above never compiles it; it consumes the executor's result and
# trace API (ExecResult::Tuples, Tuple::try_get, try_execute_traced,
# OpTrace labels), so build and test it here.
echo "==> perfbench (separate workspace: build + unit tests)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Supply-chain lint: advisories, duplicate versions, license allow-list.
# cargo-deny is an external binary; skip gracefully where it is not
# installed (the offline build container) rather than failing the gate.
if command -v cargo-deny >/dev/null 2>&1; then
    echo "==> cargo deny check"
    cargo deny check
else
    echo "==> cargo deny check (skipped: cargo-deny not installed)"
fi

echo "OK"
