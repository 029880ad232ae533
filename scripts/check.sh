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

# The workspace run above already covers every root gate suite once:
# the chaos replay and tight-memory smoke (`tests/resilience.rs`, fixed
# seed), the torn-snapshot concurrency proof (`tests/scaling.rs`), the
# serving gate (`tests/server.rs`), the executor accounting golden
# (`tests/exec_accounting.rs`), the WAL crash harness
# (`tests/durability.rs`) and the feedback ladder (`tests/feedback.rs`).
# Only gates that need a different environment run again below. CI adds
# the randomized-seed, TSan and bench legs on top.

# Plan-space audit: the enumeration oracle over Q1-Q4 in quick mode —
# every plan the memo encodes executes to identical canonical bytes and
# the winner is cost-minimal over the whole space. Rule-graph
# termination and confluence run inside oodb-core's unit tests above;
# this is the executable half (CI's `audit` job runs the same corpus).
echo "==> plan-space audit (enumeration oracle, quick corpus)"
OODB_AUDIT_QUICK=1 cargo test -q --test audit

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
