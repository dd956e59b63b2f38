#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 verify, release-profile suites and
# the timing gates.
#
# Everything here runs offline (the workspace is dependency-free by
# design — see DESIGN.md §4.5) and must pass before merge.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy -q --release --workspace --all-targets -- -D warnings

# Tier-1 covers every workspace crate (`default-members`), the chaos
# soak included; the steps after it only add the release profile.
echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> sharded determinism matrix ({shards 1,4,16} x {workers 0,2,8})"
cargo test -q --release --test service_sharded

echo "==> modpow suite (Montgomery vs reference oracle, seeded)"
cargo test -q --release -p sage-crypto montgomery

echo "==> transport loopback + chaos (UDS framing, sever/resume, byte-identical chains)"
cargo test -q --release --test transport_loopback --test transport_chaos

echo "==> timing gates (speed ratios and core-scaled throughput floors, one at a time)"
cargo test -q --release --test perf_gates -- --ignored

echo "ci.sh: all gates passed"
