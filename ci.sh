#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 verify, simulator-perf smoke.
#
# Everything here runs offline (the workspace is dependency-free by
# design — see DESIGN.md §4.5) and must pass before merge.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy -q --release --workspace --all-targets -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> service fleet integration (fault injection across seeds)"
cargo test -q --test service_fleet

echo "==> telemetry core (counters, histograms, spans, exporters)"
cargo test -q -p sage-telemetry

echo "==> attack matrix (20 tests: 7 attacks, 8 evidence-tampering and 5 Byzantine campaigns, on the classic and precomputed verdict paths)"
cargo test -q --test attack_matrix

echo "==> evidence crate (chain, merkle, reports, codec fuzz)"
cargo test -q -p sage-evidence

echo "==> service crate (snapshot codec, wire fuzz, wire properties)"
cargo test -q -p sage-service

echo "==> crash recovery incl. mid-epoch evidence preservation"
cargo test -q --test service_recovery

echo "==> sharded determinism matrix ({shards 1,4,16} x {workers 0,2,8})"
cargo test -q --release --test service_sharded

# The parallel-mode speedup needs real cores to show up; on a 1-2 core
# runner the run still asserts bit-exactness but the ratio gate is moot.
CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 4 ]; then MIN_SPEEDUP=3; else MIN_SPEEDUP=1; fi
echo "==> simperf smoke (1 iteration, 1 repeat, >=${MIN_SPEEDUP}x parallel-mode gate on ${CORES} cores)"
cargo run -q --release -p sage-bench --bin simperf -- \
    --iterations 1 --repeats 1 --min-speedup "$MIN_SPEEDUP" \
    --out /tmp/BENCH_sim_smoke.json

echo "==> svcperf smoke (fixed seed, snapshot asserted non-empty)"
cargo run -q --release -p sage-bench --bin svcperf -- \
    --devices 2 --rounds 2 --seed 7 --out /tmp/BENCH_svc_smoke.json
test -s /tmp/BENCH_svc_smoke.json

echo "==> fleetperf gate (10k modeled devices, core-scaled rounds/sec floor)"
cargo run -q --release -p sage-bench --bin fleetperf -- \
    --devices 10000 --rounds 3 --seed 7 --gate \
    --out /tmp/BENCH_fleet_smoke.json
test -s /tmp/BENCH_fleet_smoke.json

echo "==> modpow suite (Montgomery vs reference oracle, seeded)"
cargo test -q --release -p sage-crypto montgomery

echo "==> fastpath smoke (fixed seed, round/modpow/refill speedup gates active)"
cargo run -q --release -p sage-bench --bin fastpath -- \
    --rounds 4 --iterations 12 --calib-runs 20 --seed 7 \
    --out /tmp/BENCH_fastpath_smoke.json
test -s /tmp/BENCH_fastpath_smoke.json

echo "==> telemetry overhead smoke (bank-hit fast path, <=1.10x gate)"
cargo run -q --release -p sage-bench --bin telemperf -- \
    --rounds 64 --reps 7 --seed 7 --max-ratio 1.10 \
    --out /tmp/BENCH_telemetry_smoke.json
test -s /tmp/BENCH_telemetry_smoke.json

echo "==> evperf smoke (append/seal/prove/verify, every report must verify)"
cargo run -q --release -p sage-bench --bin evperf -- \
    --devices 8 --records 32 --iters 20 --seed 7 \
    --out /tmp/BENCH_evidence_smoke.json
test -s /tmp/BENCH_evidence_smoke.json

echo "==> transport loopback + chaos (UDS framing, sever/resume, byte-identical chains)"
cargo test -q --release --test transport_loopback --test transport_chaos

echo "==> netperf gate (severing regime: core-scaled sessions/sec floor, >=99% resume rate, zero false accepts)"
cargo run -q --release -p sage-bench --bin netperf -- \
    --devices 7 --rounds 5 --seed 7 --regime severing --gate \
    --out /tmp/BENCH_net_smoke.json
test -s /tmp/BENCH_net_smoke.json
grep -q '"false_accepts": 0,' /tmp/BENCH_net_smoke.json

echo "==> quorumperf gate (honest-unanimous byte identity, >=3x sampling speedup at 25% coverage, zero false accepts)"
cargo run -q --release -p sage-bench --bin quorumperf -- \
    --devices 12 --horizon 600000 --reps 3 --seed 7 --gate \
    --out /tmp/BENCH_quorum_smoke.json
test -s /tmp/BENCH_quorum_smoke.json
grep -q '"false_accepts": 0,' /tmp/BENCH_quorum_smoke.json

echo "==> chaos soak smoke (3 seeds, crash+restore, zero-false-accept gate)"
cargo run -q --release -p sage-bench --bin soak -- \
    --seeds 5,6,7 --ticks 400000 --devices 2 \
    --out /tmp/BENCH_soak_smoke.json
test -s /tmp/BENCH_soak_smoke.json

echo "ci.sh: all gates passed"
