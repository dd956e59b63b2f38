//! Determinism matrix for the sharded control plane.
//!
//! The sharded event loop's headline guarantee: shard count and worker
//! count are *pure throughput knobs*. For any `(shards, workers)`
//! configuration the service must produce the identical event history,
//! the identical per-device evidence chain heads, and byte-identical
//! snapshots — because the three-stage step (intake → per-device units
//! → seq-stamped merge) imposes one canonical global order no matter
//! how the units were scheduled.
//!
//! The matrix here runs a modeled fleet under `{shards 1,4,16} ×
//! {workers 0,2,8}` for three seeds and asserts every cell equals the
//! `shards=1, workers=0` baseline (the configuration that replays the
//! pre-shard implementation's history). A second scenario crashes the
//! control plane mid-epoch, restores it under a *different* shard
//! geometry, and requires the spliced history to match a run that never
//! crashed — resharding on restart is invisible.

use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::{DhGroup, EntropySource};
use sage_repro::evidence::FreshnessPolicy;
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::service::{AttestationService, LinkProfile, ServiceConfig, SimNet};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::vf::VfParams;

/// The shard/worker grid every scenario sweeps. `(1, 0)` is the
/// baseline cell the rest must reproduce.
const GRID: [(usize, usize); 6] = [(1, 0), (1, 8), (4, 0), (4, 2), (16, 2), (16, 8)];

const DEVICES: usize = 12;
const HORIZON: u64 = 120_000;

fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

/// A modeled fleet member: the checksum comes from the replay engine
/// and timing is synthesized, so a twelve-device fleet runs the whole
/// matrix in seconds while exercising the full wire/crypto/lifecycle
/// path.
fn member(index: usize, seed: u64) -> FleetMember {
    let session = GpuSession::install_modeled(
        Device::new(DeviceConfig::sim_nano()),
        &VfParams::fleet_tiny(),
        0xF1EE7,
        10_000,
    )
    .expect("install modeled VF");
    let agent_seed = (seed as u8).wrapping_add(index as u8).wrapping_mul(3) | 1;
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(agent_seed))));
    m.name = format!("gpu-{index:02}");
    m
}

fn enclave(index: usize, seed: u64) -> Enclave {
    let enclave_seed = (seed as u8).wrapping_add(index as u8).wrapping_mul(5) | 1;
    SgxPlatform::new([7u8; 16]).launch(b"sharded-verifier", &mut entropy(enclave_seed))
}

fn config(shards: usize, workers: usize) -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
        shards,
        workers,
        ..ServiceConfig::default()
    }
}

fn build_fleet(shards: usize, workers: usize, seed: u64) -> AttestationService<SimNet> {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(config(shards, workers), DhGroup::test_group(), net);
    for i in 0..DEVICES {
        svc.join(member(i, seed), enclave(i, seed));
    }
    svc
}

/// Everything the determinism contract covers, in comparable form:
/// snapshot bytes (clock, per-device durable state, sealed epochs,
/// event log, counters) plus each device's evidence head and length.
struct History {
    snapshot: Vec<u8>,
    heads: Vec<(String, [u8; 32], u64)>,
    events_json: String,
}

fn history_of(svc: &AttestationService<SimNet>) -> History {
    let mut heads = Vec::new();
    for s in svc.statuses() {
        let chain = svc.evidence_of(&s.name).expect("evidence chain");
        heads.push((s.name.clone(), chain.head(), chain.seq()));
    }
    History {
        snapshot: svc.snapshot(),
        heads,
        events_json: svc.log().to_json(),
    }
}

fn run_history(shards: usize, workers: usize, seed: u64) -> History {
    let mut svc = build_fleet(shards, workers, seed);
    svc.run_until(HORIZON);
    history_of(&svc)
}

fn assert_same(label: &str, base: &History, got: &History) {
    assert_eq!(base.heads, got.heads, "{label}: evidence heads diverged");
    assert_eq!(
        base.events_json, got.events_json,
        "{label}: event history diverged"
    );
    assert_eq!(
        base.snapshot, got.snapshot,
        "{label}: snapshot bytes diverged"
    );
}

#[test]
fn every_shard_worker_cell_replays_the_baseline_history() {
    for seed in [1u64, 2, 3] {
        let base = run_history(1, 0, seed);
        assert!(
            !base.heads.is_empty(),
            "baseline produced no evidence chains"
        );
        for (shards, workers) in GRID {
            if (shards, workers) == (1, 0) {
                continue;
            }
            let got = run_history(shards, workers, seed);
            assert_same(
                &format!("seed {seed}, shards {shards}, workers {workers}"),
                &base,
                &got,
            );
        }
    }
}

#[test]
fn crash_and_resharded_restore_mid_epoch_is_invisible() {
    // Crash between two epoch seals (epochs at 30k/60k/90k; crash at
    // 44k) with rounds outstanding, restore under a different shard
    // geometry, and run to the horizon: the spliced history must be
    // byte-identical to the baseline that never crashed.
    const CRASH_AT: u64 = 44_000;
    for seed in [1u64, 2, 3] {
        let base = run_history(1, 0, seed);
        for (shards, workers) in [(4, 2), (16, 8)] {
            let mut first = build_fleet(1, 0, seed);
            first.run_until(CRASH_AT);
            let bytes = first.snapshot();
            let (net, endpoints) = first.into_endpoints();
            let mut second = AttestationService::restore(
                config(shards, workers),
                DhGroup::test_group(),
                net,
                &bytes,
                endpoints,
            )
            .expect("restore resharded");
            second.run_until(HORIZON);
            assert_same(
                &format!("seed {seed}, restore into shards {shards}, workers {workers}"),
                &base,
                &history_of(&second),
            );
        }
    }
}

#[test]
fn snapshots_agree_at_every_epoch_boundary() {
    // Stronger than end-state equality: walk the run in epoch-sized
    // steps and require the full state to agree at each boundary, so a
    // transient divergence cannot cancel out by the horizon.
    let seed = 2u64;
    let mut base = build_fleet(1, 0, seed);
    let mut wide = build_fleet(16, 8, seed);
    for checkpoint in (30_000..=HORIZON).step_by(30_000) {
        base.run_until(checkpoint);
        wide.run_until(checkpoint);
        assert_same(
            &format!("checkpoint {checkpoint}"),
            &history_of(&base),
            &history_of(&wide),
        );
    }
}
