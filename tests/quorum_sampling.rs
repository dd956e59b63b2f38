//! Quorum and sampling conformance: the determinism contract and the
//! detection-probability model.
//!
//! Two guarantees from PR-10 are pinned here:
//!
//! 1. **Honest-unanimous silence.** An all-honest verifier quorum
//!    appends nothing — no dispute events, no vote evidence — so for
//!    any `(verifiers, shards, workers)` geometry the fleet's evidence
//!    chain heads and event history are byte-identical to the
//!    single-verifier baseline. Replication is a trust knob, not a
//!    behavior knob.
//!
//! 2. **The closed-form detection model.** The seeded spot-check plan
//!    covers each device independently per epoch with probability `c`,
//!    so a persistent cheater is caught within `k` epochs with
//!    probability `1 − (1 − c)^k`. The empirical rate over hundreds of
//!    seeded epochs must match [`detect_probability_per_mille`] inside
//!    a fixed tolerance band — deterministic seeds, so the band never
//!    flakes.

use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::{DhGroup, EntropySource};
use sage_repro::evidence::FreshnessPolicy;
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::service::{
    covers, detect_probability_per_mille, epochs_to_detect, AttestationService, LinkProfile,
    QuorumConfig, SamplingConfig, ServiceConfig, SimNet, SpotCheckPlan,
};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::vf::VfParams;

const DEVICES: usize = 8;
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
    SgxPlatform::new([7u8; 16]).launch(b"quorum-verifier", &mut entropy(enclave_seed))
}

fn config(
    verifiers: u16,
    shards: usize,
    workers: usize,
    sampling: SamplingConfig,
) -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
        shards,
        workers,
        quorum: QuorumConfig {
            verifiers,
            seed: 0x51D,
        },
        sampling,
        ..ServiceConfig::default()
    }
}

fn build_fleet(cfg: ServiceConfig, seed: u64) -> AttestationService<SimNet> {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    for i in 0..DEVICES {
        svc.join(member(i, seed), enclave(i, seed));
    }
    svc
}

/// The comparable core of one fleet run: per-device evidence heads and
/// the full event history.
struct History {
    heads: Vec<(String, [u8; 32], u64)>,
    events_json: String,
    snapshot: Vec<u8>,
}

fn run_history(cfg: ServiceConfig, seed: u64) -> History {
    let mut svc = build_fleet(cfg, seed);
    svc.run_until(HORIZON);
    let mut heads = Vec::new();
    for s in svc.statuses() {
        let chain = svc.evidence_of(&s.name).expect("evidence chain");
        heads.push((s.name.clone(), chain.head(), chain.seq()));
    }
    History {
        heads,
        events_json: svc.log().to_json(),
        snapshot: svc.snapshot(),
    }
}

/// The tentpole determinism contract: any `(verifiers, shards, workers)`
/// geometry yields byte-identical evidence heads and event history vs
/// the single-verifier baseline when the quorum is honest and unanimous.
/// (Snapshot bytes are compared across *geometry* at fixed N — the
/// snapshot necessarily encodes the replica set itself, so it is the
/// one artifact allowed to differ across N.)
#[test]
fn honest_unanimous_quorum_replays_the_single_verifier_history() {
    for seed in [1u64, 2] {
        let base = run_history(config(1, 1, 0, SamplingConfig::default()), seed);
        assert!(!base.heads.is_empty(), "baseline produced no chains");
        for verifiers in [3u16, 5, 7] {
            let mut per_n: Option<History> = None;
            for (shards, workers) in [(1usize, 0usize), (4, 2), (16, 8)] {
                let got = run_history(
                    config(verifiers, shards, workers, SamplingConfig::default()),
                    seed,
                );
                let label = format!(
                    "seed {seed}, verifiers {verifiers}, shards {shards}, workers {workers}"
                );
                assert_eq!(base.heads, got.heads, "{label}: evidence heads diverged");
                assert_eq!(
                    base.events_json, got.events_json,
                    "{label}: event history diverged"
                );
                match &per_n {
                    None => per_n = Some(got),
                    Some(first) => assert_eq!(
                        first.snapshot, got.snapshot,
                        "{label}: snapshot bytes diverged across geometry"
                    ),
                }
            }
        }
    }
}

/// Sampling is a pure function of `(seed, epoch, device)`, so an active
/// sampler is just as geometry-independent: every shard/worker cell
/// (and every honest quorum size) replays the sampled baseline exactly,
/// skips included.
#[test]
fn sampled_fleet_history_is_geometry_independent() {
    let sampling = SamplingConfig {
        coverage_per_mille: 500,
        seed: 0xC0FFEE,
    };
    for seed in [1u64, 2] {
        let base = run_history(config(1, 1, 0, sampling), seed);
        assert!(
            base.events_json.contains("spotcheck_skipped"),
            "the sampled baseline must actually skip epochs"
        );
        for (verifiers, shards, workers) in
            [(1u16, 4usize, 2usize), (1, 16, 8), (3, 4, 2), (5, 16, 8)]
        {
            let got = run_history(config(verifiers, shards, workers, sampling), seed);
            let label =
                format!("seed {seed}, verifiers {verifiers}, shards {shards}, workers {workers}");
            assert_eq!(base.heads, got.heads, "{label}: evidence heads diverged");
            assert_eq!(
                base.events_json, got.events_json,
                "{label}: event history diverged"
            );
        }
    }
}

/// The per-epoch materialized plan agrees with the pure coverage rule
/// (the plan is just the rule, evaluated over the roster).
#[test]
fn spot_check_plan_matches_the_pure_rule() {
    let cfg = SamplingConfig {
        coverage_per_mille: 250,
        seed: 0x5A37,
    };
    let fleet: Vec<String> = (0..32).map(|i| format!("gpu-{i:02}")).collect();
    let names: Vec<&str> = fleet.iter().map(String::as_str).collect();
    for epoch in 0..50u64 {
        let plan = SpotCheckPlan::for_epoch(&cfg, epoch, &names);
        assert_eq!(plan.epoch, epoch);
        assert_eq!(plan.coverage_per_mille, 250);
        for n in &names {
            assert_eq!(
                plan.covers(n),
                covers(&cfg, epoch, n),
                "epoch {epoch}, {n}: plan and rule disagree"
            );
        }
    }
}

/// The statistical pin for the detection model. Over 250 seeded epochs
/// and 400 devices (100k+ samples per point), the empirical rate of
/// "a persistent cheater is covered at least once within k epochs"
/// must sit within ±25‰ of `1 − (1 − c)^k`, and the per-epoch coverage
/// fraction within ±25‰ of `c` — at 10%, 25% and 50% coverage. Every
/// input is a fixed seed, so the band cannot flake.
#[test]
fn empirical_detection_rate_matches_the_closed_form_model() {
    const EPOCHS: u64 = 250;
    const FLEET: usize = 400;
    const TOL_PER_MILLE: i64 = 25;
    let names: Vec<String> = (0..FLEET).map(|i| format!("gpu-{i:04}")).collect();

    for coverage in [100u32, 250, 500] {
        let cfg = SamplingConfig {
            coverage_per_mille: coverage,
            seed: 0xD15EA5E,
        };

        // Per-epoch coverage fraction: the sampler really attests a
        // `c` slice of the fleet.
        let mut covered = 0u64;
        for epoch in 0..EPOCHS {
            for n in &names {
                if covers(&cfg, epoch, n) {
                    covered += 1;
                }
            }
        }
        let frac = (covered * 1000 / (EPOCHS * FLEET as u64)) as i64;
        assert!(
            (frac - i64::from(coverage)).abs() <= TOL_PER_MILLE,
            "coverage {coverage}: fraction {frac}‰ off the target"
        );

        // Detection-within-k: sliding windows over the epoch stream
        // (every start epoch is one independent "cheater appears now"
        // trial per device).
        for k in [1u64, 2, 4, 8] {
            let mut detected = 0u64;
            let mut trials = 0u64;
            for start in 0..(EPOCHS - k) {
                for n in &names {
                    trials += 1;
                    if (start..start + k).any(|e| covers(&cfg, e, n)) {
                        detected += 1;
                    }
                }
            }
            let empirical = (detected * 1000 / trials) as i64;
            let predicted = detect_probability_per_mille(coverage, k) as i64;
            assert!(
                (empirical - predicted).abs() <= TOL_PER_MILLE,
                "coverage {coverage}, k {k}: empirical {empirical}‰ vs predicted {predicted}‰"
            );
        }

        // And the inverse direction the telemetry gauge exposes: after
        // `epochs_to_detect(c, 98%)` epochs the model predicts ≥ 98%,
        // and the empirical rate agrees.
        let k = epochs_to_detect(coverage, 980);
        assert!(detect_probability_per_mille(coverage, k) >= 980);
        let mut detected = 0u64;
        let mut trials = 0u64;
        for start in 0..(EPOCHS - k) {
            for n in &names {
                trials += 1;
                if (start..start + k).any(|e| covers(&cfg, e, n)) {
                    detected += 1;
                }
            }
        }
        assert!(
            detected * 1000 / trials >= 970,
            "coverage {coverage}: k={k} did not reach the modeled confidence"
        );
    }
}
