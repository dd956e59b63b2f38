//! Quorum and sampling conformance: the determinism contract and the
//! detection-probability model.
//!
//! Two guarantees from PR-10 are pinned here:
//!
//! 1. **Honest-unanimous silence.** An all-honest verifier quorum
//!    appends nothing — no dispute events, no vote evidence — so for
//!    any verifier count the fleet's evidence chain heads and event
//!    history are byte-identical to the single-verifier baseline.
//!    Replication is a trust knob, not a behavior knob.
//!
//! 2. **The closed-form detection model.** The seeded spot-check plan
//!    covers each device independently per epoch with probability `c`,
//!    so a persistent cheater is caught within `k` epochs with
//!    probability `1 − (1 − c)^k`. The empirical rate over hundreds of
//!    seeded epochs must match [`detect_probability_per_mille`] inside
//!    a fixed tolerance band — deterministic seeds, so the band never
//!    flakes. A planted cheater in a live sampled fleet is caught no
//!    later than one epoch after the plan first covers it.

mod fixture;

use sage_repro::attacks::forge::ReplayTap;
use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::DhGroup;
use sage_repro::evidence::FreshnessPolicy;
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::service::{
    covers, detect_probability_per_mille, epochs_to_detect, AttestationService, DeviceState,
    EventKind, LinkProfile, QuorumConfig, SamplingConfig, ServiceConfig, SimNet, SpotCheckPlan,
};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::vf::VfParams;

use fixture::entropy;

const DEVICES: usize = 8;
const HORIZON: u64 = 120_000;

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

fn config(verifiers: u16, sampling: SamplingConfig) -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
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
}

fn run_history(cfg: ServiceConfig, seed: u64) -> History {
    let mut svc = build_fleet(cfg, seed);
    svc.run_until(HORIZON);
    let mut heads = Vec::new();
    for s in svc.statuses() {
        // An honest fleet holds `Trusted` under every quorum and plan.
        assert_eq!(s.state, DeviceState::Trusted, "{} lost trust", s.name);
        let chain = svc.evidence_of(&s.name).expect("evidence chain");
        heads.push((s.name.clone(), chain.head(), chain.seq()));
    }
    History {
        heads,
        events_json: svc.log().to_json(),
    }
}

/// The determinism contract: any verifier count yields byte-identical
/// evidence heads and event history vs the single-verifier baseline
/// when the quorum is honest and unanimous. (Snapshot bytes are not
/// compared: the snapshot encodes the replica set itself, so it is the
/// one artifact allowed to differ across N.)
#[test]
fn honest_unanimous_quorum_replays_the_single_verifier_history() {
    for seed in [1u64, 2] {
        let base = run_history(config(1, SamplingConfig::default()), seed);
        assert!(!base.heads.is_empty(), "baseline produced no chains");
        for verifiers in [3u16, 5, 7] {
            let got = run_history(config(verifiers, SamplingConfig::default()), seed);
            let label = format!("seed {seed}, verifiers {verifiers}");
            assert_eq!(base.heads, got.heads, "{label}: evidence heads diverged");
            assert_eq!(
                base.events_json, got.events_json,
                "{label}: event history diverged"
            );
        }
    }
}

/// Sampling is a pure function of `(seed, epoch, device)`, so an active
/// sampler is just as independent of the quorum geometry: every honest
/// quorum size replays the sampled baseline exactly, skips included.
#[test]
fn sampled_fleet_history_is_geometry_independent() {
    let sampling = SamplingConfig {
        coverage_per_mille: 500,
        seed: 0xC0FFEE,
    };
    for seed in [1u64, 2] {
        let base = run_history(config(1, sampling), seed);
        assert!(
            base.events_json.contains("spotcheck_skipped"),
            "the sampled baseline must actually skip epochs"
        );
        for verifiers in [3u16, 5] {
            let got = run_history(config(verifiers, sampling), seed);
            let label = format!("seed {seed}, verifiers {verifiers}");
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

/// The model in a live fleet: a cheater planted under 25% coverage is
/// caught no later than one epoch after the seeded plan first covers it
/// (+1 epoch of round-cadence slack), and passes no round past the one
/// in flight at the compromise and the replay tap's recording round.
/// Twelve cycle-accurate devices at a dense 5k-tick cadence in 60k-tick
/// epochs; the tap goes on the last device once the fleet has settled.
#[test]
fn planted_cheater_is_caught_by_its_first_covered_epoch() {
    const FLEET: usize = 12;
    const SEED: u64 = 7;
    const EPOCH: u64 = 60_000;
    const SETTLE: u64 = 45_000;
    const MIN_HORIZON: u64 = 600_000;
    let sampling = SamplingConfig {
        coverage_per_mille: 250,
        seed: 0xC0FFEE,
    };
    let net = SimNet::new(
        SEED,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        reattest_interval: 5_000,
        epoch_interval: EPOCH,
        quorum: QuorumConfig {
            verifiers: 1,
            seed: 0x51D,
        },
        sampling,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    for i in 0..FLEET {
        let enclave_seed = (SEED as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        svc.join(
            fixture::tiny_member(i, SEED),
            fixture::enclave(b"quorum-verifier", enclave_seed),
        );
    }
    svc.run_until(SETTLE);

    let cheater = format!("gpu-{:02}", FLEET - 1);
    let session = svc.session_mut(&cheater).expect("cheater is managed");
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
    let rounds_passed = |svc: &AttestationService<SimNet>| {
        svc.statuses()
            .into_iter()
            .find(|s| s.name == cheater)
            .expect("cheater status")
            .rounds_passed
    };
    let banked = rounds_passed(&svc);

    // For this device under this plan the first covered epoch after the
    // compromise is deterministic; run far enough past it to quarantine.
    let compromise_epoch = SETTLE / EPOCH;
    let first_covered = (compromise_epoch + 1..)
        .find(|e| covers(&sampling, *e, &cheater))
        .expect("coverage > 0 covers every device eventually")
        - compromise_epoch;
    svc.run_until(MIN_HORIZON.max(SETTLE + (compromise_epoch + first_covered + 3) * EPOCH));

    let detected = svc
        .log()
        .events()
        .iter()
        .find(|e| {
            e.device == cheater && e.at > SETTLE && matches!(e.kind, EventKind::RoundFailed { .. })
        })
        .map(|e| e.at / EPOCH - compromise_epoch)
        .expect("the cheater must fail a round");
    assert!(
        detected <= first_covered + 1,
        "detection took {detected} epochs but the plan covers the cheater at epoch +{first_covered}"
    );
    assert!(
        rounds_passed(&svc) <= banked + 2,
        "false accepts: {} rounds passed after the compromise, at most 2 allowed",
        rounds_passed(&svc) - banked
    );
    assert_eq!(svc.state_of(&cheater), Some(DeviceState::Quarantined));
}
