//! Fleet-level attestation service scenarios: a four-device fleet run
//! through churn and fault injection over the simulated network. Honest
//! devices must hold `Trusted` across many re-attestation rounds while a
//! device compromised after enrollment (replayed checksums, borrowed from
//! the §8 attack library) is driven into `Quarantined` — deterministically,
//! across several seeds.

use sage_repro::attacks::forge::ReplayTap;
use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::{DhGroup, EntropySource};
use std::sync::{Arc, Mutex};

use sage_repro::evidence::{verify_report, ChainAnchor, Freshness, FreshnessPolicy};
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::service::{
    AttestationService, DeviceState, EventKind, Fault, LinkProfile, Policy, ServiceConfig, SimNet,
    SEALED_EPOCHS_KEPT, VERIFIER_NODE,
};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::telemetry::{MetricValue, Registry};
use sage_repro::vf::VfParams;

mod fixture;

fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

fn member(name: &str, cfg: DeviceConfig, seed: u8) -> FleetMember {
    let mut params = VfParams::test_tiny();
    params.iterations = 5;
    let session = GpuSession::install(Device::new(cfg), &params, 0xF1EE7).unwrap();
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(seed))));
    m.name = name.to_string();
    m
}

fn enclave(seed: u8) -> Enclave {
    SgxPlatform::new([7u8; 16]).launch(b"svc-verifier", &mut entropy(seed))
}

fn perfect_net(seed: u64) -> SimNet {
    SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    )
}

/// Installs the §8 replay tap on an enrolled device: from now on the
/// first checksum readback is recorded and substituted into every later
/// round — fresh challenges make that a wrong answer every time.
fn compromise_with_replay(svc: &mut AttestationService<SimNet>, name: &str) {
    let session = svc.session_mut(name).expect("device is managed");
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
}

#[test]
fn fleet_survives_churn_and_quarantines_replay_attacker() {
    // The acceptance scenario, run across three seeds: same outcome each
    // time even though each seed draws different jitter/drop sequences.
    for seed in [1u64, 2, 3] {
        let net = SimNet::new(
            seed,
            LinkProfile {
                latency: 100,
                jitter: 25,
                drop_per_mille: 20,
                dup_per_mille: 10,
            },
        );
        let cfg = ServiceConfig {
            reattest_interval: 50_000,
            latency_budget: 200,
            deadline_slack: 2_000,
            calibration_runs: 8,
            policy: Policy::default(),
            ..ServiceConfig::default()
        };
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);

        let names = ["gpu-a", "gpu-b", "gpu-c", "gpu-evil"];
        let mut ids = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let m = member(name, DeviceConfig::sim_tiny(), 41 + i as u8);
            ids.push(svc.join(m, enclave(61 + i as u8)));
        }

        // Settle: every device passes its first remote round.
        svc.run_for(45_000);
        for name in names {
            assert_eq!(
                svc.state_of(name),
                Some(DeviceState::Trusted),
                "seed {seed}: {name} after settling"
            );
        }

        // Post-enrollment compromise of gpu-evil, plus targeted network
        // faults against two honest devices: a dropped challenge and a
        // response delayed far past the deadline.
        compromise_with_replay(&mut svc, "gpu-evil");
        svc.transport_mut().inject(Fault::DropNext {
            src: VERIFIER_NODE,
            dst: ids[1],
            remaining: 1,
        });
        svc.transport_mut().inject(Fault::DelayNext {
            src: ids[2],
            dst: VERIFIER_NODE,
            extra: 300_000,
            remaining: 1,
        });

        // Run until the fleet reaches the expected steady state: honest
        // devices Trusted with a deep round history, the attacker
        // quarantined. The iteration cap keeps a regression from hanging.
        let mut settled = false;
        for _ in 0..400 {
            svc.run_for(50_000);
            let honest_ok = names[..3].iter().all(|n| {
                svc.statuses().iter().any(|s| {
                    s.name == *n && s.state == DeviceState::Trusted && s.rounds_passed >= 12
                })
            });
            if honest_ok && svc.state_of("gpu-evil") == Some(DeviceState::Quarantined) {
                settled = true;
                break;
            }
        }
        assert!(settled, "seed {seed}: fleet did not settle");

        let counters = svc.log().counters();
        assert!(
            counters.timeouts >= 1,
            "seed {seed}: the delayed response must register as a timeout"
        );
        assert_eq!(counters.quarantines, 1, "seed {seed}");
        let evil = svc
            .statuses()
            .into_iter()
            .find(|s| s.name == "gpu-evil")
            .unwrap();
        // The tap's recording round may pass; everything after replays a
        // stale answer against a fresh challenge and fails.
        assert!(
            evil.rounds_passed <= 2,
            "seed {seed}: attacker banked {} rounds",
            evil.rounds_passed
        );
        assert!(counters.value_rejects >= u64::from(cfg.policy.quarantine_after));
    }
}

#[test]
fn roster_stays_most_powerful_first_across_join_and_leave() {
    let cfg = ServiceConfig::default();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(5));
    svc.join(member("gpu-a", DeviceConfig::sim_tiny(), 45), enclave(65));
    svc.join(member("gpu-b", DeviceConfig::sim_tiny(), 46), enclave(66));
    svc.run_for(10_000);

    // A more powerful device joining mid-run moves to the head of the
    // roster (paper §3.2: most powerful first).
    svc.join(
        member("gpu-big", DeviceConfig::sim_small(), 47),
        enclave(67),
    );
    let statuses = svc.statuses();
    assert_eq!(statuses[0].name, "gpu-big");
    assert!(statuses[0].power > statuses[1].power);
    // Equal-power devices stay name-ordered behind it.
    assert_eq!(statuses[1].name, "gpu-a");
    assert_eq!(statuses[2].name, "gpu-b");

    svc.run_for(60_000);
    for s in svc.statuses() {
        assert_eq!(s.state, DeviceState::Trusted, "{}", s.name);
    }

    // Leaving revokes: the device is unscheduled and its round counter
    // freezes while the rest of the fleet keeps attesting.
    assert!(svc.leave("gpu-a"));
    assert!(!svc.leave("gpu-a-typo"));
    let frozen = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-a")
        .unwrap()
        .rounds_passed;
    svc.run_for(200_000);
    let after = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-a")
        .unwrap();
    assert_eq!(after.state, DeviceState::Revoked);
    assert_eq!(after.rounds_passed, frozen);
    let big = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-big")
        .unwrap();
    assert!(big.rounds_passed > frozen);
    assert_eq!(svc.log().counters().leaves, 1);
}

#[test]
fn slow_proxy_burns_restart_budget_then_quarantines() {
    // A device that genuinely became slower after enrollment (a proxy
    // relaying the exchange, paper §8): answers are *correct* but exceed
    // the calibrated threshold. The policy first spends the timing-restart
    // budget (the §7.2 false-positive allowance), then counts failures.
    let cfg = ServiceConfig {
        deadline_slack: 4_000, // let slow-but-correct answers arrive
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(9));
    svc.join(member("gpu-p", DeviceConfig::sim_tiny(), 48), enclave(68));
    svc.join(member("gpu-q", DeviceConfig::sim_tiny(), 49), enclave(69));
    // One checksum run is ~38k virtual ticks at this VF scale, so the
    // first round needs a generous settling window.
    svc.run_for(45_000);
    assert_eq!(svc.state_of("gpu-p"), Some(DeviceState::Trusted));

    // +3000 cycles: far past T_avg + 2.5σ (σ is a few hundred cycles at
    // this VF scale) yet within the deadline slack.
    svc.node_mut("gpu-p").unwrap().extra_compute = 3_000;
    for _ in 0..40 {
        svc.run_for(50_000);
        if svc.state_of("gpu-p") == Some(DeviceState::Quarantined) {
            break;
        }
    }

    assert_eq!(svc.state_of("gpu-p"), Some(DeviceState::Quarantined));
    assert_eq!(svc.state_of("gpu-q"), Some(DeviceState::Trusted));
    let counters = svc.log().counters();
    let policy = Policy::default();
    assert_eq!(counters.restarts, u64::from(policy.max_timing_restarts));
    // Every reject on this path is a timing reject, never a wrong value:
    // restart budget + quarantine budget.
    assert_eq!(
        counters.timing_rejects,
        u64::from(policy.max_timing_restarts) + u64::from(policy.quarantine_after)
    );
    assert_eq!(counters.value_rejects, 0);
    assert_eq!(counters.timeouts, 0);
}

#[test]
fn enrollment_failure_quarantines_without_stopping_the_service() {
    // calibration_runs = 0 gives the threshold estimator an empty sample
    // set; the Result-returning constructor turns that into a recorded
    // enrollment failure instead of a panic, and the rest of the fleet
    // keeps attesting.
    let cfg = ServiceConfig {
        calibration_runs: 0,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(3));
    svc.join(member("gpu-x", DeviceConfig::sim_tiny(), 50), enclave(70));
    assert_eq!(svc.state_of("gpu-x"), Some(DeviceState::Quarantined));
    assert_eq!(svc.log().counters().calibration_failures, 1);

    // A properly calibrated device joining the same service still works.
    let good_cfg = ServiceConfig::default();
    let mut good = AttestationService::new(good_cfg, DhGroup::test_group(), perfect_net(4));
    good.join(member("gpu-y", DeviceConfig::sim_tiny(), 51), enclave(71));
    good.run_for(45_000);
    assert_eq!(good.state_of("gpu-y"), Some(DeviceState::Trusted));
}

/// A cycle-accurate fleet on a jittery link: every device converges to
/// `Trusted` within `4r + 8` re-attest windows, and the telemetry
/// attached before the first join agrees with the event log's books.
#[test]
fn exact_fleet_converges_and_telemetry_matches_the_log() {
    const DEVICES: usize = 2;
    const ROUNDS: u64 = 2;
    let cfg = ServiceConfig::default();
    let net = SimNet::new(
        7,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    for i in 0..DEVICES {
        let seed = (7 + i as u8).wrapping_mul(3) | 1;
        svc.join(
            member(&format!("gpu-{i:02}"), DeviceConfig::sim_tiny(), seed),
            enclave((7 + i as u8).wrapping_mul(5) | 1),
        );
    }
    let mut windows = 0;
    while svc.statuses().iter().any(|s| s.rounds_passed < ROUNDS) {
        svc.run_for(cfg.reattest_interval);
        windows += 1;
        assert!(
            windows <= ROUNDS * 4 + 8,
            "fleet failed to converge: {}",
            svc.snapshot_json()
        );
    }
    for s in svc.statuses() {
        assert_eq!(s.state, DeviceState::Trusted, "{}", s.name);
        assert!(s.rounds_passed >= ROUNDS, "{}", s.name);
    }
    let c = svc.log().counters();
    assert_eq!(
        counter_value(&reg, "service_rounds_passed_total", &[]),
        c.rounds_passed
    );
    assert_eq!(
        counter_value(&reg, "service_devices_joined_total", &[]),
        DEVICES as u64
    );
}

/// Series are labelled by cause, path and state, never by device: a
/// fleet ten times larger exports exactly the same series.
#[test]
fn series_count_does_not_grow_with_the_fleet() {
    const ROUNDS: u64 = 2;
    let series = |devices: usize| {
        let cfg = ServiceConfig::default();
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(7));
        let reg = Registry::new();
        svc.attach_telemetry(&reg);
        for i in 0..devices {
            svc.join(
                fixture::modeled_member(i, 7),
                fixture::enclave(b"fleet-verifier", (i as u8).wrapping_mul(5) | 1),
            );
        }
        let mut windows = 0;
        while svc.statuses().iter().any(|s| s.rounds_passed < ROUNDS) {
            svc.run_for(cfg.reattest_interval);
            windows += 1;
            assert!(
                windows <= ROUNDS * 4 + 8,
                "{devices} devices failed to converge"
            );
        }
        let collected = reg.collect();
        for (name, labels, _) in &collected {
            assert!(
                labels.iter().all(|(k, _)| k != "device"),
                "{name}{labels:?} is labelled by device"
            );
        }
        collected.len()
    };
    assert_eq!(series(50), series(500));
}

/// Reads one counter series out of the registry, by exact label match.
fn counter_value(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
    for (n, ls, v) in reg.collect() {
        let same = n == name
            && ls.len() == labels.len()
            && ls
                .iter()
                .zip(labels)
                .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2);
        if same {
            match v {
                MetricValue::Counter(c) => return c,
                other => panic!("{name} is not a counter: {other:?}"),
            }
        }
    }
    panic!("series {name}{labels:?} not found");
}

/// The PR-7 acceptance scenario for freshness decay: with the re-attest
/// interval stretched past the decay windows, both devices walk
/// `Trusted → Stale → Degraded` on pure clock advance, the scheduled
/// re-attestation round reverses the decay back to `Trusted`, and every
/// transition is visible in both the event log and the telemetry
/// counters.
#[test]
fn freshness_decays_without_reattestation_and_reverses_on_a_pass() {
    let names = ["gpu-a", "gpu-b"];
    let cfg = ServiceConfig {
        // Re-attestation comes *after* full decay: the device must go
        // stale and degraded first, then be rescued by the next round.
        reattest_interval: 200_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        epoch_interval: 50_000,
        freshness: FreshnessPolicy {
            stale_after: 60_000,
            degraded_after: 120_000,
        },
        ..ServiceConfig::default()
    };
    let reg = Registry::new();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(9));
    svc.attach_telemetry(&reg);
    svc.join(member("gpu-a", DeviceConfig::sim_tiny(), 41), enclave(61));
    svc.join(member("gpu-b", DeviceConfig::sim_tiny(), 42), enclave(62));

    // Inside the trusted window: enrollment passed, nothing decayed.
    svc.run_for(50_000);
    for name in names {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
        assert_eq!(svc.freshness_of(name), Some(Freshness::Trusted), "{name}");
    }

    // Past stale_after with no round in between.
    svc.run_for(50_000); // now ≈ 100k
    for name in names {
        assert_eq!(svc.freshness_of(name), Some(Freshness::Stale), "{name}");
    }

    // Past degraded_after.
    svc.run_for(70_000); // now ≈ 170k
    for name in names {
        assert_eq!(svc.freshness_of(name), Some(Freshness::Degraded), "{name}");
    }

    // The next re-attestation round (one interval after the first pass
    // at ≈13.6k, so starting ≈213.6k and passing ≈227k) reverses the
    // decay.
    svc.run_for(70_000); // now ≈ 240k
    for name in names {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
        assert_eq!(svc.freshness_of(name), Some(Freshness::Trusted), "{name}");
    }

    // The event log shows the exact ladder per device: decay down, one
    // recovery up.
    for name in names {
        let ladder: Vec<(Freshness, Freshness)> = svc
            .log()
            .events()
            .iter()
            .filter(|e| e.device == name)
            .filter_map(|e| match e.kind {
                EventKind::FreshnessChanged { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            ladder,
            vec![
                (Freshness::Trusted, Freshness::Stale),
                (Freshness::Stale, Freshness::Degraded),
                (Freshness::Degraded, Freshness::Trusted),
            ],
            "{name}: unexpected freshness ladder"
        );
    }

    // And telemetry carries the same transitions, one per device per
    // rung, under the stable series name.
    for (to, want) in [("stale", 2), ("degraded", 2), ("trusted", 2)] {
        assert_eq!(
            counter_value(&reg, "service_freshness_transitions_total", &[("to", to)]),
            want,
            "transition counter to={to}"
        );
    }
    assert_eq!(svc.log().counters().freshness_transitions, 6);

    // Epochs sealed on schedule throughout (50k cadence, now ≈ 210k),
    // also visible in telemetry.
    assert_eq!(svc.sealed_epochs().len(), 4);
    assert_eq!(
        counter_value(&reg, "service_epochs_sealed_total", &[]),
        4,
        "sealed-epoch counter"
    );
}

/// A modeled fleet member: replay-engine checksum, synthesized timing —
/// cheap enough for a few-hundred-device fleet in a debug test.
fn modeled_member(index: usize) -> FleetMember {
    let session = GpuSession::install_modeled(
        Device::new(DeviceConfig::sim_nano()),
        &VfParams::fleet_tiny(),
        0xF1EE7,
        10_000,
    )
    .expect("install modeled VF");
    let seed = (index as u8)
        .wrapping_mul(3)
        .wrapping_add((index >> 8) as u8)
        | 1;
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(seed))));
    m.name = format!("gpu-{index:04}");
    m
}

#[test]
fn every_device_report_verifies_and_only_the_newest_epoch_keeps_leaves() {
    const FLEET: usize = 240;
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 15_000,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(11));
    for i in 0..FLEET {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    svc.run_until(70_000);
    let epochs = svc.sealed_epochs();
    assert!(epochs.len() >= 4, "{} seals", epochs.len());
    let newest = epochs.last().unwrap().clone();

    // Retained leaves are bounded by the live fleet, not by the epoch
    // count: superseded epochs keep only their roots.
    for e in &epochs[..epochs.len() - 1] {
        assert!(e.leaves.is_empty(), "epoch {} kept its leaves", e.index);
    }
    assert_eq!(newest.leaves.len(), FLEET, "one leaf per keyed device");
    let retained: usize = epochs.iter().map(|e| e.leaves.len()).sum();
    assert_eq!(retained, FLEET);

    for i in 0..FLEET {
        let name = format!("gpu-{i:04}");
        let report = svc
            .report_for(&name)
            .expect("device is in the newest epoch");
        assert_eq!(report.epoch, newest.index, "{name}");
        let key = svc.evidence_key_of(&name).unwrap();
        let level = verify_report(&report, &newest.root, &key, svc.now())
            .unwrap_or_else(|e| panic!("{name}: report rejected: {e:?}"));
        assert_eq!(level, Freshness::Trusted, "{name}: the fleet is fresh");
    }

    // A device keyed after the newest seal has no leaf to prove yet, and
    // an unknown name has no report at all.
    svc.join(modeled_member(FLEET), enclave(7));
    assert!(
        svc.evidence_of("gpu-0240").is_some(),
        "late joiner is keyed"
    );
    assert_eq!(svc.sealed_epochs().last().unwrap().index, newest.index);
    assert!(svc.report_for("gpu-0240").is_none());
    assert!(svc.report_for("gpu-9999").is_none());
}

#[test]
fn chains_retain_at_most_one_epoch_of_records() {
    const FLEET: usize = 64;
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 15_000,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(12));
    // The archive sink sees one batch per device per seal: the records
    // that device appended during the epoch just sealed.
    let batches: Arc<Mutex<Vec<usize>>> = Arc::default();
    let sink = Arc::clone(&batches);
    svc.attach_archive(move |_, records| sink.lock().unwrap().push(records.len()));
    for i in 0..FLEET {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    svc.run_until(160_000);
    let newest = svc.sealed_epochs().last().unwrap().clone();
    assert!(newest.index >= 10, "{} seals", newest.index);

    let batches = batches.lock().unwrap().clone();
    let most_in_one_epoch = batches.iter().copied().max().unwrap();
    let statuses = svc.statuses();
    let live = statuses
        .iter()
        .filter(|s| s.state != DeviceState::Revoked)
        .count();
    let chains: Vec<_> = statuses
        .iter()
        .map(|s| svc.evidence_of(&s.name).unwrap())
        .collect();
    let kept: usize = chains.iter().map(|c| c.records().len()).sum();
    assert!(
        kept <= live * most_in_one_epoch,
        "{kept} records kept across {live} chains, at most {most_in_one_epoch} per device-epoch"
    );
    // Nothing went missing: archived plus kept is every record appended.
    let appended: u64 = chains.iter().map(|c| c.seq()).sum();
    assert_eq!((batches.iter().sum::<usize>() + kept) as u64, appended);
    // Every chain is anchored at its leaf in the newest epoch.
    for c in &chains {
        let leaf = newest
            .leaves
            .iter()
            .find(|l| l.device == c.device())
            .unwrap();
        let anchor = c.anchor();
        assert_eq!(
            (anchor.seq, anchor.head),
            (leaf.seq, leaf.head),
            "{}",
            c.device()
        );
    }

    // A device keyed after the seal keeps its chain from genesis until
    // the next seal checkpoints it too.
    svc.join(modeled_member(FLEET), enclave(7));
    let late = "gpu-0064";
    assert_eq!(
        svc.evidence_of(late).unwrap().anchor(),
        ChainAnchor::genesis(late)
    );
    svc.run_until(newest.at + 15_000);
    let leaf = svc
        .sealed_epochs()
        .last()
        .unwrap()
        .leaves
        .iter()
        .find(|l| l.device == late)
        .cloned()
        .expect("the late joiner is in the next epoch");
    let anchor = svc.evidence_of(late).unwrap().anchor();
    assert_eq!((anchor.seq, anchor.head), (leaf.seq, leaf.head));
}

#[test]
fn sealed_epochs_keep_a_bounded_window_and_count_every_seal() {
    const SEALS: u64 = SEALED_EPOCHS_KEPT as u64 + 6;
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 1_000,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(13));
    for i in 0..4 {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    svc.run_until(SEALS * 1_000 + 500);
    assert_eq!(svc.log().counters().epochs_sealed, SEALS);
    let epochs = svc.sealed_epochs();
    assert_eq!(epochs.len(), SEALED_EPOCHS_KEPT);
    let indexes: Vec<u64> = epochs.iter().map(|e| e.index).collect();
    let want: Vec<u64> = (SEALS - SEALED_EPOCHS_KEPT as u64 + 1..=SEALS).collect();
    assert_eq!(indexes, want, "the newest epochs, oldest first");
    let newest = epochs.last().unwrap();
    assert_eq!(newest.leaves.len(), 4);
    let report = svc.report_for("gpu-0000").unwrap();
    let key = svc.evidence_key_of("gpu-0000").unwrap();
    verify_report(&report, &newest.root, &key, svc.now()).expect("report verifies");
}
