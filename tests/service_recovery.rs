//! Crash-safe recovery and device-level chaos at the service layer.
//!
//! Three properties the chaos engine must never break:
//!
//! 1. **Crash-restart determinism** — killing the control plane
//!    mid-schedule (even with a round in flight) and restoring from a
//!    snapshot plus the surviving endpoints yields a subsequent event
//!    history bit-identical to a run that never crashed.
//! 2. **Restore is strict** — a snapshot only marries the exact fleet it
//!    was taken over; missing or foreign endpoints are typed errors, and
//!    tampered bytes never panic.
//! 3. **Faults are detected, never absorbed** — a transient device fault
//!    costs the device `Trusted` for exactly the backoff window and then
//!    reconverges; a persistent corruption burns the wrong-value budget
//!    into `Quarantined`; neither ever produces a false accept.
//! 4. **Evidence survives the crash** — a snapshot taken mid-epoch, with
//!    rounds outstanding, carries every device's chain head
//!    byte-identically across the restore, and the next sealed epoch
//!    root matches the uninterrupted twin bit for bit; a newest-epoch
//!    leaf that no longer re-hashes to its recorded root is refused.

use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::{DhGroup, EntropySource};
use sage_repro::evidence::{verify_report, FreshnessPolicy};
use sage_repro::gpu::{Device, DeviceConfig, DeviceFault, FaultPlan};
use sage_repro::service::{
    AttestationService, DeviceState, EventKind, FailReason, Fault, LinkProfile, Policy,
    QuorumConfig, ServiceConfig, SimNet, SnapshotError, VerifierBehavior, VERIFIER_NODE,
};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::telemetry::{MetricValue, Registry};
use sage_repro::vf::VfParams;

fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

fn member(name: &str, seed: u8) -> FleetMember {
    let mut params = VfParams::test_tiny();
    params.iterations = 5;
    let session =
        GpuSession::install(Device::new(DeviceConfig::sim_tiny()), &params, 0xF1EE7).unwrap();
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(seed))));
    m.name = name.to_string();
    m
}

fn enclave(seed: u8) -> Enclave {
    SgxPlatform::new([7u8; 16]).launch(b"svc-verifier", &mut entropy(seed))
}

fn jittery_net(seed: u64) -> SimNet {
    SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 10,
            dup_per_mille: 0,
        },
    )
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

fn cfg() -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 50_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        ..ServiceConfig::default()
    }
}

/// Builds the reference two-device fleet for a given seed. Identical
/// inputs ⇒ identical universes, which is what lets the crash test
/// compare an interrupted run against an uninterrupted twin.
fn two_device_fleet(seed: u64) -> AttestationService<SimNet> {
    let mut svc = AttestationService::new(cfg(), DhGroup::test_group(), jittery_net(seed));
    svc.join(member("gpu-a", 41), enclave(61));
    svc.join(member("gpu-b", 42), enclave(62));
    svc
}

/// Advances the service event-by-event until a challenge round has just
/// been issued (a `RoundStarted` with the response still in flight) —
/// the most awkward possible moment to crash.
fn run_to_inflight_round(svc: &mut AttestationService<SimNet>) -> u64 {
    loop {
        let next = svc
            .next_event_at()
            .expect("fleet always has a next event while devices are live");
        svc.run_until(next);
        if matches!(
            svc.log().events().last().map(|e| &e.kind),
            Some(EventKind::RoundStarted { .. })
        ) && svc.now() > 10_000
        {
            return svc.now();
        }
        assert!(
            svc.now() < 1_000_000,
            "no in-flight round found within 1M ticks"
        );
    }
}

#[test]
fn crash_restart_resumes_with_identical_history() {
    // With `drop_response`, the in-flight round's response is lost after
    // the crash, so only the restored deadline timer can end that round.
    for (seed, drop_response) in [
        (11u64, false),
        (12, false),
        (13, false),
        (11, true),
        (12, true),
    ] {
        // Scout: find a crash point with a round in flight.
        let mut scout = two_device_fleet(seed);
        let crash_at = run_to_inflight_round(&mut scout);
        let end_at = crash_at + 150_000;
        let in_flight = scout.log().events().last().unwrap().device.clone();
        let node = scout
            .statuses()
            .into_iter()
            .find(|s| s.name == in_flight)
            .unwrap()
            .node;
        let lost_response = Fault::DropNext {
            src: node,
            dst: VERIFIER_NODE,
            remaining: 1,
        };

        // Universe A: never crashes.
        let mut a = two_device_fleet(seed);
        a.run_until(crash_at);
        if drop_response {
            a.transport_mut().inject(lost_response);
        }
        a.run_until(end_at);

        // Universe B: identical twin, crashed at `crash_at` and restored
        // from the snapshot plus the surviving endpoints.
        let mut b = two_device_fleet(seed);
        b.run_until(crash_at);
        let snap = b.snapshot();
        let (mut net, endpoints) = b.into_endpoints(); // control plane dies here
        if drop_response {
            net.inject(lost_response);
        }
        let mut b =
            AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, endpoints)
                .expect("snapshot restores against its own endpoints");
        assert_eq!(b.now(), crash_at, "seed {seed}: clock resumes");
        b.run_until(end_at);
        if drop_response {
            assert_eq!(b.transport().stats().fault_dropped, 1, "seed {seed}");
            let timed_out = b.log().events().iter().any(|e| {
                e.at > crash_at
                    && e.device == in_flight
                    && matches!(
                        e.kind,
                        EventKind::RoundFailed {
                            reason: FailReason::Timeout,
                            ..
                        }
                    )
            });
            assert!(
                timed_out,
                "seed {seed}: the restored deadline must time out the lost round"
            );
        }

        assert_eq!(
            a.snapshot_json(),
            b.snapshot_json(),
            "seed {seed}: crash-restart diverged from the uninterrupted run"
        );
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "seed {seed}: binary state diverged after crash-restart"
        );
        // The crash bridged live work: both universes made progress
        // after the crash point.
        assert!(
            a.log().events().iter().any(|e| e.at > crash_at),
            "seed {seed}: no activity after the crash point — test is vacuous"
        );
    }
}

#[test]
fn snapshot_survives_a_second_crash() {
    // Crash twice in one schedule: restore must itself be
    // snapshot-clean, not a one-shot.
    let seed = 21u64;
    let mut a = two_device_fleet(seed);
    a.run_until(200_000);

    let mut b = two_device_fleet(seed);
    b.run_until(70_000);
    let snap = b.snapshot();
    let (net, eps) = b.into_endpoints();
    let mut b = AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, eps).unwrap();
    b.run_until(140_000);
    let snap = b.snapshot();
    let (net, eps) = b.into_endpoints();
    let mut b = AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, eps).unwrap();
    b.run_until(200_000);

    assert_eq!(a.snapshot(), b.snapshot(), "double crash-restart diverged");
}

#[test]
fn restore_rejects_mismatched_endpoints_and_garbage() {
    let mut svc = two_device_fleet(31);
    svc.run_until(60_000);
    let snap = svc.snapshot();
    let (net, mut endpoints) = svc.into_endpoints();

    // Garbage bytes: typed errors, never a panic.
    assert_eq!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            &[],
            Vec::new()
        )
        .err(),
        Some(SnapshotError::Truncated),
    );
    assert!(matches!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            b"not a snapshot at all",
            Vec::new()
        ),
        Err(SnapshotError::BadMagic)
    ));
    let mut truncated = snap.clone();
    truncated.truncate(snap.len() - 3);
    assert!(matches!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            &truncated,
            Vec::new()
        ),
        Err(SnapshotError::Truncated)
    ));

    // A lost endpoint is a different fleet, not a restart.
    let dropped = endpoints.pop().expect("two endpoints");
    let dropped_name = dropped.node.member.name.clone();
    match AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, endpoints) {
        Err(SnapshotError::MissingEndpoint(name)) => assert_eq!(name, dropped_name),
        other => panic!(
            "expected MissingEndpoint, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // A foreign endpoint the snapshot doesn't know is rejected too.
    let mut one = AttestationService::new(cfg(), DhGroup::test_group(), perfect_net(2));
    one.join(member("gpu-a", 41), enclave(61));
    one.run_until(60_000);
    let one_snap = one.snapshot();
    let mut two = two_device_fleet(32);
    two.run_until(60_000);
    let (net2, eps2) = two.into_endpoints();
    assert!(matches!(
        AttestationService::restore(cfg(), DhGroup::test_group(), net2, &one_snap, eps2),
        Err(SnapshotError::UnknownDevice(name)) if name == "gpu-b"
    ));
}

/// The recovery fleet with the PR-7 evidence layer switched on: epochs
/// seal every 60k ticks and freshness decays, so a crash has chain
/// heads, sealed roots and decay timers to lose.
fn evidence_cfg() -> ServiceConfig {
    ServiceConfig {
        epoch_interval: 60_000,
        freshness: FreshnessPolicy {
            stale_after: 120_000,
            degraded_after: 240_000,
        },
        ..cfg()
    }
}

fn evidence_fleet(seed: u64) -> AttestationService<SimNet> {
    let mut svc = AttestationService::new(evidence_cfg(), DhGroup::test_group(), jittery_net(seed));
    svc.join(member("gpu-a", 41), enclave(61));
    svc.join(member("gpu-b", 42), enclave(62));
    svc
}

/// Twelve modeled devices attesting every 10k ticks under 30k epochs: a
/// crash at 44k lands mid-epoch with rounds outstanding on a fleet wider
/// than two.
fn modeled_evidence_cfg() -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
        ..ServiceConfig::default()
    }
}

fn modeled_evidence_fleet(seed: u64) -> AttestationService<SimNet> {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(modeled_evidence_cfg(), DhGroup::test_group(), net);
    for i in 0..12 {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    svc
}

#[test]
fn mid_epoch_crash_preserves_chain_heads_and_epoch_roots() {
    // Each fleet crashes inside its second epoch: after the first seal,
    // before the next, with evidence appended since the seal. The
    // modeled fleet also has rounds in flight at the crash.
    // (fleet, config, seeds, crash at, horizon, rounds in flight)
    type Case = (
        fn(u64) -> AttestationService<SimNet>,
        ServiceConfig,
        &'static [u64],
        u64,
        u64,
        bool,
    );
    let cases: [Case; 2] = [
        (
            evidence_fleet,
            evidence_cfg(),
            &[51, 52],
            90_000,
            250_000,
            false,
        ),
        (
            modeled_evidence_fleet,
            modeled_evidence_cfg(),
            &[1, 2, 3],
            44_000,
            120_000,
            true,
        ),
    ];
    for (fleet, cfg, seeds, crash_at, end_at, in_flight) in cases {
        for &seed in seeds {
            // Universe A: never crashes.
            let mut a = fleet(seed);
            a.run_until(end_at);

            // Universe B: crashes mid-epoch and restores from the snapshot.
            let mut b = fleet(seed);
            b.run_until(crash_at);
            assert_eq!(
                b.sealed_epochs().len(),
                1,
                "seed {seed}: the crash point must be mid-epoch, one seal in"
            );
            assert!(
                !in_flight || b.outstanding_rounds() > 0,
                "seed {seed}: the crash must leave rounds outstanding"
            );
            let sealed = &b.sealed_epochs()[0].leaves;
            let heads: Vec<(String, [u8; 32], u64)> = b
                .statuses()
                .into_iter()
                .map(|s| {
                    let c = b.evidence_of(&s.name).expect("chain established");
                    let leaf = sealed.iter().find(|l| l.device == s.name).unwrap();
                    assert!(
                        c.seq() > leaf.seq,
                        "seed {seed}: {} must have evidence newer than the seal",
                        s.name
                    );
                    (s.name, c.head(), c.seq())
                })
                .collect();
            let snap = b.snapshot();
            let (net, eps) = b.into_endpoints(); // control plane dies here
            let mut b = AttestationService::restore(cfg, DhGroup::test_group(), net, &snap, eps)
                .expect("mid-epoch snapshot restores");

            // Chain heads cross the crash byte-identically.
            for (name, head, seq) in &heads {
                let c = b.evidence_of(name).expect("chain restored");
                assert_eq!(
                    c.head(),
                    *head,
                    "seed {seed}: {name} chain head changed across restore"
                );
                assert_eq!(c.seq(), *seq, "seed {seed}: {name} chain length changed");
            }

            b.run_until(end_at);

            // The next sealed root (and every one after) is bit-identical
            // to the uninterrupted twin's.
            assert!(
                a.sealed_epochs().iter().any(|e| e.at > crash_at),
                "seed {seed}: horizon must seal an epoch after the crash point"
            );
            assert_eq!(
                a.sealed_epochs(),
                b.sealed_epochs(),
                "seed {seed}: sealed epochs diverged across the crash"
            );
            assert_eq!(
                a.snapshot(),
                b.snapshot(),
                "seed {seed}: binary state diverged after mid-epoch crash"
            );

            // And the restored control plane still mints verifiable
            // reports.
            let name = &heads[0].0;
            let report = b.report_for(name).expect("epoch sealed with the device");
            let root = b.sealed_epochs().last().unwrap().root;
            let key = b.evidence_key_of(name).unwrap();
            verify_report(&report, &root, &key, b.now())
                .expect("post-restore report verifies standalone");
        }
    }
}

#[test]
fn restore_rejects_a_snapshot_whose_newest_epoch_leaf_was_doctored() {
    let mut svc = evidence_fleet(51);
    svc.run_until(130_000);
    let epochs = svc.sealed_epochs();
    assert_eq!(epochs.len(), 2, "two seals (60k, 120k) by the snapshot");
    assert!(
        epochs[0].leaves.is_empty(),
        "superseded epoch keeps its root only"
    );
    let newest = epochs.last().unwrap().clone();
    let leaf = &newest.leaves[0];

    // The snapshot encodes each newest-epoch leaf as `name ‖ head ‖ seq`
    // after every device record, so the last `head ‖ seq` match is the
    // leaf itself (a chain record may link to the same head earlier).
    let mut needle = leaf.head.to_vec();
    needle.extend_from_slice(&leaf.seq.to_le_bytes());
    let mut snap = svc.snapshot();
    let at = snap
        .windows(needle.len())
        .rposition(|w| w == needle.as_slice())
        .expect("newest leaf is in the snapshot");
    snap[at + 7] ^= 0x10;

    let (net, eps) = svc.into_endpoints();
    assert!(matches!(
        AttestationService::restore(evidence_cfg(), DhGroup::test_group(), net, &snap, eps),
        Err(SnapshotError::BadEpoch { index }) if index == newest.index
    ));
}

#[test]
fn restore_rejects_a_chain_anchor_the_newest_epoch_does_not_vouch_for() {
    // At the 120k seal every chain was just checkpointed, so its suffix
    // is empty and only the anchor-vs-leaf check can catch a doctored
    // anchor; by 160k gpu-a has appended past it, so the suffix no
    // longer links to the doctored anchor either.
    for (crash_at, suffix_empty) in [(120_000u64, true), (160_000, false)] {
        let mut svc = evidence_fleet(51);
        svc.run_until(crash_at);
        let chain = svc.evidence_of("gpu-a").unwrap();
        assert_eq!(
            chain.records().is_empty(),
            suffix_empty,
            "{crash_at}: records since the seal"
        );
        let anchor = chain.anchor();
        let newest = svc.sealed_epochs().last().unwrap();
        let leaf = newest.leaves.iter().find(|l| l.device == "gpu-a").unwrap();
        assert_eq!(
            (anchor.seq, anchor.head),
            (leaf.seq, leaf.head),
            "{crash_at}: the chain is checkpointed at its leaf"
        );

        // A v6 device record encodes its anchor as `seq ‖ head`; device
        // records precede the epochs, so the first match is gpu-a's.
        let mut needle = anchor.seq.to_le_bytes().to_vec();
        needle.extend_from_slice(&anchor.head);
        let mut snap = svc.snapshot();
        let at = snap
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("anchor is in the snapshot");
        snap[at + 8 + 5] ^= 0x10;

        let (net, eps) = svc.into_endpoints();
        assert_eq!(
            AttestationService::restore(evidence_cfg(), DhGroup::test_group(), net, &snap, eps)
                .err(),
            Some(SnapshotError::BadEvidence("gpu-a".to_string())),
            "{crash_at}: a doctored anchor must be refused"
        );
    }
}

/// A modeled fleet member (replay-engine checksum, synthesized timing):
/// cheap enough for a few dozen devices in a debug test.
fn modeled_member(index: usize) -> FleetMember {
    let session = GpuSession::install_modeled(
        Device::new(DeviceConfig::sim_nano()),
        &VfParams::fleet_tiny(),
        0xF1EE7,
        10_000,
    )
    .expect("install modeled VF");
    let mut m = FleetMember::new(
        session,
        DeviceAgent::new(Box::new(entropy(index as u8 | 1))),
    );
    m.name = format!("gpu-{index:04}");
    m
}

#[test]
fn snapshot_size_is_bounded_across_epochs() {
    // Several rounds per device per epoch, and an event log that retains
    // exactly one event (a ring of capacity c keeps between c and 2c − 1),
    // so what the snapshot carries past fixed state is evidence and the
    // sealed-epoch window.
    const FLEET: usize = 32;
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 60_000,
        event_capacity: 1,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(3));
    for i in 0..FLEET {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    let mut sizes = Vec::new();
    for epoch in 1..=12u64 {
        svc.run_until(epoch * 60_000 + 1);
        sizes.push(svc.snapshot().len());
    }
    assert_eq!(svc.sealed_epochs().last().unwrap().index, 12);
    let records: u64 = svc
        .statuses()
        .iter()
        .map(|s| svc.evidence_of(&s.name).unwrap().seq())
        .sum();
    assert!(
        records >= 12 * 2 * FLEET as u64,
        "{records} records appended"
    );
    let (at3, at12) = (sizes[2] as f64, sizes[11] as f64);
    assert!(
        (at12 - at3).abs() <= 0.10 * at3,
        "snapshot grew from {at3} B at epoch 3 to {at12} B at epoch 12: {sizes:?}"
    );

    // The bounded snapshot still restores to a service that mints
    // verifiable reports.
    let snap = svc.snapshot();
    let (net, eps) = svc.into_endpoints();
    let svc = AttestationService::restore(cfg, DhGroup::test_group(), net, &snap, eps)
        .expect("epoch-12 snapshot restores");
    let root = svc.sealed_epochs().last().unwrap().root;
    for i in [0, FLEET - 1] {
        let name = format!("gpu-{i:04}");
        let report = svc
            .report_for(&name)
            .expect("device is in the newest epoch");
        verify_report(
            &report,
            &root,
            &svc.evidence_key_of(&name).unwrap(),
            svc.now(),
        )
        .unwrap_or_else(|e| panic!("{name}: report rejected: {e:?}"));
    }
}

/// The exported total of `name` over every label set that carries all
/// of `labels` (so empty `labels` sums the whole family).
fn exported(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
    reg.collect()
        .into_iter()
        .filter(|(n, ls, _)| {
            n == name
                && labels
                    .iter()
                    .all(|&(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) => c,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

/// Attaches a fresh registry and checks every `service_*_total` series
/// against the event-log counter it exports.
fn assert_late_attach_matches_counters(svc: &mut AttestationService<SimNet>, when: &str) {
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    let c = svc.log().counters();
    let failed = |reason| [("reason", reason)];
    for (name, labels, want) in [
        ("service_devices_joined_total", &[][..], c.joins),
        ("service_devices_left_total", &[], c.leaves),
        ("service_rounds_started_total", &[], c.rounds_started),
        ("service_rounds_passed_total", &[], c.rounds_passed),
        (
            "service_rounds_failed_total",
            &failed("wrong_value"),
            c.value_rejects,
        ),
        (
            "service_rounds_failed_total",
            &failed("too_slow"),
            c.timing_rejects,
        ),
        (
            "service_rounds_failed_total",
            &failed("timeout"),
            c.timeouts,
        ),
        (
            "service_rounds_failed_total",
            &failed("relay"),
            c.relay_rejects,
        ),
        ("service_restarts_total", &[], c.restarts),
        ("service_late_responses_total", &[], c.late_responses),
        ("service_quarantines_total", &[], c.quarantines),
        (
            "service_calibration_failures_total",
            &[],
            c.calibration_failures,
        ),
        (
            "service_freshness_transitions_total",
            &[],
            c.freshness_transitions,
        ),
        ("service_epochs_sealed_total", &[], c.epochs_sealed),
        ("service_link_downs_total", &[], c.link_downs),
        ("service_link_resumes_total", &[], c.link_resumes),
        ("service_spotcheck_skips_total", &[], c.spotcheck_skips),
        ("service_quorum_disputes_total", &[], c.quorum_disputes),
        ("service_verifier_suspects_total", &[], c.verifier_suspects),
    ] {
        assert_eq!(
            exported(&reg, name, labels),
            want,
            "{when}: {name}{labels:?}"
        );
    }
    assert_eq!(
        exported(&reg, "service_events_dropped_total", &[]),
        svc.log().events_dropped(),
        "{when}: service_events_dropped_total"
    );
}

/// A registry attached after the event ring has wrapped — on a live
/// service, or on one restored from a snapshot with no registry —
/// exports the log's whole counts, not just the retained window's.
#[test]
fn late_attach_after_the_ring_wraps_exports_the_full_counts() {
    const FLEET: usize = 4;
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 60_000,
        // Stale between passes, so freshness changes are counted too.
        freshness: FreshnessPolicy {
            stale_after: 8_000,
            degraded_after: 40_000,
        },
        event_capacity: 4,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(5));
    for i in 0..FLEET {
        svc.join(modeled_member(i), enclave(i as u8 | 1));
    }
    svc.run_until(150_000);
    assert!(svc.leave("gpu-0003"));
    svc.run_until(200_000);
    let c = svc.log().counters();
    assert!(
        c.rounds_passed >= 36 && c.epochs_sealed >= 3 && c.leaves == 1,
        "too little history to wrap the ring: {c:?}"
    );
    assert!(svc.log().events_dropped() > 0, "ring must have wrapped");

    let snap = svc.snapshot();
    assert_late_attach_matches_counters(&mut svc, "live");
    let (net, eps) = svc.into_endpoints();
    let mut restored = AttestationService::restore(cfg, DhGroup::test_group(), net, &snap, eps)
        .expect("snapshot restores against its own endpoints");
    assert_eq!(restored.log().counters(), c);
    assert_late_attach_matches_counters(&mut restored, "restored");
}

/// The recovery fleet replicated across an N = 4 verifier quorum with
/// one replica turned Byzantine, so a crash has *quorum* state to lose:
/// per-replica suspicion flags, dissent counts, rolling evidence-view
/// digests, and the vote records already sealed into device chains.
fn quorum_cfg() -> ServiceConfig {
    ServiceConfig {
        epoch_interval: 60_000,
        quorum: QuorumConfig {
            verifiers: 4,
            seed: 0x51D,
        },
        ..cfg()
    }
}

fn quorum_fleet(seed: u64) -> AttestationService<SimNet> {
    let mut svc = AttestationService::new(quorum_cfg(), DhGroup::test_group(), jittery_net(seed));
    svc.join(member("gpu-a", 41), enclave(61));
    svc.join(member("gpu-b", 42), enclave(62));
    // Replica 2 lies from the start (in both universes, so the twin
    // histories stay comparable): every verdict is disputed, flagged,
    // and sealed — non-trivial quorum state for the crash to threaten.
    svc.quorum_mut()
        .unwrap()
        .set_behavior(2, VerifierBehavior::Invert);
    svc
}

#[test]
fn multi_verifier_crash_restore_is_byte_identical() {
    for seed in [71u64, 72] {
        // Crash mid-epoch (after the 60k seal, before the 120k one).
        let crash_at = 90_000;
        let end_at = 250_000;

        // Universe A: never crashes.
        let mut a = quorum_fleet(seed);
        a.run_until(end_at);

        // Universe B: identical twin, killed mid-epoch.
        let mut b = quorum_fleet(seed);
        b.run_until(crash_at);

        // The crash point really holds live quorum state.
        let pre = b.quorum().unwrap().clone();
        assert!(pre.rounds >= 2, "seed {seed}: quorum must have voted");
        assert!(
            pre.disputes >= 1,
            "seed {seed}: the liar must have dissented"
        );
        assert!(
            pre.replicas()[2].suspected,
            "seed {seed}: liar flagged pre-crash"
        );
        assert!(pre.replicas()[2].dissents >= 1);
        assert_eq!(pre.replicas()[2].behavior, VerifierBehavior::Invert);
        assert!(
            pre.honest_views_agree(),
            "seed {seed}: honest views agree pre-crash"
        );

        let snap = b.snapshot();
        let (net, eps) = b.into_endpoints(); // control plane dies here
        let mut b =
            AttestationService::restore(quorum_cfg(), DhGroup::test_group(), net, &snap, eps)
                .expect("quorum snapshot restores");

        // Every replica crosses the crash intact: behavior, suspicion,
        // dissent count and the rolling view digest (vote keys are
        // re-derived from the config seed, not stored).
        assert_eq!(
            b.quorum().unwrap(),
            &pre,
            "seed {seed}: replica state changed across restore"
        );

        b.run_until(end_at);

        // Quorum verdicts, evidence chains, sealed epochs, event log:
        // all byte-identical to the universe that never crashed.
        assert_eq!(
            a.quorum().unwrap(),
            b.quorum().unwrap(),
            "seed {seed}: quorum verdict state diverged after the crash"
        );
        for n in ["gpu-a", "gpu-b"] {
            assert_eq!(
                a.evidence_of(n).unwrap().head(),
                b.evidence_of(n).unwrap().head(),
                "seed {seed}: {n} evidence head diverged"
            );
        }
        assert_eq!(
            a.snapshot_json(),
            b.snapshot_json(),
            "seed {seed}: state diverged after quorum crash-restart"
        );
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "seed {seed}: binary state diverged after quorum crash-restart"
        );
        // The run was not vacuous: disputes kept accruing post-crash.
        assert!(
            a.quorum().unwrap().disputes > pre.disputes,
            "seed {seed}: no quorum activity after the crash point"
        );
    }
}

/// Returns (rounds passed, rounds failed, wrong-value failures) for one
/// device after a given virtual time.
fn tally_after(svc: &AttestationService<SimNet>, name: &str, after: u64) -> (u32, u32, u32) {
    let mut passed = 0;
    let mut failed = 0;
    let mut wrong = 0;
    for e in svc.log().events() {
        if e.at <= after || e.device != name {
            continue;
        }
        match &e.kind {
            EventKind::RoundPassed { .. } => passed += 1,
            EventKind::RoundFailed { reason, .. } => {
                failed += 1;
                if *reason == FailReason::WrongValue {
                    wrong += 1;
                }
            }
            _ => {}
        }
    }
    (passed, failed, wrong)
}

#[test]
fn transient_fault_degrades_then_reconverges_persistent_fault_quarantines() {
    // Two honest devices on a perfect network; the chaos engine injects
    // a transient fault into one and a persistent fault into the other.
    let mut svc = AttestationService::new(cfg(), DhGroup::test_group(), perfect_net(77));
    svc.join(member("gpu-flaky", 41), enclave(61));
    svc.join(member("gpu-rotten", 42), enclave(62));
    svc.run_for(45_000);
    for name in ["gpu-flaky", "gpu-rotten"] {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
    }
    let fault_at = svc.now();

    // gpu-flaky: one bit of the next round's challenge flips in device
    // memory after the DMA — the checksum is honest but over the wrong
    // challenge. The round after that, a fresh challenge is written and
    // the fault is gone: a classic transient.
    {
        let session = svc.session_mut("gpu-flaky").unwrap();
        let addr = session.build().layout.challenge_addr(0);
        let next_run = session.dev.fault_run_index();
        session.dev.install_fault_hook(Box::new(
            FaultPlan::new().at(next_run, DeviceFault::FlipBit { addr, bit: 3 }),
        ));
    }
    // gpu-rotten: a stuck bit on the challenge DMA path — the same flip
    // fires on every run from now on, so every round computes an honest
    // checksum over a corrupted challenge: a persistent fault that is
    // detected deterministically. (A single flip in the pseudo-random
    // fill is also persistent but only *probabilistically* detected with
    // test-tiny parameters — the §7 coverage argument — so the stuck
    // line is the deterministic persistent fixture.)
    {
        let session = svc.session_mut("gpu-rotten").unwrap();
        let addr = session.build().layout.challenge_addr(0);
        let next_run = session.dev.fault_run_index();
        let plan = (0..64).fold(FaultPlan::new(), |p, i| {
            p.at(next_run + i, DeviceFault::FlipBit { addr, bit: 6 })
        });
        session.dev.install_fault_hook(Box::new(plan));
    }

    // One full re-attest interval: both faulted rounds must FAIL — a
    // pass here would be a false accept.
    svc.run_for(60_000);
    let (flaky_passed, flaky_failed, flaky_wrong) = tally_after(&svc, "gpu-flaky", fault_at);
    assert_eq!(
        flaky_failed, 1,
        "transient fault must cost exactly one round"
    );
    assert_eq!(
        flaky_wrong, 1,
        "transient flip is detected as a wrong value"
    );
    let _ = flaky_passed;

    // Long horizon: the transient device reconverges to Trusted inside
    // its backoff budget; the corrupted one burns the wrong-value budget
    // into Quarantined with zero false accepts along the way.
    svc.run_for(400_000);
    assert_eq!(svc.state_of("gpu-flaky"), Some(DeviceState::Trusted));
    let flaky = svc.health_of("gpu-flaky").unwrap();
    assert_eq!(flaky.score, 100, "recovered device is fully healthy again");
    let (passed_later, _, _) = tally_after(&svc, "gpu-flaky", fault_at);
    assert!(passed_later >= 2, "flaky device passes rounds again");

    assert_eq!(svc.state_of("gpu-rotten"), Some(DeviceState::Quarantined));
    let rotten = svc.health_of("gpu-rotten").unwrap();
    assert_eq!(rotten.score, 0, "quarantined device scores zero");
    let (rotten_passed, rotten_failed, rotten_wrong) = tally_after(&svc, "gpu-rotten", fault_at);
    assert_eq!(
        rotten_passed, 0,
        "FALSE ACCEPT: corrupted device passed a round"
    );
    assert!(rotten_failed >= 1);
    assert_eq!(
        rotten_wrong, rotten_failed,
        "persistent corruption fails as wrong value every time"
    );

    // The device-side fault engine agrees with the control plane's view:
    // one injected flip cost gpu-flaky one round; every round gpu-rotten
    // failed carried one stuck-bit flip.
    assert_eq!(
        svc.session_mut("gpu-flaky")
            .unwrap()
            .dev
            .faults_applied()
            .flips,
        1
    );
    assert_eq!(
        svc.session_mut("gpu-rotten")
            .unwrap()
            .dev
            .faults_applied()
            .flips,
        rotten_failed as u64
    );
}
