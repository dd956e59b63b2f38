//! The chaos soak: a fleet run through seeded device-level chaos —
//! bit flips on the challenge DMA path, SM stalls, clock skew — on a
//! jittery, lossy simulated network with a flapping link, asserting the
//! three properties the chaos engine must never break:
//!
//! 1. **Zero false accepts.** Every round that ran with an injected bit
//!    flip active must be rejected. The oracle counts each device's
//!    applied flips at `RoundStarted` and again at the round's verdict:
//!    a `RoundPassed` spanning a flip is a false accept.
//! 2. **Reconvergence.** Faults land in a bounded window; once they
//!    clear, every device must return to `Trusted` (transient faults
//!    cost bounded backoff, never the device).
//! 3. **Crash-safe determinism.** Each seed runs twice — once
//!    uninterrupted, once with a control-plane crash at mid-schedule
//!    (snapshot → drop the service → restore from the surviving
//!    endpoints). The two universes must be byte-identical: snapshot,
//!    snapshot JSON, event history, and the durable telemetry export.

mod fixture;

use std::collections::HashMap;

use fixture::{counter_total, enclave, tiny_member};
use sage_repro::crypto::DhGroup;
use sage_repro::gpu::{ChaosSpec, FaultPlan};
use sage_repro::service::{
    AttestationService, DeviceState, EventKind, Fault, LinkProfile, ServiceConfig, SimNet,
    VERIFIER_NODE,
};
use sage_repro::telemetry::Registry;

const SEEDS: [u64; 3] = [5, 6, 7];
const DEVICES: usize = 2;
/// Virtual ticks of chaos after the fleet settles.
const TICKS: u64 = 400_000;
/// Virtual ticks the fleet gets to settle to `Trusted` before chaos.
const SETTLE_TICKS: u64 = 45_000;
/// Run horizon (device runs ≈ attestation rounds) chaos lands on.
const CHAOS_RUNS: u64 = 5;

/// Defaults plus the timeout-restart allowance, so link outages (which
/// the chaos mix injects on purpose) are bounded by the watchdog and
/// retried instead of burning the hard quarantine budget.
fn soak_cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    cfg.policy.restart_on_timeout = true;
    cfg
}

fn name(i: usize) -> String {
    format!("gpu-{i:02}")
}

fn build_fleet(seed: u64) -> AttestationService<SimNet> {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 5,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(soak_cfg(), DhGroup::test_group(), net);
    for i in 0..DEVICES {
        let enclave_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        svc.join(
            tiny_member(i, seed),
            enclave(b"soak-verifier", enclave_seed),
        );
    }
    svc
}

/// Installs a seeded chaos campaign on every device: transient challenge
/// flips (must be caught as wrong values), SM stalls (must be caught as
/// timing rejects and absorbed by the §7.2 restart allowance or backoff)
/// and clock skews, all parked right after the device's current run.
fn install_chaos(svc: &mut AttestationService<SimNet>, seed: u64) {
    for i in 0..DEVICES {
        let session = svc.session_mut(&name(i)).expect("device is managed");
        let layout = session.build().layout;
        let spec = ChaosSpec {
            runs: CHAOS_RUNS,
            // Flips land on the challenge table: rewritten every round,
            // so each flip corrupts exactly the round it fires on — and
            // that round MUST fail.
            flip_region: (layout.challenge_addr(0), 16 * layout.num_blocks),
            transient_flips: 1,
            persistent_flips: 0,
            stalls: 1,
            num_sms: session.dev.cfg.num_sms,
            max_stall: 4_000,
            skews: 1,
            max_skew: 200,
        };
        let next_run = session.dev.fault_run_index();
        let plan = FaultPlan::seeded(seed ^ (i as u64) << 8, &spec).offset(next_run);
        session.dev.install_fault_hook(Box::new(plan));
    }
}

/// The flips a device's simulator has applied so far.
fn flips(svc: &mut AttestationService<SimNet>, device: &str) -> u64 {
    svc.session_mut(device)
        .map(|s| s.dev.faults_applied().flips)
        .unwrap_or(0)
}

/// FNV-1a over the formatted event stream: one u64 that pins the whole
/// history.
fn history_hash(svc: &AttestationService<SimNet>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for e in svc.log().events() {
        for b in format!("{}|{}|{:?};", e.at, e.device, e.kind).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Prometheus export with the `vf_bank_*` family dropped. Bank stock is
/// ephemeral by design — it lives outside the snapshot and is recomputed
/// after a restore — so its effectiveness counters legitimately restart
/// at a crash; every other family must survive one byte-identically.
fn durable_prom(reg: &Registry) -> String {
    reg.to_prometheus()
        .lines()
        .filter(|l| !l.contains("vf_bank_"))
        .collect::<Vec<_>>()
        .join("\n")
}

struct SoakRun {
    svc: AttestationService<SimNet>,
    false_accepts: u64,
    flips: u64,
    reg: Registry,
}

/// One soak universe: settle, unleash chaos, drive event by event with
/// the false-accept oracle watching every verdict; optionally crash and
/// restore the control plane at mid-schedule.
fn run_soak(seed: u64, crash: bool) -> SoakRun {
    let mut svc = build_fleet(seed);
    svc.run_for(SETTLE_TICKS);
    for i in 0..DEVICES {
        assert_eq!(
            svc.state_of(&name(i)),
            Some(DeviceState::Trusted),
            "seed {seed}: {} failed to settle before chaos",
            name(i)
        );
    }
    install_chaos(&mut svc, seed);
    // Plus a recurring link outage: the challenge path to device 0 flaps
    // until mid-horizon, then heals, and the device must reconverge.
    let device0 = svc
        .statuses()
        .iter()
        .find(|s| s.name == name(0))
        .expect("device 0 is managed")
        .node;
    let window_until = svc.now() + TICKS / 2;
    svc.transport_mut().inject(Fault::seeded_window(
        seed,
        VERIFIER_NODE,
        device0,
        110_000,
        15_000,
        0,
        window_until,
    ));

    let end = svc.now() + TICKS;
    let crash_at = svc.now() + TICKS / 2;
    let mut crashed = false;
    let mut false_accepts = 0;
    // Applied-flip count per device at its round's RoundStarted.
    let mut flips_at_start: HashMap<String, u64> = HashMap::new();
    let mut scanned = 0usize;
    while svc.now() < end {
        match svc.next_event_at() {
            Some(t) if t <= end => svc.run_until(t),
            _ => svc.run_until(end),
        }
        if crash && !crashed && svc.now() >= crash_at {
            let snap = svc.snapshot();
            let (net, endpoints) = svc.into_endpoints();
            svc = AttestationService::restore(
                soak_cfg(),
                DhGroup::test_group(),
                net,
                &snap,
                endpoints,
            )
            .expect("snapshot restores against its own endpoints");
            crashed = true;
        }
        // Rounds are serialized per device, so between a device's
        // RoundStarted and its verdict the only run on that device is
        // that round's.
        let fresh: Vec<_> = svc.log().events()[scanned..].to_vec();
        scanned += fresh.len();
        for e in &fresh {
            match &e.kind {
                EventKind::RoundStarted { .. } => {
                    let at_start = flips(&mut svc, &e.device);
                    flips_at_start.insert(e.device.clone(), at_start);
                }
                EventKind::RoundPassed { .. } => {
                    let at_start = flips_at_start.get(&e.device).copied().unwrap_or(0);
                    if flips(&mut svc, &e.device) > at_start {
                        false_accepts += 1;
                    }
                }
                _ => {}
            }
        }
    }

    let flips = (0..DEVICES).map(|i| flips(&mut svc, &name(i))).sum();
    // Attached after the horizon: the `service_*_total` series start
    // from the event log's tally, so they describe the whole universe —
    // in the crash twin, everything before the restore too.
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    SoakRun {
        svc,
        false_accepts,
        flips,
        reg,
    }
}

#[test]
fn chaos_soak_never_false_accepts_reconverges_and_survives_a_crash() {
    for seed in SEEDS {
        let baseline = run_soak(seed, false);
        let crashed = run_soak(seed, true);

        assert!(baseline.flips > 0, "seed {seed}: no flip ever fired");
        assert_eq!(
            baseline.false_accepts + crashed.false_accepts,
            0,
            "seed {seed}: a round spanning a bit flip passed"
        );

        for i in 0..DEVICES {
            assert_eq!(
                baseline.svc.state_of(&name(i)),
                Some(DeviceState::Trusted),
                "seed {seed}: {} did not reconverge",
                name(i)
            );
        }

        assert!(
            baseline.svc.snapshot() == crashed.svc.snapshot(),
            "seed {seed}: crash-restart snapshot diverged"
        );
        assert_eq!(
            baseline.svc.snapshot_json(),
            crashed.svc.snapshot_json(),
            "seed {seed}: crash-restart snapshot JSON diverged"
        );
        assert_eq!(
            history_hash(&baseline.svc),
            history_hash(&crashed.svc),
            "seed {seed}: crash-restart history diverged"
        );
        assert_eq!(
            durable_prom(&baseline.reg),
            durable_prom(&crashed.reg),
            "seed {seed}: telemetry exports diverged across crash-restore"
        );
        assert_eq!(
            counter_total(&baseline.reg, "service_rounds_passed_total"),
            baseline.svc.log().counters().rounds_passed,
            "seed {seed}: telemetry rounds-passed diverged from the event log"
        );
    }
}
