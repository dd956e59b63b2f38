//! The attestation control plane end to end: a fleet enrolled into the
//! long-running service, re-attested on a schedule over a lossy
//! simulated network, one device compromised mid-run with the §8 replay
//! attack, one honest device hit by an injected network delay — then the
//! event timeline and final lifecycle states.
//!
//! ```text
//! cargo run --release --example attestation_service
//! ```
//!
//! Everything is virtual-clock driven and seeded: run it twice and you
//! get the identical timeline.

use sage::agent::DeviceAgent;
use sage::multi::FleetMember;
use sage::GpuSession;
use sage_attacks::forge::ReplayTap;
use sage_crypto::{DhGroup, EntropySource};
use sage_evidence::{verify_report, DeviceReport, FreshnessPolicy};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_service::{
    AttestationService, DeviceState, Fault, LinkProfile, ServiceConfig, SimNet, VERIFIER_NODE,
};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;
use sage_vf::VfParams;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn demo_entropy(seed: u8) -> impl EntropySource {
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
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(demo_entropy(seed))));
    m.name = name.to_string();
    m
}

fn main() {
    // A network with latency, jitter and a little random loss — enough to
    // exercise the timeout/retry path without drowning the timeline.
    let net = SimNet::new(
        2024,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 5,
            dup_per_mille: 0,
        },
    );
    // Evidence layer on: seal a fleet Merkle epoch every 100k ticks and
    // decay trust for devices that stop re-attesting (the windows sit
    // well above the 50k re-attest interval, so honest devices never
    // decay).
    let cfg = ServiceConfig {
        epoch_interval: 100_000,
        freshness: FreshnessPolicy {
            stale_after: 400_000,
            degraded_after: 800_000,
        },
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    // One registry for the whole control plane: attached before any
    // join, so every verifier verdict and simulator run of the demo
    // lands in it.
    let reg = Registry::new();
    svc.attach_telemetry(&reg);

    println!("== enrollment (calibrate + SAKE over the wire codec) ==");
    let platform = SgxPlatform::new([0x42; 16]);
    let mut ids = Vec::new();
    for (i, (name, dev)) in [
        ("gpu-big", DeviceConfig::sim_small()),
        ("gpu-a", DeviceConfig::sim_tiny()),
        ("gpu-evil", DeviceConfig::sim_tiny()),
    ]
    .into_iter()
    .enumerate()
    {
        let enclave = platform.launch(b"svc-verifier", &mut demo_entropy(81 + i as u8));
        let id = svc.join(member(name, dev, 31 + i as u8), enclave);
        println!(
            "  {name:8} joined as {id}, threshold {:?} cycles",
            svc.threshold_of(name)
        );
        ids.push(id);
    }

    println!("\n== steady state: every device passes its first rounds ==");
    svc.run_for(120_000);
    for s in svc.statuses() {
        println!(
            "  {:8} {:11} rounds_passed={}",
            s.name, s.state, s.rounds_passed
        );
    }

    println!("\n== mid-run events ==");
    println!("  * gpu-evil compromised: bus tap will replay a stale checksum");
    let session = svc.session_mut("gpu-evil").unwrap();
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));

    println!("  * gpu-a's next response delayed 300000 ticks (past the deadline)");
    svc.transport_mut().inject(Fault::DelayNext {
        src: ids[1],
        dst: VERIFIER_NODE,
        extra: 300_000,
        remaining: 1,
    });

    // Run until the attacker is quarantined (bounded for safety).
    for _ in 0..40 {
        svc.run_for(50_000);
        if svc.state_of("gpu-evil") == Some(DeviceState::Quarantined) {
            break;
        }
    }
    svc.run_for(200_000); // let gpu-a recover to Trusted

    println!("\n== event timeline (state changes and failures) ==");
    for e in svc.log().events() {
        use sage_service::EventKind::*;
        let line = match &e.kind {
            StateChanged { from, to } => format!("{from} -> {to}"),
            RoundFailed { round, reason } => {
                format!("round {round} FAILED ({})", reason.as_str())
            }
            LateResponse { round } => format!("late response for round {round}"),
            Restarted { round } => format!("round {round} restarted (timing allowance)"),
            _ => continue,
        };
        println!("  t={:>8}  {:8} {line}", e.at, e.device);
    }

    println!("\n== final fleet state ==");
    for s in svc.statuses() {
        println!(
            "  {:8} {:11} rounds_passed={:3} consecutive_failures={}",
            s.name, s.state, s.rounds_passed, s.consecutive_failures
        );
    }
    let c = svc.log().counters();
    println!(
        "\ncounters: {} rounds passed, {} value rejects, {} timeouts, {} quarantined",
        c.rounds_passed, c.value_rejects, c.timeouts, c.quarantines
    );
    let stats = svc.transport().stats();
    println!(
        "network: {} sent, {} delivered, {} dropped, {} fault-delayed",
        stats.sent, stats.delivered, stats.dropped, stats.fault_delayed
    );

    // The unified telemetry view of the same story: the scrape-ready
    // round-lifecycle and verdict series (the full export also carries
    // the simulator families — see DESIGN.md §8).
    println!("\n== telemetry (service_* / verifier_* scrape excerpt) ==");
    for line in reg.to_prometheus().lines() {
        if line.starts_with("service_") || line.starts_with("verifier_rejects_total") {
            println!("  {line}");
        }
    }

    // The evidence layer's view: a self-contained DeviceReport for an
    // honest device, then verified *independently* — decoded from bytes
    // and checked with only the sealed epoch root and the device's
    // evidence key, exactly what a relying party outside the control
    // plane would hold (DESIGN.md §10).
    println!("\n== verifiable device report (gpu-big) ==");
    let report = svc.report_for("gpu-big").expect("an epoch has sealed");
    let epoch = svc.sealed_epochs().last().unwrap();
    println!(
        "  epoch {} sealed at t={} over {} devices, root {}…",
        epoch.index,
        epoch.at,
        epoch.leaves.len(),
        &hex(&epoch.root)[..16]
    );
    let encoded = report.encode();
    println!(
        "  report: {} bytes, {} proof steps, {} suffix records, claims {} (anchored at t={:?})",
        encoded.len(),
        report.proof.steps.len(),
        report.suffix.len(),
        report.claim.level.as_str(),
        report.claim.last_pass_at,
    );
    let trusted_root = epoch.root; // from the fleet ledger
    let evidence_key = svc.evidence_key_of("gpu-big").unwrap(); // over a confidential channel
    let independent = DeviceReport::decode(&encoded).expect("canonical bytes round-trip");
    let level = verify_report(&independent, &trusted_root, &evidence_key, svc.now())
        .expect("honest report verifies standalone");
    println!(
        "  independently verified from bytes: gpu-big is {} at t={} — no event log consulted",
        level.as_str(),
        svc.now()
    );
    // The same machinery rejects tampering: flip one claim field and the
    // envelope MAC fails before anything else is even looked at.
    let mut doctored = independent.clone();
    doctored.claim.asserted_at += 1;
    let err = verify_report(&doctored, &trusted_root, &evidence_key, svc.now()).unwrap_err();
    println!("  doctored twin rejected: {err} (cause: {})", err.cause());

    assert_eq!(svc.state_of("gpu-evil"), Some(DeviceState::Quarantined));
    assert_eq!(svc.state_of("gpu-big"), Some(DeviceState::Trusted));
    assert_eq!(svc.state_of("gpu-a"), Some(DeviceState::Trusted));
    println!("\nhonest devices held Trusted; the replaying device is quarantined.");
}
