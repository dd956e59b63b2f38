//! No call leaves a thread behind: enrollment (calibration, SAKE),
//! attestation rounds, replay and the simulator's per-SM workers all
//! finish their threads before they return. The process's thread count
//! after a SimNet service has enrolled and attested exact and modeled
//! devices equals the count before.
//!
//! One test in its own binary, so no other test's threads run beside it.

#![cfg(target_os = "linux")]

mod fixture;

use sage_repro::crypto::DhGroup;
use sage_repro::service::{AttestationService, LinkProfile, ServiceConfig, SimNet};

/// The threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

#[test]
fn enrollment_and_rounds_leave_no_thread_behind() {
    let before = threads();
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        epoch_interval: 30_000,
        ..ServiceConfig::default()
    };
    assert!(cfg.calibration_runs > 0, "joins must calibrate");
    let link = LinkProfile {
        latency: 100,
        jitter: 25,
        drop_per_mille: 0,
        dup_per_mille: 0,
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), SimNet::new(1, link));
    for i in 0..4 {
        let e = fixture::enclave(b"threads-exact", 1 + i as u8);
        svc.join(fixture::tiny_member(i, 1), e);
    }
    for i in 4..8 {
        let e = fixture::enclave(b"threads-modeled", 1 + i as u8);
        svc.join(fixture::modeled_member(i, 1), e);
    }
    svc.run_until(100_000);
    let c = svc.log().counters();
    assert!(
        c.rounds_passed >= 8,
        "every device should pass a round, {} passed",
        c.rounds_passed
    );
    assert_eq!(threads(), before, "a call left a thread running");
}
