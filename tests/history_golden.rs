//! Golden history digests: CI-sized twins of the benchmark's three
//! SimNet workloads (`fleet`, `exact`, `byzantine`) run for a fixed
//! number of virtual ticks, and each run's history is hashed into one
//! line of `tests/goldens/history.txt`.
//!
//! The crash twins (`service_recovery`, `chaos_soak`, `transport_chaos`)
//! prove that two runs of today's code agree with each other; this test
//! proves that today's run agrees with the committed one. Each line
//! carries:
//!
//! - `judged`: rounds that reached a verdict;
//! - `root`: the newest sealed epoch root (every evidence chain's head);
//! - `counters`: SHA-256 of `counters_json()`;
//! - `log`: SHA-256 of the whole event log as JSON (the log is
//!   unbounded here, so it holds every event);
//! - `viewN`: each quorum replica's view digest (`byzantine` only).
//!
//! The order in which the service judges responses from different
//! devices shows only in the last two: counters and chain heads are
//! per-device facts.
//!
//! A change that moves a digest on purpose says why in CHANGES.md and
//! regenerates the file with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test history_golden
//! ```

mod fixture;

use std::path::Path;

use sage_repro::crypto::{sha256, DhGroup};
use sage_repro::evidence::FreshnessPolicy;
use sage_repro::service::{
    AttestationService, LinkProfile, QuorumConfig, SamplingConfig, ServiceConfig, SimNet,
    VerifierBehavior, VERIFIER_NODE,
};

const SEED: u64 = 1;

/// The benchmark's clean link: 100 ticks one way, up to 25 of jitter.
const CLEAN_LINK: LinkProfile = LinkProfile {
    latency: 100,
    jitter: 25,
    drop_per_mille: 0,
    dup_per_mille: 0,
};

/// One re-attestation period of a modeled device: the interval, a
/// round trip at the mean link delay, and the modeled checksum time.
fn modeled_period(reattest: u64) -> u64 {
    reattest + 2 * (CLEAN_LINK.latency + CLEAN_LINK.jitter / 2) + 10_000 + 4
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden line for one finished run.
fn digest(name: &str, svc: &AttestationService<SimNet>) -> String {
    let c = svc.log().counters();
    let judged =
        c.rounds_passed + c.value_rejects + c.timing_rejects + c.timeouts + c.relay_rejects;
    assert!(judged > 0, "{name}: no round was judged");
    let root = svc.sealed_epochs().last().map_or([0; 32], |e| e.root);
    let mut line = format!(
        "{name} judged={judged} root={} counters={} log={}",
        hex(&root),
        hex(&sha256(svc.log().counters_json().as_bytes())),
        hex(&sha256(svc.log().to_json().as_bytes())),
    );
    if let Some(q) = svc.quorum() {
        for r in q.replicas() {
            line.push_str(&format!(" view{}={}", r.index, hex(&r.view)));
        }
    }
    line
}

/// `fleet`: a few hundred modeled devices on a clean link, one seal per
/// re-attestation period.
fn fleet() -> String {
    const DEVICES: usize = 300;
    let epoch = modeled_period(50_000);
    let cfg = ServiceConfig {
        reattest_interval: 50_000,
        epoch_interval: epoch,
        ..ServiceConfig::default()
    };
    let mut svc =
        AttestationService::new(cfg, DhGroup::test_group(), SimNet::new(SEED, CLEAN_LINK));
    for i in 0..DEVICES {
        let e = fixture::enclave(b"history-fleet", (SEED as u8).wrapping_add(i as u8));
        svc.join(fixture::modeled_member(i, SEED), e);
    }
    svc.run_until(6 * epoch + epoch / 2);
    digest("fleet", &svc)
}

/// `exact`: a few cycle-accurate devices; every round runs the checksum
/// on the simulator and is judged by replay.
fn exact() -> String {
    const DEVICES: usize = 4;
    let epoch = 30_000;
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        epoch_interval: epoch,
        ..ServiceConfig::default()
    };
    let mut svc =
        AttestationService::new(cfg, DhGroup::test_group(), SimNet::new(SEED, CLEAN_LINK));
    for i in 0..DEVICES {
        let e = fixture::enclave(b"history-exact", (SEED as u8).wrapping_add(i as u8));
        svc.join(fixture::tiny_member(i, SEED), e);
    }
    svc.run_until(8 * epoch + epoch / 2);
    digest("exact", &svc)
}

/// `byzantine`: modeled devices on a duplicating link under a 4-replica
/// quorum with one lying replica, 25% spot-check sampling, freshness
/// decay and the relay gate; after warm-up one device is planted as a
/// slowed cheater on a lossy link.
fn byzantine() -> String {
    const DEVICES: usize = 200;
    const CHEATER: usize = 49;
    let epoch = 2 * modeled_period(10_000);
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: epoch,
        freshness: FreshnessPolicy {
            stale_after: 3 * epoch,
            degraded_after: 6 * epoch,
        },
        quorum: QuorumConfig {
            verifiers: 4,
            seed: 0x51D,
        },
        sampling: SamplingConfig {
            coverage_per_mille: 250,
            seed: SEED ^ 0xC0FFEE,
        },
        relay_rtt_gate: 2_000,
        backoff_jitter: 500,
        ..ServiceConfig::default()
    };
    let link = LinkProfile {
        dup_per_mille: 20,
        ..CLEAN_LINK
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), SimNet::new(SEED, link));
    let mut ids = Vec::with_capacity(DEVICES);
    for i in 0..DEVICES {
        let e = fixture::enclave(b"history-byzantine", (SEED as u8).wrapping_add(i as u8));
        ids.push(svc.join(fixture::modeled_member(i, SEED), e));
    }
    svc.run_until(2 * epoch);

    let cheater = fixture::modeled_member(CHEATER, SEED).name;
    svc.node_mut(&cheater)
        .expect("cheater is managed")
        .extra_compute = 3_000;
    let lossy = LinkProfile {
        drop_per_mille: 100,
        dup_per_mille: 20,
        ..CLEAN_LINK
    };
    let net = svc.transport_mut();
    net.set_link(VERIFIER_NODE, ids[CHEATER], lossy);
    net.set_link(ids[CHEATER], VERIFIER_NODE, lossy);
    svc.quorum_mut()
        .expect("4-replica quorum")
        .set_behavior(1, VerifierBehavior::Invert);
    svc.run_until(10 * epoch);
    assert!(
        svc.quorum().expect("4-replica quorum").disputes > 0,
        "the lying replica never dissented"
    );
    digest("byzantine", &svc)
}

#[test]
fn histories_match_committed_golden() {
    let rendered = format!("{}\n{}\n{}\n", fleet(), exact(), byzantine());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/history.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "a workload's history drifted from its golden.\n\
         If the change is deliberate, say why in CHANGES.md and regenerate with:\n\
         UPDATE_GOLDENS=1 cargo test --test history_golden\n\
         --- golden ---\n{golden}--- rendered ---\n{rendered}"
    );
}
