//! Golden-snapshot test for both telemetry exporters: a fully
//! deterministic two-device fleet run (seeded network, zero jitter,
//! virtual clocks everywhere) must render
//! byte-for-byte identical JSON and Prometheus text across runs and
//! machines. The committed goldens under `tests/goldens/` are the
//! schema-stability contract: any change to series names, labels,
//! formatting, or the `"schema"` version shows up as a diff here and
//! must be a deliberate act.
//!
//! To regenerate after an intentional schema change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test telemetry_golden
//! ```

use std::path::Path;

use sage_repro::attacks::forge::ReplayTap;
use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::{DhGroup, EntropySource};
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::service::{AttestationService, LinkProfile, Policy, ServiceConfig, SimNet};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::telemetry::Registry;
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

/// Runs the canonical deterministic scenario and returns its registry:
/// two devices enroll and attest, then one is compromised with the §8
/// replay tap and driven through value rejects into quarantine — so
/// accept, reject, simulator and service series are all populated.
fn deterministic_registry() -> Registry {
    let net = SimNet::new(
        42,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        ..ServiceConfig::default()
    };
    let reg = Registry::new();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    svc.attach_telemetry(&reg);
    svc.join(member("gpu-a", 41), enclave(61));
    svc.join(member("gpu-b", 42), enclave(62));
    svc.run_for(45_000);

    // Post-enrollment compromise: every later readback from gpu-b
    // replays a stale answer against a fresh challenge.
    let session = svc.session_mut("gpu-b").expect("gpu-b is managed");
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
    svc.run_for(200_000);
    reg
}

fn check_golden(rendered: &str, golden_path: &Path) {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(golden_path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to create it",
            golden_path.display()
        )
    });
    assert!(
        rendered == golden,
        "{} drifted from its golden.\n\
         If the schema change is deliberate, regenerate with:\n\
         UPDATE_GOLDENS=1 cargo test --test telemetry_golden\n\
         --- golden ---\n{golden}\n--- rendered ---\n{rendered}",
        golden_path.display()
    );
}

#[test]
fn exporters_match_committed_goldens() {
    let reg = deterministic_registry();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    check_golden(&reg.to_json(), &root.join("telemetry.json"));
    check_golden(&reg.to_prometheus(), &root.join("telemetry.prom"));
}

/// The same scenario rendered twice in one process must agree with
/// itself — catches nondeterminism (thread scheduling, map ordering,
/// wall clocks) even when a golden regen would have hidden it.
#[test]
fn scenario_is_reproducible_in_process() {
    let a = deterministic_registry();
    let b = deterministic_registry();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
}
