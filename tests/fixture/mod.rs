//! Fleet fixtures shared by the chaos soak and the timing gates: seeded
//! entropy, the two device shapes the fleets are built from, and the
//! verifier enclave. Everything is a pure function of its seed, so a
//! fleet built twice from the same seeds has the same history.

#![allow(dead_code)] // each test binary uses its own subset

use sage_repro::core::{agent::DeviceAgent, multi::FleetMember, GpuSession};
use sage_repro::crypto::EntropySource;
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::telemetry::{MetricValue, Registry};
use sage_repro::vf::VfParams;

/// A deterministic byte stream: same seed, same bytes.
pub fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

/// A cycle-accurate `sim_tiny` device named `gpu-NN`: every round runs
/// the checksum on the simulator and the verifier replays it.
pub fn tiny_member(index: usize, seed: u64) -> FleetMember {
    let mut params = VfParams::test_tiny();
    params.iterations = 5;
    let session = GpuSession::install(Device::new(DeviceConfig::sim_tiny()), &params, 0xF1EE7)
        .expect("install");
    let agent_seed = (seed as u8).wrapping_add(index as u8).wrapping_mul(3) | 1;
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(agent_seed))));
    m.name = format!("gpu-{index:02}");
    m
}

/// A modeled device named `gpu-NNNNN`: checksums from the replay engine,
/// timing synthesized, so a fleet of thousands prices the control plane
/// rather than the simulator.
pub fn modeled_member(index: usize, seed: u64) -> FleetMember {
    let session = GpuSession::install_modeled(
        Device::new(DeviceConfig::sim_nano()),
        &VfParams::fleet_tiny(),
        0xF1EE7,
        10_000,
    )
    .expect("install modeled VF");
    let agent_seed = (seed as u8)
        .wrapping_add(index as u8)
        .wrapping_mul(3)
        .wrapping_add((index >> 8) as u8)
        | 1;
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(agent_seed))));
    m.name = format!("gpu-{index:05}");
    m
}

/// The verifier enclave for one device, launched on the shared platform.
pub fn enclave(label: &[u8], seed: u8) -> Enclave {
    SgxPlatform::new([7u8; 16]).launch(label, &mut entropy(seed))
}

/// The exported total of every series named `name`, across label sets.
pub fn counter_total(reg: &Registry, name: &str) -> u64 {
    reg.collect()
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => panic!("{name} is not a counter"),
        })
        .sum()
}
