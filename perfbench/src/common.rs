//! Shared pieces: device construction, process and host probes, and the
//! small statistics the workloads report.

use std::time::Instant;

use sage::agent::DeviceAgent;
use sage::multi::FleetMember;
use sage::GpuSession;
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::{Enclave, SgxPlatform};
use sage_vf::VfParams;

/// The modeled fleet device: no simulation, checksums from the replay
/// engine and synthesized timing (`GpuSession::install_modeled`).
pub const MODELED_BASE_CYCLES: u64 = 10_000;

/// Which kind of device a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// `install_modeled` on `sim_nano` with `fleet_tiny` parameters.
    Modeled,
    /// Cycle-accurate `sim_tiny` running `test_tiny` at 5 iterations.
    Exact,
}

impl DeviceKind {
    /// The VF parameters the kind installs.
    pub fn params(self) -> VfParams {
        match self {
            DeviceKind::Modeled => VfParams::fleet_tiny(),
            DeviceKind::Exact => {
                let mut p = VfParams::test_tiny();
                p.iterations = 5;
                p
            }
        }
    }

    /// Builds one device session (VF codegen + upload).
    pub fn session(self) -> GpuSession {
        let params = self.params();
        match self {
            DeviceKind::Modeled => GpuSession::install_modeled(
                Device::new(DeviceConfig::sim_nano()),
                &params,
                0xF1EE7,
                MODELED_BASE_CYCLES,
            ),
            DeviceKind::Exact => {
                GpuSession::install(Device::new(DeviceConfig::sim_tiny()), &params, 0xF1EE7)
            }
        }
        .expect("install VF")
    }
}

/// A deterministic byte stream for agent and enclave entropy.
pub fn entropy(seed: u64) -> impl FnMut(&mut [u8]) + Send {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *b = (state >> 56) as u8;
        }
    }
}

/// Device name for fleet index `i`.
pub fn device_name(i: usize) -> String {
    format!("gpu-{i:05}")
}

/// One fleet member: session, agent (seeded from `seed` and the index)
/// and name.
pub fn member(kind: DeviceKind, index: usize, seed: u64) -> FleetMember {
    let agent_seed = seed.wrapping_mul(0x100_0000_01B3) ^ index as u64;
    let mut m = FleetMember::new(
        kind.session(),
        DeviceAgent::new(Box::new(entropy(agent_seed))),
    );
    m.name = device_name(index);
    m
}

/// The verifier enclave for device `index`.
pub fn enclave(platform: &SgxPlatform, index: usize, seed: u64) -> Enclave {
    let enclave_seed = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (index as u64).rotate_left(17);
    platform.launch(b"perfbench-verifier", &mut entropy(enclave_seed))
}

/// Logical cores available to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A `/proc/self/status` field in kB (or a plain count), 0 where absent.
fn status_field(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Live OS threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Minor page faults of this process so far, from `/proc/self/stat`.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // minflt is field 10 (1-based), the 8th after the parenthesized
    // command name.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Seconds on a CPU-time clock (nanosecond resolution).
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock` is one of the fixed ids below.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, every thread included
/// (exited ones too). Time spent waiting for a CPU, or stolen by the
/// hypervisor, does not count.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The host calibration: a fixed integer loop, timed on the thread's
/// CPU clock. Read it next to the workload figures to tell a slow host
/// episode from a regression.
pub fn host_calib_ms() -> f64 {
    let c = thread_cpu_s();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for i in 0..40_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    std::hint::black_box(x);
    (thread_cpu_s() - c) * 1e3
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f` `reps` times and returns the median per-call microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(secs(t) * 1e6);
    }
    median(&samples)
}

/// Times `inner` calls of `f` per sample over `reps` samples and
/// returns the median per-call nanoseconds (for sub-microsecond calls).
pub fn time_ns_batched(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(secs(t) * 1e9 / inner as f64);
    }
    median(&samples)
}

/// Lowercase hex of a byte string.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
