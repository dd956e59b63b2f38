//! Wall-clock gates: within-run speed ratios and core-scaled throughput
//! floors the code is held to. Every gate is `#[ignore]`d so debug test
//! runs skip it; CI runs them optimised and one at a time:
//!
//! ```console
//! cargo test --release --test perf_gates -- --ignored
//! ```
//!
//! Ratios compare two arms timed in the same process, so they hold on
//! any host. Absolute floors scale with the core count: the full figure
//! applies from 8 cores up and shrinks linearly below that, so a gate
//! measures the software rather than the runner. Noise handling follows
//! each measurement's shape: min-of-reps for short deterministic loops,
//! the median of back-to-back pairs where common-mode slowdowns should
//! cancel. Correctness of the same paths (bit-exactness, zero false
//! accepts, resume) is asserted by the unignored suites; the gates here
//! assert only what a test cannot pin without a clock.
//!
//! `perfbench/` is the end-to-end benchmark; these gates only keep the
//! individual fast paths from regressing past their bounds.

mod fixture;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fixture::{counter_total, enclave, entropy, modeled_member, tiny_member};
use sage_repro::core::{Calibration, GpuSession, Verifier};
use sage_repro::crypto::{BigUint, DhGroup, Montgomery};
use sage_repro::gpu::{Device, DeviceConfig, ExecMode, LaunchParams};
use sage_repro::service::{
    AttestationService, Bind, ChaosProfile, ChaosProxy, ClockDriver, DeviceLink, DeviceLinkConfig,
    DeviceState, LinkConfig, LinkProfile, Pump, SamplingConfig, ServiceConfig, SimNet,
    TcpTransport,
};
use sage_repro::sgx::SgxPlatform;
use sage_repro::telemetry::Registry;
use sage_repro::vf::{
    build_vf, codegen::VfBuild, expected_checksum, expected_checksum_unpooled, BankConfig, SmcMode,
    VfParams,
};

/// Gates share the machine with nothing else, not even each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `full` on 8 cores and up, linearly less on smaller hosts.
fn core_scaled(full: f64) -> f64 {
    full * (cores() as f64 / 8.0).min(1.0)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64().max(1e-12)
}

// ---- control plane at fleet scale ----------------------------------------

/// Ten thousand modeled devices through three rounds each must sustain
/// `100k × min(1, cores/8)` rounds/s of steady-state control plane:
/// timer wheel, routing, verdicts, evidence, epoch seals and telemetry.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn fleet_of_10k_modeled_devices_meets_the_rounds_per_sec_floor() {
    let _serial = serial();
    const DEVICES: usize = 10_000;
    const ROUNDS: u64 = 3;
    const SEED: u64 = 7;
    let net = SimNet::new(
        SEED,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        // At fleet scale the full history would be hundreds of MiB.
        event_capacity: 65_536,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    for i in 0..DEVICES {
        let enclave_seed = (SEED as u8)
            .wrapping_add(i as u8)
            .wrapping_mul(5)
            .wrapping_add((i >> 8) as u8)
            | 1;
        svc.join(
            modeled_member(i, SEED),
            enclave(b"fleet-verifier", enclave_seed),
        );
    }

    let mut windows = 0;
    let wall = seconds(|| {
        while svc
            .statuses()
            .iter()
            .any(|s| s.rounds_passed < ROUNDS || s.state != DeviceState::Trusted)
        {
            svc.run_for(cfg.reattest_interval);
            windows += 1;
            assert!(windows <= ROUNDS * 4 + 8, "fleet failed to converge");
        }
    });
    let rounds_per_sec = svc.log().counters().rounds_passed as f64 / wall;
    let floor = core_scaled(100_000.0);
    assert!(
        rounds_per_sec >= floor,
        "{rounds_per_sec:.0} rounds/s < floor {floor:.0} on {} cores",
        cores()
    );
}

/// Eight modeled devices over Unix sockets, through a proxy that tears
/// every frame and severs every connection twice, must sustain
/// `200 × min(1, cores/8)` attestation sessions/s while resuming
/// (never re-enrolling) and quarantining the one mid-life cheater.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn severed_socket_fleet_meets_the_sessions_per_sec_floor() {
    let _serial = serial();
    const HONEST: usize = 7;
    const DEVICES: usize = HONEST + 1;
    const ROUNDS: u64 = 5;
    const SEED: u64 = 7;
    const SEVERS: u64 = 2;
    let cheater = format!("gpu-{:05}", DEVICES - 1);

    let dir = std::env::temp_dir().join(format!("sage-perf-gates-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sock = dir.join("verifier.sock");
    let net = TcpTransport::bind(Bind::Uds(sock.clone()), LinkConfig::default())
        .expect("bind verifier socket");
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        backoff_jitter: 500,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let proxy = ChaosProxy::spawn(
        Bind::Uds(dir.join("proxy.sock")),
        Bind::Uds(sock),
        ChaosProfile::torn(SEED ^ 0x000C_4A05),
    )
    .expect("spawn proxy");
    let links: Vec<DeviceLink> = (0..DEVICES)
        .map(|i| {
            DeviceLink::spawn(
                modeled_member(i, SEED),
                DhGroup::test_group(),
                DeviceLinkConfig {
                    connect: proxy.local_bind(),
                    compromise_after: (i == DEVICES - 1).then_some(1),
                    ..DeviceLinkConfig::default()
                },
            )
        })
        .collect();

    // Enroll the whole fleet at virtual tick 0, in name order.
    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.transport().pending_enrolls() < DEVICES {
        assert!(Instant::now() < deadline, "fleet never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut pending = Vec::new();
    while let Some(p) = svc.transport_mut().take_pending_enroll() {
        pending.push(p);
    }
    pending.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, stream) in pending {
        let index: usize = name[4..].parse().expect("gpu-NNNNN");
        svc.join_remote(
            modeled_member(index, SEED),
            enclave(b"net-verifier", SEED as u8 | 1),
            stream,
        );
    }

    let honest_floor = |svc: &AttestationService<TcpTransport>| {
        svc.statuses()
            .iter()
            .filter(|s| s.name != cheater)
            .map(|s| s.rounds_passed)
            .min()
            .unwrap_or(0)
    };
    let mut driver = ClockDriver::new(200_000);
    let mut severs = 0;
    let mut iters = 0;
    let wall = seconds(|| loop {
        iters += 1;
        assert!(iters < 2_000, "fleet failed to converge");
        let target = svc.now() + 10_000;
        match driver.run_until(&mut svc, target) {
            Pump::Target => {}
            Pump::Enrolls => panic!("re-enrollment attempted; resume must suffice"),
        }
        if severs < SEVERS && honest_floor(&svc) > severs {
            proxy.sever_all();
            severs += 1;
        }
        if honest_floor(&svc) >= ROUNDS
            && svc.state_of(&cheater) == Some(DeviceState::Quarantined)
            && severs >= SEVERS
        {
            break;
        }
    });
    let sessions_per_sec = svc.log().counters().rounds_passed as f64 / wall;
    for link in links {
        link.stop();
    }
    drop(proxy);
    let _ = std::fs::remove_dir_all(&dir);

    let floor = core_scaled(200.0);
    assert!(
        sessions_per_sec >= floor,
        "{sessions_per_sec:.1} sessions/s < floor {floor:.1} on {} cores",
        cores()
    );
}

// ---- spot-check sampling --------------------------------------------------

/// Virtual ticks per sampling epoch.
const EPOCH: u64 = 60_000;
/// The fleet settles (enroll + first rounds) before the timed window.
const SETTLE: u64 = 45_000;

/// Wall seconds for a 12-device cycle-accurate fleet to cover
/// `SETTLE..horizon` at the given spot-check coverage.
fn sampled_fleet_wall(coverage_per_mille: u32, horizon: u64) -> f64 {
    const DEVICES: usize = 12;
    const SEED: u64 = 7;
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
        // A dense round cadence: the checksum replays must dominate the
        // per-tick service overhead, which sampling cannot save.
        reattest_interval: 5_000,
        epoch_interval: EPOCH,
        sampling: SamplingConfig {
            coverage_per_mille,
            seed: 0xC0FFEE,
        },
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    for i in 0..DEVICES {
        let enclave_seed = (SEED as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        svc.join(
            tiny_member(i, SEED),
            enclave(b"quorum-verifier", enclave_seed),
        );
    }
    svc.run_until(SETTLE);
    let wall = seconds(|| svc.run_until(horizon));
    for s in svc.statuses() {
        assert_eq!(s.state, DeviceState::Trusted, "{} lost trust", s.name);
    }
    wall
}

/// At 25% coverage a `Trusted` device outside the epoch plan sleeps
/// instead of replaying a checksum, so holding the fleet must cost ≥3×
/// less wall than full coverage: the median over three back-to-back
/// (full, sampled) pairs.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn quarter_coverage_sampling_is_3x_cheaper_than_full_coverage() {
    let _serial = serial();
    const HORIZON: u64 = 600_000;
    // Warm caches and the allocator so the first timed arm is not
    // systematically the slowest.
    sampled_fleet_wall(1000, SETTLE + 2 * EPOCH);
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| sampled_fleet_wall(1000, HORIZON) / sampled_fleet_wall(250, HORIZON))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    assert!(
        speedup >= 3.0,
        "sampling speedup {speedup:.2}x < 3x (pairs {ratios:?})"
    );
}

// ---- the verifier's online fast path ---------------------------------------

const FAST_ROUNDS: usize = 4;
const FAST_SEED: u64 = 7;

/// A bank-enabled verifier over the SIM-LARGE VF shape (the paper's
/// experiment-1 parameters on the full `sim_large` device, 12 outer
/// iterations), with a synthetic calibration every honest response
/// passes.
fn sim_large_verifier() -> (Verifier, VfBuild) {
    let cfg = DeviceConfig::sim_large();
    let mut params = sage_bench::experiments::exp1(&cfg);
    params.iterations = 12;
    let build = build_vf(&params, 0x1000, FAST_SEED as u32).expect("build VF");
    let enclave =
        SgxPlatform::new([7u8; 16]).launch(b"fastpath-verifier", &mut entropy(FAST_SEED as u8 | 1));
    let mut verifier = Verifier::new(enclave, build.clone(), DhGroup::test_group());
    verifier.set_calibration(Calibration::from_samples(&[1_000]));
    verifier.enable_fast_path(BankConfig {
        capacity: FAST_ROUNDS,
        workers: 0,
    });
    (verifier, build)
}

/// A bank hit (take + compare + timing verdict) must be ≥5× faster than
/// the online path it replaces (replay inside `check_response`). The
/// bank is stocked off the clock, as background workers stock it in
/// production.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn bank_hit_rounds_are_5x_faster_than_online_replay() {
    let _serial = serial();
    let (mut verifier, build) = sim_large_verifier();
    verifier.prefill_rounds(FAST_ROUNDS);
    // An honest device's response equals the replayed expected value.
    let transcript: Vec<(Vec<[u8; 16]>, [u32; 8])> = (0..FAST_ROUNDS)
        .map(|_| {
            let ch = verifier.generate_challenges();
            let sum = expected_checksum(&build, &ch);
            (ch, sum)
        })
        .collect();
    let bank = seconds(|| {
        for _ in 0..FAST_ROUNDS {
            let (_, expected) = verifier.prepare_round();
            let expected = expected.expect("bank stocked for every round");
            verifier
                .check_response_precomputed(expected, expected, 1)
                .expect("honest round accepted");
        }
    });
    let replay = seconds(|| {
        for (ch, sum) in &transcript {
            verifier
                .check_response(ch, *sum, 1)
                .expect("honest round accepted");
        }
    });
    let hits = verifier.bank_counters().expect("fast path on").hits;
    assert_eq!(
        hits as usize, FAST_ROUNDS,
        "every timed round must be a hit"
    );
    let speedup = replay / bank;
    assert!(speedup >= 5.0, "bank-hit rounds only {speedup:.1}x faster");
}

/// Stocking the bank with the batched engine through the replay pool
/// must be ≥5× faster than recomputing the same number of rounds with
/// the per-lane scalar oracle it replaced.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn batched_bank_refill_is_5x_faster_than_the_scalar_oracle() {
    let _serial = serial();
    let (mut verifier, build) = sim_large_verifier();
    let batched = seconds(|| verifier.prefill_rounds(FAST_ROUNDS));
    let transcript: Vec<Vec<[u8; 16]>> = (0..FAST_ROUNDS)
        .map(|_| verifier.generate_challenges())
        .collect();
    let scalar = seconds(|| {
        for ch in &transcript {
            std::hint::black_box(expected_checksum_unpooled(&build, ch));
        }
    });
    let speedup = scalar / batched;
    assert!(speedup >= 5.0, "batched refill only {speedup:.1}x faster");
}

/// The SAKE exponentiations: Montgomery modpow at MODP-2048 with 256-bit
/// exponents must be ≥3× faster than the reference square-and-multiply.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn montgomery_modpow_is_3x_faster_than_the_reference() {
    let _serial = serial();
    let m = DhGroup::modp_2048().p;
    let mont = Montgomery::new(&m).expect("MODP-2048 modulus is odd");
    let mut state = FAST_SEED | 1;
    let mut random = |bits: usize| {
        let mut bytes = vec![0u8; bits.div_ceil(8)];
        for b in bytes.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = state.wrapping_mul(0x2545_F491_4F6C_DD1D) as u8;
        }
        bytes[0] |= 0x80; // pin the width
        BigUint::from_bytes_be(&bytes)
    };
    let cases: Vec<(BigUint, BigUint)> = (0..5)
        .map(|_| (random(2040).rem(&m), random(256)))
        .collect();
    let mut reference = Vec::new();
    let reference_wall = seconds(|| {
        reference = cases.iter().map(|(b, e)| b.modpow(e, &m)).collect();
    });
    let mut fast = Vec::new();
    let mont_wall = seconds(|| {
        fast = cases.iter().map(|(b, e)| mont.modpow(b, e)).collect();
    });
    assert_eq!(reference, fast, "Montgomery modpow diverged from reference");
    let speedup = reference_wall / mont_wall;
    assert!(
        speedup >= 3.0,
        "Montgomery modpow only {speedup:.1}x faster"
    );
}

// ---- telemetry overhead ---------------------------------------------------

/// Times `rounds` bank-hit rounds on a verifier with no registry and on
/// one attached to a registry, `reps` times over fresh pairs with the
/// arm order alternating, and returns each arm's minimum wall
/// `(baseline, instrumented)`. Telemetry's books must match the
/// harness: every instrumented round is one accept and one bank hit.
fn telemetry_arms(rounds: usize, reps: usize) -> (f64, f64) {
    // A production-shaped grid: the hit path's real work scales with the
    // grid, telemetry's cost per verdict does not.
    let mut params = VfParams::test_tiny();
    params.grid_blocks = 192;
    params.iterations = 2;
    let build = build_vf(&params, 0x1000, 7).expect("build VF");
    let verifier = |seed: u64| {
        let enclave =
            SgxPlatform::new([7u8; 16]).launch(b"telemperf-verifier", &mut entropy(seed as u8 | 1));
        let mut v = Verifier::new(enclave, build.clone(), DhGroup::test_group());
        v.set_calibration(Calibration::from_samples(&[1_000]));
        v.enable_fast_path(BankConfig {
            capacity: rounds,
            workers: 0,
        });
        v
    };
    let timed = |v: &mut Verifier| {
        v.prefill_rounds(rounds);
        seconds(|| {
            for _ in 0..rounds {
                let (_, expected) = v.prepare_round();
                let expected = expected.expect("bank stocked for every timed round");
                v.check_response_precomputed(expected, expected, 1)
                    .expect("honest round accepted");
            }
        })
    };

    // Fresh pairs per rep defeat allocation-layout luck; alternating
    // order defeats one-sided drift.
    let reg = Registry::new();
    let (mut base, mut instr) = (f64::INFINITY, f64::INFINITY);
    let mut hits = 0;
    for rep in 0..reps {
        let pair_seed = 7 + rep as u64 * 2;
        let mut baseline = verifier(pair_seed);
        let mut instrumented = verifier(pair_seed + 1);
        instrumented.attach_telemetry(&reg);
        if rep % 2 == 0 {
            base = base.min(timed(&mut baseline));
            instr = instr.min(timed(&mut instrumented));
        } else {
            instr = instr.min(timed(&mut instrumented));
            base = base.min(timed(&mut baseline));
        }
        hits += instrumented.bank_counters().expect("fast path on").hits;
    }
    let total = (reps * rounds) as u64;
    assert_eq!(counter_total(&reg, "verifier_accepts_total"), total);
    assert_eq!(hits, total, "bank hits diverged from timed rounds");
    assert_eq!(counter_total(&reg, "verifier_rejects_total"), 0);
    (base, instr)
}

/// The registry's books on the bank-hit path, without the clock.
#[test]
fn telemetry_books_match_bank_hit_rounds() {
    telemetry_arms(16, 2);
}

/// Attached telemetry may cost at most 10% on the bank-hit round:
/// min-of-7 instrumented over min-of-7 baseline.
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn telemetry_costs_at_most_10_percent_on_the_bank_hit_path() {
    let _serial = serial();
    let (base, instr) = telemetry_arms(64, 7);
    let ratio = instr / base;
    assert!(ratio <= 1.10, "telemetry overhead {ratio:.4}x > 1.10x");
}

// ---- the simulator core ---------------------------------------------------

/// One run of the compiler-style (§7.1 "ptx-naive") schedule of
/// experiment 3 on the 8-SM `sim_large` device, one warp per SM over a
/// 64 MiB region so loads run at DRAM latency: returns the wall of
/// `Device::run`, the simulated SM cycles and the checksum.
fn ptx_naive_run(mode: ExecMode) -> (f64, u64, [u8; 32]) {
    let mut cfg = DeviceConfig::sim_large();
    cfg.gmem_bytes = 128 * 1024 * 1024;
    let params = VfParams {
        data_bytes: 64 * 1024 * 1024,
        unroll: 305,
        pattern_pairs: 10,
        iterations: 1,
        smc: SmcMode::Evict,
        inner: None,
        grid_blocks: cfg.num_sms,
        block_threads: 32,
        naive_schedule: true,
        injected_nops: 0,
    };
    let mut dev = Device::new(cfg);
    dev.set_exec_mode(mode);
    let mut session = GpuSession::install(dev, &params, 0xE11A).expect("install");
    let layout = session.build().layout;
    for b in 0..params.grid_blocks {
        let mut c = [0u8; 16];
        for (i, byte) in c.iter_mut().enumerate() {
            *byte = sage_repro::vf::spec::splitmix32(b << 8 | i as u32) as u8;
        }
        session
            .dev
            .memcpy_h2d(layout.challenge_addr(b), &c)
            .expect("challenge upload");
    }
    session
        .dev
        .launch(LaunchParams {
            ctx: session.ctx,
            entry_pc: layout.entry_addr(),
            grid_dim: params.grid_blocks,
            block_dim: params.block_threads,
            regs_per_thread: session.build().regs_per_thread(),
            smem_bytes: session.build().smem_bytes(),
            params: vec![],
        })
        .expect("launch");
    let mut report = None;
    let wall = seconds(|| report = Some(session.dev.run().expect("run")));
    let cycles = report
        .expect("ran")
        .per_sm
        .iter()
        .map(|(_, s)| s.cycles)
        .sum();
    let raw = session
        .dev
        .memcpy_d2h(layout.result_addr(), 32)
        .expect("result readback");
    (wall, cycles, raw.try_into().expect("32 bytes"))
}

/// Per-SM worker threads plus stall fast-forward must beat the
/// sequential tick-per-cycle reference on the latency-exposed schedule:
/// ≥3× from 4 cores up, ≥1× below (the ratio needs real cores).
#[test]
#[ignore = "timing gate: run in --release from ci.sh"]
fn parallel_simulator_beats_sequential_on_the_naive_schedule() {
    let _serial = serial();
    let (par_wall, par_cycles, par_sum) = ptx_naive_run(ExecMode::Parallel);
    let (seq_wall, seq_cycles, seq_sum) = ptx_naive_run(ExecMode::Sequential);
    assert_eq!(par_sum, seq_sum, "execution modes diverged: checksums");
    assert_eq!(par_cycles, seq_cycles, "execution modes diverged: cycles");
    let floor = if cores() >= 4 { 3.0 } else { 1.0 };
    let speedup = seq_wall / par_wall;
    assert!(
        speedup >= floor,
        "parallel mode only {speedup:.2}x over sequential (need {floor}x on {} cores)",
        cores()
    );
}
