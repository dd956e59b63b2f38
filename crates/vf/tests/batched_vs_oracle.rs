//! Seeded differential suite for the batched SoA replay engine.
//!
//! The batched engine (`replay_block_batched` and the
//! `expected_checksum` built on it) must agree bit for bit with the
//! scalar oracle (`replay_block` / `expected_checksum_scalar`)
//! across both code-generator schedules (the optimized "sass-opt" one and
//! the compiler-style "ptx-naive" one), every SMC mode, inner loops, and
//! multiple batch counts — and with the device itself, including runs
//! where a [`FaultPlan`] perturbs the machine. Value-corrupting faults
//! must *diverge* the device from both replay paths equally (that
//! divergence is the detection signal); timing-only faults must leave
//! the checksum untouched.

use sage_gpu_sim::{Device, DeviceConfig, DeviceFault, FaultPlan, LaunchParams};
use sage_vf::{
    build_vf, expected_checksum, expected_checksum_scalar, replay_block_batched, SmcMode,
    StepTrace, VfParams,
};

const BASE: u32 = 4096; // first Device::alloc result

/// The seeded parameter matrix: (label, schedule, SMC mode, inner loop).
#[allow(clippy::type_complexity)]
fn matrix() -> Vec<(&'static str, bool, SmcMode, Option<(usize, u32)>)> {
    vec![
        ("sass-opt/off", false, SmcMode::Off, None),
        ("ptx-naive/off", true, SmcMode::Off, None),
        ("sass-opt/evict", false, SmcMode::Evict, None),
        ("ptx-naive/evict", true, SmcMode::Evict, None),
        ("sass-opt/cctl+inner", false, SmcMode::Cctl, Some((2, 3))),
    ]
}

fn params(naive: bool, smc: SmcMode, inner: Option<(usize, u32)>, threads: u32) -> VfParams {
    VfParams {
        data_bytes: 16 * 1024,
        unroll: 3,
        pattern_pairs: 4,
        iterations: 3,
        smc,
        inner,
        grid_blocks: 2,
        block_threads: threads,
        naive_schedule: naive,
        injected_nops: 0,
    }
}

fn challenges(n: u32, seed: u32) -> Vec<[u8; 16]> {
    (0..n)
        .map(|b| {
            let mut c = [0u8; 16];
            for (i, byte) in c.iter_mut().enumerate() {
                *byte = (sage_vf::spec::splitmix32(seed ^ (b << 8 | i as u32))) as u8;
            }
            c
        })
        .collect()
}

/// Runs a build on a fresh device (optionally under a fault plan) and
/// returns the checksum cells it wrote.
fn run_on_device(
    build: &sage_vf::codegen::VfBuild,
    ch: &[[u8; 16]],
    plan: Option<FaultPlan>,
) -> [u32; 8] {
    let mut dev = Device::new(DeviceConfig::sim_tiny());
    dev.set_hazard_check(true);
    let ctx = dev.create_context();
    let base = dev.alloc(build.layout.total_bytes).unwrap();
    assert_eq!(base, build.layout.base);
    dev.memcpy_h2d(base, &build.image).unwrap();
    for (b, c) in ch.iter().enumerate() {
        dev.memcpy_h2d(build.layout.challenge_addr(b as u32), c)
            .unwrap();
    }
    if let Some(plan) = plan {
        dev.install_fault_hook(Box::new(plan));
    }
    dev.run_single(LaunchParams {
        ctx,
        entry_pc: build.layout.entry_addr(),
        grid_dim: build.params.grid_blocks,
        block_dim: build.params.block_threads,
        regs_per_thread: build.regs_per_thread(),
        smem_bytes: build.smem_bytes(),
        params: vec![],
    })
    .unwrap();
    let raw = dev.memcpy_d2h(build.layout.result_addr(), 32).unwrap();
    let mut cells = [0u32; 8];
    for (j, cell) in cells.iter_mut().enumerate() {
        *cell = u32::from_le_bytes(raw[j * 4..j * 4 + 4].try_into().unwrap());
    }
    cells
}

/// Batched engine vs scalar oracle, whole-checksum and per-block, across
/// the schedule/SMC matrix, three build seeds, and three batch counts.
#[test]
fn batched_matches_scalar_oracle_across_matrix() {
    for (label, naive, smc, inner) in matrix() {
        for seed in [1u32, 0xBEEF, 0x00C0FFEE] {
            for threads in [32u32, 64, 96] {
                let p = params(naive, smc, inner, threads);
                let build = build_vf(&p, BASE, seed).unwrap();
                let ch = challenges(p.grid_blocks, seed.rotate_left(7));
                let oracle = expected_checksum_scalar(&build, &ch);
                let batched = expected_checksum(&build, &ch);
                assert_eq!(
                    batched, oracle,
                    "{label}: batched != scalar oracle (seed {seed:#x}, {threads} threads)"
                );
                // Per-block too, so a failure localizes.
                let trace = StepTrace::new(&build);
                for (b, c) in ch.iter().enumerate() {
                    let got = replay_block_batched(&build, &trace, c, b as u32);
                    let want = sage_vf::replay::replay_block(&build, c, b as u32);
                    assert_eq!(got, want, "{label}: block {b} diverged (seed {seed:#x})");
                }
            }
        }
    }
}

/// The device, the batched engine and the scalar oracle all agree on a
/// fault-free run, for both schedules. Evict mode is excluded here: with
/// a cache-fitting loop the device *correctly* executes stale code and
/// diverges from any replay (see `smc_evict_requires_loop_larger_than_caches`
/// in `device_match.rs`) — the engine-vs-oracle matrix above still covers
/// Evict's replay semantics.
#[test]
fn device_matches_both_replay_paths_without_faults() {
    for (label, naive, smc, inner) in matrix() {
        if smc == SmcMode::Evict {
            continue;
        }
        let p = params(naive, smc, inner, 32);
        let build = build_vf(&p, BASE, 0xF00D).unwrap();
        let ch = challenges(p.grid_blocks, 0xA11CE);
        let device = run_on_device(&build, &ch, None);
        assert_eq!(
            device,
            expected_checksum(&build, &ch),
            "{label}: device vs batched"
        );
        assert_eq!(
            device,
            expected_checksum_scalar(&build, &ch),
            "{label}: device vs oracle"
        );
    }
}

/// A fault plan that flips bits inside the checksummed fill must make
/// the device diverge from the batched replay — and the batched replay
/// must still equal the scalar oracle, so both paths would reject the
/// corrupted device identically. The traversal is pseudo-random (§7.3:
/// inclusion is probabilistic), so the plan spreads 16 flips across the
/// fill and the iteration count is raised until per-word inclusion is
/// high; for the fixed seeds below the detection is then deterministic.
#[test]
fn value_fault_diverges_device_but_not_the_engines() {
    for naive in [false, true] {
        let mut p = params(naive, SmcMode::Off, None, 32);
        p.iterations = 40;
        let build = build_vf(&p, BASE, 0x5EED).unwrap();
        let ch = challenges(p.grid_blocks, 0xD1FF);
        let fill_base = build.layout.base + build.layout.fill_off;
        let fill_bytes = p.data_bytes - build.layout.fill_off;
        let mut plan = FaultPlan::new();
        for k in 0..16u32 {
            // Inside the pseudo-random fill: checksummed, never executed.
            let flip = DeviceFault::FlipBit {
                addr: fill_base + k * (fill_bytes / 16),
                bit: 3,
            };
            plan = plan.at(0, flip);
        }
        let device = run_on_device(&build, &ch, Some(plan));
        let batched = expected_checksum(&build, &ch);
        let oracle = expected_checksum_scalar(&build, &ch);
        assert_eq!(batched, oracle, "naive={naive}: engines must agree");
        assert_ne!(
            device, batched,
            "naive={naive}: flipped fill bit must change the device checksum"
        );
    }
}

/// Timing-only faults (SM stalls, clock skew) move the clock, not the
/// data: the device's checksum still matches the batched engine exactly.
#[test]
fn timing_faults_leave_the_checksum_bit_exact() {
    for naive in [false, true] {
        let p = params(naive, SmcMode::Off, None, 32);
        let build = build_vf(&p, BASE, 0x7A21).unwrap();
        let ch = challenges(p.grid_blocks, 0x5107);
        let plan = FaultPlan::new()
            .at(
                0,
                DeviceFault::StallSm {
                    sm_id: 0,
                    cycles: 500,
                },
            )
            .at(0, DeviceFault::ClockSkew { cycles: 1000 });
        let device = run_on_device(&build, &ch, Some(plan));
        assert_eq!(
            device,
            expected_checksum(&build, &ch),
            "naive={naive}: timing faults must not perturb values"
        );
    }
}

/// Property-based twin of the seeded sweep. Gated like the rest of the
/// proptest suites: build with `--features proptest` after re-adding the
/// dev-dependency locally.
#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_params() -> impl Strategy<Value = VfParams> {
        (
            1usize..5, // unroll
            0usize..6, // pattern pairs
            1u32..4,   // iterations
            1u32..3,   // blocks
            prop::sample::select(vec![32u32, 64, 96]),
            prop::sample::select(vec![SmcMode::Off, SmcMode::Cctl, SmcMode::Evict]),
            prop::option::of((1usize..3, 1u32..3)),
            any::<bool>(),
        )
            .prop_map(
                |(unroll, pattern_pairs, iterations, grid_blocks, threads, smc, inner, naive)| {
                    VfParams {
                        data_bytes: 16 * 1024,
                        unroll,
                        pattern_pairs,
                        iterations,
                        smc,
                        inner,
                        grid_blocks,
                        block_threads: threads,
                        naive_schedule: naive,
                        injected_nops: 0,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_equals_scalar_oracle(params in arb_params(), seed in any::<u32>()) {
            let build = build_vf(&params, BASE, seed).unwrap();
            let ch = challenges(params.grid_blocks, seed.wrapping_mul(0x9E3779B9));
            prop_assert_eq!(
                expected_checksum(&build, &ch),
                expected_checksum_scalar(&build, &ch),
                "params {:?}", params
            );
        }
    }
}
