//! Bit-exact equivalence of `Device::run`, parallel and fast-forwarding,
//! against the sequential tick-per-cycle `Device::run_reference`.
//!
//! `run` spreads the SMs over worker threads and jumps the SM clock over
//! windows where all partitions are stalled. Both are pure
//! optimisations: final checksums, per-SM cycle counts and the per-SM
//! stall-reason breakdowns must be *identical* to `run_reference`,
//! across seeds, every self-modifying-code mode and both schedules (the
//! optimised one and §7.1's compiler-style one). This is the guarantee
//! the whole evaluation rests on — a simulator that ran faster by timing
//! differently would invalidate the paper's Table 1 reproduction.

use sage::GpuSession;
use sage_gpu_sim::{Device, DeviceConfig, LaunchParams, RunReport, StallReason};
use sage_vf::{expected_checksum, SmcMode, VfParams};

fn params_for(smc: SmcMode, naive_schedule: bool) -> VfParams {
    let mut p = VfParams::test_tiny();
    p.smc = smc;
    // The compiler-style schedule (§7.1) exposes every load's latency,
    // so fast-forward skips far more stall windows than under the
    // optimised schedule.
    p.naive_schedule = naive_schedule;
    // 4 blocks over 2 SMs: exercises multi-block residency and the
    // commutative cross-SM result aggregation.
    p.grid_blocks = 4;
    if smc == SmcMode::Evict {
        // Evict-mode patches are only observed when each block's loop
        // copy overflows every i-cache level (sim_small L2i = 8 KiB);
        // otherwise stale code executes *by design* and the replay
        // deliberately diverges (§6.4). Grow the loop past L2i so the
        // replay-match sanity check below is valid in this mode too.
        p.unroll = 32;
        p.pattern_pairs = 8;
        p.iterations = 3;
        p.data_bytes = 32 * 1024;
    }
    p
}

fn challenges(n: u32, seed: u8) -> Vec<[u8; 16]> {
    (0..n)
        .map(|b| {
            let mut c = [0u8; 16];
            for (i, byte) in c.iter_mut().enumerate() {
                *byte = seed
                    .wrapping_mul(67)
                    .wrapping_add(b as u8 * 29)
                    .wrapping_add(i as u8 * 3);
            }
            c
        })
        .collect()
}

/// Installs the VF, uploads challenges, runs the grid once (through
/// `run_reference` when `reference`, else `run`) and returns the checksum
/// cells plus the full run report (per-SM stats included).
fn run_once(
    reference: bool,
    smc: SmcMode,
    naive_schedule: bool,
    timing_seed: u64,
) -> ([u32; 8], RunReport) {
    let params = params_for(smc, naive_schedule);
    let mut dev = Device::new(DeviceConfig::sim_small());
    dev.set_timing_seed(timing_seed);
    let mut session = GpuSession::install(dev, &params, 0xAA55).expect("install");
    let layout = session.build().layout;
    if smc == SmcMode::Evict {
        assert!(
            layout.loop_bytes > DeviceConfig::sim_small().l2i_bytes,
            "precondition: Evict loop ({} B) must overflow L2i",
            layout.loop_bytes
        );
    }
    let ch = challenges(params.grid_blocks, timing_seed as u8);
    for (b, c) in ch.iter().enumerate() {
        session
            .dev
            .memcpy_h2d(layout.challenge_addr(b as u32), c)
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
    let report = if reference {
        session.dev.run_reference()
    } else {
        session.dev.run()
    }
    .expect("run");
    let raw = session
        .dev
        .memcpy_d2h(layout.result_addr(), 32)
        .expect("result readback");
    let mut cells = [0u32; 8];
    for (j, cell) in cells.iter_mut().enumerate() {
        *cell = u32::from_le_bytes(raw[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
    }
    // Sanity: both paths must also be *correct*, not merely equal.
    assert_eq!(
        cells,
        expected_checksum(session.build(), &ch),
        "checksum vs verifier replay (reference {reference}, {smc:?}, naive {naive_schedule}, seed {timing_seed})"
    );
    (cells, report)
}

#[test]
fn parallel_fast_forward_is_bit_exact_with_sequential() {
    for (smc, naive) in [
        (SmcMode::Off, false),
        (SmcMode::Evict, false),
        (SmcMode::Cctl, false),
        (SmcMode::Off, true),
        (SmcMode::Evict, true),
    ] {
        for timing_seed in [1u64, 0xD15EA5E, 0xFEED_F00D_u64] {
            let (seq_cells, seq) = run_once(true, smc, naive, timing_seed);
            let (par_cells, par) = run_once(false, smc, naive, timing_seed);

            assert_eq!(
                seq_cells, par_cells,
                "final checksum diverged ({smc:?}, naive {naive}, seed {timing_seed})"
            );
            assert_eq!(
                seq.total_cycles, par.total_cycles,
                "total cycles diverged ({smc:?}, naive {naive}, seed {timing_seed})"
            );
            // Per-SM cycle counts, stall breakdowns, cache and issue
            // counters — all of it, SM by SM.
            assert_eq!(
                seq.per_sm, par.per_sm,
                "per-SM stats diverged ({smc:?}, naive {naive}, seed {timing_seed})"
            );
            assert_eq!(seq.per_sm.len(), 2, "both SMs should have run blocks");
            // The aggregate stall breakdown feeds the paper's "99% of
            // stalls are i-fetch" analysis; pin it explicitly.
            for reason in StallReason::ALL {
                assert_eq!(
                    seq.stats.stall(reason),
                    par.stats.stall(reason),
                    "stall[{}] diverged ({smc:?}, naive {naive}, seed {timing_seed})",
                    reason.label()
                );
            }
            assert_eq!(seq.stats.slot_cycles, par.stats.slot_cycles);
            assert_eq!(seq.stats.issued_total(), par.stats.issued_total());
        }
    }
}

#[test]
fn launch_reports_match_across_modes() {
    let (_, seq) = run_once(true, SmcMode::Evict, false, 7);
    let (_, par) = run_once(false, SmcMode::Evict, false, 7);
    assert_eq!(seq.launches.len(), par.launches.len());
    for (a, b) in seq.launches.iter().zip(&par.launches) {
        assert_eq!(a.completion_cycle, b.completion_cycle);
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.blocks, b.blocks);
    }
}
