//! Verifier-side bit-exact replay of the checksum computation.
//!
//! The verifier knows everything the device computes from: the static
//! region bytes (it built them), the challenges (it chose them), and the
//! launch geometry. Replaying the [`crate::spec`] semantics yields
//! the expected 8-word grid checksum. Replay runs on the calling thread,
//! block after block: the grids the attestation service replays each
//! round are one or two blocks, where handing blocks to other threads
//! costs more than the replay itself (DESIGN.md §6.3).

use crate::{
    batch::{replay_block_batched, StepTrace},
    codegen::VfBuild,
    params::SmcMode,
    spec::{self, ThreadState},
};

/// Replays one thread block and returns the per-register sums of all its
/// threads' final checksum states.
pub fn replay_block(build: &VfBuild, challenge: &[u8; 16], block: u32) -> [u32; 8] {
    let p = &build.params;
    let region = build.static_region();
    let region_base = build.layout.base;
    let word = |i: usize| {
        u32::from_le_bytes([
            challenge[i],
            challenge[i + 1],
            challenge[i + 2],
            challenge[i + 3],
        ])
    };
    let ch = [word(0), word(4), word(8), word(12)];
    let threads = p.block_threads;
    let mut sums = [0u32; 8];

    let run_iteration = |state: &mut ThreadState, iter: u32| {
        for k in 0..p.unroll {
            spec::step_with_pattern(state, region, region_base, k, iter, p.pattern_pairs);
        }
        if let Some((steps, inner_iters)) = p.inner {
            for _ in 0..inner_iters {
                for s in 0..steps {
                    spec::step_with_pattern(
                        state,
                        region,
                        region_base,
                        p.unroll + s,
                        iter,
                        p.pattern_pairs,
                    );
                }
            }
        }
        spec::iter_fold(state, iter);
    };

    match p.smc {
        SmcMode::Off => {
            // Threads are fully independent.
            for t in 0..threads {
                let gtid = block * threads + t;
                let mut st = spec::init_state(&ch, gtid);
                for iter in 0..p.iterations {
                    run_iteration(&mut st, iter);
                }
                for (sum, &c) in sums.iter_mut().zip(&st.c) {
                    *sum = sum.wrapping_add(c);
                }
            }
        }
        SmcMode::Evict | SmcMode::Cctl => {
            // The self-modifying immediate couples threads of a block:
            // everyone uses the same N per iteration; the block leader's
            // post-update C0 becomes the next N.
            let mut states: Vec<ThreadState> = (0..threads)
                .map(|t| spec::init_state(&ch, block * threads + t))
                .collect();
            let mut n = spec::SMC_INIT;
            for iter in 0..p.iterations {
                for st in states.iter_mut() {
                    run_iteration(st, iter);
                    spec::smc_update(st, n);
                }
                n = states[0].c[0];
            }
            for st in &states {
                for (sum, &c) in sums.iter_mut().zip(&st.c) {
                    *sum = sum.wrapping_add(c);
                }
            }
        }
    }
    sums
}

/// Computes the expected grid checksum (the contents of the 8 result
/// cells after a faithful run): the wrapping sum over every thread's
/// final checksum registers.
///
/// Blocks are replayed in order on the calling thread with the batched
/// SoA engine ([`crate::batch::replay_block_batched`]).
///
/// `challenges` must hold one 16-byte challenge per block.
///
/// # Panics
///
/// Panics if `challenges.len() != grid_blocks`.
pub fn expected_checksum(build: &VfBuild, challenges: &[[u8; 16]]) -> [u32; 8] {
    // The step trace depends only on the build, so every block shares it.
    let trace = StepTrace::new(build);
    sum_blocks(build, challenges, |b, c| {
        replay_block_batched(build, &trace, c, b)
    })
}

/// [`expected_checksum`] through the per-lane scalar [`replay_block`].
///
/// Retained as the oracle the batched engine is tested against and as
/// the scalar baseline of the batched-refill timing gate
/// (`tests/perf_gates.rs`); not used on any production path.
pub fn expected_checksum_scalar(build: &VfBuild, challenges: &[[u8; 16]]) -> [u32; 8] {
    sum_blocks(build, challenges, |b, c| replay_block(build, c, b))
}

/// Wrapping sum of `block(b, challenge)` over every block, in order.
fn sum_blocks(
    build: &VfBuild,
    challenges: &[[u8; 16]],
    block: impl Fn(u32, &[u8; 16]) -> [u32; 8],
) -> [u32; 8] {
    assert_eq!(
        challenges.len(),
        build.params.grid_blocks as usize,
        "one challenge per block required"
    );
    let mut out = [0u32; 8];
    for (b, c) in challenges.iter().enumerate() {
        for (o, s) in out.iter_mut().zip(block(b as u32, c)) {
            *o = o.wrapping_add(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_vf, VfParams};

    fn challenges(n: u32, seed: u8) -> Vec<[u8; 16]> {
        (0..n)
            .map(|b| {
                let mut c = [0u8; 16];
                for (i, byte) in c.iter_mut().enumerate() {
                    *byte = seed
                        .wrapping_mul(31)
                        .wrapping_add(b as u8 * 17)
                        .wrapping_add(i as u8);
                }
                c
            })
            .collect()
    }

    #[test]
    fn deterministic() {
        let p = VfParams::test_tiny();
        let build = build_vf(&p, 0x1000, 7).unwrap();
        let ch = challenges(p.grid_blocks, 1);
        assert_eq!(
            expected_checksum(&build, &ch),
            expected_checksum(&build, &ch)
        );
    }

    #[test]
    fn challenge_dependent() {
        let p = VfParams::test_tiny();
        let build = build_vf(&p, 0x1000, 7).unwrap();
        let a = expected_checksum(&build, &challenges(p.grid_blocks, 1));
        let b = expected_checksum(&build, &challenges(p.grid_blocks, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn image_dependent() {
        // Different fill seeds → different static region → different
        // checksum (code-change detection is the same mechanism).
        let p = VfParams::test_tiny();
        let a = build_vf(&p, 0x1000, 7).unwrap();
        let b = build_vf(&p, 0x1000, 8).unwrap();
        let ch = challenges(p.grid_blocks, 1);
        assert_ne!(expected_checksum(&a, &ch), expected_checksum(&b, &ch));
    }

    #[test]
    fn smc_modes_change_the_value() {
        let mut p = VfParams::test_tiny();
        let off = build_vf(&p, 0x1000, 7).unwrap();
        p.smc = crate::SmcMode::Cctl;
        let smc = build_vf(&p, 0x1000, 7).unwrap();
        let ch = challenges(p.grid_blocks, 1);
        // Different code image (extra instructions) and different
        // semantics.
        assert_ne!(expected_checksum(&off, &ch), expected_checksum(&smc, &ch));
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // The batched whole-grid replay equals the per-block scalar sums
        // added up by hand.
        let mut p = VfParams::test_tiny();
        p.grid_blocks = 6;
        p.iterations = 3;
        let build = build_vf(&p, 0x1000, 7).unwrap();
        let ch = challenges(p.grid_blocks, 3);
        let mut seq = [0u32; 8];
        for b in 0..p.grid_blocks {
            let part = replay_block(&build, &ch[b as usize], b);
            for j in 0..8 {
                seq[j] = seq[j].wrapping_add(part[j]);
            }
        }
        assert_eq!(expected_checksum(&build, &ch), seq);
    }

    #[test]
    fn pooled_matches_unpooled_oracle() {
        // The batched engine against the scalar oracle, whole grid.
        let mut p = VfParams::test_tiny();
        p.grid_blocks = 6;
        p.iterations = 3;
        let build = build_vf(&p, 0x1000, 7).unwrap();
        let ch = challenges(p.grid_blocks, 9);
        assert_eq!(
            expected_checksum(&build, &ch),
            expected_checksum_scalar(&build, &ch)
        );
    }

    #[test]
    #[should_panic(expected = "one challenge per block")]
    fn challenge_count_checked() {
        let p = VfParams::test_tiny();
        let build = build_vf(&p, 0x1000, 7).unwrap();
        let _ = expected_checksum(&build, &challenges(1, 1));
    }
}
