//! Regression test for self-modifying-code staleness under the
//! pre-decoded instruction cache (paper §6.4/§7.5).
//!
//! The instruction caches store *decoded* instructions per line and are
//! not coherent with stores: a kernel that patches the immediate of one
//! of its own instructions must keep executing the stale value while the
//! line is resident, and must observe the patched value once the line has
//! been evicted by capacity. Both directions are pinned here end to end —
//! a device-visible guarantee the SAGE checksum's SMC step depends on —
//! through both `Device::run` and the tick-per-cycle `run_reference`, so
//! neither the decoded-line optimisation nor fast-forwarding can silently
//! break eviction semantics.

use sage_gpu_sim::{Device, DeviceConfig, LaunchParams};
use sage_isa::{encode::IMM_BYTE_OFFSET, CmpOp, Operand, Pred, PredReg, ProgramBuilder, Reg};

const STALE: u32 = 0x11;
const PATCHED: u32 = 0x99;

/// Builds a kernel that executes `MOV R4, STALE`, patches that
/// instruction's immediate to `PATCHED` in device memory, optionally
/// thrashes the instruction caches with an 8 KiB filler call (2× the
/// tiny device's L2i), then re-executes the patched instruction and
/// stores the observed R4 to the output cell.
fn smc_kernel(evict_via_filler: bool) -> sage_isa::Program {
    let mut b = ProgramBuilder::new();
    // ABI: R0 = param base; params = [out, patch_addr, patch_value].
    b.ldg(Reg(1), Reg(0), 0);
    b.ldg(Reg(2), Reg(0), 4);
    b.ldg(Reg(3), Reg(0), 8);
    b.mov(Reg(10), Operand::Imm(0));
    b.label("loop");
    b.label("smc");
    b.mov(Reg(4), Operand::Imm(STALE));
    b.stg(Reg(2), 0, Reg(3)); // patch the immediate bytes in memory
    if evict_via_filler {
        b.cal("filler");
    }
    b.isetp(PredReg(0), CmpOp::Ne, Reg(10), Operand::Imm(1));
    b.iadd(Reg(10), Reg(10), Operand::Imm(1));
    b.pred(Pred::on(PredReg(0)));
    b.bra("loop");
    b.stg(Reg(1), 0, Reg(4));
    b.exit();
    if evict_via_filler {
        b.label("filler");
        for _ in 0..512 {
            b.nop();
        }
        b.ret();
    }
    b.build().expect("labels resolve")
}

/// Runs the kernel (through `run_reference` when `reference`, else
/// `run`) and returns the value the second pass observed.
fn observed_immediate(evict_via_filler: bool, reference: bool) -> u32 {
    let mut dev = Device::new(DeviceConfig::sim_tiny());
    let ctx = dev.create_context();
    let mut prog = smc_kernel(evict_via_filler);
    let code = dev.alloc(prog.byte_len() as u32).unwrap();
    let smc_pc = code + prog.label_addr("smc").unwrap();
    prog.relocate(code);
    dev.memcpy_h2d(code, &prog.encode()).unwrap();
    let out = dev.alloc(4).unwrap();
    let id = dev
        .launch(LaunchParams {
            ctx,
            entry_pc: code,
            grid_dim: 1,
            block_dim: 32,
            regs_per_thread: 16,
            smem_bytes: 0,
            params: vec![out, smc_pc + IMM_BYTE_OFFSET as u32, PATCHED],
        })
        .unwrap();
    let report = if reference {
        dev.run_reference()
    } else {
        dev.run()
    }
    .unwrap();
    assert!(report.launches[id].completion_cycle > 0);
    // The store really did land in memory in both variants.
    let mem = dev.peek(smc_pc + IMM_BYTE_OFFSET as u32, 4).unwrap();
    assert_eq!(u32::from_le_bytes(mem.try_into().unwrap()), PATCHED);
    let raw = dev.peek(out, 4).unwrap();
    u32::from_le_bytes(raw.try_into().unwrap())
}

#[test]
fn patched_immediate_is_stale_while_line_is_resident() {
    for reference in [false, true] {
        assert_eq!(
            observed_immediate(false, reference),
            STALE,
            "resident line must serve the pre-decoded (stale) instruction (reference {reference})"
        );
    }
}

#[test]
fn patched_immediate_is_observed_after_capacity_eviction() {
    for reference in [false, true] {
        assert_eq!(
            observed_immediate(true, reference),
            PATCHED,
            "capacity eviction must expose the patched bytes (reference {reference})"
        );
    }
}
