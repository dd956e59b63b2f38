//! An Ampere-like GPU simulator: the hardware substrate for the SAGE
//! reproduction.
//!
//! The paper's artifact runs on a real NVIDIA A100; this crate replaces it
//! with a combined *functional* and *cycle-timing* model that preserves
//! every architectural property SAGE's security argument rests on:
//!
//! - **SM structure** — `partitions_per_sm` processing blocks per SM, each
//!   with a warp scheduler issuing one instruction per cycle from up to
//!   `max_warps_per_partition` resident warps ([`sm`]).
//! - **Dual pipelines** — FMA and ALU dispatch ports with a two-cycle
//!   issue interval each; saturating the SM requires interleaving IMAD-
//!   and ALU-class instructions (paper §6.3).
//! - **Scoreboards** — the six per-warp dependency barriers driven by the
//!   control information embedded in each instruction ([`sage_isa::ctrl`]).
//! - **Instruction caches without store coherence** — self-modifying code
//!   becomes visible only through eviction ([`icache`]), the constraint
//!   that shapes the paper's checksum loop (§6.4, §7.5).
//! - **Non-isolated contexts, MMIO access, tappable PCIe** — the attack
//!   surface of the threat model (§3.3) is a first-class API ([`device`]).
//!
//! Timing is deterministic for a given `timing_seed`; seeds model the
//! run-to-run jitter (DRAM, scheduling) that gives the verifier's
//! threshold `T_avg + 2.5σ` something to measure.
//!
//! # Examples
//!
//! ```
//! use sage_gpu_sim::{Device, DeviceConfig, LaunchParams};
//! use sage_isa::{ProgramBuilder, Reg, SpecialReg};
//!
//! // out[tid] = tid * 2
//! let mut dev = Device::new(DeviceConfig::sim_tiny());
//! let ctx = dev.create_context();
//! let out = dev.alloc(256).unwrap();
//! let mut b = ProgramBuilder::new();
//! b.ctrl(sage_isa::CtrlInfo::stall(1).with_write_bar(0));
//! b.ldg(Reg(1), Reg(0), 0); // R0 = param base (ABI)
//! b.s2r(Reg(2), SpecialReg::TidX);
//! b.iadd3(Reg(3), Reg(2), Reg(2).into(), Reg(255));
//! b.ctrl(sage_isa::CtrlInfo::stall(1).with_wait(0));
//! b.lea(Reg(4), Reg(2), Reg(1).into(), 2);
//! b.stg(Reg(4), 0, Reg(3));
//! b.exit();
//! let prog = b.build().unwrap();
//! let code = dev.alloc(prog.byte_len() as u32).unwrap();
//! dev.memcpy_h2d(code, &prog.encode()).unwrap();
//! dev.run_single(LaunchParams {
//!     ctx,
//!     entry_pc: code,
//!     grid_dim: 1,
//!     block_dim: 32,
//!     regs_per_thread: 8,
//!     smem_bytes: 0,
//!     params: vec![out],
//! })
//! .unwrap();
//! let v = dev.memcpy_d2h(out, 8).unwrap();
//! assert_eq!(u32::from_le_bytes(v[4..8].try_into().unwrap()), 2);
//! ```

pub mod channel;
pub mod config;
pub mod ctrlflow;
pub mod dcache;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod icache;
pub mod mem;
pub mod sm;
pub mod stats;
pub(crate) mod telemetry;
pub mod trace;
pub mod warp;

pub use channel::{ChannelId, Command, CommandProcessor, Completion};
pub use config::{DeviceConfig, Latencies};
pub use dcache::{DataCache, DataCacheConfig};
pub use device::{BusTap, ContextId, Device, LaunchParams, LaunchReport, RunReport};
pub use error::{Result, SimError};
pub use fault::{ChaosSpec, DeviceFault, FaultCounters, FaultHook, FaultPlan, RunEffects};
pub use mem::GlobalMemory;
pub use stats::{KernelStats, StallReason};
pub use trace::{TraceBuffer, TraceRecord};

/// Host-side simulation-performance helpers (no simulated effect).
pub(crate) mod host {
    /// Read-prefetch hint for the host cache line at `p`. The simulator's
    /// big flat tables (device memory words, cache-model tag arrays) are
    /// probed at data-dependent addresses; hinting a batch of independent
    /// lines before a dependent walk lets the host overlap the misses.
    #[inline]
    pub fn prefetch_read<T>(p: *const T) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }
}
