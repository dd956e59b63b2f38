//! The SAGE verification function (VF): generator, device layout, and
//! bit-exact verifier-side replay (paper §5, §6.5).
//!
//! The VF is the self-verifying checksum kernel at the core of SAGE. This
//! crate builds it as native microcode for the simulated GPU:
//!
//! - [`params`] — the experiment knobs (unroll factor, busy-wait pattern
//!   length, iterations, self-modifying-code mode, inner loop);
//! - [`layout`] — the device memory image: init/epilog code, the
//!   reference loop image, pseudo-random fill (together the checksummed
//!   region), per-block *executable* loop copies (patched by
//!   self-modifying code), challenge table and result cells;
//! - [`spec`] — the pure-Rust specification of every arithmetic step,
//!   shared verbatim by the code generator and the replay;
//! - [`codegen`] — emits the optimized microcode (interleaved FMA/ALU
//!   shift-and-add busy-wait, scoreboarded loads, minimal stalls) or the
//!   deliberately conservative "PTXAS-style" schedule used for the §7.1
//!   comparison;
//! - [`replay`] — the verifier's bit-exact recomputation of the expected
//!   checksum, on the calling thread;
//! - [`coverage`] — the §7.3 memory-region inclusion-probability
//!   analysis.
//!
//! # Determinism note (deviation from the paper, documented in DESIGN.md)
//!
//! The pseudo-random checksum traversal covers the *static* region
//! `[base, base + data_bytes)` — init, epilog, the reference loop image
//! and fill. The per-block executable copies live right after it: they
//! are fingerprinted indirectly (their initial bytes equal the reference
//! image; their *execution* is bound to the checksum by the
//! self-modifying immediate), while keeping the traversal independent of
//! cross-block timing so the verifier can replay it exactly.

pub mod bank;
pub mod batch;
pub mod codegen;
pub mod coverage;
pub mod layout;
pub mod params;
pub mod replay;
pub mod spec;

pub use bank::{BankConfig, BankCounters, ChallengeBank, Fingerprint, PrecomputedRound};
pub use batch::{replay_block_batched, StepTrace};
pub use codegen::{build_vf, build_vf_inline};
pub use layout::VfLayout;
pub use params::{SmcMode, VfParams};
pub use replay::{expected_checksum, expected_checksum_scalar};
