//! Hash-chained attestation evidence, Merkle fleet epochs, and
//! freshness-driven trust decay for the SAGE reproduction.
//!
//! The paper's verifier (§5) emits a stream of pass/fail verdicts; this
//! crate turns that stream into *evidence* a third party can check
//! without trusting the service's event log:
//!
//! - [`record`] — one attestation stage (SAKE confirmation, checksum
//!   round, kernel-hash check, channel liveness) as a canonically
//!   encoded, AES-CMAC-authenticated [`EvidenceRecord`],
//! - [`chain`] — the per-device append-only [`EvidenceChain`], each
//!   record hash-linked to its predecessor and keyed from the device's
//!   SAKE session key,
//! - [`merkle`] — the fleet [`epoch_root`] accumulator over device
//!   chain heads, kept level by level in an [`EpochTree`] that serves
//!   per-device [`InclusionProof`]s in O(log n),
//! - [`freshness`] — [`FreshnessPolicy`]-driven trust decay
//!   (`Trusted → Stale → Degraded`) reversed by re-attestation,
//! - [`report`] — the self-contained [`DeviceReport`] and
//!   [`verify_report`], which maps every tampering class (forked chain,
//!   reordered records, re-keyed MACs, stale replay) to one exact
//!   [`ReportError`].
//!
//! Only `sage-crypto` is a dependency, so a relying party can link this
//! crate alone to verify reports.

pub mod chain;
pub mod freshness;
pub mod merkle;
pub mod record;
pub mod report;

pub use chain::{derive_evidence_key, genesis_head, verify_suffix, ChainAnchor, EvidenceChain};
pub use freshness::{Freshness, FreshnessPolicy};
pub use merkle::{
    epoch_root, prove_inclusion, verify_inclusion, EpochLeaf, EpochTree, InclusionProof, ProofStep,
};
pub use record::{EvidencePath, EvidencePayload, EvidenceRecord, StageVerdict, EVIDENCE_VERSION};
pub use report::{verify_report, DeviceReport, FreshnessClaim, ReportError};
