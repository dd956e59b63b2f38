//! Verifiable per-device trust reports: everything a relying party
//! needs to judge one device — a sealed-epoch anchor, a Merkle
//! inclusion proof, the chain suffix since the seal, and a freshness
//! claim — verified standalone by [`verify_report`], with no access to
//! the service's event log.

use std::error::Error;
use std::fmt;

use sage_crypto::canon::{self, CanonError, Reader};
use sage_crypto::cmac::{cmac_aes128, cmac_verify};

use crate::chain::{decode_records, encode_records, verify_suffix};
use crate::freshness::{Freshness, FreshnessPolicy};
use crate::merkle::{verify_inclusion, EpochLeaf, InclusionProof};
use crate::record::{EvidenceRecord, StageVerdict};

/// Why a report (or an evidence suffix) failed verification. Each
/// tampering class maps to exactly one variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportError {
    /// The report bytes do not decode canonically.
    Codec(CanonError),
    /// The report-level CMAC does not verify — the envelope (including
    /// the freshness claim) was modified or re-keyed.
    BadReportTag,
    /// The report's epoch root differs from the root the relying party
    /// trusts for that epoch.
    BadEpochRoot,
    /// The Merkle inclusion proof does not connect the device's leaf to
    /// the epoch root.
    BadProof,
    /// A suffix record is out of sequence (reordered, dropped, or
    /// duplicated records).
    BadSeq {
        /// The sequence number the chain required next.
        expected: u64,
        /// The sequence number the record carried.
        got: u64,
    },
    /// A record's AES-CMAC tag does not verify (modified or re-keyed
    /// record).
    BadTag {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// A record's `prev` does not match its predecessor's link hash (a
    /// forked or substituted history).
    BrokenLink {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// The freshness claim contradicts the evidence it rides with.
    InconsistentClaim,
    /// The claimed trust level is fresher than what the policy yields at
    /// the verifier's clock — a stale report replayed after decay.
    StaleEvidence {
        /// The level the report claims.
        claimed: Freshness,
        /// The level recomputed at the verifier's `now`.
        recomputed: Freshness,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Codec(e) => write!(f, "report does not decode: {e}"),
            ReportError::BadReportTag => write!(f, "report envelope MAC does not verify"),
            ReportError::BadEpochRoot => write!(f, "epoch root does not match the trusted root"),
            ReportError::BadProof => write!(f, "inclusion proof does not reach the epoch root"),
            ReportError::BadSeq { expected, got } => {
                write!(f, "record out of sequence: expected {expected}, got {got}")
            }
            ReportError::BadTag { seq } => write!(f, "record {seq}: MAC does not verify"),
            ReportError::BrokenLink { seq } => {
                write!(f, "record {seq}: hash link does not match its predecessor")
            }
            ReportError::InconsistentClaim => {
                write!(f, "freshness claim contradicts the carried evidence")
            }
            ReportError::StaleEvidence {
                claimed,
                recomputed,
            } => write!(
                f,
                "stale evidence: claims {} but recomputes to {}",
                claimed.as_str(),
                recomputed.as_str()
            ),
        }
    }
}

impl Error for ReportError {}

impl From<CanonError> for ReportError {
    fn from(e: CanonError) -> ReportError {
        ReportError::Codec(e)
    }
}

impl ReportError {
    /// Stable cause label (test assertions, telemetry).
    pub fn cause(&self) -> &'static str {
        match self {
            ReportError::Codec(_) => "codec",
            ReportError::BadReportTag => "bad_report_tag",
            ReportError::BadEpochRoot => "bad_epoch_root",
            ReportError::BadProof => "bad_proof",
            ReportError::BadSeq { .. } => "bad_seq",
            ReportError::BadTag { .. } => "bad_tag",
            ReportError::BrokenLink { .. } => "broken_link",
            ReportError::InconsistentClaim => "inconsistent_claim",
            ReportError::StaleEvidence { .. } => "stale_evidence",
        }
    }
}

/// The freshness statement a report makes: the policy, the anchor, the
/// time the statement was made, and the level it implies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FreshnessClaim {
    /// The decay policy in force.
    pub policy: FreshnessPolicy,
    /// Virtual time of the device's newest passing stage.
    pub last_pass_at: Option<u64>,
    /// Virtual time the claim was made.
    pub asserted_at: u64,
    /// The trust level at `asserted_at` under `policy`.
    pub level: Freshness,
}

impl FreshnessClaim {
    fn encode(&self, out: &mut Vec<u8>) {
        self.policy.encode(out);
        canon::put_u8(out, self.last_pass_at.is_some() as u8);
        canon::put_u64(out, self.last_pass_at.unwrap_or(0));
        canon::put_u64(out, self.asserted_at);
        canon::put_u8(out, self.level.tag());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<FreshnessClaim, CanonError> {
        let policy = FreshnessPolicy::decode_from(r)?;
        let present = r.u8()?;
        if present > 1 {
            return Err(CanonError::BadTag {
                field: "last_pass presence",
                value: present,
            });
        }
        let raw = r.u64()?;
        Ok(FreshnessClaim {
            policy,
            last_pass_at: (present == 1).then_some(raw),
            asserted_at: r.u64()?,
            level: Freshness::from_tag(r.u8()?)?,
        })
    }
}

/// A self-contained trust report for one device.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeviceReport {
    /// Which fleet epoch anchors the report.
    pub epoch: u64,
    /// The device's leaf in that epoch (name, sealed head, sealed seq).
    pub leaf: EpochLeaf,
    /// The sealed epoch root.
    pub epoch_root: [u8; 32],
    /// Merkle proof connecting the leaf to the root.
    pub proof: InclusionProof,
    /// Chain records appended since the seal, oldest first.
    pub suffix: Vec<EvidenceRecord>,
    /// The freshness statement.
    pub claim: FreshnessClaim,
    /// Envelope AES-CMAC over everything above, under the device's
    /// evidence key — the claim and proof travel authenticated.
    pub tag: [u8; 16],
}

impl DeviceReport {
    /// The canonical bytes the envelope MAC covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        canon::put_u64(&mut out, self.epoch);
        self.leaf.encode(&mut out);
        canon::put_fixed(&mut out, &self.epoch_root);
        self.proof.encode(&mut out);
        out.extend_from_slice(&encode_records(&self.suffix));
        self.claim.encode(&mut out);
        out
    }

    /// Full canonical encoding (transport form).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.signed_bytes();
        canon::put_fixed(&mut out, &self.tag);
        out
    }

    /// Decodes a report (the input must be exactly one report).
    pub fn decode(bytes: &[u8]) -> Result<DeviceReport, CanonError> {
        let mut r = Reader::new(bytes);
        let report = DeviceReport::decode_from(&mut r)?;
        r.finish()?;
        Ok(report)
    }

    /// Decodes one report from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<DeviceReport, CanonError> {
        Ok(DeviceReport {
            epoch: r.u64()?,
            leaf: EpochLeaf::decode_from(r)?,
            epoch_root: r.fixed::<32>()?,
            proof: InclusionProof::decode_from(r)?,
            suffix: decode_records(r)?,
            claim: FreshnessClaim::decode_from(r)?,
            tag: r.fixed::<16>()?,
        })
    }

    /// Builds and authenticates a report under the device's evidence key.
    #[allow(clippy::too_many_arguments)]
    pub fn seal(
        epoch: u64,
        leaf: EpochLeaf,
        epoch_root: [u8; 32],
        proof: InclusionProof,
        suffix: Vec<EvidenceRecord>,
        claim: FreshnessClaim,
        key: &[u8; 16],
    ) -> DeviceReport {
        let mut report = DeviceReport {
            epoch,
            leaf,
            epoch_root,
            proof,
            suffix,
            claim,
            tag: [0u8; 16],
        };
        report.tag = cmac_aes128(key, &report.signed_bytes());
        report
    }
}

/// Verifies a [`DeviceReport`] standalone and returns the device's
/// trust level at the relying party's clock `now`.
///
/// Inputs a relying party must hold out of band: the epoch root it
/// trusts for `report.epoch` (from the fleet ledger) and the device's
/// evidence key (over a confidential channel). Checks run in fixed
/// order so every tampering class maps to one exact [`ReportError`]:
///
/// 1. envelope MAC (`BadReportTag`),
/// 2. epoch root against the trusted root (`BadEpochRoot`),
/// 3. Merkle inclusion of the device's leaf (`BadProof`),
/// 4. suffix sequence / record MACs / hash links
///    (`BadSeq` / `BadTag` / `BrokenLink`),
/// 5. claim consistency with the carried evidence
///    (`InconsistentClaim`),
/// 6. freshness recomputation at `now` — a claim fresher than the
///    policy allows is a replayed stale report (`StaleEvidence`).
pub fn verify_report(
    report: &DeviceReport,
    trusted_root: &[u8; 32],
    key: &[u8; 16],
    now: u64,
) -> Result<Freshness, ReportError> {
    if !cmac_verify(key, &report.signed_bytes(), &report.tag) {
        return Err(ReportError::BadReportTag);
    }
    if &report.epoch_root != trusted_root {
        return Err(ReportError::BadEpochRoot);
    }
    if !verify_inclusion(&report.leaf, &report.proof, &report.epoch_root) {
        return Err(ReportError::BadProof);
    }
    verify_suffix(&report.suffix, report.leaf.head, report.leaf.seq, key)?;

    // The suffix is the newest part of the chain, so if it contains any
    // passing stage the claim's anchor must be exactly the newest one.
    let suffix_last_pass = report
        .suffix
        .iter()
        .rev()
        .find(|r| r.payload.verdict() == StageVerdict::Pass)
        .map(|r| r.at);
    if let Some(t) = suffix_last_pass {
        if report.claim.last_pass_at != Some(t) {
            return Err(ReportError::InconsistentClaim);
        }
    }
    if let Some(t) = report.claim.last_pass_at {
        if t > report.claim.asserted_at {
            return Err(ReportError::InconsistentClaim);
        }
    }
    // The claimed level must be what the policy yields at assertion time.
    if report.claim.level
        != report
            .claim
            .policy
            .level(report.claim.last_pass_at, report.claim.asserted_at)
    {
        return Err(ReportError::InconsistentClaim);
    }

    let recomputed = report.claim.policy.level(report.claim.last_pass_at, now);
    if report.claim.level < recomputed {
        return Err(ReportError::StaleEvidence {
            claimed: report.claim.level,
            recomputed,
        });
    }
    Ok(recomputed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::EvidenceChain;
    use crate::merkle::{epoch_root, prove_inclusion};
    use crate::record::EvidencePayload;

    const POLICY: FreshnessPolicy = FreshnessPolicy {
        stale_after: 100,
        degraded_after: 300,
    };

    /// Builds a two-device fleet, seals an epoch over their heads, then
    /// appends two post-seal records to gpu-a and reports on it.
    fn fixture() -> (DeviceReport, [u8; 32], [u8; 16]) {
        let mut a = EvidenceChain::new("gpu-a", &[0xA1; 16]);
        let mut b = EvidenceChain::new("gpu-b", &[0xB2; 16]);
        for i in 0..3 {
            a.append(
                10 * (i + 1),
                EvidencePayload::ChannelLiveness {
                    nonce: i,
                    verdict: StageVerdict::Pass,
                },
            );
            b.append(
                10 * (i + 1) + 5,
                EvidencePayload::ChannelLiveness {
                    nonce: i,
                    verdict: StageVerdict::Pass,
                },
            );
        }
        let leaves = vec![
            EpochLeaf {
                device: "gpu-a".into(),
                head: a.head(),
                seq: a.seq(),
            },
            EpochLeaf {
                device: "gpu-b".into(),
                head: b.head(),
                seq: b.seq(),
            },
        ];
        let root = epoch_root(&leaves);
        let proof = prove_inclusion(&leaves, 0);
        let leaf = leaves[0].clone();

        // Two more rounds after the seal.
        for i in 3..5 {
            a.append(
                10 * (i + 1),
                EvidencePayload::ChannelLiveness {
                    nonce: i,
                    verdict: StageVerdict::Pass,
                },
            );
        }
        let asserted_at = 60;
        let claim = FreshnessClaim {
            policy: POLICY,
            last_pass_at: a.last_pass_at(),
            asserted_at,
            level: POLICY.level(a.last_pass_at(), asserted_at),
        };
        let key = a.evidence_key();
        let report = DeviceReport::seal(
            1,
            leaf,
            root,
            proof,
            a.suffix(3).unwrap().to_vec(),
            claim,
            &key,
        );
        (report, root, key)
    }

    #[test]
    fn good_report_verifies_and_round_trips() {
        let (report, root, key) = fixture();
        assert_eq!(
            verify_report(&report, &root, &key, 80),
            Ok(Freshness::Trusted)
        );
        let decoded = DeviceReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(
            verify_report(&decoded, &root, &key, 80),
            Ok(Freshness::Trusted)
        );
    }

    #[test]
    fn each_tamper_maps_to_its_exact_cause() {
        let (report, root, key) = fixture();

        // Envelope tamper: bump the claimed level.
        let mut r = report.clone();
        r.claim.level = Freshness::Trusted;
        r.claim.asserted_at += 1;
        assert_eq!(
            verify_report(&r, &root, &key, 80),
            Err(ReportError::BadReportTag)
        );

        // Wrong trusted root.
        assert_eq!(
            verify_report(&report, &[0xFF; 32], &key, 80),
            Err(ReportError::BadEpochRoot)
        );

        // Wrong key (re-keyed envelope fails first).
        assert_eq!(
            verify_report(&report, &root, &[0xEE; 16], 80),
            Err(ReportError::BadReportTag)
        );

        // Forked suffix: re-seal the envelope (attacker with the key
        // still cannot fork without breaking a link).
        let mut r = report.clone();
        let rec = &r.suffix[0];
        r.suffix[0] = EvidenceRecord::seal(rec.seq, rec.at, rec.payload.clone(), [0xAB; 32], &key);
        let r = DeviceReport::seal(
            r.epoch,
            r.leaf,
            r.epoch_root,
            r.proof,
            r.suffix,
            r.claim,
            &key,
        );
        assert_eq!(
            verify_report(&r, &root, &key, 80),
            Err(ReportError::BrokenLink { seq: 4 })
        );
    }

    #[test]
    fn replayed_stale_report_is_rejected() {
        let (report, root, key) = fixture();
        // Fresh: fine. Replayed after the trusted window: exact cause.
        assert_eq!(
            verify_report(&report, &root, &key, 80),
            Ok(Freshness::Trusted)
        );
        assert_eq!(
            verify_report(&report, &root, &key, 50 + 150),
            Err(ReportError::StaleEvidence {
                claimed: Freshness::Trusted,
                recomputed: Freshness::Stale,
            })
        );
        assert_eq!(
            verify_report(&report, &root, &key, 50 + 400),
            Err(ReportError::StaleEvidence {
                claimed: Freshness::Trusted,
                recomputed: Freshness::Degraded,
            })
        );
    }

    #[test]
    fn claim_must_match_carried_evidence() {
        let (report, root, key) = fixture();
        // A claim anchored later than the newest evidenced pass is
        // inconsistent even when correctly MAC'd.
        let mut r = report.clone();
        r.claim.last_pass_at = Some(59);
        r.claim.level = POLICY.level(r.claim.last_pass_at, r.claim.asserted_at);
        let r = DeviceReport::seal(
            r.epoch,
            r.leaf,
            r.epoch_root,
            r.proof,
            r.suffix,
            r.claim,
            &key,
        );
        assert_eq!(
            verify_report(&r, &root, &key, 80),
            Err(ReportError::InconsistentClaim)
        );
    }
}
