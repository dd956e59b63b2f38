//! The per-device evidence chain: an append-only, hash-linked sequence
//! of [`EvidenceRecord`]s, authenticated with a key derived from the
//! device's SAKE session key.

use sage_crypto::canon::{CanonError, Reader};
use sage_crypto::Sha256;

use crate::record::{EvidencePayload, EvidenceRecord, StageVerdict};
use crate::report::ReportError;

/// Derives the chain's AES-CMAC key from the SAKE session key with a
/// domain label, so evidence tags can never collide with channel or
/// protocol MACs under the same session key.
pub fn derive_evidence_key(session_key: &[u8; 16]) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(b"sage-evidence-key:");
    h.update(session_key);
    let d = h.finalize();
    d[..16].try_into().expect("16 bytes")
}

/// The chain's genesis head: a device-bound constant every chain starts
/// from, so records can never be grafted between devices even under the
/// same key.
pub fn genesis_head(device: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"sage-evidence-genesis:");
    h.update(&(device.len() as u64).to_le_bytes());
    h.update(device.as_bytes());
    h.finalize()
}

/// Where a chain's retained records start: the sequence number and
/// head of the newest record no longer held in memory, plus the
/// freshness anchor at that point. A fresh chain's anchor is
/// [`ChainAnchor::genesis`]; [`EvidenceChain::checkpoint`] moves it to
/// the current head once a sealed epoch commits that head.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainAnchor {
    /// Sequence number of the newest record before the retained suffix
    /// (0 at genesis).
    pub seq: u64,
    /// Link hash the first retained record chains from.
    pub head: [u8; 32],
    /// Virtual time of the newest passing record at or before `seq`.
    pub last_pass_at: Option<u64>,
}

impl ChainAnchor {
    /// The anchor of a chain that has never been checkpointed.
    pub fn genesis(device: &str) -> ChainAnchor {
        ChainAnchor {
            seq: 0,
            head: genesis_head(device),
            last_pass_at: None,
        }
    }
}

/// A device's append-only evidence chain. Only the records after its
/// [`ChainAnchor`] stay in memory: a sealed epoch's inclusion proof
/// commits to everything up to the anchor, so
/// [`EvidenceChain::checkpoint`] can drop it.
#[derive(Clone, Debug)]
pub struct EvidenceChain {
    device: String,
    key: [u8; 16],
    anchor: ChainAnchor,
    /// Records `anchor.seq + 1 ..= seq()`, seq-contiguous.
    records: Vec<EvidenceRecord>,
    head: [u8; 32],
    /// Virtual time of the newest passing record — set on append and
    /// carried across checkpoints, so it never depends on what is still
    /// retained.
    last_pass_at: Option<u64>,
    /// Reused across appends ([`Sha256::finalize_reset`]) so each link
    /// hash costs no allocation or re-buffering.
    hasher: Sha256,
}

impl EvidenceChain {
    /// Starts an empty chain for `device`, keyed from the SAKE session
    /// key.
    pub fn new(device: &str, session_key: &[u8; 16]) -> EvidenceChain {
        let anchor = ChainAnchor::genesis(device);
        EvidenceChain {
            device: device.to_string(),
            key: derive_evidence_key(session_key),
            anchor,
            records: Vec::new(),
            head: anchor.head,
            last_pass_at: None,
            hasher: Sha256::new(),
        }
    }

    /// Rebuilds a chain from its anchor and the records after it
    /// (crash-restore path). The records are re-verified link by link
    /// from the anchor; a suffix that does not re-hash to the recorded
    /// structure is rejected. Whether the anchor itself is trustworthy
    /// is the caller's check (a sealed epoch's leaf commits to it).
    pub fn restore(
        device: &str,
        evidence_key: [u8; 16],
        anchor: ChainAnchor,
        records: Vec<EvidenceRecord>,
    ) -> Result<EvidenceChain, ReportError> {
        let head = verify_suffix(&records, anchor.head, anchor.seq, &evidence_key)?;
        let last_pass_at = records
            .iter()
            .rev()
            .find(|r| r.payload.verdict() == StageVerdict::Pass)
            .map(|r| r.at)
            .or(anchor.last_pass_at);
        Ok(EvidenceChain {
            device: device.to_string(),
            key: evidence_key,
            anchor,
            records,
            head,
            last_pass_at,
            hasher: Sha256::new(),
        })
    }

    /// The device this chain belongs to.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The chain's MAC key (needed by an out-of-process verifier; hand
    /// it over a confidential channel only).
    pub fn evidence_key(&self) -> [u8; 16] {
        self.key
    }

    /// Current head: the link hash of the newest record, or the genesis
    /// head while empty. This is the value a fleet epoch seals.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Sequence number of the newest record (0 while empty). Counts the
    /// whole history, checkpointed records included.
    pub fn seq(&self) -> u64 {
        self.records.last().map_or(self.anchor.seq, |r| r.seq)
    }

    /// Where the retained records start.
    pub fn anchor(&self) -> ChainAnchor {
        self.anchor
    }

    /// The retained records (those after the anchor), oldest first.
    pub fn records(&self) -> &[EvidenceRecord] {
        &self.records
    }

    /// Records with `seq > after_seq`, oldest first — the chain suffix a
    /// [`crate::report::DeviceReport`] carries past a sealed epoch.
    /// `None` if `after_seq` precedes the anchor: those records were
    /// checkpointed away.
    pub fn suffix(&self, after_seq: u64) -> Option<&[EvidenceRecord]> {
        let skip = after_seq
            .checked_sub(self.anchor.seq)?
            .min(self.records.len() as u64);
        Some(&self.records[skip as usize..])
    }

    /// Appends one attested stage at virtual time `at`, returning the
    /// sealed record. The new head is the record's link hash, computed
    /// with the chain's reusable streaming hasher.
    pub fn append(&mut self, at: u64, payload: EvidencePayload) -> &EvidenceRecord {
        let seq = self.seq() + 1;
        if payload.verdict() == StageVerdict::Pass {
            self.last_pass_at = Some(at);
        }
        let rec = EvidenceRecord::seal(seq, at, payload, self.head, &self.key);
        self.hasher.update(&rec.encode());
        self.head = self.hasher.finalize_reset();
        self.records.push(rec);
        self.records.last().expect("just pushed")
    }

    /// Moves the anchor to the current head and drops the retained
    /// records, keeping their allocation for the next epoch's appends.
    /// Call it once a sealed epoch commits the current head.
    pub fn checkpoint(&mut self) {
        self.anchor = ChainAnchor {
            seq: self.seq(),
            head: self.head,
            last_pass_at: self.last_pass_at,
        };
        self.records.clear();
    }

    /// Virtual time of the newest record whose stage passed, if any —
    /// the freshness anchor.
    pub fn last_pass_at(&self) -> Option<u64> {
        self.last_pass_at
    }
}

/// Walks a record suffix, verifying sequence continuity, MAC tags and
/// hash links starting from `start_head` (the link hash the first record
/// must chain from) and `start_seq` (the sequence number it extends).
/// Returns the resulting head.
///
/// The checks run in fixed order — sequence, tag, link — so each
/// tampering class maps to one exact [`ReportError`]:
/// reordered/dropped records fail `BadSeq`, a wrong or re-keyed MAC
/// fails `BadTag`, and a forked or substituted record (valid-looking tag
/// but wrong parent) fails `BrokenLink`.
pub fn verify_suffix(
    records: &[EvidenceRecord],
    start_head: [u8; 32],
    start_seq: u64,
    key: &[u8; 16],
) -> Result<[u8; 32], ReportError> {
    let mut head = start_head;
    let mut seq = start_seq;
    for rec in records {
        if rec.seq != seq + 1 {
            return Err(ReportError::BadSeq {
                expected: seq + 1,
                got: rec.seq,
            });
        }
        if !rec.verify_tag(key) {
            return Err(ReportError::BadTag { seq: rec.seq });
        }
        if rec.prev != head {
            return Err(ReportError::BrokenLink { seq: rec.seq });
        }
        head = rec.link_hash();
        seq = rec.seq;
    }
    Ok(head)
}

/// Encodes a record suffix as one canonical byte string (count-prefixed).
pub fn encode_records(records: &[EvidenceRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    sage_crypto::canon::put_u32(&mut out, records.len() as u32);
    for r in records {
        out.extend_from_slice(&r.encode());
    }
    out
}

/// Decodes a count-prefixed record suffix from a [`Reader`].
pub fn decode_records(r: &mut Reader<'_>) -> Result<Vec<EvidenceRecord>, CanonError> {
    let n = r.u32()? as usize;
    // A record is ≥ 60 bytes; bound the preallocation by what the input
    // could actually hold.
    let mut out = Vec::with_capacity(n.min(r.remaining() / 60 + 1));
    for _ in 0..n {
        out.push(EvidenceRecord::decode_from(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn liveness(nonce: u64) -> EvidencePayload {
        EvidencePayload::ChannelLiveness {
            nonce,
            verdict: StageVerdict::Pass,
        }
    }

    #[test]
    fn chain_appends_link_and_verify() {
        let mut chain = EvidenceChain::new("gpu-a", &[3u8; 16]);
        for i in 0..5 {
            chain.append(100 * (i + 1), liveness(i));
        }
        assert_eq!(chain.seq(), 5);
        let head = verify_suffix(
            chain.records(),
            genesis_head("gpu-a"),
            0,
            &chain.evidence_key(),
        )
        .unwrap();
        assert_eq!(head, chain.head());
    }

    #[test]
    fn chains_are_device_bound() {
        let key = [3u8; 16];
        let mut a = EvidenceChain::new("gpu-a", &key);
        a.append(10, liveness(0));
        // Same records, same key, different device: the genesis head
        // differs, so the graft is a broken link at seq 1.
        assert_eq!(
            verify_suffix(a.records(), genesis_head("gpu-b"), 0, &a.evidence_key()),
            Err(ReportError::BrokenLink { seq: 1 })
        );
    }

    #[test]
    fn tamper_classes_map_to_exact_errors() {
        let mut chain = EvidenceChain::new("gpu-a", &[9u8; 16]);
        for i in 0..4 {
            chain.append(10 * (i + 1), liveness(i));
        }
        let key = chain.evidence_key();
        let genesis = genesis_head("gpu-a");

        // Reorder: swap two records.
        let mut reordered = chain.records().to_vec();
        reordered.swap(1, 2);
        assert_eq!(
            verify_suffix(&reordered, genesis, 0, &key),
            Err(ReportError::BadSeq {
                expected: 2,
                got: 3
            })
        );

        // Drop a record.
        let mut dropped = chain.records().to_vec();
        dropped.remove(1);
        assert_eq!(
            verify_suffix(&dropped, genesis, 0, &key),
            Err(ReportError::BadSeq {
                expected: 2,
                got: 3
            })
        );

        // Re-key: a record re-MACed under the wrong key.
        let mut rekeyed = chain.records().to_vec();
        let r = &rekeyed[2];
        rekeyed[2] = EvidenceRecord::seal(r.seq, r.at, r.payload.clone(), r.prev, &[0xEE; 16]);
        assert_eq!(
            verify_suffix(&rekeyed, genesis, 0, &key),
            Err(ReportError::BadTag { seq: 3 })
        );

        // Fork: replace a mid-chain record with a correctly-keyed record
        // carrying a different parent (an alternate history).
        let mut forked = chain.records().to_vec();
        let r = &forked[2];
        forked[2] = EvidenceRecord::seal(r.seq, r.at, r.payload.clone(), [0xAB; 32], &key);
        assert_eq!(
            verify_suffix(&forked, genesis, 0, &key),
            Err(ReportError::BrokenLink { seq: 3 })
        );

        // The untampered chain still verifies (no false rejects).
        assert!(verify_suffix(chain.records(), genesis, 0, &key).is_ok());
    }

    #[test]
    fn restore_re_verifies() {
        let mut chain = EvidenceChain::new("gpu-a", &[5u8; 16]);
        chain.append(10, liveness(0));
        chain.append(20, liveness(1));
        let genesis = ChainAnchor::genesis("gpu-a");
        let restored = EvidenceChain::restore(
            "gpu-a",
            chain.evidence_key(),
            genesis,
            chain.records().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.head(), chain.head());
        assert_eq!(restored.seq(), 2);
        assert_eq!(restored.last_pass_at(), Some(20));

        let mut bad = chain.records().to_vec();
        bad[0].at ^= 1;
        assert!(EvidenceChain::restore("gpu-a", chain.evidence_key(), genesis, bad).is_err());
    }

    #[test]
    fn checkpoint_keeps_head_and_seq_and_restores_from_the_anchor() {
        let mut chain = EvidenceChain::new("gpu-a", &[5u8; 16]);
        for i in 0..3 {
            chain.append(10 * (i + 1), liveness(i));
        }
        let (head, seq) = (chain.head(), chain.seq());
        chain.checkpoint();
        assert!(chain.records().is_empty());
        assert_eq!((chain.head(), chain.seq()), (head, seq));
        assert_eq!(
            chain.anchor(),
            ChainAnchor {
                seq: 3,
                head,
                last_pass_at: Some(30)
            }
        );
        assert_eq!(chain.suffix(3), Some(&[][..]));
        assert_eq!(chain.suffix(2), None, "records before the anchor are gone");

        chain.append(40, liveness(3));
        chain.append(50, liveness(4));
        assert_eq!(chain.records()[0].seq, 4);
        assert_eq!(chain.suffix(3).unwrap().len(), 2);
        assert_eq!(chain.suffix(4).unwrap()[0].seq, 5);
        assert!(chain.suffix(9).unwrap().is_empty());
        let restored = EvidenceChain::restore(
            "gpu-a",
            chain.evidence_key(),
            chain.anchor(),
            chain.records().to_vec(),
        )
        .unwrap();
        assert_eq!((restored.head(), restored.seq()), (chain.head(), 5));
        // The suffix only re-verifies from its own anchor.
        assert_eq!(
            EvidenceChain::restore(
                "gpu-a",
                chain.evidence_key(),
                ChainAnchor::genesis("gpu-a"),
                chain.records().to_vec(),
            )
            .err(),
            Some(ReportError::BadSeq {
                expected: 1,
                got: 4
            })
        );
    }

    #[test]
    fn last_pass_at_survives_a_checkpoint() {
        let mut chain = EvidenceChain::new("gpu-a", &[5u8; 16]);
        chain.append(10, liveness(0));
        chain.checkpoint();
        chain.append(
            20,
            EvidencePayload::ChannelLiveness {
                nonce: 1,
                verdict: StageVerdict::Timeout,
            },
        );
        assert_eq!(chain.last_pass_at(), Some(10));
        let restored = EvidenceChain::restore(
            "gpu-a",
            chain.evidence_key(),
            chain.anchor(),
            chain.records().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.last_pass_at(), Some(10));
    }

    #[test]
    fn records_codec_round_trips() {
        let mut chain = EvidenceChain::new("gpu-x", &[6u8; 16]);
        for i in 0..3 {
            chain.append(i, liveness(i));
        }
        let bytes = encode_records(chain.records());
        let mut r = Reader::new(&bytes);
        let decoded = decode_records(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, chain.records());
    }
}
