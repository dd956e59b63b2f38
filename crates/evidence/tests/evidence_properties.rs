//! Property checks for the evidence codecs and the epoch Merkle tree.
//!
//! The Merkle sweep below always runs: for every fleet size up to 300
//! (empty, powers of two, odd promotions at several levels) the kept
//! [`EpochTree`] agrees with `epoch_root` and an independent recursive
//! oracle, and every proof it serves verifies, is no longer than
//! ⌈log₂ n⌉, and rejects the neighbouring leaves.
//!
//! The `generated` module adds proptest's shrinking: arbitrary byte
//! strings never panic any decoder, every representable record
//! round-trips through encode → decode unchanged, and inclusion proofs
//! reject every single-bit mutation. Its always-on seeded twin lives in
//! `evidence_fuzz.rs`.

use sage_crypto::Sha256;
use sage_evidence::merkle::{epoch_root, verify_inclusion};
use sage_evidence::{EpochLeaf, EpochTree};

fn fleet(n: usize) -> Vec<EpochLeaf> {
    (0..n)
        .map(|i| EpochLeaf {
            device: format!("gpu-{i:03}"),
            head: [(i % 251) as u8; 32],
            seq: i as u64 * 7 + 1,
        })
        .collect()
}

/// The root by recursive halving: the left subtree takes the largest
/// power of two strictly below `n` leaves. Level-by-level pairing with
/// odd-node promotion must build exactly this tree.
fn oracle_root(hashes: &[[u8; 32]]) -> [u8; 32] {
    if hashes.len() == 1 {
        return hashes[0];
    }
    let split = 1usize << (usize::BITS - 1 - (hashes.len() - 1).leading_zeros());
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(&oracle_root(&hashes[..split]));
    h.update(&oracle_root(&hashes[split..]));
    h.finalize()
}

#[test]
fn epoch_tree_proves_every_leaf_for_every_size_to_300() {
    for n in 0..=300usize {
        let leaves = fleet(n);
        let tree = EpochTree::new(&leaves);
        assert_eq!(tree.root(), epoch_root(&leaves), "n = {n}");
        if n == 0 {
            continue;
        }
        let hashes: Vec<[u8; 32]> = leaves.iter().map(EpochLeaf::hash).collect();
        assert_eq!(tree.root(), oracle_root(&hashes), "n = {n}: oracle root");
        let max_steps = (usize::BITS - (n - 1).leading_zeros()) as usize; // ⌈log₂ n⌉
        for i in 0..n {
            let proof = tree.prove(i);
            assert!(
                verify_inclusion(&leaves[i], &proof, &tree.root()),
                "n = {n}, leaf {i}"
            );
            assert!(
                proof.steps.len() <= max_steps,
                "n = {n}, leaf {i}: proof too long"
            );
            for j in [i.wrapping_sub(1), i + 1] {
                if let Some(other) = leaves.get(j) {
                    assert!(
                        !verify_inclusion(other, &proof, &tree.root()),
                        "n = {n}: proof for leaf {i} accepts leaf {j}"
                    );
                }
            }
        }
    }
}

#[cfg(feature = "proptest")]
mod generated {
    use proptest::prelude::*;
    use sage_crypto::canon::Reader;
    use sage_evidence::chain::decode_records;
    use sage_evidence::merkle::{epoch_root, prove_inclusion, verify_inclusion};
    use sage_evidence::{
        DeviceReport, EpochLeaf, EvidencePath, EvidencePayload, EvidenceRecord, InclusionProof,
        StageVerdict,
    };

    fn arb_verdict() -> impl Strategy<Value = StageVerdict> {
        prop_oneof![
            Just(StageVerdict::Pass),
            Just(StageVerdict::WrongValue),
            Just(StageVerdict::TooSlow),
            Just(StageVerdict::Timeout),
        ]
    }

    fn arb_payload() -> impl Strategy<Value = EvidencePayload> {
        prop_oneof![
            (any::<[u8; 8]>(), any::<u64>(), any::<u64>()).prop_map(
                |(key_fingerprint, measured_cycles, threshold_cycles)| {
                    EvidencePayload::SakeConfirmed {
                        key_fingerprint,
                        measured_cycles,
                        threshold_cycles,
                    }
                }
            ),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                arb_verdict(),
                any::<bool>()
            )
                .prop_map(
                    |(round, measured_cycles, threshold_cycles, verdict, fast)| {
                        EvidencePayload::ChecksumRound {
                            round,
                            measured_cycles,
                            threshold_cycles,
                            verdict,
                            path: if fast {
                                EvidencePath::Precomputed
                            } else {
                                EvidencePath::Classic
                            },
                        }
                    }
                ),
            (any::<[u8; 32]>(), arb_verdict())
                .prop_map(|(hash, verdict)| EvidencePayload::KernelHash { hash, verdict }),
            (any::<u64>(), arb_verdict())
                .prop_map(|(nonce, verdict)| EvidencePayload::ChannelLiveness { nonce, verdict }),
        ]
    }

    fn arb_record() -> impl Strategy<Value = EvidenceRecord> {
        (
            any::<u64>(),
            any::<u64>(),
            arb_payload(),
            any::<[u8; 32]>(),
            any::<[u8; 16]>(),
        )
            .prop_map(|(seq, at, payload, prev, key)| {
                EvidenceRecord::seal(seq, at, payload, prev, &key)
            })
    }

    fn arb_leaves() -> impl Strategy<Value = Vec<EpochLeaf>> {
        prop::collection::vec((any::<[u8; 32]>(), any::<u64>()), 1..9).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (head, seq))| EpochLeaf {
                    device: format!("gpu-{i}"),
                    head,
                    seq,
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn decoders_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = EvidenceRecord::decode(&bytes);
            let _ = DeviceReport::decode(&bytes);
            let mut r = Reader::new(&bytes);
            let _ = decode_records(&mut r);
            let mut r = Reader::new(&bytes);
            let _ = InclusionProof::decode_from(&mut r);
            let mut r = Reader::new(&bytes);
            let _ = EpochLeaf::decode_from(&mut r);
        }

        #[test]
        fn records_round_trip(rec in arb_record()) {
            prop_assert_eq!(EvidenceRecord::decode(&rec.encode()).as_ref(), Ok(&rec));
        }

        #[test]
        fn mutated_records_stay_total(
            rec in arb_record(),
            idx in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let mut buf = rec.encode();
            let i = idx.index(buf.len());
            buf[i] ^= 1 << bit;
            if let Ok(redecoded) = EvidenceRecord::decode(&buf) {
                prop_assert_eq!(EvidenceRecord::decode(&redecoded.encode()).as_ref(), Ok(&redecoded));
            }
        }

        #[test]
        fn inclusion_proof_rejects_bit_flips(
            leaves in arb_leaves(),
            pick in any::<prop::sample::Index>(),
            idx in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let index = pick.index(leaves.len());
            let root = epoch_root(&leaves);
            let proof = prove_inclusion(&leaves, index);
            prop_assert!(verify_inclusion(&leaves[index], &proof, &root));

            let mut buf = Vec::new();
            proof.encode(&mut buf);
            let i = idx.index(buf.len());
            buf[i] ^= 1 << bit;
            let mut r = Reader::new(&buf);
            let verified = InclusionProof::decode_from(&mut r)
                .ok()
                .filter(|_| r.finish().is_ok())
                .is_some_and(|p| verify_inclusion(&leaves[index], &p, &root));
            prop_assert!(!verified);
        }
    }
}
