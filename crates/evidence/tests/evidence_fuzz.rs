//! Seeded fuzz for the evidence codec: records, record streams,
//! inclusion proofs and full device reports all decode from adversarial
//! bytes (a relying party runs `verify_report` on data it did not
//! produce), so no byte string — random, structured-random, or a
//! mutation of a valid encoding — may ever panic a decoder, every valid
//! encoding must round-trip bit for bit, and an inclusion proof must
//! reject every single-bit mutation of the proof, the leaf, or the root.
//!
//! This suite is dependency-free (SplitMix64 is the generator, copied
//! from `sage-service`'s network simulator so this crate keeps its
//! sage-crypto-only dependency surface) and runs in every `cargo test`.
//! A proptest-shaped twin lives in `evidence_properties.rs` behind the
//! `proptest` feature gate.

use sage_crypto::canon::Reader;
use sage_evidence::chain::{decode_records, encode_records};
use sage_evidence::merkle::{epoch_root, prove_inclusion, verify_inclusion};
use sage_evidence::{
    DeviceReport, EpochLeaf, EvidenceChain, EvidencePath, EvidencePayload, EvidenceRecord,
    FreshnessClaim, FreshnessPolicy, InclusionProof, StageVerdict,
};

/// SplitMix64 — the suite's only randomness source, seeded and
/// deterministic.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

fn arr<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
    let mut a = [0u8; N];
    for b in &mut a {
        *b = rng.next_u64() as u8;
    }
    a
}

fn bytes(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    (0..rng.below(max_len))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn verdict(rng: &mut SplitMix64) -> StageVerdict {
    match rng.below(4) {
        0 => StageVerdict::Pass,
        1 => StageVerdict::WrongValue,
        2 => StageVerdict::TooSlow,
        _ => StageVerdict::Timeout,
    }
}

/// A random payload covering every record kind.
fn random_payload(rng: &mut SplitMix64) -> EvidencePayload {
    match rng.below(4) {
        0 => EvidencePayload::SakeConfirmed {
            key_fingerprint: arr(rng),
            measured_cycles: rng.next_u64(),
            threshold_cycles: rng.next_u64(),
        },
        1 => EvidencePayload::ChecksumRound {
            round: rng.next_u64(),
            measured_cycles: rng.next_u64(),
            threshold_cycles: rng.next_u64(),
            verdict: verdict(rng),
            path: if rng.below(2) == 0 {
                EvidencePath::Classic
            } else {
                EvidencePath::Precomputed
            },
        },
        2 => EvidencePayload::KernelHash {
            hash: arr(rng),
            verdict: verdict(rng),
        },
        _ => EvidencePayload::ChannelLiveness {
            nonce: rng.next_u64(),
            verdict: verdict(rng),
        },
    }
}

fn random_record(rng: &mut SplitMix64) -> EvidenceRecord {
    EvidenceRecord::seal(
        rng.next_u64(),
        rng.next_u64(),
        random_payload(rng),
        arr(rng),
        &arr(rng),
    )
}

/// Mutates a buffer with 1–4 random bit flips / truncations / appends.
fn mutate(rng: &mut SplitMix64, buf: &mut Vec<u8>) {
    for _ in 0..=rng.below(4) {
        match rng.below(3) {
            0 if !buf.is_empty() => {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
            1 if !buf.is_empty() => {
                let n = rng.below(buf.len() as u64 + 1) as usize;
                buf.truncate(n);
            }
            _ => {
                let extra = bytes(rng, 16);
                buf.extend_from_slice(&extra);
            }
        }
    }
}

#[test]
fn every_record_kind_round_trips() {
    let mut rng = SplitMix64::new(0xE51D_E4CE);
    for _ in 0..5_000 {
        let rec = random_record(&mut rng);
        let decoded = EvidenceRecord::decode(&rec.encode()).expect("valid record decodes");
        assert_eq!(decoded, rec, "round-trip failed for {rec:?}");
    }
}

#[test]
fn record_streams_round_trip() {
    let mut rng = SplitMix64::new(0x57AE_A111);
    for _ in 0..500 {
        let records: Vec<EvidenceRecord> =
            (0..rng.below(8)).map(|_| random_record(&mut rng)).collect();
        let encoded = encode_records(&records);
        let mut r = Reader::new(&encoded);
        let decoded = decode_records(&mut r).expect("valid stream decodes");
        r.finish().expect("stream is exactly consumed");
        assert_eq!(decoded, records);
    }
}

#[test]
fn decoders_never_panic_on_random_bytes() {
    let mut rng = SplitMix64::new(0xDEC0_DE07);
    for _ in 0..20_000 {
        let buf = bytes(&mut rng, 256);
        let _ = EvidenceRecord::decode(&buf);
        let _ = DeviceReport::decode(&buf);
        let mut r = Reader::new(&buf);
        let _ = decode_records(&mut r);
        let mut r = Reader::new(&buf);
        let _ = InclusionProof::decode_from(&mut r);
        let mut r = Reader::new(&buf);
        let _ = EpochLeaf::decode_from(&mut r);
    }
}

#[test]
fn decoders_never_panic_on_structured_garbage() {
    // Valid-looking version and payload-tag bytes steer the fuzz past
    // the early checks into the per-kind field parsers; lying count
    // prefixes exercise the preallocation bounds.
    let mut rng = SplitMix64::new(0x57A6_E007);
    for _ in 0..20_000 {
        let mut buf = Vec::new();
        buf.push(if rng.below(10) == 0 {
            rng.next_u64() as u8
        } else {
            sage_evidence::EVIDENCE_VERSION
        });
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        buf.push(rng.below(6) as u8); // payload tag, sometimes invalid
        buf.extend_from_slice(&bytes(&mut rng, 96));
        let _ = EvidenceRecord::decode(&buf);

        // Count-prefixed stream with a mostly-lying count.
        let mut stream = Vec::new();
        stream.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        stream.extend_from_slice(&buf);
        let mut r = Reader::new(&stream);
        let _ = decode_records(&mut r);
        let mut r = Reader::new(&stream);
        let _ = InclusionProof::decode_from(&mut r);
    }
}

#[test]
fn decoders_never_panic_on_mutated_valid_encodings() {
    let mut rng = SplitMix64::new(0xBADC_0FFE);
    for _ in 0..5_000 {
        let rec = random_record(&mut rng);
        let mut buf = rec.encode();
        mutate(&mut rng, &mut buf);
        if let Ok(redecoded) = EvidenceRecord::decode(&buf) {
            // A mutation may still decode (e.g. a payload-field flip);
            // whatever comes out must itself round-trip.
            assert_eq!(
                EvidenceRecord::decode(&redecoded.encode()).as_ref(),
                Ok(&redecoded)
            );
        }
    }
}

#[test]
fn mutated_reports_never_panic_and_never_verify() {
    // A full report built the honest way, then mutated on the wire: the
    // decoder may reject it (fine) and `verify_report` must never accept
    // it — the envelope CMAC covers every byte ahead of the tag.
    let mut rng = SplitMix64::new(0x4E50_4057);
    let mut chain = EvidenceChain::new("gpu-fuzz", &[0xF5; 16]);
    for i in 0..4 {
        chain.append(
            10 * (i + 1),
            EvidencePayload::ChannelLiveness {
                nonce: i,
                verdict: StageVerdict::Pass,
            },
        );
    }
    let leaves = vec![EpochLeaf {
        device: "gpu-fuzz".into(),
        head: chain.head(),
        seq: chain.seq(),
    }];
    let root = epoch_root(&leaves);
    let proof = prove_inclusion(&leaves, 0);
    chain.append(
        50,
        EvidencePayload::ChannelLiveness {
            nonce: 9,
            verdict: StageVerdict::Pass,
        },
    );
    let policy = FreshnessPolicy {
        stale_after: 1_000,
        degraded_after: 2_000,
    };
    let claim = FreshnessClaim {
        policy,
        last_pass_at: chain.last_pass_at(),
        asserted_at: 60,
        level: policy.level(chain.last_pass_at(), 60),
    };
    let key = chain.evidence_key();
    let report = DeviceReport::seal(
        1,
        leaves[0].clone(),
        root,
        proof,
        chain.suffix(4).unwrap().to_vec(),
        claim,
        &key,
    );
    let valid = report.encode();
    assert!(sage_evidence::verify_report(&report, &root, &key, 70).is_ok());

    for _ in 0..5_000 {
        let mut buf = valid.clone();
        mutate(&mut rng, &mut buf);
        if buf == valid {
            continue;
        }
        if let Ok(decoded) = DeviceReport::decode(&buf) {
            if decoded == report {
                continue; // e.g. a truncate-then-append round trip
            }
            assert!(
                sage_evidence::verify_report(&decoded, &root, &key, 70).is_err(),
                "mutated report verified"
            );
        }
    }
}

#[test]
fn inclusion_proofs_reject_every_single_bit_mutation() {
    for n in 1..=8usize {
        let leaves: Vec<EpochLeaf> = (0..n)
            .map(|i| EpochLeaf {
                device: format!("gpu-{i}"),
                head: [i as u8 ^ 0x5A; 32],
                seq: i as u64 * 7 + 1,
            })
            .collect();
        let root = epoch_root(&leaves);
        let index = n / 2;
        let proof = prove_inclusion(&leaves, index);
        assert!(verify_inclusion(&leaves[index], &proof, &root));

        // Every bit of the encoded proof: a flip must break decode or
        // verification.
        let mut proof_bytes = Vec::new();
        proof.encode(&mut proof_bytes);
        for byte in 0..proof_bytes.len() {
            for bit in 0..8 {
                let mut mutated = proof_bytes.clone();
                mutated[byte] ^= 1 << bit;
                let mut r = Reader::new(&mutated);
                let verified = InclusionProof::decode_from(&mut r)
                    .ok()
                    .filter(|_| r.finish().is_ok())
                    .is_some_and(|p| verify_inclusion(&leaves[index], &p, &root));
                assert!(
                    !verified,
                    "fleet {n}: proof bit {bit} of byte {byte} not detected"
                );
            }
        }

        // Every bit of the leaf encoding, likewise.
        let mut leaf_bytes = Vec::new();
        leaves[index].encode(&mut leaf_bytes);
        for byte in 0..leaf_bytes.len() {
            for bit in 0..8 {
                let mut mutated = leaf_bytes.clone();
                mutated[byte] ^= 1 << bit;
                let mut r = Reader::new(&mutated);
                let verified = EpochLeaf::decode_from(&mut r)
                    .ok()
                    .filter(|_| r.finish().is_ok())
                    .is_some_and(|l| verify_inclusion(&l, &proof, &root));
                assert!(
                    !verified,
                    "fleet {n}: leaf bit {bit} of byte {byte} not detected"
                );
            }
        }

        // Every bit of the root.
        for byte in 0..root.len() {
            for bit in 0..8 {
                let mut mutated = root;
                mutated[byte] ^= 1 << bit;
                assert!(
                    !verify_inclusion(&leaves[index], &proof, &mutated),
                    "fleet {n}: root bit {bit} of byte {byte} not detected"
                );
            }
        }
    }
}
