//! Property-based wire-codec checks: arbitrary byte strings never panic
//! the decoder, and every representable frame round-trips through
//! encode → decode unchanged. The always-on seeded twin of this suite
//! lives in `wire_fuzz.rs`; this file adds proptest's shrinking on top.

// Entire suite gated: `proptest` is not vendored in this dependency-free
// tree. Build with `--features proptest` after re-adding the dev-dependency
// locally to run it.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use sage::channel::Wire;
use sage::sake::SakeMessage;
use sage_evidence::StageVerdict;
use sage_service::wire::{decode, encode};
use sage_service::Frame;

fn arb_verdict() -> impl Strategy<Value = StageVerdict> {
    prop_oneof![
        Just(StageVerdict::Pass),
        Just(StageVerdict::WrongValue),
        Just(StageVerdict::TooSlow),
        Just(StageVerdict::Timeout),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z0-9-]{0,24}"
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<[u8; 32]>().prop_map(|v2| Frame::Sake(SakeMessage::Challenge { v2 })),
        (any::<[u8; 32]>(), any::<[u8; 16]>())
            .prop_map(|(w2, mac)| Frame::Sake(SakeMessage::Commit { w2, mac })),
        any::<[u8; 32]>().prop_map(|v1| Frame::Sake(SakeMessage::RevealV1 { v1 })),
        (
            any::<[u8; 32]>(),
            prop::collection::vec(any::<u8>(), 0..64),
            any::<[u8; 16]>()
        )
            .prop_map(|(w1, k, mac_k)| Frame::Sake(SakeMessage::DeviceReveal1 {
                w1,
                k,
                mac_k
            })),
        prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|v0| Frame::Sake(SakeMessage::RevealV0 { v0 })),
        any::<[u8; 32]>().prop_map(|w0| Frame::Sake(SakeMessage::DeviceReveal0 { w0 })),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<bool>(),
            any::<[u8; 16]>()
        )
            .prop_map(|(seq, addr, body, confidential, mac)| Frame::Channel(Wire {
                seq,
                addr,
                body,
                confidential,
                mac,
            })),
        (any::<u64>(), prop::collection::vec(any::<[u8; 16]>(), 0..8))
            .prop_map(|(round, challenges)| Frame::Challenge { round, challenges }),
        (any::<u64>(), any::<[u32; 8]>(), any::<u64>()).prop_map(
            |(round, checksum, measured_cycles)| Frame::Response {
                round,
                checksum,
                measured_cycles,
            }
        ),
        (
            any::<u16>(),
            arb_name(),
            any::<u64>(),
            arb_verdict(),
            any::<[u8; 16]>()
        )
            .prop_map(|(verifier, device, round, vote, mac)| Frame::QuorumVote {
                verifier,
                device,
                round,
                vote,
                mac,
            }),
    ]
}

proptest! {
    #[test]
    fn decode_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // must return, never panic
    }

    #[test]
    fn frames_round_trip(frame in arb_frame()) {
        prop_assert_eq!(decode(&encode(&frame)).as_ref(), Ok(&frame));
    }

    #[test]
    fn mutated_encodings_stay_total(
        frame in arb_frame(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut buf = encode(&frame);
        if !buf.is_empty() {
            let i = idx.index(buf.len());
            buf[i] ^= 1 << bit;
        }
        if let Ok(reframe) = decode(&buf) {
            prop_assert_eq!(decode(&encode(&reframe)).as_ref(), Ok(&reframe));
        }
    }

    #[test]
    fn vote_tag_single_bit_mutations_rejected(
        verifier in any::<u16>(),
        device in arb_name(),
        round in any::<u64>(),
        vote in arb_verdict(),
        mac in any::<[u8; 16]>(),
        bit in 0u8..8,
    ) {
        let frame = Frame::QuorumVote { verifier, device: device.clone(), round, vote, mac };
        let mut buf = encode(&frame);
        // header (8) + verifier (2) + name length prefix (2) + name +
        // round (8) = the self-checking vote byte's offset.
        let vote_off = 8 + 2 + 2 + device.len() + 8;
        buf[vote_off] ^= 1 << bit;
        prop_assert!(decode(&buf).is_err());
    }
}
