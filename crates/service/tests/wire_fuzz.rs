//! Seeded fuzz for the wire codec (and the snapshot codec riding along):
//! the verifier-side decoders sit directly on the adversarial link, so
//! no byte string — random, structured-random, or a mutation of a valid
//! frame — may ever panic them, and every valid frame must round-trip
//! bit for bit.
//!
//! This suite is dependency-free (SplitMix64 is the generator) and runs
//! in every `cargo test`. A proptest-shaped twin lives in
//! `wire_properties.rs` behind the `proptest` feature gate.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use sage::agent::DeviceAgent;
use sage::channel::Wire;
use sage::multi::FleetMember;
use sage::sake::SakeMessage;
use sage::GpuSession;
use sage_crypto::DhGroup;
use sage_evidence::{FreshnessPolicy, StageVerdict};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_service::tcp::{Conn, FrameStream, StreamError, MAX_FRAME_BYTES};
use sage_service::wire::{decode, encode};
use sage_service::{
    AttestationService, Frame, LinkProfile, QuorumConfig, ServiceConfig, SimNet, SnapshotError,
    SplitMix64,
};
use sage_sgx_sim::SgxPlatform;
use sage_vf::VfParams;

fn arr16(rng: &mut SplitMix64) -> [u8; 16] {
    let mut a = [0u8; 16];
    for b in &mut a {
        *b = rng.next_u64() as u8;
    }
    a
}

fn arr32(rng: &mut SplitMix64) -> [u8; 32] {
    let mut a = [0u8; 32];
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

/// A random device name (the codec requires valid UTF-8).
fn ascii_name(rng: &mut SplitMix64, max_len: u64) -> String {
    (0..rng.below(max_len))
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
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

/// A random valid frame covering every variant.
fn random_frame(rng: &mut SplitMix64) -> Frame {
    match rng.below(10) {
        0 => Frame::Sake(SakeMessage::Challenge { v2: arr32(rng) }),
        1 => Frame::Sake(SakeMessage::Commit {
            w2: arr32(rng),
            mac: arr16(rng),
        }),
        2 => Frame::Sake(SakeMessage::RevealV1 { v1: arr32(rng) }),
        3 => Frame::Sake(SakeMessage::DeviceReveal1 {
            w1: arr32(rng),
            k: bytes(rng, 64),
            mac_k: arr16(rng),
        }),
        4 => Frame::Sake(SakeMessage::RevealV0 { v0: bytes(rng, 64) }),
        5 => Frame::Sake(SakeMessage::DeviceReveal0 { w0: arr32(rng) }),
        6 => Frame::Channel(Wire {
            seq: rng.next_u64(),
            addr: rng.next_u64() as u32,
            body: bytes(rng, 128),
            confidential: rng.below(2) == 1,
            mac: arr16(rng),
        }),
        7 => Frame::Challenge {
            round: rng.next_u64(),
            challenges: (0..rng.below(5)).map(|_| arr16(rng)).collect(),
        },
        8 => {
            let mut checksum = [0u32; 8];
            for w in &mut checksum {
                *w = rng.next_u64() as u32;
            }
            Frame::Response {
                round: rng.next_u64(),
                checksum,
                measured_cycles: rng.next_u64(),
            }
        }
        _ => Frame::QuorumVote {
            verifier: rng.next_u64() as u16,
            device: ascii_name(rng, 24),
            round: rng.next_u64(),
            vote: verdict(rng),
            mac: arr16(rng),
        },
    }
}

#[test]
fn every_random_frame_round_trips() {
    let mut rng = SplitMix64::new(0xF0CC_ACC1A);
    for _ in 0..5_000 {
        let frame = random_frame(&mut rng);
        let encoded = encode(&frame);
        assert_eq!(
            decode(&encoded).as_ref(),
            Ok(&frame),
            "round-trip failed for {frame:?}"
        );
    }
}

#[test]
fn decode_never_panics_on_random_bytes() {
    let mut rng = SplitMix64::new(0xDEC0_DE00);
    for _ in 0..20_000 {
        let buf = bytes(&mut rng, 200);
        let _ = decode(&buf); // any Result is fine; a panic is the bug
    }
}

#[test]
fn decode_never_panics_on_structured_garbage() {
    // Valid-looking headers steer the fuzz past the magic/version checks
    // into the per-kind payload parsers.
    let mut rng = SplitMix64::new(0x57A6_E001);
    let kinds = [
        0x00u8, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x10, 0x11, 0x20, 0x21, 0x22, 0x30, 0x31,
        0x32, 0x33, 0x34, 0x40, 0x41, 0xFF,
    ];
    for _ in 0..20_000 {
        let mut buf = Vec::new();
        buf.extend_from_slice(&sage_service::wire::MAGIC.to_le_bytes());
        buf.push(if rng.below(10) == 0 {
            rng.next_u64() as u8
        } else {
            sage_service::wire::VERSION
        });
        buf.push(kinds[rng.below(kinds.len() as u64) as usize]);
        let payload = bytes(&mut rng, 96);
        // Mostly truthful length fields (to reach the payload parsers),
        // sometimes lying ones (to exercise the length checks).
        let len = if rng.below(4) == 0 {
            rng.next_u64() as u32
        } else {
            payload.len() as u32
        };
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&payload);
        let _ = decode(&buf);
    }
}

#[test]
fn decode_never_panics_on_mutated_valid_frames() {
    let mut rng = SplitMix64::new(0xBADC_0FFE);
    for _ in 0..10_000 {
        let frame = random_frame(&mut rng);
        let mut buf = encode(&frame);
        for _ in 0..=rng.below(4) {
            match rng.below(3) {
                0 if !buf.is_empty() => {
                    // Flip a random bit.
                    let i = rng.below(buf.len() as u64) as usize;
                    buf[i] ^= 1 << rng.below(8);
                }
                1 if !buf.is_empty() => {
                    // Truncate.
                    let n = rng.below(buf.len() as u64 + 1) as usize;
                    buf.truncate(n);
                }
                _ => {
                    // Append garbage.
                    let extra = bytes(&mut rng, 16);
                    buf.extend_from_slice(&extra);
                }
            }
        }
        if let Ok(reframe) = decode(&buf) {
            // A mutation may still decode (e.g. a payload-byte flip);
            // whatever comes out must itself round-trip.
            assert_eq!(decode(&encode(&reframe)), Ok(reframe));
        }
    }
}

#[test]
fn every_single_bit_vote_tag_mutation_is_rejected() {
    // The vote byte is self-checking (verdict tag in the low nibble,
    // its complement in the high nibble), so the valid code points
    // differ pairwise by ≥ 2 bits: across random quorum-vote frames,
    // flipping ANY single bit of the vote tag must fail decode — a
    // ballot can never silently mutate into a different verdict.
    let mut rng = SplitMix64::new(0x0007_EB17);
    for _ in 0..1_000 {
        let device = ascii_name(&mut rng, 24);
        let frame = Frame::QuorumVote {
            verifier: rng.next_u64() as u16,
            device: device.clone(),
            round: rng.next_u64(),
            vote: verdict(&mut rng),
            mac: arr16(&mut rng),
        };
        let buf = encode(&frame);
        assert_eq!(decode(&buf).as_ref(), Ok(&frame));
        // header (8) + verifier (2) + name length prefix (2) + name +
        // round (8) = the vote byte's offset.
        let vote_off = 8 + 2 + 2 + device.len() + 8;
        for bit in 0..8 {
            let mut mutated = buf.clone();
            mutated[vote_off] ^= 1 << bit;
            assert!(
                decode(&mutated).is_err(),
                "bit {bit} of the vote tag mutated {frame:?} into {:?}",
                decode(&mutated)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Stream framing: the length-prefixed layer over live sockets. The same
// adversarial stance as the codec fuzz above — torn prefixes, mid-frame
// severs, interleaved partial writes, and raw garbage must produce typed
// errors or clean reassembly, never a panic or a partial-frame accept.
// ---------------------------------------------------------------------------

/// One length-prefixed wire message, as `write_frame` would emit it.
fn framed(frame: &Frame) -> Vec<u8> {
    let body = encode(frame);
    let mut msg = Vec::with_capacity(4 + body.len());
    msg.extend_from_slice(&(body.len() as u32).to_le_bytes());
    msg.extend_from_slice(&body);
    msg
}

#[test]
fn torn_interleaved_writes_reassemble_every_frame() {
    let mut rng = SplitMix64::new(0x7EA2_F00D);
    let frames: Vec<Frame> = (0..300).map(|_| random_frame(&mut rng)).collect();
    let stream_bytes: Vec<u8> = frames.iter().flat_map(framed).collect();

    let (writer_sock, reader_sock) = UnixStream::pair().unwrap();
    let mut reader = FrameStream::new(Conn::Unix(reader_sock));
    let writer = std::thread::spawn(move || {
        // Dribble the whole stream in 1..=9-byte pieces: every length
        // prefix and every frame body crosses a write boundary somewhere.
        let mut wrng = SplitMix64::new(0x0017_EA57);
        let mut sock = writer_sock;
        let mut rest = &stream_bytes[..];
        while !rest.is_empty() {
            let n = (1 + wrng.below(9) as usize).min(rest.len());
            sock.write_all(&rest[..n]).unwrap();
            sock.flush().unwrap();
            rest = &rest[n..];
        }
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    while got.len() < frames.len() {
        match reader.read_frame_deadline(deadline) {
            Ok(Some(f)) => got.push(f),
            Ok(None) => panic!("deadline with {}/{} frames", got.len(), frames.len()),
            Err(e) => panic!("typed error on valid torn stream: {e}"),
        }
    }
    assert_eq!(got, frames, "reassembled frames must match, in order");
    writer.join().unwrap();
}

#[test]
fn mid_frame_sever_is_closed_never_partial_accept() {
    let mut rng = SplitMix64::new(0x5E7E_12ED);
    for _ in 0..500 {
        let frame = random_frame(&mut rng);
        let msg = framed(&frame);
        // Cut anywhere strictly inside the message — torn prefix (1..4)
        // or torn body — including zero bytes sent.
        let cut = rng.below(msg.len() as u64) as usize;

        let (mut writer_sock, reader_sock) = UnixStream::pair().unwrap();
        let mut reader = FrameStream::new(Conn::Unix(reader_sock));
        writer_sock.write_all(&msg[..cut]).unwrap();
        drop(writer_sock); // sever

        let deadline = Instant::now() + Duration::from_secs(5);
        match reader.read_frame_deadline(deadline) {
            Err(StreamError::Closed) => {}
            Ok(Some(f)) => panic!("partial write of {frame:?} accepted as {f:?}"),
            other => panic!("expected Closed after mid-frame sever, got {other:?}"),
        }
    }
}

#[test]
fn garbage_on_live_socket_is_typed_error_never_panic() {
    let mut rng = SplitMix64::new(0x6A2B_A6E0);
    for _ in 0..500 {
        let (mut writer_sock, reader_sock) = UnixStream::pair().unwrap();
        let mut reader = FrameStream::new(Conn::Unix(reader_sock));
        // A garbage blob with a truthful stream-level length prefix:
        // framing succeeds, the codec inside must reject it.
        let blob = bytes(&mut rng, 64);
        let mut msg = (blob.len() as u32).to_le_bytes().to_vec();
        msg.extend_from_slice(&blob);
        writer_sock.write_all(&msg).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        match reader.read_frame_deadline(deadline) {
            Err(StreamError::Codec(_)) => {} // the expected typed rejection
            Ok(Some(f)) => {
                // A random blob that happens to be a valid frame must
                // itself round-trip (same rule as the codec fuzz).
                assert_eq!(decode(&encode(&f)), Ok(f));
            }
            other => panic!("garbage produced {other:?}"),
        }
        drop(writer_sock);
    }
}

#[test]
fn oversize_prefix_is_rejected_without_buffering() {
    let mut rng = SplitMix64::new(0x0E12_51E5);
    for _ in 0..200 {
        let len = MAX_FRAME_BYTES + 1 + rng.next_u64() as u32 % 1_000_000;
        let (mut writer_sock, reader_sock) = UnixStream::pair().unwrap();
        let mut reader = FrameStream::new(Conn::Unix(reader_sock));
        writer_sock.write_all(&len.to_le_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        match reader.read_frame_deadline(deadline) {
            Err(StreamError::Oversize(l)) => assert_eq!(l, len),
            other => panic!("oversize prefix produced {other:?}"),
        }
    }
}

/// A snapshot with every section populated: four modeled devices one
/// epoch seal in, rounds in flight, and a 4-replica quorum.
fn populated_snapshot() -> Vec<u8> {
    let cfg = ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
        quorum: QuorumConfig {
            verifiers: 4,
            seed: 0x51D,
        },
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(
        cfg,
        DhGroup::test_group(),
        SimNet::new(3, LinkProfile::default()),
    );
    for i in 0..4u8 {
        let session = GpuSession::install_modeled(
            Device::new(DeviceConfig::sim_nano()),
            &VfParams::fleet_tiny(),
            0xF1EE7,
            10_000,
        )
        .expect("install modeled VF");
        let mut rng = SplitMix64::new(u64::from(i) + 1);
        let mut member = FleetMember::new(
            session,
            DeviceAgent::new(Box::new(move |buf: &mut [u8]| {
                buf.fill_with(|| rng.next_u64() as u8)
            })),
        );
        member.name = format!("gpu-{i}");
        let mut rng = SplitMix64::new(u64::from(i) + 101);
        let enclave = SgxPlatform::new([7u8; 16]).launch(b"fuzz", &mut |buf: &mut [u8]| {
            buf.fill_with(|| rng.next_u64() as u8)
        });
        svc.join(member, enclave);
    }
    svc.run_until(40_000);
    while svc.outstanding_rounds() == 0 {
        let next = svc.next_event_at().expect("a live fleet has work");
        svc.run_until(next);
    }
    assert_eq!(svc.sealed_epochs().len(), 1, "one seal in, mid-epoch");
    assert!(svc
        .evidence_of("gpu-0")
        .is_some_and(|c| !c.records().is_empty()));
    assert!(svc.quorum().is_some());
    svc.snapshot()
}

#[test]
fn snapshot_restore_never_panics_on_garbage() {
    let mut rng = SplitMix64::new(0x5AFE_5AFE);
    // Two real snapshots to mutate. The empty service's restores on its
    // unmutated bytes (it has no endpoints to hand back); the populated
    // one decodes to the end and then finds its endpoints missing, so
    // every section's decoder sees the mutations.
    let empty = AttestationService::new(
        ServiceConfig::default(),
        DhGroup::test_group(),
        SimNet::new(1, LinkProfile::default()),
    )
    .snapshot();
    let populated = populated_snapshot();
    let restore = |buf: &[u8]| {
        AttestationService::restore(
            ServiceConfig::default(),
            DhGroup::test_group(),
            SimNet::new(2, LinkProfile::default()),
            buf,
            Vec::new(),
        )
    };
    assert!(restore(&empty).is_ok());
    assert!(matches!(
        restore(&populated),
        Err(SnapshotError::MissingEndpoint(name)) if name.starts_with("gpu-")
    ));
    for i in 0..6_000u64 {
        let mut buf = match i % 3 {
            0 => bytes(&mut rng, 160),
            1 => empty.clone(),
            _ => populated.clone(),
        };
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
                    let extra = bytes(&mut rng, 16);
                    buf.extend_from_slice(&extra);
                }
            }
        }
        let _ = restore(&buf);
    }
}
