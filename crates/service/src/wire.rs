//! Framed, versioned wire codec for the verifier↔agent traffic.
//!
//! Everything the control plane puts on a (simulated) network link is one
//! self-describing frame:
//!
//! ```text
//! ┌────────┬─────────┬──────┬──────────┬───────────────┐
//! │ magic  │ version │ kind │ len (LE) │ payload…      │
//! │ u16 LE │ u8      │ u8   │ u32      │ `len` bytes   │
//! └────────┴─────────┴──────┴──────────┴───────────────┘
//! ```
//!
//! Frame kinds cover the three protocol families the service carries:
//! the six modified-SAKE key-establishment messages
//! ([`sage::sake::SakeMessage`]), sealed [`sage::channel::Wire`] data
//! messages, and the service's own re-attestation challenge/response
//! pair. Decoding is strict: unknown magic, versions, kinds, truncated
//! buffers, oversized length fields and trailing bytes are all rejected
//! with a typed [`CodecError`] — a lossy or adversarial link can corrupt
//! frames, and the state machine must fail closed rather than
//! misinterpret them.
//!
//! Fields are written and read with [`sage_crypto::canon`], the codec
//! the snapshot and the evidence records share; its errors map onto
//! [`CodecError`] at this boundary. The one local layout is the device
//! name: a `u16` length, at most [`MAX_NAME`] bytes.

use core::fmt;

use sage::channel::Wire;
use sage::sake::SakeMessage;
use sage_crypto::canon::{self, CanonError, Reader};
use sage_evidence::StageVerdict;

/// Frame magic ("SAGE service", arbitrary but fixed).
pub const MAGIC: u16 = 0x5AE5;
/// Current wire-format version. Decoders reject everything else.
pub const VERSION: u8 = 1;
/// Upper bound on a payload length field; larger values are rejected
/// before any allocation happens.
pub const MAX_PAYLOAD: u32 = 1 << 20;

const HEADER_BYTES: usize = 8;

// Frame kinds. SAKE messages occupy 0x01–0x06 in flow order; data-channel
// and service frames live in separate ranges so new kinds never collide.
const K_SAKE_CHALLENGE: u8 = 0x01;
const K_SAKE_COMMIT: u8 = 0x02;
const K_SAKE_REVEAL_V1: u8 = 0x03;
const K_SAKE_DEV_REVEAL1: u8 = 0x04;
const K_SAKE_REVEAL_V0: u8 = 0x05;
const K_SAKE_DEV_REVEAL0: u8 = 0x06;
const K_SAKE_COMMIT_TIMED: u8 = 0x07;
const K_CHANNEL: u8 = 0x10;
const K_CHALLENGE: u8 = 0x20;
const K_RESPONSE: u8 = 0x21;
// Link-layer frames (0x30+): connection supervision for the real
// transport — enrollment, authenticated session resume, heartbeats.
const K_LINK_NONCE: u8 = 0x30;
const K_ENROLL: u8 = 0x31;
const K_HELLO: u8 = 0x32;
const K_HELLO_ACK: u8 = 0x33;
const K_HEARTBEAT: u8 = 0x34;
// Quorum frames (0x40+): cross-verifier vote exchange for the
// multi-verifier control plane.
const K_QUORUM_VOTE: u8 = 0x40;

/// Longest device name the link frames will carry.
pub const MAX_NAME: usize = 256;

/// A decoded control-plane frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A modified-SAKE key-establishment message.
    Sake(SakeMessage),
    /// A sealed secure-channel data message.
    Channel(Wire),
    /// Verifier → device: one re-attestation round's fresh per-block
    /// challenges.
    Challenge {
        /// Monotonic per-device round number.
        round: u64,
        /// Per-block 16-byte challenges.
        challenges: Vec<[u8; 16]>,
    },
    /// Device → verifier: the checksum answer for a round.
    Response {
        /// Echoed round number.
        round: u64,
        /// The 8-word grid checksum.
        checksum: [u32; 8],
        /// Measured exchange time in device cycles.
        measured_cycles: u64,
    },
    /// Device → verifier: a SAKE commit carrying the device's measured
    /// checksum-exchange time. In-process flows pass the timing out of
    /// band; over a real link it rides in the commit frame.
    SakeCommitTimed {
        /// The commit hash `w2`.
        w2: [u8; 32],
        /// The commit MAC.
        mac: [u8; 16],
        /// Measured exchange time in device cycles.
        measured_cycles: u64,
    },
    /// Server → device, first frame on every accepted connection: a
    /// fresh nonce the device must fold into its `Hello` MAC, so a
    /// recorded resume handshake cannot be replayed on a later link.
    LinkNonce {
        /// Fresh per-connection server nonce.
        nonce: [u8; 16],
    },
    /// Device → verifier: a first-contact enrollment request; the
    /// connection then carries calibration and SAKE frames in the clear
    /// protocol order.
    Enroll {
        /// The device's fleet name.
        device: String,
    },
    /// Device → verifier: an authenticated session-resume request. The
    /// MAC is keyed by the link key derived from the SAKE session key,
    /// over the device name, the server's `LinkNonce`, and the evidence
    /// sequence the device believes is current — proof of key
    /// possession without rerunning SAKE.
    Hello {
        /// The device's fleet name.
        device: String,
        /// Echo of the server's `LinkNonce` nonce.
        nonce: [u8; 16],
        /// The device's view of its evidence-chain sequence head.
        resume_from: u64,
        /// `CMAC(link_key, transcript)`.
        mac: [u8; 16],
    },
    /// Verifier → device: accepts a `Hello`, proving the verifier also
    /// holds the link key (mutual authentication).
    HelloAck {
        /// Echo of the device's hello nonce.
        nonce: [u8; 16],
        /// `CMAC(link_key, ack transcript)`.
        mac: [u8; 16],
    },
    /// Either direction: connection liveness probe. `echo == false`
    /// requests a reply; the reply echoes the sequence with
    /// `echo == true`. Handled inside the transport, never surfaced to
    /// the service loop.
    Heartbeat {
        /// Sender-chosen sequence number, echoed back.
        seq: u64,
        /// Whether this frame is the reply leg.
        echo: bool,
    },
    /// Verifier ↔ verifier: one replica's authenticated vote on a
    /// round verdict. The vote rides the wire as a *self-checking*
    /// byte — verdict tag in the low nibble, its bitwise complement in
    /// the high — so any single-bit corruption is rejected at decode
    /// time, before the CMAC layer even looks at it.
    QuorumVote {
        /// Index of the voting verifier replica.
        verifier: u16,
        /// The device whose round is being judged.
        device: String,
        /// The round the vote judges.
        round: u64,
        /// The replica's verdict.
        vote: StageVerdict,
        /// `CMAC(vote_key, verifier ‖ device ‖ round ‖ vote)` under the
        /// replica's per-session vote key.
        mac: [u8; 16],
    },
}

/// The self-checking vote-tag byte: verdict tag in the low nibble, its
/// bitwise complement in the high nibble. Any two valid encodings
/// differ in at least two bits, so every single-bit mutation breaks
/// the complement relation and fails decode.
fn vote_byte(v: StageVerdict) -> u8 {
    let t: u8 = match v {
        StageVerdict::Pass => 0,
        StageVerdict::WrongValue => 1,
        StageVerdict::TooSlow => 2,
        StageVerdict::Timeout => 3,
    };
    ((t ^ 0x0F) << 4) | t
}

fn vote_from_byte(b: u8) -> Result<StageVerdict, CodecError> {
    let t = b & 0x0F;
    if (b >> 4) != (t ^ 0x0F) {
        return Err(CodecError::BadField("vote tag"));
    }
    Ok(match t {
        0 => StageVerdict::Pass,
        1 => StageVerdict::WrongValue,
        2 => StageVerdict::TooSlow,
        3 => StageVerdict::Timeout,
        _ => return Err(CodecError::BadField("vote tag")),
    })
}

/// Decoding failures (all fail closed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Fewer bytes than a header or a declared field requires.
    Truncated,
    /// The magic bytes did not match.
    BadMagic(u16),
    /// The version is not [`VERSION`].
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// A length field exceeded [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Bytes left over after the payload was fully parsed.
    Trailing(usize),
    /// A field held a value outside its domain.
    BadField(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::Oversize(n) => write!(f, "length field {n} exceeds maximum"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::BadField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a frame into its wire representation: one allocation, sized
/// for the frame. The header goes in first with a zero length, the
/// payload is encoded behind it, and the length is patched in last.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = match frame {
        Frame::Sake(msg) => encode_sake(msg),
        Frame::Channel(wire) => {
            let mut p = start_frame(K_CHANNEL, 33 + wire.body.len());
            canon::put_u64(&mut p, wire.seq);
            canon::put_u32(&mut p, wire.addr);
            canon::put_u8(&mut p, wire.confidential as u8);
            canon::put_fixed(&mut p, &wire.mac);
            canon::put_bytes(&mut p, &wire.body);
            p
        }
        Frame::Challenge { round, challenges } => {
            let mut p = start_frame(K_CHALLENGE, 12 + challenges.len() * 16);
            canon::put_u64(&mut p, *round);
            canon::put_u32(&mut p, challenges.len() as u32);
            for c in challenges {
                canon::put_fixed(&mut p, c);
            }
            p
        }
        Frame::Response {
            round,
            checksum,
            measured_cycles,
        } => {
            let mut p = start_frame(K_RESPONSE, 48);
            canon::put_u64(&mut p, *round);
            for &w in checksum {
                canon::put_u32(&mut p, w);
            }
            canon::put_u64(&mut p, *measured_cycles);
            p
        }
        Frame::SakeCommitTimed {
            w2,
            mac,
            measured_cycles,
        } => {
            let mut p = start_frame(K_SAKE_COMMIT_TIMED, 56);
            canon::put_fixed(&mut p, w2);
            canon::put_fixed(&mut p, mac);
            canon::put_u64(&mut p, *measured_cycles);
            p
        }
        Frame::LinkNonce { nonce } => {
            let mut p = start_frame(K_LINK_NONCE, nonce.len());
            canon::put_fixed(&mut p, nonce);
            p
        }
        Frame::Enroll { device } => {
            let mut p = start_frame(K_ENROLL, 2 + device.len());
            put_name(&mut p, device);
            p
        }
        Frame::Hello {
            device,
            nonce,
            resume_from,
            mac,
        } => {
            let mut p = start_frame(K_HELLO, 42 + device.len());
            put_name(&mut p, device);
            canon::put_fixed(&mut p, nonce);
            canon::put_u64(&mut p, *resume_from);
            canon::put_fixed(&mut p, mac);
            p
        }
        Frame::HelloAck { nonce, mac } => {
            let mut p = start_frame(K_HELLO_ACK, 32);
            canon::put_fixed(&mut p, nonce);
            canon::put_fixed(&mut p, mac);
            p
        }
        Frame::Heartbeat { seq, echo } => {
            let mut p = start_frame(K_HEARTBEAT, 9);
            canon::put_u64(&mut p, *seq);
            canon::put_u8(&mut p, *echo as u8);
            p
        }
        Frame::QuorumVote {
            verifier,
            device,
            round,
            vote,
            mac,
        } => {
            let mut p = start_frame(K_QUORUM_VOTE, 29 + device.len());
            canon::put_u16(&mut p, *verifier);
            put_name(&mut p, device);
            canon::put_u64(&mut p, *round);
            canon::put_u8(&mut p, vote_byte(*vote));
            canon::put_fixed(&mut p, mac);
            p
        }
    };
    let len = out.len() - HEADER_BYTES;
    assert!(len <= MAX_PAYLOAD as usize, "frame payload too large");
    out[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    out
}

/// Starts a frame of `kind` in a buffer with room for `payload` more
/// bytes: the header, with the length left zero for [`encode`] to patch.
fn start_frame(kind: u8, payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload);
    canon::put_u16(&mut out, MAGIC);
    canon::put_u8(&mut out, VERSION);
    canon::put_u8(&mut out, kind);
    canon::put_u32(&mut out, 0);
    out
}

fn encode_sake(msg: &SakeMessage) -> Vec<u8> {
    match msg {
        SakeMessage::Challenge { v2 } => {
            let mut p = start_frame(K_SAKE_CHALLENGE, v2.len());
            canon::put_fixed(&mut p, v2);
            p
        }
        SakeMessage::Commit { w2, mac } => {
            let mut p = start_frame(K_SAKE_COMMIT, 48);
            canon::put_fixed(&mut p, w2);
            canon::put_fixed(&mut p, mac);
            p
        }
        SakeMessage::RevealV1 { v1 } => {
            let mut p = start_frame(K_SAKE_REVEAL_V1, v1.len());
            canon::put_fixed(&mut p, v1);
            p
        }
        SakeMessage::DeviceReveal1 { w1, k, mac_k } => {
            let mut p = start_frame(K_SAKE_DEV_REVEAL1, 52 + k.len());
            canon::put_fixed(&mut p, w1);
            canon::put_bytes(&mut p, k);
            canon::put_fixed(&mut p, mac_k);
            p
        }
        SakeMessage::RevealV0 { v0 } => {
            let mut p = start_frame(K_SAKE_REVEAL_V0, 4 + v0.len());
            canon::put_bytes(&mut p, v0);
            p
        }
        SakeMessage::DeviceReveal0 { w0 } => {
            let mut p = start_frame(K_SAKE_DEV_REVEAL0, w0.len());
            canon::put_fixed(&mut p, w0);
            p
        }
    }
}

/// Appends a device name as the link frames and MAC transcripts carry
/// it: a `u16` length, then the bytes.
///
/// # Panics
///
/// When the name is longer than [`MAX_NAME`]; the service refuses such
/// names at enrollment, and the decoder rejects them.
pub(crate) fn put_name(out: &mut Vec<u8>, name: &str) {
    assert!(name.len() <= MAX_NAME, "device name too long for the wire");
    canon::put_u16(out, name.len() as u16);
    out.extend_from_slice(name.as_bytes());
}

fn read_name(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = r.u16()?;
    if len as usize > MAX_NAME {
        return Err(CodecError::Oversize(len.into()));
    }
    String::from_utf8(r.take(len.into())?.to_vec()).map_err(|_| CodecError::BadField("device name"))
}

fn read_flag(r: &mut Reader<'_>, field: &'static str) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::BadField(field)),
    }
}

impl From<CanonError> for CodecError {
    fn from(e: CanonError) -> CodecError {
        match e {
            CanonError::Truncated => CodecError::Truncated,
            CanonError::BadTag { field, .. } => CodecError::BadField(field),
            CanonError::OversizedField(len) => CodecError::Oversize(len),
            CanonError::TrailingBytes(n) => CodecError::Trailing(n),
        }
    }
}

/// Decodes a wire buffer back into a frame.
pub fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
    let mut r = Reader::new(bytes);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = r.u8()?;
    let len = r.u32()?;
    if len > MAX_PAYLOAD {
        return Err(CodecError::Oversize(len));
    }
    if r.remaining() != len as usize {
        // Either truncated relative to the declared length, or carrying
        // trailing garbage past it.
        return if r.remaining() < len as usize {
            Err(CodecError::Truncated)
        } else {
            Err(CodecError::Trailing(r.remaining() - len as usize))
        };
    }
    // Struct fields below are read in the order written, which is the
    // wire order.
    let frame = match kind {
        K_SAKE_CHALLENGE => Frame::Sake(SakeMessage::Challenge { v2: r.fixed()? }),
        K_SAKE_COMMIT => Frame::Sake(SakeMessage::Commit {
            w2: r.fixed()?,
            mac: r.fixed()?,
        }),
        K_SAKE_REVEAL_V1 => Frame::Sake(SakeMessage::RevealV1 { v1: r.fixed()? }),
        K_SAKE_DEV_REVEAL1 => Frame::Sake(SakeMessage::DeviceReveal1 {
            w1: r.fixed()?,
            k: r.bytes()?,
            mac_k: r.fixed()?,
        }),
        K_SAKE_REVEAL_V0 => Frame::Sake(SakeMessage::RevealV0 { v0: r.bytes()? }),
        K_SAKE_DEV_REVEAL0 => Frame::Sake(SakeMessage::DeviceReveal0 { w0: r.fixed()? }),
        K_CHANNEL => Frame::Channel(Wire {
            seq: r.u64()?,
            addr: r.u32()?,
            confidential: read_flag(&mut r, "confidential flag")?,
            mac: r.fixed()?,
            body: r.bytes()?,
        }),
        K_CHALLENGE => {
            let round = r.u64()?;
            let count = r.u32()?;
            if count > MAX_PAYLOAD / 16 {
                return Err(CodecError::Oversize(count));
            }
            let mut challenges = Vec::with_capacity((count as usize).min(r.remaining() / 16));
            for _ in 0..count {
                challenges.push(r.fixed()?);
            }
            Frame::Challenge { round, challenges }
        }
        K_RESPONSE => {
            let round = r.u64()?;
            let mut checksum = [0u32; 8];
            for w in &mut checksum {
                *w = r.u32()?;
            }
            Frame::Response {
                round,
                checksum,
                measured_cycles: r.u64()?,
            }
        }
        K_SAKE_COMMIT_TIMED => Frame::SakeCommitTimed {
            w2: r.fixed()?,
            mac: r.fixed()?,
            measured_cycles: r.u64()?,
        },
        K_LINK_NONCE => Frame::LinkNonce { nonce: r.fixed()? },
        K_ENROLL => Frame::Enroll {
            device: read_name(&mut r)?,
        },
        K_HELLO => Frame::Hello {
            device: read_name(&mut r)?,
            nonce: r.fixed()?,
            resume_from: r.u64()?,
            mac: r.fixed()?,
        },
        K_HELLO_ACK => Frame::HelloAck {
            nonce: r.fixed()?,
            mac: r.fixed()?,
        },
        K_HEARTBEAT => Frame::Heartbeat {
            seq: r.u64()?,
            echo: read_flag(&mut r, "heartbeat echo flag")?,
        },
        K_QUORUM_VOTE => Frame::QuorumVote {
            verifier: r.u16()?,
            device: read_name(&mut r)?,
            round: r.u64()?,
            vote: vote_from_byte(r.u8()?)?,
            mac: r.fixed()?,
        },
        other => return Err(CodecError::BadKind(other)),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode(&frame);
        assert_eq!(decode(&bytes).unwrap(), frame, "roundtrip {frame:?}");
    }

    #[test]
    fn all_sake_messages_roundtrip() {
        roundtrip(Frame::Sake(SakeMessage::Challenge { v2: [1; 32] }));
        roundtrip(Frame::Sake(SakeMessage::Commit {
            w2: [2; 32],
            mac: [3; 16],
        }));
        roundtrip(Frame::Sake(SakeMessage::RevealV1 { v1: [4; 32] }));
        roundtrip(Frame::Sake(SakeMessage::DeviceReveal1 {
            w1: [5; 32],
            k: vec![6, 7, 8],
            mac_k: [9; 16],
        }));
        roundtrip(Frame::Sake(SakeMessage::RevealV0 { v0: vec![] }));
        roundtrip(Frame::Sake(SakeMessage::DeviceReveal0 { w0: [10; 32] }));
    }

    #[test]
    fn channel_and_service_frames_roundtrip() {
        roundtrip(Frame::Channel(Wire {
            seq: 7,
            addr: 0x1000,
            body: b"ciphertext".to_vec(),
            confidential: true,
            mac: [0xAB; 16],
        }));
        roundtrip(Frame::Challenge {
            round: 3,
            challenges: vec![[1; 16], [2; 16]],
        });
        roundtrip(Frame::Challenge {
            round: 0,
            challenges: vec![],
        });
        roundtrip(Frame::Response {
            round: 3,
            checksum: [1, 2, 3, 4, 5, 6, 7, 8],
            measured_cycles: 12345,
        });
    }

    #[test]
    fn link_frames_roundtrip() {
        roundtrip(Frame::SakeCommitTimed {
            w2: [0x11; 32],
            mac: [0x22; 16],
            measured_cycles: 987_654,
        });
        roundtrip(Frame::LinkNonce { nonce: [0x33; 16] });
        roundtrip(Frame::Enroll {
            device: "gpu-00042".to_string(),
        });
        roundtrip(Frame::Enroll {
            device: String::new(),
        });
        roundtrip(Frame::Hello {
            device: "gpu-a".to_string(),
            nonce: [0x44; 16],
            resume_from: 17,
            mac: [0x55; 16],
        });
        roundtrip(Frame::HelloAck {
            nonce: [0x66; 16],
            mac: [0x77; 16],
        });
        roundtrip(Frame::Heartbeat {
            seq: 9,
            echo: false,
        });
        roundtrip(Frame::Heartbeat {
            seq: 10,
            echo: true,
        });
    }

    #[test]
    fn quorum_frames_roundtrip() {
        for vote in [
            StageVerdict::Pass,
            StageVerdict::WrongValue,
            StageVerdict::TooSlow,
            StageVerdict::Timeout,
        ] {
            roundtrip(Frame::QuorumVote {
                verifier: 3,
                device: "gpu-07".to_string(),
                round: 42,
                vote,
                mac: [0x5A; 16],
            });
        }
    }

    #[test]
    fn every_single_bit_vote_tag_mutation_rejected() {
        let device = "gpu-07";
        let bytes = encode(&Frame::QuorumVote {
            verifier: 1,
            device: device.to_string(),
            round: 5,
            vote: StageVerdict::Pass,
            mac: [0x11; 16],
        });
        // Payload layout: verifier u16, name (u16 len + bytes), round
        // u64, vote byte, mac.
        let vote_off = HEADER_BYTES + 2 + 2 + device.len() + 8;
        for vote in [
            StageVerdict::Pass,
            StageVerdict::WrongValue,
            StageVerdict::TooSlow,
            StageVerdict::Timeout,
        ] {
            let mut bytes = bytes.clone();
            bytes[vote_off] = super::vote_byte(vote);
            assert!(decode(&bytes).is_ok());
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[vote_off] ^= 1 << bit;
                assert_eq!(
                    decode(&mutated),
                    Err(CodecError::BadField("vote tag")),
                    "single-bit flip {bit} of vote {vote:?} must be rejected"
                );
            }
        }
    }

    #[test]
    fn oversize_name_and_bad_flags_rejected() {
        // A Hello whose name-length field claims more than MAX_NAME.
        let mut bytes = encode(&Frame::Hello {
            device: "x".to_string(),
            nonce: [0; 16],
            resume_from: 0,
            mac: [0; 16],
        });
        let mut len = Vec::new();
        canon::put_u16(&mut len, MAX_NAME as u16 + 1);
        bytes[HEADER_BYTES..HEADER_BYTES + 2].copy_from_slice(&len);
        assert!(matches!(decode(&bytes), Err(CodecError::Oversize(_))));

        // Non-UTF-8 name bytes.
        let mut bytes = encode(&Frame::Enroll {
            device: "ab".to_string(),
        });
        bytes[HEADER_BYTES + 2] = 0xFF;
        bytes[HEADER_BYTES + 3] = 0xFE;
        assert_eq!(decode(&bytes), Err(CodecError::BadField("device name")));

        // Heartbeat echo flag outside {0, 1}.
        let mut bytes = encode(&Frame::Heartbeat { seq: 1, echo: true });
        bytes[HEADER_BYTES + 8] = 7;
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadField("heartbeat echo flag"))
        );
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut bytes = encode(&Frame::Sake(SakeMessage::Challenge { v2: [0; 32] }));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(CodecError::BadMagic(_))));
        let mut bad = bytes.clone();
        bad[2] = 9;
        assert_eq!(decode(&bad), Err(CodecError::BadVersion(9)));
        bytes[3] = 0x7F;
        assert_eq!(decode(&bytes), Err(CodecError::BadKind(0x7F)));
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let bytes = encode(&Frame::Response {
            round: 1,
            checksum: [0; 8],
            measured_cycles: 2,
        });
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn oversize_length_fields_rejected_before_allocation() {
        // A DeviceReveal1 whose inner k-length claims 256 MiB.
        let mut bytes = encode(&Frame::Sake(SakeMessage::DeviceReveal1 {
            w1: [0; 32],
            k: vec![1, 2, 3, 4],
            mac_k: [0; 16],
        }));
        let klen_off = HEADER_BYTES + 32;
        let mut klen = Vec::new();
        canon::put_u32(&mut klen, 256 << 20);
        bytes[klen_off..klen_off + 4].copy_from_slice(&klen);
        assert!(matches!(decode(&bytes), Err(CodecError::Oversize(_))));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of one frame of every kind, of both MAC
    /// transcripts and of the enclave-sealed calibration blob. Peers,
    /// recorded MACs and sealed stores depend on these layouts, so a
    /// codec change must leave every line unchanged.
    #[test]
    fn wire_and_transcript_bytes_are_pinned() {
        let frames = [
            Frame::Sake(SakeMessage::Challenge { v2: [0x01; 32] }),
            Frame::Sake(SakeMessage::Commit {
                w2: [0x02; 32],
                mac: [0x03; 16],
            }),
            Frame::Sake(SakeMessage::RevealV1 { v1: [0x04; 32] }),
            Frame::Sake(SakeMessage::DeviceReveal1 {
                w1: [0x05; 32],
                k: vec![0x06, 0x07, 0x08],
                mac_k: [0x09; 16],
            }),
            Frame::Sake(SakeMessage::RevealV0 {
                v0: vec![0x0A, 0x0B],
            }),
            Frame::Sake(SakeMessage::DeviceReveal0 { w0: [0x0C; 32] }),
            Frame::Channel(Wire {
                seq: 0x0102_0304_0506_0708,
                addr: 0x1000,
                body: b"body".to_vec(),
                confidential: true,
                mac: [0x0D; 16],
            }),
            Frame::Challenge {
                round: 3,
                challenges: vec![[0x0E; 16], [0x0F; 16]],
            },
            Frame::Response {
                round: 4,
                checksum: [1, 2, 3, 4, 5, 6, 7, 0xDEAD_BEEF],
                measured_cycles: 12_345,
            },
            Frame::SakeCommitTimed {
                w2: [0x11; 32],
                mac: [0x12; 16],
                measured_cycles: 987_654,
            },
            Frame::LinkNonce { nonce: [0x13; 16] },
            Frame::Enroll {
                device: "gpu-a".to_string(),
            },
            Frame::Hello {
                device: "gpu-a".to_string(),
                nonce: [0x14; 16],
                resume_from: 17,
                mac: [0x15; 16],
            },
            Frame::HelloAck {
                nonce: [0x16; 16],
                mac: [0x17; 16],
            },
            Frame::Heartbeat { seq: 9, echo: true },
            Frame::QuorumVote {
                verifier: 3,
                device: "gpu-07".to_string(),
                round: 42,
                vote: StageVerdict::TooSlow,
                mac: [0x18; 16],
            },
        ];
        let mut got: Vec<String> = frames.iter().map(|f| hex(&encode(f))).collect();
        got.push(hex(&crate::quorum::vote_message(
            3,
            "gpu-07",
            42,
            StageVerdict::TooSlow,
        )));
        got.push(hex(&crate::tcp::hello_transcript(
            b"sage-hello",
            "gpu-a",
            &[0x14; 16],
            17,
        )));
        got.push(hex(&crate::quorum::derive_vote_key(0x51D, 2)));
        got.push(hex(&sealed_calibration()));
        let want = [
            // SAKE messages, 0x01-0x06.
            "e55a0101200000000101010101010101010101010101010101010101010101010101010101010101",
            "e55a010230000000020202020202020202020202020202020202020202020202020202020202020203030303030303030303030303030303",
            "e55a0103200000000404040404040404040404040404040404040404040404040404040404040404",
            "e55a01043700000005050505050505050505050505050505050505050505050505050505050505050300000006070809090909090909090909090909090909",
            "e55a010506000000020000000a0b",
            "e55a0106200000000c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c",
            // Channel, challenge, response.
            "e55a011025000000080706050403020100100000010d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d04000000626f6479",
            "e55a01202c0000000300000000000000020000000e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f",
            "e55a012130000000040000000000000001000000020000000300000004000000050000000600000007000000efbeadde3930000000000000",
            // Timed commit and the link frames.
            "e55a01073800000011111111111111111111111111111111111111111111111111111111111111111212121212121212121212121212121206120f0000000000",
            "e55a01301000000013131313131313131313131313131313",
            "e55a01310700000005006770752d61",
            "e55a01322f00000005006770752d6114141414141414141414141414141414110000000000000015151515151515151515151515151515",
            "e55a0133200000001616161616161616161616161616161617171717171717171717171717171717",
            "e55a013409000000090000000000000001",
            // Quorum vote.
            "e55a014023000000030006006770752d30372a00000000000000d218181818181818181818181818181818",
            // Vote MAC input, hello MAC input, a vote key, sealed calibration.
            "736167652d71756f72756d2d766f7465030006006770752d30372a0000000000000002",
            "736167652d68656c6c6f05006770752d61141414141414141414141414141414141100000000000000",
            "92f8d15296ae20344514e88ce9506258",
            "00000000004a9340000000000000194000000000000004401000000000000000",
        ];
        assert_eq!(got.len(), want.len());
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(got, want, "pinned line {i} changed");
        }
    }

    /// The plaintext a verifier seals for one fixed calibration.
    fn sealed_calibration() -> Vec<u8> {
        use sage::verifier::Verifier;
        use sage::{Calibration, GpuSession};
        use sage_gpu_sim::{Device, DeviceConfig};
        use sage_sgx_sim::SgxPlatform;

        let session = GpuSession::install_modeled(
            Device::new(DeviceConfig::sim_nano()),
            &sage_vf::VfParams::fleet_tiny(),
            0xF1EE7,
            10_000,
        )
        .expect("install modeled VF");
        let enclave = SgxPlatform::new([7u8; 16]).launch(b"pin", &mut |buf: &mut [u8]| {
            buf.fill(0x5A);
        });
        let mut verifier = Verifier::new(
            enclave,
            session.build().clone(),
            sage_crypto::DhGroup::test_group(),
        );
        verifier.set_calibration(Calibration {
            t_avg: 1234.5,
            sigma: 6.25,
            runs: 16,
            k_sigma: 2.5,
        });
        assert!(verifier.seal_calibration());
        let blob = verifier.enclave.unseal("calibration").expect("sealed");
        // The blob must also restore the calibration it sealed.
        assert!(verifier.unseal_calibration());
        blob
    }

    #[test]
    fn bad_confidential_flag_rejected() {
        let mut bytes = encode(&Frame::Channel(Wire {
            seq: 0,
            addr: 0,
            body: vec![],
            confidential: false,
            mac: [0; 16],
        }));
        bytes[HEADER_BYTES + 12] = 2;
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadField("confidential flag"))
        );
    }
}
