//! Crash-safe control-plane state: a versioned binary snapshot of
//! everything the scheduler needs to resume mid-schedule.
//!
//! The crash model: the *control-plane process* dies — its scheduler
//! state (virtual clock, per-device lifecycle, outstanding rounds,
//! backoff timers, the event log) is lost unless snapshotted — while the
//! long-lived endpoints survive: the devices themselves, their transport,
//! and the enclave-resident verifiers (whose calibration is additionally
//! re-imposed from the snapshot, mirroring the enclave's own sealing
//! path). [`AttestationService::snapshot`] serializes the scheduler
//! state; [`AttestationService::into_endpoints`] surrenders the
//! survivors; [`AttestationService::restore`] marries the two back into
//! a service whose *subsequent* event history is bit-identical to a run
//! that never crashed — the keystone invariant `tests/chaos_soak.rs` asserts.
//!
//! The format is hand-rolled little-endian (the workspace is
//! dependency-free by design), magic-tagged and versioned like the wire
//! codec, and every decode error is typed — a truncated or tampered
//! snapshot can never panic the control plane.

use sage::verifier::Verifier;
use sage::Calibration;
use sage_crypto::DhGroup;
use sage_evidence::chain::{decode_records, encode_records};
use sage_evidence::merkle::{EpochLeaf, EpochTree};
use sage_evidence::record::EvidenceRecord;
use sage_evidence::{derive_evidence_key, ChainAnchor, EvidenceChain, Freshness};

use sage_vf::ReplayPool;
use std::collections::VecDeque;

use crate::events::{Counters, Event, EventKind, EventLog, FailReason};
use crate::net::{NodeId, Transport};
use crate::node::DeviceNode;
use crate::quorum::{VerifierBehavior, VerifierSet};
use crate::service::{
    AttestationService, DeviceState, ManagedDevice, Outstanding, SealedEpoch, ServiceConfig,
    SEALED_EPOCHS_KEPT,
};
use crate::shard::{FxHashMap, ShardIndex};
use crate::wheel::TimerWheel;

/// Snapshot magic: "SAGE snap".
const MAGIC: u32 = 0x5A6E_A950;
/// Current snapshot format version. Version 2 added the evidence layer:
/// per-device session keys, evidence chains, freshness anchors, and the
/// service's sealed fleet epochs. Version 3 carries the event-log
/// counters and drop count explicitly: with a bounded log the retained
/// event window no longer determines the counters, so replaying it on
/// restore (the v2 scheme) would under-count. Version 5 added the
/// verifier-quorum layer: per-replica vote state (behavior, suspect
/// flag, dissent count, evidence-view digest), the outstanding round's
/// dispatch time (the relay detector's wall anchor), and the
/// sampling/quorum/relay counters and event kinds. Version 6 encodes each
/// evidence chain as its anchor (seq, head and the freshness anchor at
/// that point) plus the records after it, in place of the whole chain
/// and a separate freshness anchor.
const VERSION: u16 = 6;

/// Why a snapshot could not be decoded or re-married to its endpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The byte stream ended before the structure did.
    Truncated,
    /// The leading magic was not a snapshot's.
    BadMagic,
    /// A snapshot from an unknown format version.
    BadVersion(u16),
    /// An enum tag held an out-of-range value.
    BadTag {
        /// Which field the tag belongs to.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A device name in the snapshot was not valid UTF-8.
    BadName,
    /// Bytes remained after the structure ended.
    TrailingBytes,
    /// The snapshot names a device no provided endpoint serves.
    MissingEndpoint(String),
    /// An endpoint was provided for a device the snapshot doesn't know.
    UnknownDevice(String),
    /// A device's evidence blob does not decode, its records fail
    /// re-verification from its anchor, or the anchor is neither
    /// genesis nor the device's leaf in the newest sealed epoch.
    BadEvidence(String),
    /// The newest sealed epoch's leaves do not re-hash to its recorded
    /// root.
    BadEpoch {
        /// The epoch's index.
        index: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a service snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadTag { field, value } => {
                write!(f, "bad {field} tag {value} in snapshot")
            }
            SnapshotError::BadName => write!(f, "device name in snapshot is not UTF-8"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::MissingEndpoint(n) => {
                write!(f, "snapshot device {n:?} has no surviving endpoint")
            }
            SnapshotError::UnknownDevice(n) => {
                write!(f, "endpoint {n:?} is not in the snapshot")
            }
            SnapshotError::BadEvidence(n) => {
                write!(f, "evidence chain for device {n:?} fails re-verification")
            }
            SnapshotError::BadEpoch { index } => {
                write!(f, "sealed epoch {index} leaves do not re-hash to its root")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A surviving device endpoint: the network-facing node (session, agent,
/// transport address) and its enclave-resident verifier. Produced by
/// [`AttestationService::into_endpoints`], consumed by
/// [`AttestationService::restore`].
pub struct Endpoint {
    /// The device node (session + agent + transport address).
    pub node: DeviceNode,
    /// The verifier enclave paired with this device.
    pub verifier: Verifier,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    put_u16(out, bytes.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn state_tag(s: DeviceState) -> u8 {
    match s {
        DeviceState::Enrolled => 0,
        DeviceState::Attesting => 1,
        DeviceState::Trusted => 2,
        DeviceState::Degraded => 3,
        DeviceState::Quarantined => 4,
        DeviceState::Revoked => 5,
    }
}

fn reason_tag(r: FailReason) -> u8 {
    match r {
        FailReason::WrongValue => 0,
        FailReason::TooSlow => 1,
        FailReason::Timeout => 2,
        FailReason::LinkDown => 3,
        FailReason::Relay => 4,
    }
}

fn put_event(out: &mut Vec<u8>, e: &Event) {
    put_u64(out, e.at);
    put_str(out, &e.device);
    match &e.kind {
        EventKind::Joined => out.push(0),
        EventKind::CalibrationFailed => out.push(1),
        EventKind::EstablishFailed => out.push(2),
        EventKind::StateChanged { from, to } => {
            out.push(3);
            out.push(state_tag(*from));
            out.push(state_tag(*to));
        }
        EventKind::RoundStarted { round } => {
            out.push(4);
            put_u64(out, *round);
        }
        EventKind::RoundPassed { round, measured } => {
            out.push(5);
            put_u64(out, *round);
            put_u64(out, *measured);
        }
        EventKind::RoundFailed { round, reason } => {
            out.push(6);
            put_u64(out, *round);
            out.push(reason_tag(*reason));
        }
        EventKind::Restarted { round } => {
            out.push(7);
            put_u64(out, *round);
        }
        EventKind::LateResponse { round } => {
            out.push(8);
            put_u64(out, *round);
        }
        EventKind::Left => out.push(9),
        EventKind::FreshnessChanged { from, to } => {
            out.push(10);
            out.push(from.tag());
            out.push(to.tag());
        }
        EventKind::EpochSealed { epoch, root } => {
            out.push(11);
            put_u64(out, *epoch);
            out.extend_from_slice(root);
        }
        EventKind::LinkDown => out.push(12),
        EventKind::LinkResumed => out.push(13),
        EventKind::SpotCheckSkipped { epoch } => {
            out.push(14);
            put_u64(out, *epoch);
        }
        EventKind::QuorumDisputed {
            round,
            accepts,
            rejects,
        } => {
            out.push(15);
            put_u64(out, *round);
            put_u16(out, *accepts);
            put_u16(out, *rejects);
        }
        EventKind::VerifierSuspected { verifier, round } => {
            out.push(16);
            put_u16(out, *verifier);
            put_u64(out, *round);
        }
    }
}

pub(crate) fn encode<T: Transport>(svc: &AttestationService<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    put_u32(&mut out, MAGIC);
    put_u16(&mut out, VERSION);
    put_u64(&mut out, svc.now);
    put_u16(&mut out, svc.next_node);
    put_u32(&mut out, svc.devices.len() as u32);
    for d in &svc.devices {
        put_str(&mut out, &d.node.member.name);
        put_u16(&mut out, d.node.id.0);
        out.push(state_tag(d.state));
        put_u64(&mut out, d.round);
        put_u64(&mut out, d.rounds_passed);
        put_u32(&mut out, d.consecutive_failures);
        put_u32(&mut out, d.consecutive_value_failures);
        put_u32(&mut out, d.consecutive_restarts);
        match d.next_action_at {
            Some(t) => {
                out.push(1);
                put_u64(&mut out, t);
            }
            None => out.push(0),
        }
        match &d.outstanding {
            Some(o) => {
                out.push(1);
                put_u64(&mut out, o.round);
                put_u64(&mut out, o.deadline);
                put_u64(&mut out, o.started_at);
                match o.expected {
                    Some(words) => {
                        out.push(1);
                        for w in words {
                            put_u32(&mut out, w);
                        }
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, o.challenges.len() as u32);
                for c in &o.challenges {
                    out.extend_from_slice(c);
                }
            }
            None => out.push(0),
        }
        match d.verifier.calibration() {
            Some(c) => {
                out.push(1);
                put_f64(&mut out, c.t_avg);
                put_f64(&mut out, c.sigma);
                put_f64(&mut out, c.k_sigma);
                put_u64(&mut out, c.runs as u64);
            }
            None => out.push(0),
        }
        match d.session_key {
            Some(sk) => {
                out.push(1);
                out.extend_from_slice(&sk);
            }
            None => out.push(0),
        }
        match &d.evidence {
            Some(chain) => {
                out.push(1);
                let anchor = chain.anchor();
                put_u64(&mut out, anchor.seq);
                out.extend_from_slice(&anchor.head);
                match anchor.last_pass_at {
                    Some(t) => {
                        out.push(1);
                        put_u64(&mut out, t);
                    }
                    None => out.push(0),
                }
                let blob = encode_records(chain.records());
                put_u32(&mut out, blob.len() as u32);
                out.extend_from_slice(&blob);
            }
            None => out.push(0),
        }
        out.push(d.freshness.tag());
    }
    match svc.next_seal_at {
        Some(t) => {
            out.push(1);
            put_u64(&mut out, t);
        }
        None => out.push(0),
    }
    put_u32(&mut out, svc.sealed_epochs.len() as u32);
    for e in &svc.sealed_epochs {
        put_u64(&mut out, e.index);
        put_u64(&mut out, e.at);
        out.extend_from_slice(&e.root);
        put_u32(&mut out, e.leaves.len() as u32);
        for l in &e.leaves {
            put_str(&mut out, &l.device);
            out.extend_from_slice(&l.head);
            put_u64(&mut out, l.seq);
        }
    }
    let events = svc.log.events();
    put_u32(&mut out, events.len() as u32);
    for e in events {
        put_event(&mut out, e);
    }
    put_counters(&mut out, &svc.log.counters());
    put_u64(&mut out, svc.log.events_dropped());
    // Verifier-quorum running state. Vote keys are not snapshotted:
    // they re-derive from the configured quorum seed on restore,
    // mirroring how device session keys survive in the endpoints.
    match &svc.quorum {
        Some(set) => {
            out.push(1);
            put_u16(&mut out, set.len() as u16);
            put_u64(&mut out, set.rounds);
            put_u64(&mut out, set.disputes);
            for rep in set.replicas() {
                out.push(rep.behavior.tag());
                out.push(u8::from(rep.suspected));
                put_u64(&mut out, rep.dissents);
                out.extend_from_slice(&rep.view);
            }
        }
        None => out.push(0),
    }
    out
}

/// Counters are encoded in declaration order; the decoder mirrors this.
fn put_counters(out: &mut Vec<u8>, c: &Counters) {
    for v in [
        c.joins,
        c.leaves,
        c.rounds_started,
        c.rounds_passed,
        c.value_rejects,
        c.timing_rejects,
        c.timeouts,
        c.restarts,
        c.late_responses,
        c.quarantines,
        c.calibration_failures,
        c.freshness_transitions,
        c.epochs_sealed,
        c.link_downs,
        c.link_resumes,
        c.spotcheck_skips,
        c.quorum_disputes,
        c.verifier_suspects,
        c.relay_rejects,
    ] {
        put_u64(out, v);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u16()? as usize;
        let b = self.bytes(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::BadName)
    }

    fn state(&mut self) -> Result<DeviceState, SnapshotError> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => DeviceState::Enrolled,
            1 => DeviceState::Attesting,
            2 => DeviceState::Trusted,
            3 => DeviceState::Degraded,
            4 => DeviceState::Quarantined,
            5 => DeviceState::Revoked,
            value => {
                return Err(SnapshotError::BadTag {
                    field: "device state",
                    value,
                })
            }
        })
    }

    fn reason(&mut self) -> Result<FailReason, SnapshotError> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => FailReason::WrongValue,
            1 => FailReason::TooSlow,
            2 => FailReason::Timeout,
            3 => FailReason::LinkDown,
            4 => FailReason::Relay,
            value => {
                return Err(SnapshotError::BadTag {
                    field: "fail reason",
                    value,
                })
            }
        })
    }

    fn flag(&mut self, field: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(SnapshotError::BadTag { field, value }),
        }
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    fn freshness(&mut self) -> Result<Freshness, SnapshotError> {
        let value = self.u8()?;
        Freshness::from_tag(value).map_err(|_| SnapshotError::BadTag {
            field: "freshness",
            value,
        })
    }
}

/// Scheduler-side state of one device, decoded from a snapshot.
struct DeviceRecord {
    name: String,
    node: NodeId,
    state: DeviceState,
    round: u64,
    rounds_passed: u64,
    consecutive_failures: u32,
    consecutive_value_failures: u32,
    consecutive_restarts: u32,
    next_action_at: Option<u64>,
    outstanding: Option<Outstanding>,
    calibration: Option<Calibration>,
    session_key: Option<[u8; 16]>,
    evidence: Option<(ChainAnchor, Vec<EvidenceRecord>)>,
    freshness: Freshness,
}

/// One verifier replica's durable state, decoded from a snapshot.
struct ReplicaRecord {
    behavior: VerifierBehavior,
    suspected: bool,
    dissents: u64,
    view: [u8; 32],
}

/// The quorum's durable state, decoded from a snapshot.
struct QuorumRecord {
    rounds: u64,
    disputes: u64,
    replicas: Vec<ReplicaRecord>,
}

struct Decoded {
    now: u64,
    next_node: u16,
    devices: Vec<DeviceRecord>,
    next_seal_at: Option<u64>,
    sealed_epochs: Vec<SealedEpoch>,
    events: Vec<Event>,
    counters: Counters,
    events_dropped: u64,
    quorum: Option<QuorumRecord>,
}

fn decode(bytes: &[u8]) -> Result<Decoded, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let now = r.u64()?;
    let next_node = r.u16()?;
    let n_devices = r.u32()? as usize;
    let mut devices = Vec::new();
    for _ in 0..n_devices {
        let name = r.str()?;
        let node = NodeId(r.u16()?);
        let state = r.state()?;
        let round = r.u64()?;
        let rounds_passed = r.u64()?;
        let consecutive_failures = r.u32()?;
        let consecutive_value_failures = r.u32()?;
        let consecutive_restarts = r.u32()?;
        let next_action_at = r.flag("next_action_at")?.then(|| r.u64()).transpose()?;
        let outstanding = if r.flag("outstanding")? {
            let o_round = r.u64()?;
            let deadline = r.u64()?;
            let started_at = r.u64()?;
            let expected = if r.flag("expected")? {
                let mut words = [0u32; 8];
                for w in &mut words {
                    *w = r.u32()?;
                }
                Some(words)
            } else {
                None
            };
            let n_ch = r.u32()? as usize;
            let mut challenges = Vec::new();
            for _ in 0..n_ch {
                let mut c = [0u8; 16];
                c.copy_from_slice(r.bytes(16)?);
                challenges.push(c);
            }
            Some(Outstanding {
                round: o_round,
                challenges,
                expected,
                deadline,
                started_at,
            })
        } else {
            None
        };
        let calibration = if r.flag("calibration")? {
            Some(Calibration {
                t_avg: r.f64()?,
                sigma: r.f64()?,
                k_sigma: r.f64()?,
                runs: r.u64()? as usize,
            })
        } else {
            None
        };
        let session_key = r
            .flag("session_key")?
            .then(|| r.fixed::<16>())
            .transpose()?;
        let evidence = if r.flag("evidence")? {
            let anchor = ChainAnchor {
                seq: r.u64()?,
                head: r.fixed::<32>()?,
                last_pass_at: r.flag("last_pass_at")?.then(|| r.u64()).transpose()?,
            };
            let len = r.u32()? as usize;
            let blob = r.bytes(len)?;
            let mut cr = sage_crypto::canon::Reader::new(blob);
            let records = decode_records(&mut cr)
                .and_then(|recs| cr.finish().map(|_| recs))
                .map_err(|_| SnapshotError::BadEvidence(name.clone()))?;
            Some((anchor, records))
        } else {
            None
        };
        let freshness = r.freshness()?;
        devices.push(DeviceRecord {
            name,
            node,
            state,
            round,
            rounds_passed,
            consecutive_failures,
            consecutive_value_failures,
            consecutive_restarts,
            next_action_at,
            outstanding,
            calibration,
            session_key,
            evidence,
            freshness,
        });
    }
    let next_seal_at = r.flag("next_seal_at")?.then(|| r.u64()).transpose()?;
    let n_epochs = r.u32()? as usize;
    let mut sealed_epochs = Vec::new();
    for _ in 0..n_epochs {
        let index = r.u64()?;
        let at = r.u64()?;
        let root = r.fixed::<32>()?;
        let n_leaves = r.u32()? as usize;
        let mut leaves = Vec::new();
        for _ in 0..n_leaves {
            leaves.push(EpochLeaf {
                device: r.str()?,
                head: r.fixed::<32>()?,
                seq: r.u64()?,
            });
        }
        sealed_epochs.push(SealedEpoch {
            index,
            at,
            root,
            leaves,
        });
    }
    let n_events = r.u32()? as usize;
    let mut events = Vec::new();
    for _ in 0..n_events {
        let at = r.u64()?;
        let device = r.str()?;
        let tag = r.u8()?;
        let kind = match tag {
            0 => EventKind::Joined,
            1 => EventKind::CalibrationFailed,
            2 => EventKind::EstablishFailed,
            3 => EventKind::StateChanged {
                from: r.state()?,
                to: r.state()?,
            },
            4 => EventKind::RoundStarted { round: r.u64()? },
            5 => EventKind::RoundPassed {
                round: r.u64()?,
                measured: r.u64()?,
            },
            6 => EventKind::RoundFailed {
                round: r.u64()?,
                reason: r.reason()?,
            },
            7 => EventKind::Restarted { round: r.u64()? },
            8 => EventKind::LateResponse { round: r.u64()? },
            9 => EventKind::Left,
            10 => EventKind::FreshnessChanged {
                from: r.freshness()?,
                to: r.freshness()?,
            },
            11 => EventKind::EpochSealed {
                epoch: r.u64()?,
                root: r.fixed::<32>()?,
            },
            12 => EventKind::LinkDown,
            13 => EventKind::LinkResumed,
            14 => EventKind::SpotCheckSkipped { epoch: r.u64()? },
            15 => EventKind::QuorumDisputed {
                round: r.u64()?,
                accepts: r.u16()?,
                rejects: r.u16()?,
            },
            16 => EventKind::VerifierSuspected {
                verifier: r.u16()?,
                round: r.u64()?,
            },
            value => {
                return Err(SnapshotError::BadTag {
                    field: "event kind",
                    value,
                })
            }
        };
        events.push(Event { at, device, kind });
    }
    let counters = Counters {
        joins: r.u64()?,
        leaves: r.u64()?,
        rounds_started: r.u64()?,
        rounds_passed: r.u64()?,
        value_rejects: r.u64()?,
        timing_rejects: r.u64()?,
        timeouts: r.u64()?,
        restarts: r.u64()?,
        late_responses: r.u64()?,
        quarantines: r.u64()?,
        calibration_failures: r.u64()?,
        freshness_transitions: r.u64()?,
        epochs_sealed: r.u64()?,
        link_downs: r.u64()?,
        link_resumes: r.u64()?,
        spotcheck_skips: r.u64()?,
        quorum_disputes: r.u64()?,
        verifier_suspects: r.u64()?,
        relay_rejects: r.u64()?,
    };
    let events_dropped = r.u64()?;
    let quorum = if r.flag("quorum")? {
        let n = r.u16()? as usize;
        let rounds = r.u64()?;
        let disputes = r.u64()?;
        let mut replicas = Vec::with_capacity(n);
        for _ in 0..n {
            let value = r.u8()?;
            let behavior = VerifierBehavior::from_tag(value).ok_or(SnapshotError::BadTag {
                field: "verifier behavior",
                value,
            })?;
            let suspected = r.flag("verifier suspected")?;
            let dissents = r.u64()?;
            let view = r.fixed::<32>()?;
            replicas.push(ReplicaRecord {
                behavior,
                suspected,
                dissents,
                view,
            });
        }
        Some(QuorumRecord {
            rounds,
            disputes,
            replicas,
        })
    } else {
        None
    };
    if r.pos != bytes.len() {
        return Err(SnapshotError::TrailingBytes);
    }
    Ok(Decoded {
        now,
        next_node,
        devices,
        next_seal_at,
        sealed_epochs,
        events,
        counters,
        events_dropped,
        quorum,
    })
}

pub(crate) fn restore<T: Transport>(
    cfg: ServiceConfig,
    group: DhGroup,
    net: T,
    bytes: &[u8],
    endpoints: Vec<Endpoint>,
) -> Result<AttestationService<T>, SnapshotError> {
    let mut decoded = decode(bytes)?;
    let excess = decoded
        .sealed_epochs
        .len()
        .saturating_sub(SEALED_EPOCHS_KEPT);
    decoded.sealed_epochs.drain(..excess);
    // Only the newest epoch keeps leaves (a doctored snapshot may still
    // carry superseded ones: drop them), and they must re-hash to its
    // recorded root before its kept levels serve any report or vouch
    // for any chain anchor.
    let epoch_tree = match decoded.sealed_epochs.split_last_mut() {
        Some((newest, superseded)) => {
            for e in superseded {
                e.leaves = Vec::new();
            }
            let tree = EpochTree::new(&newest.leaves);
            if tree.root() != newest.root {
                return Err(SnapshotError::BadEpoch {
                    index: newest.index,
                });
            }
            tree
        }
        None => EpochTree::new(&[]),
    };
    // Re-marry scheduler records with surviving endpoints by device
    // name. Every record needs its endpoint and vice versa — a partial
    // fleet is a different deployment, not a restart. Records sharing a
    // name take that name's endpoints in order.
    let mut by_name: FxHashMap<String, VecDeque<usize>> = FxHashMap::default();
    for (pos, ep) in endpoints.iter().enumerate() {
        let name = ep.node.member.name.clone();
        by_name.entry(name).or_default().push_back(pos);
    }
    let mut endpoint_pool: Vec<Option<Endpoint>> = endpoints.into_iter().map(Some).collect();
    let mut devices = Vec::with_capacity(decoded.devices.len());
    for rec in decoded.devices {
        let mut ep = by_name
            .get_mut(&rec.name)
            .and_then(VecDeque::pop_front)
            .and_then(|pos| endpoint_pool[pos].take())
            .ok_or_else(|| SnapshotError::MissingEndpoint(rec.name.clone()))?;
        // The scheduler's view is authoritative for addressing and
        // calibration (the latter mirrors the enclave's sealed copy).
        ep.node.id = rec.node;
        if let Some(c) = rec.calibration {
            ep.verifier.set_calibration(c);
        }
        // The evidence chain is rebuilt from its anchor and the records
        // after it, re-verified link by link from the anchor, and the
        // anchor must be one the newest sealed root vouches for: genesis,
        // or this device's leaf. Anything else is rejected, and the
        // restored head is byte-identical to the pre-crash head by
        // construction.
        let evidence = match (&rec.session_key, rec.evidence) {
            (Some(sk), Some((anchor, records))) => {
                let bad = || SnapshotError::BadEvidence(rec.name.clone());
                if !anchor_is_sealed(&rec.name, &anchor, decoded.sealed_epochs.last()) {
                    return Err(bad());
                }
                Some(
                    EvidenceChain::restore(&rec.name, derive_evidence_key(sk), anchor, records)
                        .map_err(|_| bad())?,
                )
            }
            (None, Some(_)) => return Err(SnapshotError::BadEvidence(rec.name.clone())),
            _ => None,
        };
        devices.push(ManagedDevice {
            node: ep.node,
            verifier: ep.verifier,
            state: rec.state,
            round: rec.round,
            rounds_passed: rec.rounds_passed,
            consecutive_failures: rec.consecutive_failures,
            consecutive_value_failures: rec.consecutive_value_failures,
            consecutive_restarts: rec.consecutive_restarts,
            outstanding: rec.outstanding,
            next_action_at: rec.next_action_at,
            session_key: rec.session_key,
            evidence,
            freshness: rec.freshness,
            // Derived from the chain's `last_pass_at` by
            // `rebuild_schedule` below; never snapshotted.
            next_fresh_at: None,
            // Link state is runtime-only: a restored service starts
            // optimistic and the transport's first events correct it.
            link_up: true,
        });
    }
    if let Some(extra) = endpoint_pool.into_iter().flatten().next() {
        return Err(SnapshotError::UnknownDevice(extra.node.member.name.clone()));
    }
    // Every scheduling structure below `devices` — roster order, the
    // node→slot routing index, the timer wheel, worker scratch — is
    // derived state: it is rebuilt from the durable per-device fields
    // rather than snapshotted, so the restored wheel is exactly the
    // wheel a crash-free run would hold at `now`.
    let index = ShardIndex::new(cfg.shards);
    let worker_pool = (cfg.workers > 0).then(|| ReplayPool::new(cfg.workers));
    let log = EventLog::restore_parts(
        decoded.events,
        decoded.counters,
        decoded.events_dropped,
        cfg.event_capacity,
    );
    // The quorum rebuilds from the snapshot's replica count (vote keys
    // re-derive from the configured seed) and then re-imposes each
    // replica's durable state — behavior, suspect flag, dissent count,
    // and evidence-view digest — so a restored set is indistinguishable
    // from one that never stopped.
    let quorum = decoded.quorum.map(|q| {
        let mut set = VerifierSet::with_size(q.replicas.len() as u16, cfg.quorum.seed);
        set.rounds = q.rounds;
        set.disputes = q.disputes;
        for (i, rep) in q.replicas.into_iter().enumerate() {
            set.restore_replica(i, rep.behavior, rep.suspected, rep.dissents, rep.view);
        }
        set
    });
    let mut svc = AttestationService {
        cfg,
        group,
        net,
        now: decoded.now,
        devices,
        log,
        next_node: decoded.next_node,
        registry: None,
        sealed_epochs: decoded.sealed_epochs,
        epoch_tree,
        next_seal_at: decoded.next_seal_at,
        timers: TimerWheel::new(),
        index,
        by_name: FxHashMap::default(),
        roster: Vec::new(),
        roster_pos: Vec::new(),
        work_of: Vec::new(),
        pool: worker_pool,
        timer_scratch: Vec::new(),
        quorum,
        archive: None,
    };
    svc.rebuild_schedule();
    Ok(svc)
}

/// Whether a restored chain may start at `anchor`: genesis (a chain no
/// seal has checkpointed yet), or exactly the device's leaf in the
/// newest sealed epoch, whose leaves were just matched to its root.
fn anchor_is_sealed(name: &str, anchor: &ChainAnchor, newest: Option<&SealedEpoch>) -> bool {
    if *anchor == ChainAnchor::genesis(name) {
        return true;
    }
    let Some(epoch) = newest else {
        return false;
    };
    // Leaves are name-sorted; devices sharing a name share a run.
    let first = epoch.leaves.partition_point(|l| l.device.as_str() < name);
    epoch.leaves[first..]
        .iter()
        .take_while(|l| l.device == name)
        .any(|l| l.seq == anchor.seq && l.head == anchor.head)
}

impl<T: Transport> AttestationService<T> {
    /// Serializes the control plane's scheduler state — virtual clock,
    /// per-device lifecycle and backoff, outstanding rounds, verifier
    /// calibrations, and the full event log — into a versioned binary
    /// snapshot. Device endpoints (sessions, agents, transport) are NOT
    /// in the snapshot; they survive the crash and are recovered via
    /// [`AttestationService::into_endpoints`].
    pub fn snapshot(&self) -> Vec<u8> {
        encode(self)
    }

    /// Consumes the service, surrendering the parts that survive a
    /// control-plane crash: the transport and each device's
    /// node + verifier pair.
    pub fn into_endpoints(self) -> (T, Vec<Endpoint>) {
        let endpoints = self
            .devices
            .into_iter()
            .map(|d| Endpoint {
                node: d.node,
                verifier: d.verifier,
            })
            .collect();
        (self.net, endpoints)
    }

    /// Rebuilds a service from a [`AttestationService::snapshot`] plus
    /// the surviving endpoints. Endpoints are matched to snapshot
    /// records by device name; every record must find its endpoint and
    /// no endpoint may be left over. The newest sealed epoch's leaves
    /// must re-hash to its recorded root ([`SnapshotError::BadEpoch`]
    /// otherwise), and every evidence chain must re-verify from an
    /// anchor that root vouches for ([`SnapshotError::BadEvidence`]
    /// otherwise). The archive sink is not restored. The restored
    /// service resumes
    /// mid-schedule: with the same transport state, its subsequent event
    /// history is bit-identical to a run that never crashed.
    pub fn restore(
        cfg: ServiceConfig,
        group: DhGroup,
        net: T,
        bytes: &[u8],
        endpoints: Vec<Endpoint>,
    ) -> Result<AttestationService<T>, SnapshotError> {
        restore(cfg, group, net, bytes, endpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_and_tampered_snapshots_are_typed_errors() {
        assert_eq!(decode(&[]).err(), Some(SnapshotError::Truncated));
        let mut bogus = Vec::new();
        put_u32(&mut bogus, 0xDEAD_BEEF);
        put_u16(&mut bogus, VERSION);
        assert_eq!(decode(&bogus).err(), Some(SnapshotError::BadMagic));
        let mut vers = Vec::new();
        put_u32(&mut vers, MAGIC);
        put_u16(&mut vers, 99);
        assert_eq!(decode(&vers).err(), Some(SnapshotError::BadVersion(99)));
    }

    #[test]
    fn empty_service_round_trips() {
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC);
        put_u16(&mut out, VERSION);
        put_u64(&mut out, 1234);
        put_u16(&mut out, 7);
        put_u32(&mut out, 0); // devices
        out.push(0); // next_seal_at
        put_u32(&mut out, 0); // sealed epochs
        put_u32(&mut out, 0); // events
        put_counters(&mut out, &Counters::default());
        put_u64(&mut out, 0); // events_dropped
        out.push(0); // quorum
        let d = decode(&out).unwrap();
        assert_eq!(d.now, 1234);
        assert_eq!(d.next_node, 7);
        assert!(d.devices.is_empty());
        assert!(d.events.is_empty());
        assert_eq!(d.counters, Counters::default());
        assert_eq!(d.events_dropped, 0);
        // Trailing garbage is rejected, not ignored.
        out.push(0);
        assert_eq!(decode(&out).err(), Some(SnapshotError::TrailingBytes));
    }
}
