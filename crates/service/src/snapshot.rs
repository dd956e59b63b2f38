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
//! The format is the canonical encoding of [`sage_crypto::canon`], the
//! one the wire codec and the evidence records use, magic-tagged and
//! versioned like the wire codec. Every decode error is typed: a
//! truncated or tampered snapshot can never panic the control plane.

use sage::verifier::Verifier;
use sage::Calibration;
use sage_crypto::canon::{
    put_fixed, put_str, put_u16, put_u32, put_u64, put_u8, CanonError, Reader,
};
use sage_crypto::DhGroup;
use sage_evidence::chain::{decode_records, encode_records};
use sage_evidence::merkle::{EpochLeaf, EpochTree};
use sage_evidence::record::EvidenceRecord;
use sage_evidence::{derive_evidence_key, ChainAnchor, EvidenceChain, Freshness};
use std::collections::VecDeque;

use crate::events::{Event, EventKind, EventLog, FailReason, Tally};
use crate::fx::FxHashMap;
use crate::net::{NodeId, Transport};
use crate::node::DeviceNode;
use crate::quorum::{VerifierBehavior, VerifierSet};
use crate::service::{
    AttestationService, DeviceState, ManagedDevice, Outstanding, SealedEpoch, ServiceConfig,
    SEALED_EPOCHS_KEPT,
};
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
/// and a separate freshness anchor. Version 7 carries the event log's
/// tally (failures by reason, freshness changes by level) in place of
/// the counters block, and each passed round's dispatch time. Version 8
/// widens the node-id counter to `u32`, so a spent id space (the counter
/// past `u16::MAX`) survives a restart. Version 9 moves the format onto
/// `sage_crypto::canon`: strings carry a `u32` length prefix, evidence
/// records follow their anchor inline, and the calibration and the
/// sealed-epoch leaves use their types' own canonical encodings.
/// Version 10 drops the outstanding round's precomputed checksum: the
/// service judges every round by replay and keeps no challenge bank.
const VERSION: u16 = 10;

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
    /// A length prefix exceeded canon's per-field bound.
    Oversized(u32),
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
            SnapshotError::Oversized(n) => {
                write!(f, "{n}-byte field in snapshot exceeds the bound")
            }
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

/// Appends a presence flag, then the value when there is one.
fn put_opt<V>(out: &mut Vec<u8>, v: Option<V>, put: impl FnOnce(&mut Vec<u8>, V)) {
    put_u8(out, v.is_some() as u8);
    if let Some(v) = v {
        put(out, v);
    }
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
        EventKind::Joined => put_u8(out, 0),
        EventKind::CalibrationFailed => put_u8(out, 1),
        EventKind::EstablishFailed => put_u8(out, 2),
        EventKind::StateChanged { from, to } => {
            put_u8(out, 3);
            put_u8(out, state_tag(*from));
            put_u8(out, state_tag(*to));
        }
        EventKind::RoundStarted { round } => {
            put_u8(out, 4);
            put_u64(out, *round);
        }
        EventKind::RoundPassed {
            round,
            measured,
            started_at,
        } => {
            put_u8(out, 5);
            put_u64(out, *round);
            put_u64(out, *measured);
            put_u64(out, *started_at);
        }
        EventKind::RoundFailed { round, reason } => {
            put_u8(out, 6);
            put_u64(out, *round);
            put_u8(out, reason_tag(*reason));
        }
        EventKind::Restarted { round } => {
            put_u8(out, 7);
            put_u64(out, *round);
        }
        EventKind::LateResponse { round } => {
            put_u8(out, 8);
            put_u64(out, *round);
        }
        EventKind::Left => put_u8(out, 9),
        EventKind::FreshnessChanged { from, to } => {
            put_u8(out, 10);
            put_u8(out, from.tag());
            put_u8(out, to.tag());
        }
        EventKind::EpochSealed { epoch, root } => {
            put_u8(out, 11);
            put_u64(out, *epoch);
            put_fixed(out, root);
        }
        EventKind::LinkDown => put_u8(out, 12),
        EventKind::LinkResumed => put_u8(out, 13),
        EventKind::SpotCheckSkipped { epoch } => {
            put_u8(out, 14);
            put_u64(out, *epoch);
        }
        EventKind::QuorumDisputed {
            round,
            accepts,
            rejects,
        } => {
            put_u8(out, 15);
            put_u64(out, *round);
            put_u16(out, *accepts);
            put_u16(out, *rejects);
        }
        EventKind::VerifierSuspected { verifier, round } => {
            put_u8(out, 16);
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
    put_u32(&mut out, svc.next_node);
    put_u32(&mut out, svc.devices.len() as u32);
    for d in &svc.devices {
        put_str(&mut out, &d.node.member.name);
        put_u16(&mut out, d.node.id.0);
        put_u8(&mut out, state_tag(d.state));
        put_u64(&mut out, d.round);
        put_u64(&mut out, d.rounds_passed);
        put_u32(&mut out, d.consecutive_failures);
        put_u32(&mut out, d.consecutive_value_failures);
        put_u32(&mut out, d.consecutive_restarts);
        put_opt(&mut out, d.next_action_at, put_u64);
        put_opt(&mut out, d.outstanding.as_ref(), |out, o| {
            put_u64(out, o.round);
            put_u64(out, o.deadline);
            put_u64(out, o.started_at);
            put_u32(out, o.challenges.len() as u32);
            for c in &o.challenges {
                put_fixed(out, c);
            }
        });
        put_opt(&mut out, d.verifier.calibration(), |out, c| c.encode(out));
        put_opt(&mut out, d.session_key.as_ref(), put_fixed);
        put_opt(&mut out, d.evidence.as_ref(), |out, chain| {
            let anchor = chain.anchor();
            put_u64(out, anchor.seq);
            put_fixed(out, &anchor.head);
            put_opt(out, anchor.last_pass_at, put_u64);
            out.extend_from_slice(&encode_records(chain.records()));
        });
        put_u8(&mut out, d.freshness.tag());
    }
    put_opt(&mut out, svc.next_seal_at, put_u64);
    put_u32(&mut out, svc.sealed_epochs.len() as u32);
    for e in &svc.sealed_epochs {
        put_u64(&mut out, e.index);
        put_u64(&mut out, e.at);
        put_fixed(&mut out, &e.root);
        put_u32(&mut out, e.leaves.len() as u32);
        for l in &e.leaves {
            l.encode(&mut out);
        }
    }
    let events = svc.log.events();
    put_u32(&mut out, events.len() as u32);
    for e in events {
        put_event(&mut out, e);
    }
    put_tally(&mut out, &svc.log.tally());
    put_u64(&mut out, svc.log.events_dropped());
    // Verifier-quorum running state. Vote keys are not snapshotted:
    // they re-derive from the configured quorum seed on restore,
    // mirroring how device session keys survive in the endpoints.
    put_opt(&mut out, svc.quorum.as_ref(), |out, set| {
        put_u16(out, set.len() as u16);
        put_u64(out, set.rounds);
        put_u64(out, set.disputes);
        for rep in set.replicas() {
            put_u8(out, rep.behavior.tag());
            put_u8(out, u8::from(rep.suspected));
            put_u64(out, rep.dissents);
            put_fixed(out, &rep.view);
        }
    });
    out
}

/// The tally is encoded in slot order; the decoder mirrors this.
fn put_tally(out: &mut Vec<u8>, t: &Tally) {
    for &v in &t.0 {
        put_u64(out, v);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

impl From<CanonError> for SnapshotError {
    fn from(e: CanonError) -> SnapshotError {
        match e {
            CanonError::Truncated => SnapshotError::Truncated,
            CanonError::BadTag { field, value } => SnapshotError::BadTag { field, value },
            CanonError::OversizedField(len) => SnapshotError::Oversized(len),
            CanonError::TrailingBytes(_) => SnapshotError::TrailingBytes,
        }
    }
}

fn state(r: &mut Reader<'_>) -> Result<DeviceState, SnapshotError> {
    Ok(match r.u8()? {
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

fn reason(r: &mut Reader<'_>) -> Result<FailReason, SnapshotError> {
    Ok(match r.u8()? {
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

fn flag(r: &mut Reader<'_>, field: &'static str) -> Result<bool, SnapshotError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        value => Err(SnapshotError::BadTag { field, value }),
    }
}

fn freshness(r: &mut Reader<'_>) -> Result<Freshness, SnapshotError> {
    Ok(Freshness::from_tag(r.u8()?)?)
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
    next_node: u32,
    devices: Vec<DeviceRecord>,
    next_seal_at: Option<u64>,
    sealed_epochs: Vec<SealedEpoch>,
    events: Vec<Event>,
    tally: Tally,
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
    // Struct fields below are read in the order written, which is the
    // encoding's.
    let now = r.u64()?;
    let next_node = r.u32()?;
    let n_devices = r.u32()?;
    let mut devices = Vec::new();
    for _ in 0..n_devices {
        let name = r.str()?;
        let node = NodeId(r.u16()?);
        let state = state(&mut r)?;
        let round = r.u64()?;
        let rounds_passed = r.u64()?;
        let consecutive_failures = r.u32()?;
        let consecutive_value_failures = r.u32()?;
        let consecutive_restarts = r.u32()?;
        let next_action_at = flag(&mut r, "next_action_at")?
            .then(|| r.u64())
            .transpose()?;
        let outstanding = if flag(&mut r, "outstanding")? {
            let o_round = r.u64()?;
            let deadline = r.u64()?;
            let started_at = r.u64()?;
            let n_ch = r.u32()?;
            let mut challenges = Vec::new();
            for _ in 0..n_ch {
                challenges.push(r.fixed()?);
            }
            Some(Outstanding {
                round: o_round,
                challenges,
                deadline,
                started_at,
            })
        } else {
            None
        };
        let calibration = flag(&mut r, "calibration")?
            .then(|| Calibration::decode_from(&mut r))
            .transpose()?;
        let session_key = flag(&mut r, "session_key")?
            .then(|| r.fixed())
            .transpose()?;
        let evidence = if flag(&mut r, "evidence")? {
            let anchor = ChainAnchor {
                seq: r.u64()?,
                head: r.fixed()?,
                last_pass_at: flag(&mut r, "last_pass_at")?.then(|| r.u64()).transpose()?,
            };
            let records =
                decode_records(&mut r).map_err(|_| SnapshotError::BadEvidence(name.clone()))?;
            Some((anchor, records))
        } else {
            None
        };
        let freshness = freshness(&mut r)?;
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
    let next_seal_at = flag(&mut r, "next_seal_at")?.then(|| r.u64()).transpose()?;
    let n_epochs = r.u32()?;
    let mut sealed_epochs = Vec::new();
    for _ in 0..n_epochs {
        let index = r.u64()?;
        let at = r.u64()?;
        let root = r.fixed()?;
        let n_leaves = r.u32()?;
        let mut leaves = Vec::new();
        for _ in 0..n_leaves {
            leaves.push(EpochLeaf::decode_from(&mut r)?);
        }
        sealed_epochs.push(SealedEpoch {
            index,
            at,
            root,
            leaves,
        });
    }
    let n_events = r.u32()?;
    let mut events = Vec::new();
    for _ in 0..n_events {
        let at = r.u64()?;
        let device = r.str()?;
        let kind = match r.u8()? {
            0 => EventKind::Joined,
            1 => EventKind::CalibrationFailed,
            2 => EventKind::EstablishFailed,
            3 => EventKind::StateChanged {
                from: state(&mut r)?,
                to: state(&mut r)?,
            },
            4 => EventKind::RoundStarted { round: r.u64()? },
            5 => EventKind::RoundPassed {
                round: r.u64()?,
                measured: r.u64()?,
                started_at: r.u64()?,
            },
            6 => EventKind::RoundFailed {
                round: r.u64()?,
                reason: reason(&mut r)?,
            },
            7 => EventKind::Restarted { round: r.u64()? },
            8 => EventKind::LateResponse { round: r.u64()? },
            9 => EventKind::Left,
            10 => EventKind::FreshnessChanged {
                from: freshness(&mut r)?,
                to: freshness(&mut r)?,
            },
            11 => EventKind::EpochSealed {
                epoch: r.u64()?,
                root: r.fixed()?,
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
    let mut tally = Tally::default();
    for v in &mut tally.0 {
        *v = r.u64()?;
    }
    let events_dropped = r.u64()?;
    let quorum = if flag(&mut r, "quorum")? {
        let n = r.u16()?;
        let rounds = r.u64()?;
        let disputes = r.u64()?;
        let mut replicas = Vec::new();
        for _ in 0..n {
            let value = r.u8()?;
            let behavior = VerifierBehavior::from_tag(value).ok_or(SnapshotError::BadTag {
                field: "verifier behavior",
                value,
            })?;
            replicas.push(ReplicaRecord {
                behavior,
                suspected: flag(&mut r, "verifier suspected")?,
                dissents: r.u64()?,
                view: r.fixed()?,
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
    r.finish()?;
    Ok(Decoded {
        now,
        next_node,
        devices,
        next_seal_at,
        sealed_epochs,
        events,
        tally,
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
    // node and name indexes, the timer wheel, step scratch — is derived
    // state: it is rebuilt from the durable per-device fields rather
    // than snapshotted, so the restored wheel is exactly the wheel a
    // crash-free run would hold at `now`.
    let log = EventLog::restore_parts(
        decoded.events,
        decoded.tally,
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
        by_node: FxHashMap::default(),
        by_name: FxHashMap::default(),
        roster: Vec::new(),
        roster_pos: Vec::new(),
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
        put_u32(&mut out, 7);
        put_u32(&mut out, 0); // devices
        out.push(0); // next_seal_at
        put_u32(&mut out, 0); // sealed epochs
        put_u32(&mut out, 0); // events
        put_tally(&mut out, &Tally::default());
        put_u64(&mut out, 0); // events_dropped
        out.push(0); // quorum
        let d = decode(&out).unwrap();
        assert_eq!(d.now, 1234);
        assert_eq!(d.next_node, 7);
        assert!(d.devices.is_empty());
        assert!(d.events.is_empty());
        assert_eq!(d.tally, Tally::default());
        assert_eq!(d.events_dropped, 0);
        // Trailing garbage is rejected, not ignored.
        out.push(0);
        assert_eq!(decode(&out).err(), Some(SnapshotError::TrailingBytes));
    }
}
