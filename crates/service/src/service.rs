//! The long-running verifier service: per-device lifecycle state
//! machines, re-attestation scheduling, and the quarantine policy,
//! all driven by one deterministic virtual clock.
//!
//! ```text
//!            join            calibrate + SAKE        round passes
//! (operator) ───► Enrolled ─────► Attesting ──────────► Trusted ◄──┐
//!                     │                │                   │       │
//!                     │ calibration /  │ budget            │ round │ round
//!                     │ establishment  │ exhausted         │ fails │ passes
//!                     ▼ fails          ▼                   ▼       │
//!                 Quarantined ◄──────────────────────── Degraded ──┘
//!                                 budget exhausted
//!
//!  any state ───leave()───► Revoked
//! ```
//!
//! Scheduling is event-driven: the service hops the virtual clock to the
//! next due instant (a message arrival, a round deadline, or a scheduled
//! re-attestation) rather than ticking one unit at a time, the same
//! stall-skipping idea the simulator core uses.
//!
//! # The event loop
//!
//! The original engine scanned the whole roster four times per step
//! (inbox pump, verdicts, deadlines, due rounds) — O(fleet) per step,
//! which capped the control plane at a handful of devices. A step now
//! runs on the caller's thread as one intake followed by phases that
//! apply their effects in place:
//!
//! 1. **Intake** — one batched [`Transport::drain_due`] empties the
//!    network of everything due at the current tick, and a hierarchical
//!    [`TimerWheel`] pops every due re-attestation, deadline, and
//!    freshness timer. Both are O(due events), not O(fleet): idle
//!    devices cost nothing. Routing a frame to its device is one
//!    `NodeId → slot` map lookup (FxHash, O(1)) instead of a roster
//!    scan. Intake only routes and notes which devices the tick
//!    touches.
//! 2. **Phases**, in one canonical order: device-bound frames
//!    roster-major (arrival order within a device), response verdicts
//!    in global arrival order, deadline expiries and round starts over
//!    the touched devices in roster order, then epoch seals and
//!    freshness transitions. Each phase checks the device's live state,
//!    and each action's effects (events, sends, quorum ballots, timer
//!    requests) are applied before the next action runs. That order
//!    fixes the event history, the evidence chains and the snapshot
//!    bytes; `tests/history_golden.rs` pins it.
//!
//! Timer cancellation is lazy: a stale wheel entry (the round it was
//! armed for already resolved) pops as a no-op because every fire is
//! validated against the device's live schedule before it acts. A stale
//! pop can at most cause a silent step — no events, no sends — which
//! keeps histories identical while making cancellation O(1).

use sage::channel::{Role, SecureChannel};
use sage::multi::{power_score, FleetMember};
use sage::sake::{key_fingerprint, SakeMessage};
use sage::verifier::Verifier;
use sage::{GpuSession, SageError};
use sage_crypto::DhGroup;
use sage_evidence::merkle::{EpochLeaf, EpochTree};
use sage_evidence::report::{DeviceReport, FreshnessClaim};
use sage_evidence::{
    EvidenceChain, EvidencePath, EvidencePayload, EvidenceRecord, Freshness, StageVerdict,
};
use sage_sgx_sim::Enclave;
use sage_telemetry::Registry;

use crate::events::{EventKind, EventLog, FailReason};
use crate::fx::FxHashMap;
use crate::net::{Envelope, NodeId, Transport};
use crate::node::DeviceNode;
use crate::policy::{seeded_jitter, Policy};
use crate::quorum::{QuorumConfig, VerifierSet};
use crate::sampling::SamplingConfig;
use crate::wheel::TimerWheel;
use crate::wire::{self, Frame};

/// The verifier's transport address.
pub const VERIFIER_NODE: NodeId = NodeId(0);

/// Lifecycle state of a managed device.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceState {
    /// Joined, enrollment not yet attempted.
    Enrolled,
    /// Calibration/key establishment done, first round not yet passed.
    Attesting,
    /// Root of trust established and holding.
    Trusted,
    /// One or more consecutive failures; retrying under backoff.
    Degraded,
    /// Failure budget exhausted; no longer scheduled.
    Quarantined,
    /// Removed by the operator; no longer scheduled.
    Revoked,
}

impl DeviceState {
    /// Stable string tag used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeviceState::Enrolled => "enrolled",
            DeviceState::Attesting => "attesting",
            DeviceState::Trusted => "trusted",
            DeviceState::Degraded => "degraded",
            DeviceState::Quarantined => "quarantined",
            DeviceState::Revoked => "revoked",
        }
    }
}

impl core::fmt::Display for DeviceState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Service-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Virtual ticks between successful rounds on one device.
    pub reattest_interval: u64,
    /// One-way network budget the round deadline allows (should cover
    /// the link profile's worst-case delay).
    pub latency_budget: u64,
    /// Additional slack added to the round deadline.
    pub deadline_slack: u64,
    /// Timed exchanges used to calibrate each joining device.
    pub calibration_runs: usize,
    /// Failure-handling policy.
    pub policy: Policy,
    /// Ignored: the service judges every round by replay and keeps no
    /// challenge bank. The field stays only because the benchmark's
    /// workload table still sets it; the next benchmark change deletes
    /// it.
    pub bank_capacity: usize,
    /// Ignored: the service keeps no challenge bank, so there is nothing
    /// to refill. Kept, like [`ServiceConfig::shards`], only because the
    /// benchmark's workload table still sets it.
    pub bank_workers: usize,
    /// Virtual ticks between fleet evidence epochs: every interval, a
    /// Merkle root over all device chain heads is sealed and logged.
    /// `0` (the default) disables epoch sealing.
    pub epoch_interval: u64,
    /// Freshness-driven trust decay. Disabled by default (devices never
    /// decay), preserving the historical lifecycle exactly.
    pub freshness: sage_evidence::FreshnessPolicy,
    /// Ignored: the service steps on one thread with one routing map.
    /// The field stays only because the benchmark's workload table still
    /// sets it; the next benchmark change deletes it.
    pub shards: usize,
    /// Ignored, like [`ServiceConfig::shards`], and kept for the same
    /// reason.
    pub workers: usize,
    /// In-memory event-log bound: the log keeps at most this many most
    /// recent events (`0` = unbounded, the historical behavior).
    /// Dropped events still count — see
    /// [`crate::events::EventLog::events_dropped`].
    pub event_capacity: usize,
    /// Maximum deterministic jitter (virtual ticks) added to every
    /// failure-backoff delay, keyed by `(device name, failure count)`
    /// via [`crate::policy::seeded_jitter`] — devices failing together
    /// retry apart. `0` (the default) disables jitter and keeps
    /// historical schedules byte-identical.
    pub backoff_jitter: u64,
    /// Verifier-quorum knobs: with `verifiers > 1` every verdict is put
    /// to an N-replica ⌈2N/3⌉ vote (see [`crate::quorum`]). The default
    /// (`verifiers == 1`) keeps the single-verifier behavior — and an
    /// honest unanimous quorum appends nothing, so evidence heads stay
    /// byte-identical to the single-verifier baseline either way.
    pub quorum: QuorumConfig,
    /// Spot-check sampling knobs: with coverage below 1000‰ (and
    /// `epoch_interval > 0`), a `Trusted` device outside the epoch's
    /// seeded plan skips its due round and sleeps to the next epoch
    /// boundary (see [`crate::sampling`]). Full coverage — the default —
    /// keeps historical schedules byte-identical.
    pub sampling: SamplingConfig,
    /// Relay/topology gate, in virtual ticks of allowed *wire* time
    /// (wall elapsed minus device-reported compute) per exchange. A
    /// response whose wire share exceeds the gate fails the round as
    /// [`FailReason::Relay`] even when its checksum and timing check
    /// out — a relayed exchange pays two link round trips. `0` (the
    /// default) disables the detector.
    pub relay_rtt_gate: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            reattest_interval: 50_000,
            latency_budget: 200,
            deadline_slack: 1_000,
            calibration_runs: 5,
            policy: Policy::default(),
            bank_capacity: 0,
            bank_workers: 0,
            epoch_interval: 0,
            freshness: sage_evidence::FreshnessPolicy::disabled(),
            shards: 1,
            workers: 0,
            event_capacity: 0,
            backoff_jitter: 0,
            quorum: QuorumConfig::default(),
            sampling: SamplingConfig::default(),
            relay_rtt_gate: 0,
        }
    }
}

pub(crate) struct Outstanding {
    pub(crate) round: u64,
    pub(crate) challenges: Vec<[u8; 16]>,
    pub(crate) deadline: u64,
    /// Virtual time the challenge was dispatched — the wall anchor the
    /// relay/topology detector subtracts reported compute time from,
    /// and the start of the round latency `RoundPassed` reports.
    pub(crate) started_at: u64,
}

pub(crate) struct ManagedDevice {
    pub(crate) node: DeviceNode,
    pub(crate) verifier: Verifier,
    pub(crate) state: DeviceState,
    pub(crate) round: u64,
    pub(crate) rounds_passed: u64,
    pub(crate) consecutive_failures: u32,
    /// Consecutive wrong-checksum failures — the persistent-fault
    /// signal; reset on any passed round, untouched by timeouts or
    /// timing rejects (network noise must not mask corruption).
    pub(crate) consecutive_value_failures: u32,
    pub(crate) consecutive_restarts: u32,
    pub(crate) outstanding: Option<Outstanding>,
    pub(crate) next_action_at: Option<u64>,
    /// The SAKE session key (verifier side), kept to open liveness
    /// channels and derive the evidence key after a restore.
    pub(crate) session_key: Option<[u8; 16]>,
    /// The device's evidence chain (present once SAKE established). Its
    /// [`EvidenceChain::last_pass_at`] is the freshness anchor.
    pub(crate) evidence: Option<EvidenceChain>,
    /// Current freshness level under the configured policy.
    pub(crate) freshness: Freshness,
    /// The armed freshness-decay boundary (the live wheel entry's due
    /// time); a popped timer only fires if it still matches. Derived
    /// state — rebuilt from the chain's `last_pass_at` on restore, never
    /// snapshotted.
    pub(crate) next_fresh_at: Option<u64>,
    /// Whether the transport link to this device is up. Runtime state
    /// fed by [`crate::net::LinkEvent`]s — always `true` behind
    /// transports that never flap ([`crate::net::SimNet`]), and reset
    /// to `true` on restore. A deadline expiring while the link is down
    /// is classified [`FailReason::LinkDown`]: retried under backoff,
    /// never recorded as attestation evidence.
    pub(crate) link_up: bool,
}

impl ManagedDevice {
    /// Virtual time of the newest passing attestation stage — the
    /// freshness anchor (`None` without an evidence chain).
    pub(crate) fn last_pass_at(&self) -> Option<u64> {
        self.evidence.as_ref().and_then(EvidenceChain::last_pass_at)
    }
}

/// How many sealed epochs the service keeps, newest last. Older epochs
/// are dropped whole (root included); `Counters::epochs_sealed` still
/// counts every seal. Reports only ever anchor at the newest epoch, so
/// the window exists for relying parties polling recent roots.
pub const SEALED_EPOCHS_KEPT: usize = 64;

/// Receives the records an epoch seal checkpoints out of one device's
/// chain (see [`AttestationService::attach_archive`]).
type ArchiveSink = Box<dyn FnMut(&str, &[EvidenceRecord]) + Send>;

/// One sealed fleet evidence epoch: the Merkle root over every device's
/// chain head at the seal instant, plus — for the newest epoch only —
/// the leaves that root commits to.
///
/// Reports are always anchored at the newest epoch, so that is the only
/// one whose leaves (and Merkle levels, kept by the service) can serve
/// an inclusion proof. When the next epoch seals, this one keeps its
/// `index`, `at` and `root` and drops its leaves to an empty `Vec`: the
/// retained leaves stay bounded by the live fleet however many epochs
/// have sealed. Snapshots encode a superseded epoch with zero leaves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedEpoch {
    /// Epoch index (the first sealed epoch is 1).
    pub index: u64,
    /// Virtual time the epoch was sealed.
    pub at: u64,
    /// Merkle root over the epoch's leaves.
    pub root: [u8; 32],
    /// Per-device leaves, sorted by device name (the canonical order the
    /// root commits to). Empty once a newer epoch has sealed.
    pub leaves: Vec<EpochLeaf>,
}

/// One device's health, derived from its lifecycle counters. The score
/// separates the two failure families the chaos engine exercises:
/// transient faults (timeouts, slow rounds — recoverable, lightly
/// penalized) and wrong checksums (unforgeable evidence of corruption or
/// compromise — heavily penalized).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Device name.
    pub name: String,
    /// Lifecycle state.
    pub state: DeviceState,
    /// 0–100. `Quarantined`/`Revoked` pin it to 0; a clean `Trusted`
    /// device sits at 100; consecutive transient failures cost 15 each,
    /// consecutive wrong values 35 each.
    pub score: u8,
    /// Current consecutive-failure streak (any reason).
    pub consecutive_failures: u32,
    /// Current consecutive wrong-checksum streak.
    pub consecutive_value_failures: u32,
    /// §7.2 restarts consumed in the current streak.
    pub consecutive_restarts: u32,
}

/// A point-in-time summary of one managed device.
#[derive(Clone, Debug)]
pub struct DeviceStatus {
    /// Device name.
    pub name: String,
    /// Transport address.
    pub node: NodeId,
    /// Lifecycle state.
    pub state: DeviceState,
    /// Rounds passed since joining.
    pub rounds_passed: u64,
    /// Current consecutive-failure count.
    pub consecutive_failures: u32,
    /// Compute-power score (ordering key).
    pub power: u128,
}

/// A scheduled wake-up in the service's timer wheel. Fires are
/// validated against live device state, so cancellation is lazy (a
/// stale entry pops as a no-op).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Timer {
    /// `next_action_at` is due for the device at this slot.
    Action(u32),
    /// The outstanding round's deadline for the device at this slot.
    Deadline(u32),
    /// A freshness-decay boundary; fires only while the device's
    /// `next_fresh_at` still equals `at`.
    Fresh { slot: u32, at: u64 },
}

/// A timer an action asks to arm. Applied by `flush_effects` only if the
/// device's live schedule still wants it — so an action that supersedes
/// the request before it is flushed simply invalidates it.
#[derive(Clone, Copy, Debug)]
enum TimerReq {
    Action(u64),
    Deadline(u64),
    Fresh(u64),
}

/// A verdict to put to the verifier quorum's vote, tallied when its
/// action's effects are flushed — so ballots follow the canonical phase
/// order.
#[derive(Clone, Copy, Debug)]
struct VoteReq {
    round: u64,
    verdict: StageVerdict,
}

/// Effects one logical action produced: events to record (in order),
/// timers to arm, and quorum ballots to tally. The step flushes each
/// action's effects before it runs the next action.
#[derive(Default)]
struct Effects {
    events: Vec<EventKind>,
    timers: Vec<TimerReq>,
    votes: Vec<VoteReq>,
}

/// The attestation control plane.
pub struct AttestationService<T: Transport> {
    pub(crate) cfg: ServiceConfig,
    pub(crate) group: DhGroup,
    pub(crate) net: T,
    pub(crate) now: u64,
    /// Append-only device storage: a device's index ("slot") is stable
    /// for its lifetime, which is what lets timers and the routing
    /// index carry bare slot numbers. Power ordering lives in
    /// `roster`, not here.
    pub(crate) devices: Vec<ManagedDevice>,
    pub(crate) log: EventLog,
    /// The next [`NodeId`] to hand out. Ids are never reused, and the
    /// counter passes `u16::MAX` only to mark the id space exhausted.
    pub(crate) next_node: u32,
    pub(crate) registry: Option<Registry>,
    /// The newest [`SEALED_EPOCHS_KEPT`] sealed fleet evidence epochs,
    /// oldest first. Only the newest keeps its leaves (see
    /// [`SealedEpoch`]).
    pub(crate) sealed_epochs: Vec<SealedEpoch>,
    /// Every Merkle level of the newest sealed epoch (empty before the
    /// first seal): `report_for` reads its proof siblings from here.
    pub(crate) epoch_tree: EpochTree,
    /// When the next epoch seals (`None` while epochs are disabled).
    pub(crate) next_seal_at: Option<u64>,
    /// Due re-attestations, deadlines, and freshness boundaries.
    pub(crate) timers: TimerWheel<Timer>,
    /// `NodeId → slot`: routes every frame and link event.
    pub(crate) by_node: FxHashMap<NodeId, u32>,
    /// `device name → slot` for by-name queries. The first device to
    /// join under a name keeps the entry; slots are append-only, so a
    /// device that leaves keeps it too.
    pub(crate) by_name: FxHashMap<String, u32>,
    /// Slots in most-powerful-first order (the canonical event order).
    pub(crate) roster: Vec<u32>,
    /// `slot → position in roster` (the step's per-device order key).
    pub(crate) roster_pos: Vec<u32>,
    /// Reused pop buffer for the timer wheel.
    pub(crate) timer_scratch: Vec<(u64, Timer)>,
    /// The verifier-replica quorum (`Some` iff `cfg.quorum.verifiers >
    /// 1`). Lives outside the per-device state: replicas vote on every
    /// device's verdicts and keep fleet-wide view digests.
    pub(crate) quorum: Option<VerifierSet>,
    /// Where checkpointed evidence goes (runtime only, never
    /// snapshotted); `None` frees it.
    pub(crate) archive: Option<ArchiveSink>,
}

impl<T: Transport> AttestationService<T> {
    /// Creates a service over a transport.
    pub fn new(cfg: ServiceConfig, group: DhGroup, net: T) -> AttestationService<T> {
        AttestationService {
            cfg,
            group,
            net,
            now: 0,
            devices: Vec::new(),
            log: EventLog::with_capacity(cfg.event_capacity),
            next_node: 1,
            registry: None,
            sealed_epochs: Vec::new(),
            epoch_tree: EpochTree::new(&[]),
            next_seal_at: (cfg.epoch_interval > 0).then_some(cfg.epoch_interval),
            timers: TimerWheel::new(),
            by_node: FxHashMap::default(),
            by_name: FxHashMap::default(),
            roster: Vec::new(),
            roster_pos: Vec::new(),
            timer_scratch: Vec::new(),
            quorum: VerifierSet::from_config(&cfg.quorum),
            archive: None,
        }
    }

    /// Attaches the whole service to a telemetry registry: the event
    /// log's round-lifecycle counters and latency histogram
    /// (`service_*`), the verifiers' verdicts
    /// (`verifier_*{cause, path}`) and the simulators' stats (`sim_*`).
    /// Series are labelled by cause, path and state, never by device:
    /// every device feeds the same fleet series, so the series count
    /// does not grow with the fleet. Per-device detail comes from
    /// [`AttestationService::health_of`],
    /// [`AttestationService::report_for`] and the event log.
    ///
    /// Devices joining later are attached automatically. The
    /// `service_*_total` series start from the event log's tally, so
    /// attaching after a crash-restore exports the same totals as a
    /// service that never stopped.
    pub fn attach_telemetry(&mut self, reg: &Registry) {
        self.log.attach_telemetry(reg);
        for i in 0..self.roster.len() {
            let slot = self.roster[i] as usize;
            let d = &mut self.devices[slot];
            d.verifier.attach_telemetry(reg);
            d.node.member.session.dev.install_telemetry(reg);
        }
        // The sampling layer's model quantities: the coverage knob and
        // the closed-form detection probability at the horizon `k` that
        // reaches ≥ 98% confidence — both fixed-point per-mille gauges.
        // The model counts the first covered epoch as detection; a
        // cheater that answers its replay tap's recording round
        // honestly is caught one covered epoch later whenever a covered
        // epoch holds a single round (see `sampling::epochs_to_detect`).
        if self.cfg.sampling.is_active() {
            let cov = self.cfg.sampling.coverage_per_mille;
            let k = crate::sampling::epochs_to_detect(cov, 980);
            let ks = k.to_string();
            reg.gauge("service_spotcheck_coverage_per_mille", &[])
                .set(u64::from(cov));
            reg.gauge("service_detection_probability_per_mille", &[("k", &ks)])
                .set(crate::sampling::detect_probability_per_mille(cov, k));
        }
        self.registry = Some(reg.clone());
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The underlying transport (delivery counters).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// Mutable transport access (fault injection in tests/benches).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// The structured event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The verifier quorum, when configured with more than one replica.
    pub fn quorum(&self) -> Option<&VerifierSet> {
        self.quorum.as_ref()
    }

    /// Mutable quorum access — the attack harness's hook for
    /// compromising verifier replicas after enrollment.
    pub fn quorum_mut(&mut self) -> Option<&mut VerifierSet> {
        self.quorum.as_mut()
    }

    /// Per-device summaries, in roster (most-powerful-first) order.
    pub fn statuses(&self) -> Vec<DeviceStatus> {
        self.roster
            .iter()
            .map(|&slot| {
                let d = &self.devices[slot as usize];
                DeviceStatus {
                    name: d.node.member.name.clone(),
                    node: d.node.id,
                    state: d.state,
                    rounds_passed: d.rounds_passed,
                    consecutive_failures: d.consecutive_failures,
                    power: power_score(&d.node.member.session.dev.cfg),
                }
            })
            .collect()
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).map(|&slot| slot as usize)
    }

    /// The lifecycle state of a device, if managed.
    pub fn state_of(&self, name: &str) -> Option<DeviceState> {
        self.find(name).map(|i| self.devices[i].state)
    }

    /// The derived health of a device, if managed. See [`DeviceHealth`]
    /// for the scoring rule.
    pub fn health_of(&self, name: &str) -> Option<DeviceHealth> {
        self.find(name).map(|i| {
            let d = &self.devices[i];
            let score = match d.state {
                DeviceState::Quarantined | DeviceState::Revoked => 0u8,
                _ => {
                    let transient = d
                        .consecutive_failures
                        .saturating_sub(d.consecutive_value_failures);
                    100u32
                        .saturating_sub(transient.saturating_mul(15))
                        .saturating_sub(d.consecutive_value_failures.saturating_mul(35))
                        as u8
                }
            };
            DeviceHealth {
                name: d.node.member.name.clone(),
                state: d.state,
                score,
                consecutive_failures: d.consecutive_failures,
                consecutive_value_failures: d.consecutive_value_failures,
                consecutive_restarts: d.consecutive_restarts,
            }
        })
    }

    /// The calibrated detection threshold of a device, in cycles.
    pub fn threshold_of(&self, name: &str) -> Option<u64> {
        self.find(name)
            .and_then(|i| self.devices[i].verifier.threshold())
    }

    /// Mutable access to a device's network node — the hook fault
    /// injectors and the attack harness use to compromise a device
    /// *after* enrollment.
    pub fn node_mut(&mut self, name: &str) -> Option<&mut DeviceNode> {
        self.find(name).map(|i| &mut self.devices[i].node)
    }

    /// Mutable access to a device's GPU session (shorthand over
    /// [`AttestationService::node_mut`]).
    pub fn session_mut(&mut self, name: &str) -> Option<&mut GpuSession> {
        self.node_mut(name).map(|n| &mut n.member.session)
    }

    /// Enrolls a device: calibrates its timing threshold, establishes the
    /// SAKE key (every protocol message passes through the wire codec, as
    /// it would on a real link), and schedules its first remote round.
    ///
    /// Enrollment failures do not abort the service: the device lands in
    /// `Quarantined` with the failure recorded, and the rest of the fleet
    /// keeps running — the graceful-degradation contract a long-running
    /// control plane needs.
    ///
    /// # Panics
    ///
    /// Before anything is recorded, when the 65,535 node ids are spent
    /// (ids are never reused), or when the device name is longer than
    /// [`wire::MAX_NAME`] bytes (it could ride neither a quorum vote nor
    /// a link frame).
    pub fn join(&mut self, mut member: FleetMember, enclave: Enclave) -> NodeId {
        let (id, mut verifier) = self.begin_enrollment(&mut member, enclave);
        let name = &member.name;
        let outcome = match verifier.calibrate(&mut member.session, self.cfg.calibration_runs) {
            Err(_) => {
                self.log
                    .record(self.now, name, EventKind::CalibrationFailed);
                None
            }
            Ok(_) => {
                // Serialization boundary: each SAKE message is encoded
                // and re-decoded through the versioned codec, exactly as
                // it would cross the wire. A roundtrip failure is a codec
                // bug, but it must not panic the control plane: the
                // message is left untouched, the failure is remembered,
                // and the enrollment is refused below.
                let mut codec_ok = true;
                let mut tap = |_step: usize, msg: &mut SakeMessage| {
                    let bytes = wire::encode(&Frame::Sake(msg.clone()));
                    match wire::decode(&bytes) {
                        Ok(Frame::Sake(decoded)) => *msg = decoded,
                        _ => codec_ok = false,
                    }
                };
                match verifier.establish_key(&mut member.session, &mut member.agent, Some(&mut tap))
                {
                    Ok(o) if codec_ok => Some(o),
                    _ => {
                        self.log.record(self.now, name, EventKind::EstablishFailed);
                        None
                    }
                }
            }
        };
        self.admit_device(id, member, verifier, outcome)
    }

    /// The enrollment prologue both join paths share: allocates the
    /// device's node id, logs the join, builds its verifier (telemetry
    /// included) and moves it to `Attesting`.
    fn begin_enrollment(
        &mut self,
        member: &mut FleetMember,
        enclave: Enclave,
    ) -> (NodeId, Verifier) {
        assert!(
            member.name.len() <= wire::MAX_NAME,
            "device name longer than {} bytes",
            wire::MAX_NAME
        );
        // Never wraps: id 0 is the verifier's own address.
        let id = u16::try_from(self.next_node)
            .map(NodeId)
            .expect("node id space exhausted: 65,535 devices have joined");
        self.next_node += 1;
        let name = &member.name;
        self.log.record(self.now, name, EventKind::Joined);

        let mut verifier =
            Verifier::new(enclave, member.session.build().clone(), self.group.clone());
        if let Some(reg) = &self.registry {
            verifier.attach_telemetry(reg);
            member.session.dev.install_telemetry(reg);
        }
        self.log.record(
            self.now,
            name,
            EventKind::StateChanged {
                from: DeviceState::Enrolled,
                to: DeviceState::Attesting,
            },
        );
        (id, verifier)
    }

    /// Installs an enrollment as a managed device: session key, evidence
    /// chain, roster slot, first-action timer. A failed enrollment
    /// (`outcome` is `None`) is admitted `Quarantined`. Shared tail of
    /// the in-process [`AttestationService::join`] and the socket-side
    /// `join_remote`.
    fn admit_device(
        &mut self,
        id: NodeId,
        member: FleetMember,
        verifier: Verifier,
        outcome: Option<sage::verifier::AttestationOutcome>,
    ) -> NodeId {
        let name = member.name.clone();
        let state = if outcome.is_some() {
            DeviceState::Attesting
        } else {
            self.log.record(
                self.now,
                &name,
                EventKind::StateChanged {
                    from: DeviceState::Attesting,
                    to: DeviceState::Quarantined,
                },
            );
            DeviceState::Quarantined
        };
        let next_action_at = outcome.is_some().then_some(self.now + 1);
        let mut node = DeviceNode::new(member, id);
        // An established key opens the device's evidence chain: its first
        // record attests the SAKE confirmation (key fingerprint plus the
        // timed establishment round the key's trust rests on).
        let (session_key, evidence) = match outcome {
            Some(o) => {
                node.session_key = Some(o.session_key);
                let mut chain = EvidenceChain::new(&name, &o.session_key);
                chain.append(
                    self.now,
                    EvidencePayload::SakeConfirmed {
                        key_fingerprint: key_fingerprint(&o.session_key),
                        measured_cycles: o.measured_cycles,
                        threshold_cycles: o.threshold_cycles,
                    },
                );
                (Some(o.session_key), Some(chain))
            }
            None => (None, None),
        };
        let slot = self.devices.len();
        self.devices.push(ManagedDevice {
            node,
            verifier,
            state,
            round: 0,
            rounds_passed: 0,
            consecutive_failures: 0,
            consecutive_value_failures: 0,
            consecutive_restarts: 0,
            outstanding: None,
            next_action_at,
            session_key,
            evidence,
            freshness: Freshness::Trusted,
            next_fresh_at: None,
            link_up: true,
        });
        self.by_node.insert(id, slot as u32);
        self.by_name.entry(name).or_insert(slot as u32);
        self.insert_roster(slot);
        if let Some(t) = next_action_at {
            self.timers.insert(t, Timer::Action(slot as u32));
        }
        self.arm_freshness(slot);
        id
    }

    /// Arms (or clears) a device's freshness-decay timer from its live
    /// freshness anchor.
    fn arm_freshness(&mut self, slot: usize) {
        let next = {
            let d = &self.devices[slot];
            if self.cfg.freshness.is_enabled()
                && d.evidence.is_some()
                && d.state != DeviceState::Revoked
            {
                self.cfg
                    .freshness
                    .next_transition_at(d.last_pass_at(), self.now)
            } else {
                None
            }
        };
        self.devices[slot].next_fresh_at = next;
        if let Some(t) = next {
            self.timers.insert(
                t,
                Timer::Fresh {
                    slot: slot as u32,
                    at: t,
                },
            );
        }
    }

    /// Revokes a device: it is no longer scheduled and its outstanding
    /// round (if any) is abandoned. Returns `false` if unknown.
    pub fn leave(&mut self, name: &str) -> bool {
        let Some(i) = self.find(name) else {
            return false;
        };
        let d = &mut self.devices[i];
        let from = d.state;
        d.state = DeviceState::Revoked;
        d.outstanding = None;
        d.next_action_at = None;
        // Leave the wheel entries in place: they pop as validated
        // no-ops (lazy cancellation).
        d.next_fresh_at = None;
        let dev = d.node.member.name.clone();
        self.log.record(
            self.now,
            &dev,
            EventKind::StateChanged {
                from,
                to: DeviceState::Revoked,
            },
        );
        self.log.record(self.now, &dev, EventKind::Left);
        true
    }

    /// Inserts a just-pushed device slot into the power-ordered roster
    /// (paper §3.2; name tie-break shared with [`sage::multi`]). A
    /// binary search keeps the join path O(log n) compares + one tail
    /// memmove instead of a full re-sort.
    fn insert_roster(&mut self, slot: usize) {
        let devs = &self.devices;
        let rank = |s: usize| {
            let d = &devs[s];
            (
                core::cmp::Reverse(power_score(&d.node.member.session.dev.cfg)),
                &d.node.member.name,
            )
        };
        let key = rank(slot);
        let pos = self.roster.partition_point(|&r| rank(r as usize) < key);
        self.roster.insert(pos, slot as u32);
        if self.roster_pos.len() <= slot {
            self.roster_pos.resize(slot + 1, 0);
        }
        for p in pos..self.roster.len() {
            self.roster_pos[self.roster[p] as usize] = p as u32;
        }
    }

    /// Rebuilds the power-ordered roster index from scratch (restore
    /// path; joins use [`AttestationService::insert_roster`]).
    pub(crate) fn sort_roster(&mut self) {
        let devs = &self.devices;
        let mut order: Vec<u32> = (0..devs.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (da, db) = (&devs[a as usize], &devs[b as usize]);
            power_score(&db.node.member.session.dev.cfg)
                .cmp(&power_score(&da.node.member.session.dev.cfg))
                .then_with(|| da.node.member.name.cmp(&db.node.member.name))
        });
        self.roster = order;
        self.roster_pos = vec![0; devs.len()];
        for (p, &s) in self.roster.iter().enumerate() {
            self.roster_pos[s as usize] = p as u32;
        }
    }

    /// Rebuilds every piece of derived scheduling state — roster order,
    /// node and name indexes, and the timer wheel —
    /// from the devices' durable fields. The restore path calls this
    /// after reconstructing `devices`; the wheel itself is never
    /// snapshotted.
    pub(crate) fn rebuild_schedule(&mut self) {
        self.sort_roster();
        self.by_node.clear();
        self.by_name.clear();
        self.timers = TimerWheel::new();
        for slot in 0..self.devices.len() {
            self.by_node.insert(self.devices[slot].node.id, slot as u32);
            self.by_name
                .entry(self.devices[slot].node.member.name.clone())
                .or_insert(slot as u32);
            if let Some(t) = self.devices[slot].next_action_at {
                self.timers.insert(t, Timer::Action(slot as u32));
            }
            if let Some(t) = self.devices[slot].outstanding.as_ref().map(|o| o.deadline) {
                self.timers.insert(t, Timer::Deadline(slot as u32));
            }
            self.arm_freshness(slot);
        }
    }

    /// The earliest virtual time at which the service has work. O(1):
    /// the network and the timer wheel each keep their own next-due
    /// cursor; no roster scan. A lazily-cancelled timer can make this
    /// conservative (early), never late — the extra step is silent.
    pub fn next_event_at(&self) -> Option<u64> {
        let mut next: Option<u64> = self.net.next_event_at().map(|t| t.max(self.now));
        let mut fold = |t: u64| next = Some(next.map_or(t, |n| n.min(t)));
        if let Some(t) = self.timers.next_due() {
            fold(t);
        }
        if let Some(t) = self.next_seal_at {
            fold(t);
        }
        next
    }

    /// Runs the event loop until virtual time `t` (inclusive).
    pub fn run_until(&mut self, t: u64) {
        while let Some(e) = self.next_event_at() {
            if e > t {
                break;
            }
            self.now = self.now.max(e);
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// Runs the event loop for `ticks` more virtual ticks.
    pub fn run_for(&mut self, ticks: u64) {
        self.run_until(self.now + ticks);
    }

    /// Processes everything due at the current virtual time: one batched
    /// intake, then each phase applied in place, in the canonical order.
    /// See the module docs.
    fn step(&mut self) {
        let now = self.now;

        // ---- intake: link events, one network drain, one wheel pop ---
        self.intake_link_events();
        let arrivals = self.net.drain_due(now);
        let mut due = std::mem::take(&mut self.timer_scratch);
        self.timers.pop_due(now, &mut due);

        // Frames route by one map lookup; unroutable frames (unknown
        // node) are dropped: fail closed. Responses keep their slot and
        // arrival order; device-bound frames, touched devices (every one
        // a frame or a popped timer names) and freshness fires are keyed
        // by roster position, the order the later phases walk.
        let mut frames: Vec<(u32, Envelope)> = Vec::new();
        let mut responses: Vec<(usize, Envelope)> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let mut fresh_fires: Vec<u32> = Vec::new();
        for env in arrivals {
            if env.dst == VERIFIER_NODE {
                if let Some(&slot) = self.by_node.get(&env.src) {
                    touched.push(self.roster_pos[slot as usize]);
                    responses.push((slot as usize, env));
                }
            } else if let Some(&slot) = self.by_node.get(&env.dst) {
                let rpos = self.roster_pos[slot as usize];
                touched.push(rpos);
                frames.push((rpos, env));
            }
        }
        for &(_, timer) in &due {
            match timer {
                // The pop only marks the device; the phases re-check the
                // live condition, so stale entries are no-ops.
                Timer::Action(s) | Timer::Deadline(s) => {
                    touched.push(self.roster_pos[s as usize]);
                }
                Timer::Fresh { slot, at } => {
                    let d = &mut self.devices[slot as usize];
                    if d.next_fresh_at == Some(at) {
                        d.next_fresh_at = None;
                        fresh_fires.push(self.roster_pos[slot as usize]);
                    }
                }
            }
        }
        due.clear();
        self.timer_scratch = due;
        touched.sort_unstable();
        touched.dedup();

        // Phase 1 — device-bound frames, roster-major, arrival order
        // within a device (this fixes the transport's rng draw sequence).
        // The sort is stable, so it keeps arrival order.
        frames.sort_by_key(|f| f.0);
        for (rpos, env) in frames {
            let d = &mut self.devices[self.roster[rpos as usize] as usize];
            if d.state == DeviceState::Revoked {
                continue; // a revoked device is off the network
            }
            let Ok(frame) = wire::decode(&env.bytes) else {
                continue; // corrupt frame: fail closed, deadline covers it
            };
            if let Some((send_at, reply)) = d.node.handle(now, &frame) {
                let reply = Envelope {
                    src: d.node.id,
                    dst: VERIFIER_NODE,
                    bytes: wire::encode(&reply),
                };
                self.net.send(send_at, reply);
            }
        }
        // Phase 2 — response verdicts in global arrival order.
        for (slot, env) in responses {
            let Ok(Frame::Response {
                round,
                checksum,
                measured_cycles,
            }) = wire::decode(&env.bytes)
            else {
                continue;
            };
            let mut fx = Effects::default();
            let d = &mut self.devices[slot];
            core_verdict(&self.cfg, now, d, round, checksum, measured_cycles, &mut fx);
            self.flush_effects(slot, fx);
        }
        // Phase 3 — deadline expiries, roster order, on live state (a
        // verdict above may have consumed the outstanding round).
        for &rpos in &touched {
            let slot = self.roster[rpos as usize] as usize;
            let d = &mut self.devices[slot];
            let o = match d.outstanding.take() {
                Some(o) if o.deadline <= now => o,
                other => {
                    d.outstanding = other;
                    continue;
                }
            };
            let mut fx = Effects::default();
            if d.link_up {
                let reason = FailReason::Timeout;
                core_round_failed(&self.cfg, now, d, o.round, reason, 0, &mut fx);
            } else {
                core_round_link_down(&self.cfg, now, d, o.round, &mut fx);
            }
            self.flush_effects(slot, fx);
        }
        // Phase 4 — due round starts, roster order, again on live state
        // (a zero-backoff restart above cascades into a same-step start);
        // each device records its RoundStarted before its challenge hits
        // the wire.
        for &rpos in &touched {
            let slot = self.roster[rpos as usize] as usize;
            let d = &mut self.devices[slot];
            if d.next_action_at.is_some_and(|t| t <= now) {
                let mut fx = Effects::default();
                let env = core_start_round(&self.cfg, now, d, &mut fx);
                self.flush_effects(slot, fx);
                if let Some(env) = env {
                    self.net.send(now, env);
                }
            }
        }
        self.seal_due_epochs();
        // Phase 5 — freshness boundaries, roster order.
        fresh_fires.sort_unstable();
        for rpos in fresh_fires {
            let slot = self.roster[rpos as usize] as usize;
            let mut fx = Effects::default();
            core_refresh_freshness(&self.cfg, now, &mut self.devices[slot], &mut fx);
            self.flush_effects(slot, fx);
            self.arm_freshness(slot);
        }
    }

    /// Applies one action's effects: records its events under the
    /// device's name, tallies its quorum ballots, then arms each
    /// requested timer *if the device's live schedule still wants it* —
    /// a request superseded before the flush (the ballots' dispute
    /// records append evidence first) simply fails validation, which is
    /// what keeps lazy cancellation consistent.
    fn flush_effects(&mut self, slot: usize, fx: Effects) {
        if !fx.events.is_empty() {
            let name = self.devices[slot].node.member.name.clone();
            for ev in fx.events {
                self.log.record(self.now, &name, ev);
            }
        }
        // Quorum ballots tally after the verdict's own events/evidence,
        // so dissent records land immediately behind the round they
        // dispute. The dispute effects carry no votes of their own, so
        // the nested flush terminates.
        for req in &fx.votes {
            self.tally_vote(slot, *req);
        }
        for req in fx.timers {
            match req {
                TimerReq::Action(t) => {
                    if self.devices[slot].next_action_at == Some(t) {
                        self.timers.insert(t, Timer::Action(slot as u32));
                    }
                }
                TimerReq::Deadline(t) => {
                    let live = self.devices[slot]
                        .outstanding
                        .as_ref()
                        .is_some_and(|o| o.deadline == t);
                    if live {
                        self.timers.insert(t, Timer::Deadline(slot as u32));
                    }
                }
                TimerReq::Fresh(t) => {
                    if self.devices[slot].next_fresh_at == Some(t) {
                        self.timers.insert(
                            t,
                            Timer::Fresh {
                                slot: slot as u32,
                                at: t,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Puts one verdict to the verifier quorum. Agreement is silent —
    /// counters inside the [`VerifierSet`] move, nothing else — which
    /// is what keeps an honest-unanimous quorum's event history and
    /// evidence heads byte-identical to the single-verifier baseline.
    /// Dissent records a `QuorumDisputed` event, flags each dissenting
    /// replica `VerifierSuspected`, and seals one
    /// [`EvidencePayload::QuorumVote`] record per dissent into the
    /// device's chain.
    fn tally_vote(&mut self, slot: usize, req: VoteReq) {
        if self.quorum.is_none() {
            return;
        }
        let name = self.devices[slot].node.member.name.clone();
        let set = self.quorum.as_mut().expect("checked above");
        let decision = set.collect(&name, req.round, req.verdict);
        if decision.dissenters.is_empty() {
            return;
        }
        let mut fx = Effects::default();
        fx.events.push(EventKind::QuorumDisputed {
            round: req.round,
            accepts: decision.votes_accept,
            rejects: decision.votes_reject,
        });
        for &(verifier, vote) in &decision.dissenters {
            fx.events.push(EventKind::VerifierSuspected {
                verifier,
                round: req.round,
            });
            core_append_evidence(
                &self.cfg,
                self.now,
                &mut self.devices[slot],
                EvidencePayload::QuorumVote {
                    round: req.round,
                    verifier,
                    vote,
                    outcome: decision.outcome,
                    votes_accept: decision.votes_accept,
                    votes_reject: decision.votes_reject,
                },
                &mut fx,
            );
        }
        self.flush_effects(slot, fx);
    }

    /// Seals every epoch due at the current time (a catch-up loop, so a
    /// long clock hop seals each missed boundary in order).
    fn seal_due_epochs(&mut self) {
        while let Some(t) = self.next_seal_at {
            if t > self.now {
                break;
            }
            self.next_seal_at = Some(t + self.cfg.epoch_interval);
            let mut leaves: Vec<EpochLeaf> = self
                .devices
                .iter()
                .filter_map(|d| {
                    d.evidence.as_ref().map(|c| EpochLeaf {
                        device: d.node.member.name.clone(),
                        head: c.head(),
                        seq: c.seq(),
                    })
                })
                .collect();
            // Name order is the canonical leaf order the root commits to
            // (the roster itself is power-ordered and churns).
            leaves.sort_by(|a, b| a.device.cmp(&b.device));
            self.epoch_tree = EpochTree::new(&leaves);
            let root = self.epoch_tree.root();
            let index = self.sealed_epochs.last().map_or(1, |e| e.index + 1);
            self.log
                .record(t, "fleet", EventKind::EpochSealed { epoch: index, root });
            // The leaves now commit every keyed chain's head, so each
            // chain drops the records up to it (into the archive, if one
            // is attached).
            for d in &mut self.devices {
                if let Some(chain) = d.evidence.as_mut() {
                    if let Some(sink) = self.archive.as_mut() {
                        if !chain.records().is_empty() {
                            sink(&d.node.member.name, chain.records());
                        }
                    }
                    chain.checkpoint();
                }
            }
            // Reports anchor at the newest epoch only: the one it
            // supersedes keeps its root and gives up its leaves.
            if let Some(prev) = self.sealed_epochs.last_mut() {
                prev.leaves = Vec::new();
            }
            if self.sealed_epochs.len() == SEALED_EPOCHS_KEPT {
                self.sealed_epochs.remove(0);
            }
            self.sealed_epochs.push(SealedEpoch {
                index,
                at: t,
                root,
                leaves,
            });
        }
    }

    /// Sends one authenticated liveness probe to a device over a channel
    /// keyed by its SAKE session key, and records the outcome as
    /// evidence. Returns `None` for unknown devices or devices without
    /// an established key; otherwise whether the echo verified.
    pub fn probe_device(&mut self, name: &str) -> Option<bool> {
        let i = self.find(name)?;
        let sk = self.devices[i].session_key?;
        let seq = self.devices[i].evidence.as_ref()?.seq();
        // Deterministic per-probe nonce: a splitmix64 finalizer over the
        // (time, chain position) pair — unique per probe, reproducible
        // across runs.
        let mut nonce = self.now ^ seq.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
        nonce = (nonce ^ (nonce >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        nonce = (nonce ^ (nonce >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        nonce ^= nonce >> 31;
        let mut host = SecureChannel::new(sk, Role::Host);
        let probe = host.probe_liveness(nonce);
        let ok = self.devices[i]
            .node
            .answer_liveness(&probe)
            .is_some_and(|echo| host.confirm_liveness(nonce, &echo).is_ok());
        let verdict = if ok {
            StageVerdict::Pass
        } else {
            StageVerdict::Timeout
        };
        self.append_evidence_now(i, EvidencePayload::ChannelLiveness { nonce, verdict });
        Some(ok)
    }

    /// Checks a user kernel's measured hash on a device (paper §5.2.3)
    /// and records the measurement as evidence. Returns `None` for
    /// unknown or never-established devices; otherwise whether the
    /// measured hash matched.
    pub fn verify_kernel(&mut self, name: &str, code: &[u8]) -> Option<bool> {
        let i = self.find(name)?;
        self.devices[i].evidence.as_ref()?;
        let d = &mut self.devices[i];
        let outcome = d.verifier.verify_user_kernel_hash(
            &mut d.node.member.session,
            &mut d.node.member.agent,
            code,
        );
        let (ok, payload) = match outcome {
            Ok(hash) => (
                true,
                EvidencePayload::KernelHash {
                    hash,
                    verdict: StageVerdict::Pass,
                },
            ),
            Err(_) => (
                false,
                EvidencePayload::KernelHash {
                    hash: [0u8; 32],
                    verdict: StageVerdict::WrongValue,
                },
            ),
        };
        self.append_evidence_now(i, payload);
        Some(ok)
    }

    /// Serial-path evidence append (probe/kernel checks): runs the core
    /// append inline and flushes its effects immediately.
    fn append_evidence_now(&mut self, slot: usize, payload: EvidencePayload) {
        let mut fx = Effects::default();
        core_append_evidence(
            &self.cfg,
            self.now,
            &mut self.devices[slot],
            payload,
            &mut fx,
        );
        self.flush_effects(slot, fx);
    }

    /// Builds a self-contained [`DeviceReport`] for one device, anchored
    /// at the newest sealed epoch: the device's leaf and inclusion
    /// proof, every chain record appended since the seal, and the
    /// freshness claim at the current clock — all under the device's
    /// evidence-key CMAC. `None` until an epoch sealed with the device
    /// in it.
    pub fn report_for(&self, name: &str) -> Option<DeviceReport> {
        let d = &self.devices[self.find(name)?];
        let chain = d.evidence.as_ref()?;
        let epoch = self.sealed_epochs.last()?;
        // Leaves are name-sorted: the lower bound is the first leaf under
        // this name, and the kept levels give its proof in O(log n).
        let pos = epoch.leaves.partition_point(|l| l.device.as_str() < name);
        let leaf = epoch.leaves.get(pos).filter(|l| l.device == name)?.clone();
        let proof = self.epoch_tree.prove(pos);
        // Every keyed chain was checkpointed at this leaf when the epoch
        // sealed, so the suffix is all the chain retains.
        let suffix = chain.suffix(leaf.seq)?.to_vec();
        let last_pass_at = chain.last_pass_at();
        let claim = FreshnessClaim {
            policy: self.cfg.freshness,
            last_pass_at,
            asserted_at: self.now,
            level: self.cfg.freshness.level(last_pass_at, self.now),
        };
        Some(DeviceReport::seal(
            epoch.index,
            leaf,
            epoch.root,
            proof,
            suffix,
            claim,
            &chain.evidence_key(),
        ))
    }

    /// The newest [`SEALED_EPOCHS_KEPT`] sealed fleet epochs, oldest
    /// first.
    pub fn sealed_epochs(&self) -> &[SealedEpoch] {
        &self.sealed_epochs
    }

    /// Attaches an archive for checkpointed evidence. Every epoch seal
    /// checkpoints each keyed chain at the head the epoch commits; the
    /// records it drops are handed to `sink` first, as
    /// `(device, records)` in slot order, oldest record first, so a
    /// sink that concatenates them per device holds each chain from
    /// genesis up to its anchor. Without a sink they are freed. Like
    /// telemetry, the sink is runtime state: re-attach it after a
    /// restore.
    pub fn attach_archive(&mut self, sink: impl FnMut(&str, &[EvidenceRecord]) + Send + 'static) {
        self.archive = Some(Box::new(sink));
    }

    /// A device's evidence chain, if SAKE establishment succeeded. It
    /// retains only the records since the newest seal (see
    /// [`EvidenceChain::anchor`]).
    pub fn evidence_of(&self, name: &str) -> Option<&EvidenceChain> {
        self.find(name)
            .and_then(|i| self.devices[i].evidence.as_ref())
    }

    /// A device's evidence key (what a relying party needs, alongside a
    /// trusted epoch root, to verify its reports out of band).
    pub fn evidence_key_of(&self, name: &str) -> Option<[u8; 16]> {
        self.evidence_of(name).map(|c| c.evidence_key())
    }

    /// A device's current freshness level.
    pub fn freshness_of(&self, name: &str) -> Option<Freshness> {
        self.find(name).map(|i| self.devices[i].freshness)
    }

    /// Renders a service snapshot (time, per-device status, counters) as
    /// JSON, for dashboards and test failure messages.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"virtual_time\": {},\n", self.now));
        out.push_str("  \"devices\": [\n");
        let statuses = self.statuses();
        for (i, s) in statuses.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"state\": \"{}\", \"rounds_passed\": {}, \"consecutive_failures\": {}}}{}\n",
                crate::events::json_str(&s.name),
                s.state.as_str(),
                s.rounds_passed,
                s.consecutive_failures,
                if i + 1 == statuses.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"counters\": ");
        out.push_str(&self.log.counters_json());
        out.push_str("\n}\n");
        out
    }

    /// How many devices have a round in flight. The wall-clock driver
    /// ([`crate::clock::ClockDriver`]) freezes virtual time while this
    /// is non-zero, so responses are verdicted on their round's start
    /// tick regardless of real network latency.
    pub fn outstanding_rounds(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.outstanding.is_some())
            .count()
    }

    /// Folds transport link events into trust policy. Link loss is a
    /// *recoverable* condition with its own labels — it degrades a
    /// device but never touches its attestation record or failure
    /// budgets, because a severed cable must not look like a cheating
    /// GPU (and must never cause a false accept: the round simply stays
    /// outstanding until resume or watchdog).
    fn intake_link_events(&mut self) {
        for ev in self.net.take_link_events() {
            match ev {
                crate::net::LinkEvent::Down(node) => {
                    if let Some(&slot) = self.by_node.get(&node) {
                        self.link_down(slot as usize);
                    }
                }
                crate::net::LinkEvent::Resumed(node) => {
                    if let Some(&slot) = self.by_node.get(&node) {
                        self.link_resumed(slot as usize);
                    }
                }
            }
        }
    }

    fn link_down(&mut self, slot: usize) {
        let (name, transition) = {
            let d = &mut self.devices[slot];
            if !d.link_up {
                return;
            }
            d.link_up = false;
            let transition =
                matches!(d.state, DeviceState::Trusted | DeviceState::Attesting).then(|| {
                    let from = d.state;
                    d.state = DeviceState::Degraded;
                    from
                });
            (d.node.member.name.clone(), transition)
        };
        self.log.record(self.now, &name, EventKind::LinkDown);
        if let Some(from) = transition {
            self.log.record(
                self.now,
                &name,
                EventKind::StateChanged {
                    from,
                    to: DeviceState::Degraded,
                },
            );
        }
    }

    fn link_resumed(&mut self, slot: usize) {
        let (name, resend) = {
            let d = &mut self.devices[slot];
            if d.link_up {
                return;
            }
            d.link_up = true;
            // The outstanding challenge may have died with the old
            // connection (or been shed while down): re-encode it from
            // the live round state and send it again. The device
            // answers idempotently, and a duplicate response is a
            // logged no-op (`LateResponse`).
            let resend = d.outstanding.as_ref().map(|o| Envelope {
                src: VERIFIER_NODE,
                dst: d.node.id,
                bytes: wire::encode(&Frame::Challenge {
                    round: o.round,
                    challenges: o.challenges.clone(),
                }),
            });
            (d.node.member.name.clone(), resend)
        };
        self.log.record(self.now, &name, EventKind::LinkResumed);
        if let Some(env) = resend {
            let now = self.now;
            self.net.send(now, env);
        }
    }
}

impl AttestationService<crate::tcp::TcpTransport> {
    /// Enrolls a device that lives across a socket. `twin` is the
    /// verifier's local replica of the device's VF build — the paper's
    /// verifier-side simulation, used for checksum replay — not the
    /// remote device itself: every protocol byte of calibration and SAKE
    /// crosses `stream`. On success the
    /// stream is adopted into the transport as the device's supervised
    /// connection and future reconnects resume against the SAKE session
    /// (no re-enrollment); on failure the device lands `Quarantined`
    /// and the connection is dropped.
    ///
    /// # Panics
    ///
    /// As [`AttestationService::join`], when the node ids are spent or
    /// the name is too long.
    pub fn join_remote(
        &mut self,
        mut twin: FleetMember,
        enclave: Enclave,
        mut stream: crate::tcp::FrameStream,
    ) -> NodeId {
        let (id, mut verifier) = self.begin_enrollment(&mut twin, enclave);
        let name = twin.name.clone();

        // One wall budget covers the whole exchange; a stalled or
        // severed link fails the enrollment instead of hanging the
        // control plane.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut calib_round = 0u64;
        let calibrated = verifier.calibrate_with(self.cfg.calibration_runs, &mut |challenges| {
            calib_round += 1;
            stream
                .write_frame(&Frame::Challenge {
                    round: calib_round,
                    challenges: challenges.to_vec(),
                })
                .map_err(|_| SageError::Protocol("enrollment link failed".into()))?;
            loop {
                match stream.read_frame_deadline(deadline) {
                    Ok(Some(Frame::Response {
                        round,
                        checksum,
                        measured_cycles,
                    })) if round == calib_round => return Ok((checksum, measured_cycles)),
                    Ok(Some(Frame::Heartbeat { .. })) => continue,
                    _ => return Err(SageError::Protocol("enrollment link failed".into())),
                }
            }
        });
        let outcome = match calibrated {
            Err(_) => {
                self.log
                    .record(self.now, &name, EventKind::CalibrationFailed);
                None
            }
            Ok(_) => {
                // Over a real link the commit rides in SakeCommitTimed,
                // carrying the device's measured exchange time that the
                // in-process flow passes out of band.
                let est = verifier.establish_key_with(&mut |step, msg| {
                    stream
                        .write_frame(&Frame::Sake(msg))
                        .map_err(|_| SageError::Protocol("enrollment link failed".into()))?;
                    loop {
                        return match stream.read_frame_deadline(deadline) {
                            Ok(Some(Frame::SakeCommitTimed {
                                w2,
                                mac,
                                measured_cycles,
                            })) if step == 0 => {
                                Ok((SakeMessage::Commit { w2, mac }, Some(measured_cycles)))
                            }
                            Ok(Some(Frame::Sake(reply))) if step > 0 => Ok((reply, None)),
                            Ok(Some(Frame::Heartbeat { .. })) => continue,
                            _ => Err(SageError::Protocol("enrollment link failed".into())),
                        };
                    }
                });
                match est {
                    Ok(o) => Some(o),
                    Err(_) => {
                        self.log.record(self.now, &name, EventKind::EstablishFailed);
                        None
                    }
                }
            }
        };
        match &outcome {
            Some(o) => {
                // Adopt the live connection: supervision threads, a
                // bounded outbox, and the resume key derived from the
                // freshly-established SAKE session.
                self.net.adopt_peer(
                    name.clone(),
                    id,
                    crate::tcp::link_key(&o.session_key),
                    stream,
                );
            }
            None => stream.conn().shutdown(),
        }
        self.admit_device(id, twin, verifier, outcome)
    }
}

/// Judges one response against the device's outstanding round.
#[allow(clippy::too_many_arguments)]
fn core_verdict(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    round: u64,
    checksum: [u32; 8],
    measured: u64,
    fx: &mut Effects,
) {
    let o = match d.outstanding.take() {
        Some(o) if o.round == round => o,
        other => {
            // Late, duplicated, or replayed response: ignore it and put
            // any genuinely outstanding round back.
            d.outstanding = other;
            fx.events.push(EventKind::LateResponse { round });
            return;
        }
    };
    // Relay/topology gate (checked before value and timing): a response
    // whose wire share — wall elapsed minus the compute time it reports
    // — exceeds the calibrated direct-link gate paid at least two link
    // round trips. The checksum may be perfect and the §7.2 timing
    // clean (the outsourced GPU is faster), but the topology cannot
    // lie about the extra hop.
    if crate::quorum::relay_wire_excess(
        measured,
        now.saturating_sub(o.started_at),
        cfg.relay_rtt_gate,
    )
    .is_some()
    {
        core_round_failed(cfg, now, d, round, FailReason::Relay, measured, fx);
        return;
    }
    // The paper's verdict: replay the VF over the round's challenges and
    // compare value and timing.
    match d.verifier.check_response(&o.challenges, checksum, measured) {
        Ok(_) => core_round_passed(cfg, now, d, &o, measured, fx),
        Err(SageError::TimingExceeded { .. }) => {
            core_round_failed(cfg, now, d, round, FailReason::TooSlow, measured, fx)
        }
        Err(_) => core_round_failed(cfg, now, d, round, FailReason::WrongValue, measured, fx),
    }
}

fn core_round_passed(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    o: &Outstanding,
    measured: u64,
    fx: &mut Effects,
) {
    d.rounds_passed += 1;
    d.consecutive_failures = 0;
    d.consecutive_value_failures = 0;
    d.consecutive_restarts = 0;
    let at = now + cfg.reattest_interval;
    d.next_action_at = Some(at);
    fx.timers.push(TimerReq::Action(at));
    let threshold = d.verifier.threshold().unwrap_or(0);
    let round = o.round;
    fx.events.push(EventKind::RoundPassed {
        round,
        measured,
        started_at: o.started_at,
    });
    if cfg.quorum.is_active() {
        fx.votes.push(VoteReq {
            round,
            verdict: StageVerdict::Pass,
        });
    }
    core_append_evidence(
        cfg,
        now,
        d,
        EvidencePayload::ChecksumRound {
            round,
            measured_cycles: measured,
            threshold_cycles: threshold,
            verdict: StageVerdict::Pass,
            path: EvidencePath::Classic,
        },
        fx,
    );
    if matches!(d.state, DeviceState::Attesting | DeviceState::Degraded) {
        core_set_state(d, DeviceState::Trusted, fx);
    }
}

fn core_round_failed(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    round: u64,
    reason: FailReason,
    measured: u64,
    fx: &mut Effects,
) {
    let policy = cfg.policy;
    fx.events.push(EventKind::RoundFailed { round, reason });
    let verdict = match reason {
        FailReason::WrongValue => StageVerdict::WrongValue,
        // A relay reject is a timing-family verdict: the exchange took
        // too long once the wire share is accounted for.
        FailReason::TooSlow | FailReason::Relay => StageVerdict::TooSlow,
        // LinkDown never reaches this function — it has its own
        // evidence-free path (`core_round_link_down`).
        FailReason::Timeout | FailReason::LinkDown => StageVerdict::Timeout,
    };
    if cfg.quorum.is_active() {
        fx.votes.push(VoteReq { round, verdict });
    }
    let threshold = d.verifier.threshold().unwrap_or(0);
    core_append_evidence(
        cfg,
        now,
        d,
        EvidencePayload::ChecksumRound {
            round,
            measured_cycles: measured,
            threshold_cycles: threshold,
            verdict,
            path: EvidencePath::Classic,
        },
        fx,
    );

    // Paper §7.2: a timing-only reject is ≈0.5% likely on an honest
    // device — restart the verification instead of counting it
    // against the failure budget. With `restart_on_timeout` the
    // watchdog extends the same allowance to expired deadlines (a
    // transiently-unreachable device), sharing the restart budget.
    let restartable = match reason {
        FailReason::TooSlow => true,
        FailReason::Timeout => policy.restart_on_timeout,
        // Topology does not flap the way timing noise does — a relayed
        // exchange stays relayed, so no restart allowance.
        FailReason::WrongValue | FailReason::LinkDown | FailReason::Relay => false,
    };
    if restartable && d.consecutive_restarts < policy.max_timing_restarts {
        d.consecutive_restarts += 1;
        let at = now + policy.backoff_base;
        d.next_action_at = Some(at);
        fx.timers.push(TimerReq::Action(at));
        fx.events.push(EventKind::Restarted { round });
        return;
    }
    d.consecutive_failures += 1;
    if reason == FailReason::WrongValue {
        d.consecutive_value_failures += 1;
    }
    // Two quarantine budgets: the general one for any consecutive
    // failures, and a (usually tighter) one for wrong checksums —
    // the signal no honest device can emit.
    if d.consecutive_failures >= policy.quarantine_after
        || d.consecutive_value_failures >= policy.value_quarantine_after
    {
        d.next_action_at = None;
        core_set_state(d, DeviceState::Quarantined, fx);
    } else {
        let delay = policy.backoff_delay(d.consecutive_failures)
            + seeded_jitter(
                cfg.backoff_jitter,
                &d.node.member.name,
                u64::from(d.consecutive_failures),
            );
        let at = now + delay;
        d.next_action_at = Some(at);
        fx.timers.push(TimerReq::Action(at));
        if d.state != DeviceState::Degraded {
            core_set_state(d, DeviceState::Degraded, fx);
        }
    }
}

/// A round's deadline expired while the device's link was known-down.
/// This is the one failure path that must stay off the attestation
/// record: no evidence is appended and no failure budget is touched —
/// the link already demoted the device to `Degraded`, and a severed
/// cable must never read as a cheating GPU. The round is abandoned
/// (never accepted — no false-accept window) and a jittered retry is
/// scheduled so the fleet doesn't storm the moment links heal.
fn core_round_link_down(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    round: u64,
    fx: &mut Effects,
) {
    fx.events.push(EventKind::RoundFailed {
        round,
        reason: FailReason::LinkDown,
    });
    let delay =
        cfg.policy.backoff_base + seeded_jitter(cfg.backoff_jitter, &d.node.member.name, d.round);
    let at = now + delay;
    d.next_action_at = Some(at);
    fx.timers.push(TimerReq::Action(at));
    if d.state != DeviceState::Degraded && d.state != DeviceState::Quarantined {
        core_set_state(d, DeviceState::Degraded, fx);
    }
}

/// Starts the device's next round if it is still eligible; returns the
/// challenge envelope to send (at the current tick) when it is.
fn core_start_round(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    fx: &mut Effects,
) -> Option<Envelope> {
    d.next_action_at = None;
    if !matches!(
        d.state,
        DeviceState::Attesting | DeviceState::Trusted | DeviceState::Degraded
    ) {
        return None;
    }
    // Uncalibrated devices never get here (join quarantines them).
    let threshold = d.verifier.threshold()?;
    // Spot-check sampling: a `Trusted` device outside this epoch's
    // seeded plan sleeps to the next epoch boundary instead of
    // attesting. Only `Trusted` devices are skippable — `Attesting` and
    // `Degraded` devices are under investigation and always attest, so
    // a suspect cannot hide behind the sampler. The rule is a pure
    // function of `(seed, epoch, name)`, so every verifier replica draws
    // the same plan.
    if cfg.sampling.is_active() && cfg.epoch_interval > 0 && d.state == DeviceState::Trusted {
        let epoch = now / cfg.epoch_interval;
        if !crate::sampling::covers(&cfg.sampling, epoch, &d.node.member.name) {
            let at = (epoch + 1) * cfg.epoch_interval;
            d.next_action_at = Some(at);
            fx.timers.push(TimerReq::Action(at));
            fx.events.push(EventKind::SpotCheckSkipped { epoch });
            return None;
        }
    }
    d.round += 1;
    // Fresh challenges from the enclave DRBG; the verdict replays them.
    let challenges = d.verifier.generate_challenges();
    // The round must complete within: challenge flight + the
    // calibrated worst-case checksum time + response flight + slack.
    let deadline = now + 2 * cfg.latency_budget + threshold + cfg.deadline_slack;
    d.outstanding = Some(Outstanding {
        round: d.round,
        challenges: challenges.clone(),
        deadline,
        started_at: now,
    });
    fx.timers.push(TimerReq::Deadline(deadline));
    let round = d.round;
    fx.events.push(EventKind::RoundStarted { round });
    Some(Envelope {
        src: VERIFIER_NODE,
        dst: d.node.id,
        bytes: wire::encode(&Frame::Challenge { round, challenges }),
    })
}

fn core_set_state(d: &mut ManagedDevice, to: DeviceState, fx: &mut Effects) {
    if d.state == to {
        return;
    }
    let from = d.state;
    d.state = to;
    fx.events.push(EventKind::StateChanged { from, to });
}

/// Appends one attestation-stage record to a device's evidence chain
/// (a no-op for devices whose SAKE establishment failed — they have
/// no chain and no key to authenticate records under). A passing
/// stage advances the freshness anchor and re-arms the decay timer.
fn core_append_evidence(
    cfg: &ServiceConfig,
    now: u64,
    d: &mut ManagedDevice,
    payload: EvidencePayload,
    fx: &mut Effects,
) {
    let Some(chain) = d.evidence.as_mut() else {
        return;
    };
    chain.append(now, payload);
    core_refresh_freshness(cfg, now, d, fx);
    schedule_freshness(cfg, now, d, fx);
}

/// Re-evaluates one device's freshness level under the configured
/// policy and logs the transition if it changed.
fn core_refresh_freshness(cfg: &ServiceConfig, now: u64, d: &mut ManagedDevice, fx: &mut Effects) {
    if d.evidence.is_none() || d.state == DeviceState::Revoked {
        return;
    }
    let to = cfg.freshness.level(d.last_pass_at(), now);
    if to == d.freshness {
        return;
    }
    let from = d.freshness;
    d.freshness = to;
    fx.events.push(EventKind::FreshnessChanged { from, to });
}

/// Requests the device's next freshness-decay timer from its live
/// anchor. The boundary is strictly in the future and monotone in
/// `last_pass_at`, so a superseded timer simply goes stale.
fn schedule_freshness(cfg: &ServiceConfig, now: u64, d: &mut ManagedDevice, fx: &mut Effects) {
    if !cfg.freshness.is_enabled() || d.evidence.is_none() || d.state == DeviceState::Revoked {
        return;
    }
    match cfg.freshness.next_transition_at(d.last_pass_at(), now) {
        Some(t) => {
            if d.next_fresh_at != Some(t) {
                d.next_fresh_at = Some(t);
                fx.timers.push(TimerReq::Fresh(t));
            }
        }
        None => d.next_fresh_at = None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkProfile, SimNet};
    use sage::agent::DeviceAgent;
    use sage_crypto::EntropySource;
    use sage_gpu_sim::{Device, DeviceConfig};
    use sage_sgx_sim::SgxPlatform;
    use sage_vf::VfParams;

    fn entropy(seed: u8) -> impl EntropySource {
        let mut state = seed;
        move |buf: &mut [u8]| {
            for b in buf {
                state = state.wrapping_mul(181).wrapping_add(101);
                *b = state;
            }
        }
    }

    fn modeled(index: u8) -> (FleetMember, Enclave) {
        let session = GpuSession::install_modeled(
            Device::new(DeviceConfig::sim_nano()),
            &VfParams::fleet_tiny(),
            0xF1EE7,
            10_000,
        )
        .expect("install modeled VF");
        let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(index | 1))));
        m.name = format!("gpu-{index}");
        let enclave = SgxPlatform::new([7u8; 16]).launch(b"ids", &mut entropy(index | 3));
        (m, enclave)
    }

    #[test]
    fn node_ids_stop_at_the_top_of_the_id_space_instead_of_wrapping() {
        let cfg = ServiceConfig {
            reattest_interval: 10_000,
            ..ServiceConfig::default()
        };
        let net = SimNet::new(5, LinkProfile::default());
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
        // 65,533 lifetime joins already spent.
        svc.next_node = 65_534;
        let ids: Vec<NodeId> = (0..2)
            .map(|i| {
                let (m, e) = modeled(i);
                svc.join(m, e)
            })
            .collect();
        assert_eq!(ids, [NodeId(65_534), NodeId(65_535)]);
        // Frames route at the top of the id space: both devices attest.
        svc.run_for(50_000);
        for s in svc.statuses() {
            assert_eq!(s.state, DeviceState::Trusted, "{}", s.name);
            assert!(s.rounds_passed > 0, "{}", s.name);
        }

        // A snapshot carries the ids and the spent counter across a
        // restart.
        let snap = svc.snapshot();
        let (net, eps) = svc.into_endpoints();
        let mut svc = AttestationService::restore(cfg, DhGroup::test_group(), net, &snap, eps)
            .expect("snapshot restores");
        let mut restored: Vec<NodeId> = svc.statuses().iter().map(|s| s.node).collect();
        restored.sort();
        assert_eq!(restored, ids);
        assert_eq!(svc.next_node, 65_536);

        // The next join is refused before it records anything, never
        // handed the verifier's address.
        let events = svc.log().events().len();
        let (m, e) = modeled(2);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.join(m, e)));
        assert!(refused.is_err(), "a join past the id space must not wrap");
        assert_eq!(svc.log().events().len(), events);
        assert!(svc.statuses().iter().all(|s| s.node != VERIFIER_NODE));
    }

    #[test]
    fn names_longer_than_the_wire_bound_are_refused_at_join() {
        let cfg = ServiceConfig {
            reattest_interval: 10_000,
            quorum: QuorumConfig {
                verifiers: 4,
                seed: 0x51D,
            },
            ..ServiceConfig::default()
        };
        let net = SimNet::new(5, LinkProfile::default());
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
        // A name at the bound joins and every round is balloted.
        let (mut m, e) = modeled(0);
        m.name = "a".repeat(wire::MAX_NAME);
        svc.join(m, e);
        svc.run_for(50_000);
        let status = &svc.statuses()[0];
        assert_eq!(status.state, DeviceState::Trusted);
        assert!(status.rounds_passed > 0);
        assert!(svc.quorum().expect("4-replica quorum").rounds > 0);

        // One byte more is refused before anything is recorded; joined,
        // it would panic the first quorum vote instead.
        let events = svc.log().events().len();
        let next_node = svc.next_node;
        let (mut m, e) = modeled(1);
        m.name = "b".repeat(wire::MAX_NAME + 1);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.join(m, e)));
        assert!(refused.is_err(), "a 257-byte name must not join");
        assert_eq!(svc.log().events().len(), events);
        assert_eq!(svc.next_node, next_node);
        assert_eq!(svc.statuses().len(), 1);
        svc.run_for(20_000);
        assert_eq!(svc.statuses()[0].state, DeviceState::Trusted);
    }
}
