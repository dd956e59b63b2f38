//! Fleet attestation control plane (the service layer above the SAGE
//! protocol core).
//!
//! The paper's protocol (§3.2, §7.2, §8) assumes a verifier that
//! *continuously maintains* roots of trust across a heterogeneous GPU
//! fleet. The protocol core (`sage`) gives one-shot primitives; this
//! crate adds the long-running layer production GPU-validation systems
//! are built from:
//!
//! - [`wire`] — a framed, versioned codec for verifier↔agent SAKE
//!   messages, secure-channel [`sage::channel::Wire`] data, and the
//!   service's own challenge/response frames;
//! - [`net`] — the [`net::Transport`] trait plus [`net::SimNet`], a
//!   seeded virtual-clock network with latency, jitter, drop and
//!   duplication, and targeted per-link fault injection;
//! - [`node`] — the device-side endpoint answering re-attestation
//!   challenges (with a post-enrollment compromise knob for tests);
//! - [`policy`] — quarantine budget, timing-restart allowance (the
//!   paper's 0.5% false-positive rule) and exponential backoff;
//! - [`events`] — the structured event log and counters, exported as
//!   JSON;
//! - [`fx`] — the dependency-free Fx hasher behind the service's
//!   node- and name-keyed maps;
//! - [`quorum`] — N verifier replicas voting on every verdict under a
//!   ⌈2N/3⌉ acceptance rule, with dissent flagged and sealed into the
//!   evidence chain, plus the relay/topology detector;
//! - [`sampling`] — seeded spot-check plans attesting a coverage-`c`
//!   sample of the fleet per epoch, with the closed-form
//!   `P(detect within k epochs) = 1 − (1 − c)^k` detection model;
//! - [`service`] — [`service::AttestationService`]: the per-device
//!   lifecycle state machine (`Enrolled → Attesting → Trusted →
//!   Degraded → Quarantined/Revoked`), deadline-driven re-attestation
//!   scheduling, and most-powerful-first roster maintenance across
//!   join/leave. Each step runs on the caller's thread: one intake,
//!   then phases that apply their effects in place, in one canonical
//!   order;
//! - [`snapshot`] — crash-safe recovery: a versioned binary snapshot of
//!   the scheduler state plus [`snapshot::Endpoint`] hand-back, so a
//!   restarted control plane resumes mid-schedule with a bit-identical
//!   subsequent event history.
//!
//! Everything is deterministic: one seed fixes the network, the device
//! timing and therefore the entire fleet history, which is what lets the
//! integration tests (`tests/service_fleet.rs` at the workspace root)
//! assert exact lifecycle outcomes under fault injection, and what makes
//! `perfbench` runs reproducible.
//!
//! See DESIGN.md §5 for the architecture and EXPERIMENTS.md for the
//! walkthrough (`examples/attestation_service.rs`).

pub mod clock;
pub mod events;
pub mod fx;
pub mod net;
pub mod node;
pub mod policy;
pub mod proxy;
pub mod quorum;
pub mod sampling;
pub mod service;
pub mod snapshot;
pub mod tcp;
pub mod wheel;
pub mod wire;

pub use clock::{ClockDriver, Pump, RealTransport};
pub use events::{Counters, Event, EventKind, EventLog, FailReason};
pub use fx::{FxBuildHasher, FxHashMap};
pub use net::{
    Envelope, Fault, LinkEvent, LinkProfile, NetStats, NodeId, SimNet, SplitMix64, Transport,
};
pub use node::DeviceNode;
pub use policy::{seeded_jitter, Policy};
pub use proxy::{ChaosProfile, ChaosProxy, ProxyStats};
pub use quorum::{
    quorum_threshold, relay_wire_excess, QuorumConfig, QuorumDecision, VerifierBehavior,
    VerifierReplica, VerifierSet,
};
pub use sampling::{
    covers, detect_probability_per_mille, epochs_to_detect, SamplingConfig, SpotCheckPlan,
};
pub use service::{
    AttestationService, DeviceHealth, DeviceState, DeviceStatus, SealedEpoch, ServiceConfig,
    SEALED_EPOCHS_KEPT, VERIFIER_NODE,
};
pub use snapshot::{Endpoint, SnapshotError};
pub use tcp::{
    Bind, DeviceLink, DeviceLinkConfig, DeviceLinkReport, FrameStream, LinkConfig, StreamError,
    TcpTransport, TransportStats,
};
pub use wheel::TimerWheel;
pub use wire::{CodecError, Frame};
