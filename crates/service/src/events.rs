//! Structured event log and counters — the control plane's observability
//! surface, exported as JSON for dashboards and as telemetry series.

use sage_evidence::Freshness;
use sage_telemetry::{Counter, Histogram, Registry};

use crate::service::DeviceState;

/// Why a round failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailReason {
    /// The checksum value did not match the verifier's replay.
    WrongValue,
    /// The reported exchange time exceeded `T_avg + k·σ`.
    TooSlow,
    /// No response arrived before the round deadline.
    Timeout,
    /// The deadline expired while the device's transport link was
    /// known-down. Recoverable: appends no evidence and burns no
    /// failure budget — a severed cable is not a cheating GPU.
    LinkDown,
    /// The response's wire share (wall elapsed minus reported compute)
    /// exceeded the relay gate: the checksum was outsourced through a
    /// proxy paying two link round trips. Never restartable — topology
    /// does not flap the way timing noise does.
    Relay,
}

impl FailReason {
    /// Stable string tag used in the JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailReason::WrongValue => "wrong_value",
            FailReason::TooSlow => "too_slow",
            FailReason::Timeout => "timeout",
            FailReason::LinkDown => "link_down",
            FailReason::Relay => "relay",
        }
    }
}

/// One lifecycle event of a managed device.
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// The device joined the fleet.
    Joined,
    /// Timing calibration failed during enrollment.
    CalibrationFailed,
    /// Key establishment failed during enrollment.
    EstablishFailed,
    /// The device transitioned between lifecycle states.
    StateChanged {
        /// Previous state.
        from: DeviceState,
        /// New state.
        to: DeviceState,
    },
    /// A re-attestation round was dispatched.
    RoundStarted {
        /// Round number.
        round: u64,
    },
    /// A round passed both verdicts.
    RoundPassed {
        /// Round number.
        round: u64,
        /// Measured exchange time in cycles.
        measured: u64,
        /// Virtual time the round's challenge was dispatched; the
        /// event's own time minus this is the round's latency.
        started_at: u64,
    },
    /// A round failed.
    RoundFailed {
        /// Round number.
        round: u64,
        /// Failure classification.
        reason: FailReason,
    },
    /// A timing-only reject was answered with a restart (the paper's
    /// false-positive rule).
    Restarted {
        /// Round number that was restarted.
        round: u64,
    },
    /// A response arrived for a round that is no longer outstanding
    /// (late, duplicated, or replayed) and was ignored.
    LateResponse {
        /// The round number the response claimed.
        round: u64,
    },
    /// The device left the fleet (operator revocation).
    Left,
    /// The device's freshness level changed (decay without
    /// re-attestation, or recovery when a stage passed again).
    FreshnessChanged {
        /// Previous level.
        from: Freshness,
        /// New level.
        to: Freshness,
    },
    /// A fleet evidence epoch was sealed: a Merkle root over every
    /// device's chain head (recorded under the synthetic device name
    /// `"fleet"`).
    EpochSealed {
        /// Epoch index (first sealed epoch is 1).
        epoch: u64,
        /// The sealed Merkle root.
        root: [u8; 32],
    },
    /// The device's transport link went down (connection severed or
    /// heartbeats missed). Trust drops to `Degraded`, never
    /// `Quarantined` — the attestation record is untouched.
    LinkDown,
    /// The device's transport link resumed (session resume, not
    /// re-enrollment); any outstanding challenge is re-sent.
    LinkResumed,
    /// The spot-check plan left this device out of the current epoch's
    /// sample: the due round was skipped and the device sleeps until
    /// the next epoch boundary. Only `Trusted` devices are skippable —
    /// suspects under investigation always attest.
    SpotCheckSkipped {
        /// The sampling epoch that excluded the device.
        epoch: u64,
    },
    /// The verifier quorum did not vote unanimously on this round's
    /// verdict (the outcome stands — see `crate::quorum`).
    QuorumDisputed {
        /// Round number voted on.
        round: u64,
        /// Valid `Pass` ballots.
        accepts: u16,
        /// Valid non-`Pass` ballots.
        rejects: u16,
    },
    /// A verifier replica dissented from the quorum outcome and is now
    /// flagged suspect.
    VerifierSuspected {
        /// The dissenting replica's index.
        verifier: u16,
        /// Round number it dissented on.
        round: u64,
    },
}

/// A timestamped, per-device event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Virtual time the event occurred at.
    pub at: u64,
    /// Device name.
    pub device: String,
    /// What happened.
    pub kind: EventKind,
}

/// Aggregate counters, derived from the event log's tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Devices that joined.
    pub joins: u64,
    /// Devices that left.
    pub leaves: u64,
    /// Rounds dispatched.
    pub rounds_started: u64,
    /// Rounds that passed.
    pub rounds_passed: u64,
    /// Rounds rejected on checksum value.
    pub value_rejects: u64,
    /// Rounds rejected on timing.
    pub timing_rejects: u64,
    /// Rounds that timed out.
    pub timeouts: u64,
    /// False-positive restarts issued.
    pub restarts: u64,
    /// Late/duplicate/replayed responses ignored.
    pub late_responses: u64,
    /// Devices quarantined.
    pub quarantines: u64,
    /// Enrollment calibration failures.
    pub calibration_failures: u64,
    /// Freshness-level transitions (decay or recovery).
    pub freshness_transitions: u64,
    /// Fleet evidence epochs sealed.
    pub epochs_sealed: u64,
    /// Transport links lost (sever or heartbeat exhaustion).
    pub link_downs: u64,
    /// Transport links resumed without re-enrollment.
    pub link_resumes: u64,
    /// Rounds skipped by the spot-check sampling plan.
    pub spotcheck_skips: u64,
    /// Quorum votes with at least one dissenting ballot.
    pub quorum_disputes: u64,
    /// Dissenting verifier-replica ballots flagged.
    pub verifier_suspects: u64,
    /// Rounds rejected by the relay/topology detector.
    pub relay_rejects: u64,
}

/// Every fact [`EventLog::record`] counts, in tally-slot order, as the
/// series it is exported under. Failures are split by [`FailReason`]
/// (discriminant order) and freshness changes by destination level
/// ([`Freshness::tag`] order), so one tally serves both [`Counters`]
/// and the labelled series.
const FACTS: [(&str, &[(&str, &str)]); 22] = [
    ("service_devices_joined_total", &[]),
    ("service_devices_left_total", &[]),
    ("service_rounds_started_total", &[]),
    ("service_rounds_passed_total", &[]),
    ("service_rounds_failed_total", &[("reason", "wrong_value")]),
    ("service_rounds_failed_total", &[("reason", "too_slow")]),
    ("service_rounds_failed_total", &[("reason", "timeout")]),
    ("service_rounds_failed_total", &[("reason", "link_down")]),
    ("service_rounds_failed_total", &[("reason", "relay")]),
    ("service_restarts_total", &[]),
    ("service_late_responses_total", &[]),
    ("service_quarantines_total", &[]),
    ("service_calibration_failures_total", &[]),
    ("service_freshness_transitions_total", &[("to", "trusted")]),
    ("service_freshness_transitions_total", &[("to", "stale")]),
    ("service_freshness_transitions_total", &[("to", "degraded")]),
    ("service_epochs_sealed_total", &[]),
    ("service_link_downs_total", &[]),
    ("service_link_resumes_total", &[]),
    ("service_spotcheck_skips_total", &[]),
    ("service_quorum_disputes_total", &[]),
    ("service_verifier_suspects_total", &[]),
];
const JOINED: usize = 0;
const LEFT: usize = 1;
const STARTED: usize = 2;
const PASSED: usize = 3;
/// First of five slots, one per [`FailReason`].
const FAILED: usize = 4;
const RESTARTED: usize = 9;
const LATE: usize = 10;
const QUARANTINED: usize = 11;
const CALIBRATION_FAILED: usize = 12;
/// First of three slots, one per [`Freshness`] level.
const FRESHNESS: usize = 13;
const EPOCH_SEALED: usize = 16;
const LINK_DOWN: usize = 17;
const LINK_RESUMED: usize = 18;
const SPOTCHECK_SKIPPED: usize = 19;
const QUORUM_DISPUTED: usize = 20;
const VERIFIER_SUSPECTED: usize = 21;

impl EventKind {
    /// The tally slot this event counts into (an index into [`FACTS`]),
    /// or `None` for an event that counts nothing. The one place events
    /// are classified.
    fn fact(&self) -> Option<usize> {
        Some(match self {
            EventKind::Joined => JOINED,
            EventKind::Left => LEFT,
            EventKind::CalibrationFailed => CALIBRATION_FAILED,
            EventKind::StateChanged {
                to: DeviceState::Quarantined,
                ..
            } => QUARANTINED,
            EventKind::EstablishFailed | EventKind::StateChanged { .. } => return None,
            EventKind::RoundStarted { .. } => STARTED,
            EventKind::RoundPassed { .. } => PASSED,
            EventKind::RoundFailed { reason, .. } => FAILED + *reason as usize,
            EventKind::Restarted { .. } => RESTARTED,
            EventKind::LateResponse { .. } => LATE,
            EventKind::FreshnessChanged { to, .. } => FRESHNESS + to.tag() as usize,
            EventKind::EpochSealed { .. } => EPOCH_SEALED,
            EventKind::LinkDown => LINK_DOWN,
            EventKind::LinkResumed => LINK_RESUMED,
            EventKind::SpotCheckSkipped { .. } => SPOTCHECK_SKIPPED,
            EventKind::QuorumDisputed { .. } => QUORUM_DISPUTED,
            EventKind::VerifierSuspected { .. } => VERIFIER_SUSPECTED,
        })
    }
}

/// How many of each fact the log has recorded, indexed like [`FACTS`]:
/// the log's one count, from which [`Counters`] and every
/// `service_*_total` series are derived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally(pub(crate) [u64; FACTS.len()]);

impl Tally {
    fn counters(&self) -> Counters {
        let t = &self.0;
        let failed = |r: FailReason| t[FAILED + r as usize];
        Counters {
            joins: t[JOINED],
            leaves: t[LEFT],
            rounds_started: t[STARTED],
            rounds_passed: t[PASSED],
            value_rejects: failed(FailReason::WrongValue),
            timing_rejects: failed(FailReason::TooSlow),
            timeouts: failed(FailReason::Timeout),
            restarts: t[RESTARTED],
            late_responses: t[LATE],
            quarantines: t[QUARANTINED],
            calibration_failures: t[CALIBRATION_FAILED],
            freshness_transitions: t[FRESHNESS..FRESHNESS + 3].iter().sum(),
            epochs_sealed: t[EPOCH_SEALED],
            link_downs: t[LINK_DOWN],
            link_resumes: t[LINK_RESUMED],
            spotcheck_skips: t[SPOTCHECK_SKIPPED],
            quorum_disputes: t[QUORUM_DISPUTED],
            verifier_suspects: t[VERIFIER_SUSPECTED],
            // Link-down failures have no field: dashboards must tell a
            // flapping link from a hung device, and the link itself is
            // counted by `link_downs`.
            relay_rejects: failed(FailReason::Relay),
        }
    }
}

/// The registry handles the log feeds: one counter per tally slot, the
/// ring's drop count, and the passed-round latency histogram.
struct LogTelemetry {
    facts: [Counter; FACTS.len()],
    events_dropped: Counter,
    round_latency: Histogram,
}

/// The event log: append-order events plus their tally. With a
/// capacity set it becomes a ring — only the most recent `capacity`
/// events stay resident (a 10k-device fleet would otherwise grow the
/// log without bound), while the tally keeps counting everything.
#[derive(Default)]
pub struct EventLog {
    events: Vec<Event>,
    tally: Tally,
    sink: Option<LogTelemetry>,
    /// Retained-event bound; `0` = unbounded (the historical default).
    capacity: usize,
    /// Events evicted by the ring so far.
    events_dropped: u64,
}

impl EventLog {
    /// Creates an empty, unbounded log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Creates an empty log retaining at most `capacity` events
    /// (`0` = unbounded). Eviction is amortized O(1): the buffer grows
    /// to `2 × capacity`, then the oldest half is dropped in one
    /// `drain`, so [`EventLog::events`] stays a plain slice.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            capacity,
            ..EventLog::default()
        }
    }

    /// Rebuilds a log from snapshot parts: the retained event window
    /// plus the tally and drop count. Nothing is replayed — when the
    /// ring has wrapped, the retained window no longer determines the
    /// tally, so it must be carried explicitly.
    pub(crate) fn restore_parts(
        events: Vec<Event>,
        tally: Tally,
        events_dropped: u64,
        capacity: usize,
    ) -> EventLog {
        EventLog {
            events,
            tally,
            sink: None,
            capacity,
            events_dropped,
        }
    }

    /// The tally, for the snapshot.
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Attaches the log to a telemetry registry: the tally is exported
    /// as `service_*_total` series and passed-round latencies feed a
    /// `service_round_latency_ticks` histogram (virtual ticks —
    /// deterministic for a fixed seed). The counters start from the
    /// tally, so attaching after a crash-restore or after the ring has
    /// wrapped exports the same totals as [`EventLog::counters`]. The
    /// histogram starts from the rounds still in the retained window.
    pub fn attach_telemetry(&mut self, reg: &Registry) {
        let sink = LogTelemetry {
            facts: FACTS.map(|(name, labels)| reg.counter(name, labels)),
            events_dropped: reg.counter("service_events_dropped_total", &[]),
            round_latency: reg.histogram("service_round_latency_ticks", &[]),
        };
        for (c, &n) in sink.facts.iter().zip(&self.tally.0) {
            c.add(n);
        }
        sink.events_dropped.add(self.events_dropped);
        for e in &self.events {
            if let EventKind::RoundPassed { started_at, .. } = e.kind {
                sink.round_latency.record(e.at - started_at);
            }
        }
        self.sink = Some(sink);
    }

    /// Appends an event and counts it.
    pub fn record(&mut self, at: u64, device: &str, kind: EventKind) {
        if let Some(fact) = kind.fact() {
            self.tally.0[fact] += 1;
            if let Some(sink) = &self.sink {
                sink.facts[fact].inc();
            }
        }
        if let (Some(sink), EventKind::RoundPassed { started_at, .. }) = (&self.sink, &kind) {
            sink.round_latency.record(at - started_at);
        }
        self.events.push(Event {
            at,
            device: device.to_string(),
            kind,
        });
        if self.capacity > 0 && self.events.len() >= self.capacity * 2 {
            let drop = self.events.len() - self.capacity;
            self.events.drain(..drop);
            self.events_dropped += drop as u64;
            if let Some(sink) = &self.sink {
                sink.events_dropped.add(drop as u64);
            }
        }
    }

    /// All retained events, in order. With a capacity set this is the
    /// most recent window; [`EventLog::events_dropped`] counts what the
    /// ring evicted before it.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events evicted by the bounded ring (0 while unbounded or not yet
    /// wrapped). Exported as `service_events_dropped_total` when
    /// telemetry is attached.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The configured retained-event bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counter snapshot, derived from the tally.
    pub fn counters(&self) -> Counters {
        self.tally.counters()
    }

    /// Renders the counters as a JSON object (no trailing newline).
    pub fn counters_json(&self) -> String {
        let c = self.counters();
        format!(
            concat!(
                "{{\"joins\": {}, \"leaves\": {}, \"rounds_started\": {}, ",
                "\"rounds_passed\": {}, \"value_rejects\": {}, \"timing_rejects\": {}, ",
                "\"timeouts\": {}, \"restarts\": {}, \"late_responses\": {}, ",
                "\"quarantines\": {}, \"calibration_failures\": {}, ",
                "\"freshness_transitions\": {}, \"epochs_sealed\": {}, ",
                "\"link_downs\": {}, \"link_resumes\": {}, ",
                "\"spotcheck_skips\": {}, \"quorum_disputes\": {}, ",
                "\"verifier_suspects\": {}, \"relay_rejects\": {}}}"
            ),
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
        )
    }

    /// Renders the full log (counters + events) as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": ");
        out.push_str(&self.counters_json());
        out.push_str(",\n  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"at\": {}, \"device\": \"{}\", {}}}{}\n",
                e.at,
                json_str(&e.device),
                kind_json(&e.kind),
                if i + 1 == self.events.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal. Device
/// names are plain identifiers throughout the tree, but names arrive
/// from operators — a hostile or merely odd name must never panic the
/// control plane, so anything beyond the plain subset is escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn kind_json(kind: &EventKind) -> String {
    match kind {
        EventKind::Joined => "\"kind\": \"joined\"".into(),
        EventKind::CalibrationFailed => "\"kind\": \"calibration_failed\"".into(),
        EventKind::EstablishFailed => "\"kind\": \"establish_failed\"".into(),
        EventKind::StateChanged { from, to } => format!(
            "\"kind\": \"state_changed\", \"from\": \"{}\", \"to\": \"{}\"",
            from.as_str(),
            to.as_str()
        ),
        EventKind::RoundStarted { round } => {
            format!("\"kind\": \"round_started\", \"round\": {round}")
        }
        EventKind::RoundPassed {
            round,
            measured,
            started_at,
        } => format!(
            "\"kind\": \"round_passed\", \"round\": {round}, \"measured\": {measured}, \
             \"started_at\": {started_at}"
        ),
        EventKind::RoundFailed { round, reason } => format!(
            "\"kind\": \"round_failed\", \"round\": {round}, \"reason\": \"{}\"",
            reason.as_str()
        ),
        EventKind::Restarted { round } => format!("\"kind\": \"restarted\", \"round\": {round}"),
        EventKind::LateResponse { round } => {
            format!("\"kind\": \"late_response\", \"round\": {round}")
        }
        EventKind::Left => "\"kind\": \"left\"".into(),
        EventKind::FreshnessChanged { from, to } => format!(
            "\"kind\": \"freshness_changed\", \"from\": \"{}\", \"to\": \"{}\"",
            from.as_str(),
            to.as_str()
        ),
        EventKind::EpochSealed { epoch, root } => {
            let hex: String = root.iter().map(|b| format!("{b:02x}")).collect();
            format!("\"kind\": \"epoch_sealed\", \"epoch\": {epoch}, \"root\": \"{hex}\"")
        }
        EventKind::LinkDown => "\"kind\": \"link_down\"".into(),
        EventKind::LinkResumed => "\"kind\": \"link_resumed\"".into(),
        EventKind::SpotCheckSkipped { epoch } => {
            format!("\"kind\": \"spotcheck_skipped\", \"epoch\": {epoch}")
        }
        EventKind::QuorumDisputed {
            round,
            accepts,
            rejects,
        } => format!(
            "\"kind\": \"quorum_disputed\", \"round\": {round}, \
             \"accepts\": {accepts}, \"rejects\": {rejects}"
        ),
        EventKind::VerifierSuspected { verifier, round } => format!(
            "\"kind\": \"verifier_suspected\", \"verifier\": {verifier}, \"round\": {round}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_telemetry::{HistogramSnapshot, MetricValue};

    #[test]
    fn counters_track_events() {
        let mut log = EventLog::new();
        log.record(0, "a", EventKind::Joined);
        log.record(1, "a", EventKind::RoundStarted { round: 1 });
        log.record(
            2,
            "a",
            EventKind::RoundFailed {
                round: 1,
                reason: FailReason::Timeout,
            },
        );
        log.record(
            3,
            "a",
            EventKind::StateChanged {
                from: DeviceState::Trusted,
                to: DeviceState::Quarantined,
            },
        );
        let c = log.counters();
        assert_eq!(c.joins, 1);
        assert_eq!(c.rounds_started, 1);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.quarantines, 1);
        assert_eq!(log.events().len(), 4);
    }

    fn latency_histogram(reg: &Registry) -> HistogramSnapshot {
        reg.collect()
            .into_iter()
            .find_map(|(name, _, v)| match (name.as_str(), v) {
                ("service_round_latency_ticks", MetricValue::Histogram(s)) => Some(s),
                _ => None,
            })
            .expect("latency histogram registered")
    }

    /// The attached telemetry histogram answers percentile queries
    /// interpolated within the containing log2 bucket: the reported
    /// value shares the exact nearest-rank answer's bucket (≤ 2×
    /// relative error), it just sits elsewhere inside it.
    #[test]
    fn telemetry_histogram_agrees_within_one_bucket() {
        use sage_telemetry::{bucket_bounds, bucket_index};

        let latencies = [31u64, 2, 19, 7, 43, 11, 5, 23, 13, 3];
        let reg = Registry::new();
        let mut log = EventLog::new();
        log.attach_telemetry(&reg);
        for (i, lat) in latencies.iter().enumerate() {
            let round = i as u64 + 1;
            let start = i as u64 * 1000;
            log.record(start, "a", EventKind::RoundStarted { round });
            log.record(
                start + lat,
                "a",
                EventKind::RoundPassed {
                    round,
                    measured: 1,
                    started_at: start,
                },
            );
        }
        let snap = latency_histogram(&reg);
        assert_eq!(snap.count(), 10);
        // Sorted: [2, 3, 5, 7, 11, 13, 19, 23, 31, 43]; nearest ranks
        // ⌈0.50·10⌉ = 5, ⌈0.90·10⌉ = 9, ⌈0.99·10⌉ = 10.
        for (q, exact) in [(0.50, 11), (0.90, 31), (0.99, 43)] {
            let reported = snap.percentile(q).unwrap();
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                (lo..=hi).contains(&reported),
                "q={q}: reported {reported} outside exact {exact}'s bucket [{lo},{hi}]"
            );
        }
    }

    /// Every labelled fact sits at the slot [`EventKind::fact`] gives
    /// its reason or level, under that reason's or level's own tag.
    #[test]
    fn labelled_facts_sit_at_their_reason_and_level_slots() {
        for reason in [
            FailReason::WrongValue,
            FailReason::TooSlow,
            FailReason::Timeout,
            FailReason::LinkDown,
            FailReason::Relay,
        ] {
            let fact = EventKind::RoundFailed { round: 1, reason }.fact().unwrap();
            assert_eq!(FACTS[fact].0, "service_rounds_failed_total");
            assert_eq!(FACTS[fact].1, [("reason", reason.as_str())]);
        }
        for to in [Freshness::Trusted, Freshness::Stale, Freshness::Degraded] {
            let from = Freshness::Trusted;
            let fact = EventKind::FreshnessChanged { from, to }.fact().unwrap();
            assert_eq!(FACTS[fact].0, "service_freshness_transitions_total");
            assert_eq!(FACTS[fact].1, [("to", to.as_str())]);
        }
    }

    #[test]
    fn ring_caps_retained_events_and_counts_drops() {
        let mut log = EventLog::with_capacity(4);
        for round in 1..=12u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        // Counters see everything; the ring keeps at most 2×capacity−1
        // and never fewer than `capacity` events.
        assert_eq!(log.counters().rounds_started, 12);
        assert!(log.events().len() >= 4 && log.events().len() < 8);
        assert_eq!(log.events_dropped() + log.events().len() as u64, 12);
        // The retained window is the most recent suffix, in order.
        let rounds: Vec<u64> = log
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::RoundStarted { round } => round,
                _ => unreachable!(),
            })
            .collect();
        let first = rounds[0];
        assert_eq!(
            rounds,
            (first..=12).collect::<Vec<u64>>(),
            "window must be a contiguous recent suffix"
        );
    }

    #[test]
    fn unbounded_log_never_drops() {
        let mut log = EventLog::new();
        for round in 1..=100u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        assert_eq!(log.events().len(), 100);
        assert_eq!(log.events_dropped(), 0);
    }

    /// The latency histogram observes every round, including those the
    /// bounded ring has since evicted.
    #[test]
    fn latency_histogram_covers_rounds_the_ring_evicted() {
        use sage_telemetry::{bucket_bounds, bucket_index};

        let reg = Registry::new();
        let mut log = EventLog::with_capacity(6);
        log.attach_telemetry(&reg);
        // 50 rounds of latency 10, then 1 of 1000; the ring retains only
        // a tail slice of them.
        for i in 0..51u64 {
            let round = i + 1;
            let lat = if i < 50 { 10 } else { 1000 };
            log.record(i * 100, "a", EventKind::RoundStarted { round });
            log.record(
                i * 100 + lat,
                "a",
                EventKind::RoundPassed {
                    round,
                    measured: 1,
                    started_at: i * 100,
                },
            );
        }
        assert!(log.events_dropped() > 0, "ring must have wrapped");
        let snap = latency_histogram(&reg);
        // All 51 samples, not just the retained tail.
        assert_eq!(snap.count(), 51);
        let p50 = snap.percentile(0.50).unwrap();
        let (lo, hi) = bucket_bounds(bucket_index(10));
        assert!((lo..=hi).contains(&p50), "p50 {p50} outside [{lo},{hi}]");
        let p99 = snap.percentile(0.99).unwrap();
        let (lo, hi) = bucket_bounds(bucket_index(1000));
        assert!((lo..=hi).contains(&p99), "p99 {p99} outside [{lo},{hi}]");
    }

    #[test]
    fn restore_parts_carries_counters_and_drops() {
        let mut log = EventLog::with_capacity(3);
        for round in 1..=10u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        let restored = EventLog::restore_parts(
            log.events().to_vec(),
            log.tally(),
            log.events_dropped(),
            log.capacity(),
        );
        assert_eq!(restored.counters(), log.counters());
        assert_eq!(restored.events_dropped(), log.events_dropped());
        assert_eq!(restored.events(), log.events());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut log = EventLog::new();
        log.record(
            5,
            "dev-1",
            EventKind::RoundPassed {
                round: 2,
                measured: 123,
                started_at: 1,
            },
        );
        let j = log.to_json();
        assert!(j.contains("\"round_passed\""));
        assert!(j.contains("\"rounds_passed\": 1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
