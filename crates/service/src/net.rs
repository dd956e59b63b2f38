//! The transport abstraction and its deterministic in-process
//! implementation.
//!
//! The control plane never talks to a device directly: every byte crosses
//! a [`Transport`], so the same service loop can later be bound to a real
//! socket. The in-tree implementation, [`SimNet`], is a virtual-clock
//! message switch with *seeded* latency, jitter, drop and duplication —
//! the whole fleet simulation is reproducible from one `u64` seed, which
//! is what lets the integration tests assert exact lifecycle outcomes
//! across fault injection.

use std::collections::{BTreeMap, VecDeque};

use crate::wheel::TimerWheel;

/// A node address on the control-plane network. The verifier is
/// conventionally node 0; devices get ascending ids as they join.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct NodeId(pub u16);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An addressed, encoded frame in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Encoded frame bytes (see [`crate::wire`]).
    pub bytes: Vec<u8>,
}

/// A connection-lifecycle notification from a transport that has real
/// links to lose. The service folds these into trust policy — a flapping
/// link degrades a device without touching its attestation record,
/// because a severed cable must never look like a cheating GPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkEvent {
    /// The link to `node` went down (read error, heartbeat budget
    /// exhausted, or an orderly close).
    Down(NodeId),
    /// The device on `node` re-authenticated against its existing SAKE
    /// session and the link is live again.
    Resumed(NodeId),
}

/// A message transport driven by the service's virtual clock.
pub trait Transport {
    /// Hands an envelope to the network at virtual time `now` (a future
    /// `now` models a sender that finishes composing the message later,
    /// e.g. a device still running its checksum).
    fn send(&mut self, now: u64, env: Envelope);

    /// Takes the next envelope that has arrived at `node` by time `now`,
    /// in arrival order.
    fn poll(&mut self, now: u64, node: NodeId) -> Option<Envelope>;

    /// The earliest virtual time at which new work exists: a queued
    /// arrival, or an already-delivered envelope waiting in an inbox.
    fn next_event_at(&self) -> Option<u64>;

    /// Removes and returns *every* envelope that has arrived anywhere
    /// on the network by `now`, in delivery order (ties broken by send
    /// order), ahead of any envelopes already sitting in per-node
    /// inboxes (returned first, in node order). This is the batched
    /// path the service loop uses: one drain per tick instead
    /// of one `poll` per device, so delivery cost is O(due frames)
    /// rather than O(fleet).
    fn drain_due(&mut self, now: u64) -> Vec<Envelope>;

    /// Drains pending connection-lifecycle events. The default covers
    /// transports whose links cannot flap ([`SimNet`]); real socket
    /// transports override it.
    fn take_link_events(&mut self) -> Vec<LinkEvent> {
        Vec::new()
    }
}

/// SplitMix64 — the crate's only randomness source, seeded and
/// deterministic.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n = 0` returns 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli draw with probability `pm`/1000.
    pub fn per_mille(&mut self, pm: u16) -> bool {
        self.below(1000) < pm as u64
    }
}

/// Per-link delivery characteristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkProfile {
    /// Base one-way latency in virtual ticks.
    pub latency: u64,
    /// Uniform jitter added on top (`0..=jitter`).
    pub jitter: u64,
    /// Probability (per mille) that a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Probability (per mille) that a frame is delivered twice.
    pub dup_per_mille: u16,
}

impl Default for LinkProfile {
    fn default() -> LinkProfile {
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        }
    }
}

impl LinkProfile {
    /// The worst-case one-way delay this profile can produce (absent
    /// targeted faults) — what a deadline budget must cover.
    pub fn worst_case_delay(&self) -> u64 {
        self.latency + self.jitter
    }
}

/// A targeted, deterministic fault on one directed link — the scripted
/// counterpart to the profile's random loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drop the next `remaining` frames sent from `src` to `dst`.
    DropNext {
        /// Sending node to match.
        src: NodeId,
        /// Destination node to match.
        dst: NodeId,
        /// How many frames to drop.
        remaining: u32,
    },
    /// Delay the next `remaining` frames from `src` to `dst` by `extra`
    /// ticks beyond the profile's latency.
    DelayNext {
        /// Sending node to match.
        src: NodeId,
        /// Destination node to match.
        dst: NodeId,
        /// Extra delay in ticks.
        extra: u64,
        /// How many frames to delay.
        remaining: u32,
    },
    /// A *recurring* outage on one directed link: from `start` until
    /// `until`, the link misbehaves during the first `open_for` ticks of
    /// every `period`-tick cycle. Frames sent inside an open window are
    /// dropped when `extra` is 0, otherwise delayed by `extra` ticks —
    /// the chaos-engine model of a flapping switch port or a periodic
    /// congestion burst. Build a reproducibly-phased one with
    /// [`Fault::seeded_window`].
    Window {
        /// Sending node to match.
        src: NodeId,
        /// Destination node to match.
        dst: NodeId,
        /// First tick of the first window.
        start: u64,
        /// Cycle length in ticks (clamped to ≥ 1).
        period: u64,
        /// Open (faulty) span at the head of each cycle.
        open_for: u64,
        /// `0` = drop frames in the window; otherwise delay by this much.
        extra: u64,
        /// Tick at which the schedule ends (`u64::MAX` = never).
        until: u64,
    },
}

impl Fault {
    /// A [`Fault::Window`] whose phase (`start` within the first period)
    /// is drawn from `seed`, so chaos campaigns get link outages that
    /// differ per seed but replay bit-for-bit.
    pub fn seeded_window(
        seed: u64,
        src: NodeId,
        dst: NodeId,
        period: u64,
        open_for: u64,
        extra: u64,
        until: u64,
    ) -> Fault {
        let mut rng = SplitMix64::new(seed ^ 0x57A6_E77F_0A11_D00F);
        Fault::Window {
            src,
            dst,
            start: rng.below(period.max(1)),
            period,
            open_for,
            extra,
            until,
        }
    }
}

/// Delivery counters for observability and test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to `send`.
    pub sent: u64,
    /// Frames that reached an inbox (duplicates count).
    pub delivered: u64,
    /// Frames dropped by the random loss profile.
    pub dropped: u64,
    /// Extra copies scheduled by the duplication profile.
    pub duplicated: u64,
    /// Frames dropped by a targeted [`Fault::DropNext`].
    pub fault_dropped: u64,
    /// Frames delayed by a targeted [`Fault::DelayNext`].
    pub fault_delayed: u64,
    /// Frames dropped inside a recurring [`Fault::Window`].
    pub window_dropped: u64,
    /// Frames delayed inside a recurring [`Fault::Window`].
    pub window_delayed: u64,
}

/// The deterministic in-process network.
pub struct SimNet {
    rng: SplitMix64,
    profile: LinkProfile,
    link_overrides: BTreeMap<(NodeId, NodeId), LinkProfile>,
    // A hierarchical timer wheel ordered by (delivery time, submission
    // sequence): pop order IS the delivery order, so ties break
    // deterministically — bit-identical to the `BTreeMap<(at, seq), _>`
    // it replaced, without the per-frame ordered-map cost.
    in_flight: TimerWheel<Envelope>,
    inboxes: BTreeMap<NodeId, VecDeque<Envelope>>,
    /// Total envelopes sitting in `inboxes`, so the per-step hot paths
    /// (`next_event_at`, `drain_due`) answer "any pending?" in O(1)
    /// instead of walking a fleet-sized map of mostly-empty queues.
    inbox_pending: usize,
    faults: Vec<Fault>,
    stats: NetStats,
    /// Scratch for wheel pops, reused across calls.
    due_scratch: Vec<(u64, Envelope)>,
}

impl SimNet {
    /// Creates a network with one default profile for every link.
    pub fn new(seed: u64, profile: LinkProfile) -> SimNet {
        SimNet {
            rng: SplitMix64::new(seed),
            profile,
            link_overrides: BTreeMap::new(),
            in_flight: TimerWheel::new(),
            inboxes: BTreeMap::new(),
            inbox_pending: 0,
            faults: Vec::new(),
            stats: NetStats::default(),
            due_scratch: Vec::new(),
        }
    }

    /// Overrides the profile of one directed link.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, profile: LinkProfile) {
        self.link_overrides.insert((src, dst), profile);
    }

    /// The profile a `src → dst` frame would use.
    pub fn profile_for(&self, src: NodeId, dst: NodeId) -> LinkProfile {
        *self
            .link_overrides
            .get(&(src, dst))
            .unwrap_or(&self.profile)
    }

    /// Arms a targeted fault.
    pub fn inject(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn take_drop_fault(&mut self, src: NodeId, dst: NodeId) -> bool {
        for f in &mut self.faults {
            if let Fault::DropNext {
                src: s,
                dst: d,
                remaining,
            } = f
            {
                if *s == src && *d == dst && *remaining > 0 {
                    *remaining -= 1;
                    return true;
                }
            }
        }
        false
    }

    fn take_delay_fault(&mut self, src: NodeId, dst: NodeId) -> u64 {
        for f in &mut self.faults {
            if let Fault::DelayNext {
                src: s,
                dst: d,
                extra,
                remaining,
            } = f
            {
                if *s == src && *d == dst && *remaining > 0 {
                    *remaining -= 1;
                    return *extra;
                }
            }
        }
        0
    }

    /// The window fault (if any) open on `src → dst` at `now`:
    /// `Some(0)` = drop, `Some(extra)` = delay.
    fn window_fault(&self, now: u64, src: NodeId, dst: NodeId) -> Option<u64> {
        for f in &self.faults {
            if let Fault::Window {
                src: s,
                dst: d,
                start,
                period,
                open_for,
                extra,
                until,
            } = f
            {
                if *s == src
                    && *d == dst
                    && now >= *start
                    && now < *until
                    && (now - *start) % (*period).max(1) < *open_for
                {
                    return Some(*extra);
                }
            }
        }
        None
    }

    fn enqueue(&mut self, at: u64, env: Envelope) {
        self.in_flight.insert(at, env);
    }

    fn deliver_due(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.in_flight.pop_due(now, &mut due);
        for (_, env) in due.drain(..) {
            self.stats.delivered += 1;
            self.inbox_pending += 1;
            self.inboxes.entry(env.dst).or_default().push_back(env);
        }
        self.due_scratch = due;
    }
}

impl Transport for SimNet {
    fn send(&mut self, now: u64, env: Envelope) {
        self.stats.sent += 1;
        if self.take_drop_fault(env.src, env.dst) {
            self.stats.fault_dropped += 1;
            return;
        }
        let mut extra = self.take_delay_fault(env.src, env.dst);
        if extra > 0 {
            self.stats.fault_delayed += 1;
        }
        match self.window_fault(now, env.src, env.dst) {
            Some(0) => {
                self.stats.window_dropped += 1;
                return;
            }
            Some(wx) => {
                self.stats.window_delayed += 1;
                extra += wx;
            }
            None => {}
        }
        let profile = self.profile_for(env.src, env.dst);
        if self.rng.per_mille(profile.drop_per_mille) {
            self.stats.dropped += 1;
            return;
        }
        let at = now + extra + profile.latency + self.rng.below(profile.jitter + 1);
        if self.rng.per_mille(profile.dup_per_mille) {
            self.stats.duplicated += 1;
            let dup_at = at + 1 + self.rng.below(profile.jitter + 1);
            self.enqueue(dup_at, env.clone());
        }
        self.enqueue(at, env);
    }

    fn poll(&mut self, now: u64, node: NodeId) -> Option<Envelope> {
        self.deliver_due(now);
        let env = self.inboxes.get_mut(&node)?.pop_front();
        if env.is_some() {
            self.inbox_pending -= 1;
        }
        env
    }

    fn next_event_at(&self) -> Option<u64> {
        if self.inbox_pending > 0 {
            return Some(0); // pending work is immediate
        }
        self.in_flight.next_due()
    }

    fn drain_due(&mut self, now: u64) -> Vec<Envelope> {
        // Leftovers from earlier `poll` use come first, in node order
        // (the order a poll loop over the roster would see them). The
        // walk is skipped entirely on the hot path, where the batched
        // loop never leaves envelopes behind.
        let mut out: Vec<Envelope> = Vec::new();
        if self.inbox_pending > 0 {
            for q in self.inboxes.values_mut() {
                out.extend(q.drain(..));
            }
            self.inbox_pending = 0;
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.in_flight.pop_due(now, &mut due);
        self.stats.delivered += due.len() as u64;
        out.extend(due.drain(..).map(|(_, env)| env));
        self.due_scratch = due;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u16, dst: u16, tag: u8) -> Envelope {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: vec![tag],
        }
    }

    fn drain(net: &mut SimNet, now: u64, node: NodeId) -> Vec<u8> {
        let mut tags = Vec::new();
        while let Some(e) = net.poll(now, node) {
            tags.push(e.bytes[0]);
        }
        tags
    }

    #[test]
    fn delivery_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net = SimNet::new(
                seed,
                LinkProfile {
                    jitter: 50,
                    ..LinkProfile::default()
                },
            );
            for tag in 0..10u8 {
                net.send(u64::from(tag), env(1, 2, tag));
            }
            drain(&mut net, 10_000, NodeId(2))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should reorder");
    }

    #[test]
    fn frames_arrive_in_latency_order() {
        let mut net = SimNet::new(
            1,
            LinkProfile {
                latency: 10,
                jitter: 0,
                ..LinkProfile::default()
            },
        );
        net.send(0, env(1, 2, 0));
        net.send(5, env(1, 2, 1));
        assert_eq!(net.next_event_at(), Some(10));
        assert!(net.poll(9, NodeId(2)).is_none());
        assert_eq!(drain(&mut net, 15, NodeId(2)), vec![0, 1]);
    }

    #[test]
    fn random_drop_and_duplication_follow_profile() {
        let mut net = SimNet::new(
            3,
            LinkProfile {
                latency: 1,
                jitter: 0,
                drop_per_mille: 500,
                dup_per_mille: 0,
            },
        );
        for i in 0..1000u64 {
            net.send(i, env(1, 2, 0));
        }
        let got = drain(&mut net, 1_000_000, NodeId(2)).len();
        assert!((300..700).contains(&got), "~half should survive, got {got}");

        let mut net = SimNet::new(
            4,
            LinkProfile {
                latency: 1,
                jitter: 0,
                drop_per_mille: 0,
                dup_per_mille: 1000,
            },
        );
        net.send(0, env(1, 2, 9));
        assert_eq!(drain(&mut net, 1_000, NodeId(2)), vec![9, 9]);
    }

    #[test]
    fn recurring_window_drops_only_inside_open_spans() {
        let mut net = SimNet::new(
            9,
            LinkProfile {
                latency: 1,
                jitter: 0,
                drop_per_mille: 0,
                dup_per_mille: 0,
            },
        );
        // Open for the first 10 ticks of every 100, from t=100 to t=350:
        // windows are [100,110), [200,210), [300,310).
        net.inject(Fault::Window {
            src: NodeId(1),
            dst: NodeId(2),
            start: 100,
            period: 100,
            open_for: 10,
            extra: 0,
            until: 350,
        });
        for t in [0u64, 99, 105, 150, 200, 209, 210, 305, 399, 405] {
            net.send(t, env(1, 2, (t / 10) as u8));
            net.send(t, env(3, 2, 200)); // other link: never affected
        }
        let got = drain(&mut net, 10_000, NodeId(2));
        let from_link1: Vec<u8> = got.iter().copied().filter(|&t| t != 200).collect();
        // 105, 200, 209 and 305 fall inside open windows; 399/405 are
        // past `until` even though 405 would be inside a window.
        assert_eq!(from_link1, vec![0, 9, 15, 21, 39, 40]);
        assert_eq!(got.iter().filter(|&&t| t == 200).count(), 10);
        assert_eq!(net.stats().window_dropped, 4);
    }

    #[test]
    fn delay_window_postpones_instead_of_dropping() {
        let mut net = SimNet::new(
            10,
            LinkProfile {
                latency: 1,
                jitter: 0,
                drop_per_mille: 0,
                dup_per_mille: 0,
            },
        );
        net.inject(Fault::Window {
            src: NodeId(1),
            dst: NodeId(2),
            start: 0,
            period: 50,
            open_for: 5,
            extra: 1_000,
            until: u64::MAX,
        });
        net.send(2, env(1, 2, 7)); // inside window: arrives at 2+1000+1
        net.send(20, env(1, 2, 8)); // outside: arrives at 21
        assert_eq!(drain(&mut net, 900, NodeId(2)), vec![8]);
        assert_eq!(drain(&mut net, 1_003, NodeId(2)), vec![7]);
        assert_eq!(net.stats().window_delayed, 1);
        assert_eq!(net.stats().window_dropped, 0);
    }

    #[test]
    fn seeded_window_is_reproducible_and_phase_varies() {
        let w = |seed| Fault::seeded_window(seed, NodeId(0), NodeId(1), 1_000, 50, 0, u64::MAX);
        assert_eq!(w(1), w(1));
        let phases: Vec<u64> = (0..16)
            .map(|s| match w(s) {
                Fault::Window { start, .. } => start,
                _ => unreachable!(),
            })
            .collect();
        assert!(phases.iter().all(|&p| p < 1_000));
        assert!(
            phases.windows(2).any(|p| p[0] != p[1]),
            "all 16 seeds produced the same phase"
        );
    }

    #[test]
    fn targeted_faults_hit_only_their_link() {
        let mut net = SimNet::new(5, LinkProfile::default());
        net.inject(Fault::DropNext {
            src: NodeId(1),
            dst: NodeId(2),
            remaining: 1,
        });
        net.inject(Fault::DelayNext {
            src: NodeId(3),
            dst: NodeId(2),
            extra: 10_000,
            remaining: 1,
        });
        net.send(0, env(1, 2, 0)); // dropped by fault
        net.send(0, env(1, 2, 1)); // unaffected
        net.send(0, env(3, 2, 2)); // delayed by fault
        assert_eq!(drain(&mut net, 500, NodeId(2)), vec![1]);
        assert_eq!(drain(&mut net, 20_000, NodeId(2)), vec![2]);
        let stats = net.stats();
        assert_eq!(stats.fault_dropped, 1);
        assert_eq!(stats.fault_delayed, 1);
    }
}
