//! Bridges the service's virtual clock to wall time, so the unmodified
//! [`AttestationService`] loop (timer wheel, evidence chains and all)
//! runs behind a real socket transport, on the driver's one thread.
//!
//! The one invariant that makes real-network runs reproducible:
//! **virtual time never advances while an attestation round is
//! outstanding.** A device's response is always processed at the round's
//! *start* tick, so every evidence record — which embeds the virtual
//! timestamp — lands on the same tick it would in a simulated (or
//! unsevered control) run, no matter how long the wire actually took.
//! Wall time only matters as a *watchdog*: each pending virtual timer
//! gets a wall budget of `ticks × ns_per_tick`; if the budget expires
//! with the round still open, the driver advances the clock and the
//! round times out for real (the device genuinely is unreachable or
//! hung). Between rounds the fleet is quiescent and the driver jumps
//! the virtual clock straight to the next timer — idle virtual spans
//! cost zero wall time.

use std::time::{Duration, Instant};

use crate::net::Transport;
use crate::service::AttestationService;
use crate::tcp::TcpTransport;

/// A transport the [`ClockDriver`] can block on: real sockets with a
/// wall-clock activity signal and out-of-band enrollment requests.
pub trait RealTransport: Transport {
    /// Blocks up to `timeout` for inbound work (frames, link events,
    /// enrollments); returns whether anything is pending.
    fn wait_activity(&self, timeout: Duration) -> bool;

    /// Enrollment requests waiting for the service to run the join
    /// protocol.
    fn pending_enrolls(&self) -> usize;
}

impl RealTransport for TcpTransport {
    fn wait_activity(&self, timeout: Duration) -> bool {
        TcpTransport::wait_activity(self, timeout)
    }

    fn pending_enrolls(&self) -> usize {
        TcpTransport::pending_enrolls(self)
    }
}

/// Why [`ClockDriver::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pump {
    /// The virtual clock reached the target with no rounds outstanding.
    Target,
    /// A device is waiting to enroll; the caller runs
    /// [`AttestationService::join_remote`] (joins happen at the frozen
    /// virtual instant, so a whole fleet enrolling lands on one tick
    /// and its rounds batch) and calls `run_until` again.
    Enrolls,
}

/// The virtual→wall bridge. One instance drives one service loop.
pub struct ClockDriver {
    /// Wall nanoseconds one virtual tick is worth — the watchdog
    /// conversion rate. With the default deadline budget (~11k ticks),
    /// `100_000` gives an outstanding round roughly a second of wall
    /// time before it times out for real.
    pub ns_per_tick: u64,
    anchor_wall: Instant,
    anchor_tick: u64,
}

impl ClockDriver {
    /// Creates a driver with the given tick↔wall conversion rate.
    pub fn new(ns_per_tick: u64) -> ClockDriver {
        ClockDriver {
            ns_per_tick: ns_per_tick.max(1),
            anchor_wall: Instant::now(),
            anchor_tick: 0,
        }
    }

    fn re_anchor<T: RealTransport>(&mut self, svc: &AttestationService<T>) {
        self.anchor_wall = Instant::now();
        self.anchor_tick = svc.now();
    }

    /// The wall instant at which virtual `tick`'s watchdog budget
    /// expires, measured from the last advancement.
    fn wall_of(&self, tick: u64) -> Instant {
        let ticks = tick.saturating_sub(self.anchor_tick);
        self.anchor_wall + Duration::from_nanos(ticks.saturating_mul(self.ns_per_tick))
    }

    /// Drives the service until the virtual clock reaches `target` (and
    /// no rounds are outstanding), or a device asks to enroll.
    ///
    /// The loop alternates three moves:
    /// 1. drain everything that has arrived, *at the frozen virtual
    ///    instant* (responses are verdicted on their round's start
    ///    tick);
    /// 2. if the fleet is quiescent, jump the virtual clock to the next
    ///    timer (or to `target`) — no wall pacing;
    /// 3. if rounds are outstanding, block on socket activity with the
    ///    next timer's wall budget as the watchdog; only when the
    ///    budget expires does the clock advance and the deadline fire.
    pub fn run_until<T: RealTransport>(
        &mut self,
        svc: &mut AttestationService<T>,
        target: u64,
    ) -> Pump {
        self.re_anchor(svc);
        loop {
            // Move 1: process at the frozen instant.
            let now = svc.now();
            svc.run_until(now);
            if svc.transport().pending_enrolls() > 0 {
                return Pump::Enrolls;
            }
            if svc.outstanding_rounds() == 0 {
                if svc.now() >= target {
                    return Pump::Target;
                }
                // Move 2: quiescent jump.
                match svc.next_event_at().filter(|&n| n <= target) {
                    Some(next) if next > svc.now() => {
                        svc.run_until(next);
                        self.re_anchor(svc);
                    }
                    Some(_) => {
                        // A timer due "now" that move 1 did not clear —
                        // only reachable through a transport race; yield
                        // briefly rather than spin.
                        svc.transport().wait_activity(Duration::from_millis(1));
                    }
                    None => {
                        svc.run_until(target);
                        return Pump::Target;
                    }
                }
            } else {
                // Move 3: outstanding rounds — wall watchdog. The next
                // virtual timer is at worst the earliest round deadline.
                let next = svc.next_event_at().unwrap_or_else(|| svc.now() + 1);
                let due = self.wall_of(next.max(svc.now()));
                let now_wall = Instant::now();
                if now_wall >= due || !svc.transport().wait_activity(due - now_wall) {
                    // Budget expired with no activity: the timeout is
                    // genuine. Advance and let the deadline fire.
                    svc.run_until(next);
                    self.re_anchor(svc);
                }
                // On activity: loop back to move 1 and drain at the
                // still-frozen instant.
            }
        }
    }
}
