//! Precomputed challenge bank — the verifier's online fast path.
//!
//! SAGE's verifier is meant to be cheap *online* (paper §5.1: the
//! enclave can precompute expected checksums, leaving only a compare and
//! a timing check in the challenge–response round — the standard
//! verifier-side precomputation trick of SWATT/Pioneer-style protocols).
//! The bank realizes that: a bounded queue of
//! `(challenges, expected_checksum)` pairs, stocked *between* rounds
//! ([`ChallengeBank::fill`]), so a round that hits
//! the bank does **zero** replay on its critical path.
//!
//! Safety-relevant invariants:
//!
//! - **Keyed by build fingerprint.** Every pair is valid only for the
//!   exact [`VfBuild`] it was computed against; [`ChallengeBank::take`]
//!   refuses a caller presenting a different fingerprint.
//! - **Single-use.** Pairs leave the queue on take and are never
//!   re-issued — challenges stay one-shot, exactly as in the
//!   replay-online protocol.
//! - **Caller-supplied randomness.** The bank draws challenge bytes from
//!   an injected generator (the verifier seeds it from the enclave
//!   DRBG), so precomputation does not change where randomness comes
//!   from.
//!
//! - **Guarded against poisoning.** Every pair carries an integrity tag
//!   computed when it entered the queue; a pair whose tag no longer
//!   matches at take time (bit rot, a fault-injection campaign, or an
//!   adversary reaching the verifier host's heap) is *discarded and
//!   counted*, never issued — the round falls back to online replay, so
//!   a poisoned bank can cost latency but never a false accept.
//!
//! The bank never starts a thread. Stock appears only through
//! [`ChallengeBank::fill`] or the inline refill of a blocking take,
//! always in generator order, so the consumed challenge sequence is a
//! pure function of the generator.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use sage_telemetry::{Counter, Registry};

use crate::{codegen::VfBuild, replay::expected_checksum};

/// Identity of one exact VF build (see [`VfBuild::fingerprint`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(pub [u8; 32]);

/// Why a bank claim was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BankError {
    /// The caller presented a fingerprint for a different build than
    /// this bank precomputes for.
    ForeignFingerprint,
}

impl std::fmt::Display for BankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BankError::ForeignFingerprint => {
                write!(f, "bank stock requested for a foreign build fingerprint")
            }
        }
    }
}

impl std::error::Error for BankError {}

/// Bank sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct BankConfig {
    /// Maximum precomputed pairs held in stock.
    pub capacity: usize,
    /// Ignored: the bank never starts a thread, and every refill runs on
    /// the calling thread. The field stays only because the benchmark's
    /// verifier twins still set it; the next benchmark change deletes it.
    pub workers: usize,
}

impl Default for BankConfig {
    fn default() -> BankConfig {
        BankConfig {
            capacity: 4,
            workers: 0,
        }
    }
}

/// One ready-to-issue round: per-block challenges and the replayed
/// expected checksum.
#[derive(Clone, Debug)]
pub struct PrecomputedRound {
    /// One 16-byte challenge per grid block.
    pub challenges: Vec<[u8; 16]>,
    /// The bit-exact expected grid checksum for those challenges.
    pub expected: [u32; 8],
}

/// Bank effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Takes served from stock.
    pub hits: u64,
    /// Takes that found the bank empty.
    pub misses: u64,
    /// Pairs precomputed (background or synchronous).
    pub refills: u64,
    /// Takes refused for a foreign build fingerprint.
    pub fingerprint_rejects: u64,
    /// Stocked pairs discarded because their integrity tag no longer
    /// matched at take time (poisoned stock is never issued).
    pub poisoned: u64,
}

/// The challenge source: fills one 16-byte challenge per call.
pub type ChallengeFn = Box<dyn FnMut(&mut [u8; 16]) + Send>;

/// A stocked pair plus the integrity tag computed when it was enqueued.
/// The tag is re-checked at take time: any divergence (a flipped bit in
/// the challenges or the expected checksum while the pair sat in the
/// queue) disqualifies the pair.
struct Stocked {
    round: PrecomputedRound,
    guard: u64,
}

/// FNV-1a over the challenge bytes and the expected checksum words — a
/// cheap integrity tag, not a MAC: it defends against faults (bit rot,
/// chaos campaigns), while an adversary with write access to verifier
/// memory is outside SAGE's threat model (the enclave holds the secrets).
fn guard_tag(round: &PrecomputedRound) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for c in &round.challenges {
        for &b in c {
            eat(b);
        }
    }
    for w in round.expected {
        for b in w.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// The fleet series each bank count feeds, in [`BankCounters`] field
/// order — the index of every count below.
const SERIES: [&str; 5] = [
    "vf_bank_hits_total",
    "vf_bank_misses_total",
    "vf_bank_refills_total",
    "vf_bank_fingerprint_rejects_total",
    "vf_bank_poisoned_total",
];
const HIT: usize = 0;
const MISS: usize = 1;
const REFILL: usize = 2;
const FOREIGN: usize = 3;
const POISONED: usize = 4;

struct BankState {
    queue: VecDeque<Stocked>,
    gen: ChallengeFn,
    /// This bank's own effectiveness counts, indexed like [`SERIES`].
    counts: [u64; 5],
    /// The registry's fleet-wide series, once registered (see
    /// [`ChallengeBank::register_telemetry`]).
    series: Option<[Counter; 5]>,
}

impl BankState {
    /// Counts one `what` (a [`SERIES`] index) here and in the fleet
    /// series.
    fn count(&mut self, what: usize) {
        self.counts[what] += 1;
        if let Some(series) = &self.series {
            series[what].inc();
        }
    }

    /// Draws one challenge set from the generator, in its order.
    fn draw_challenges(&mut self, blocks: usize) -> Vec<[u8; 16]> {
        (0..blocks)
            .map(|_| {
                let mut c = [0u8; 16];
                (self.gen)(&mut c);
                c
            })
            .collect()
    }

    /// Stocks one freshly computed pair under its integrity tag.
    fn stock(&mut self, round: PrecomputedRound) {
        let guard = guard_tag(&round);
        self.queue.push_back(Stocked { round, guard });
        self.count(REFILL);
    }

    /// Pops stock until a pair with an intact integrity tag surfaces.
    /// Poisoned pairs are discarded and counted.
    fn pop_valid(&mut self) -> Option<PrecomputedRound> {
        while let Some(stocked) = self.queue.pop_front() {
            if stocked.guard == guard_tag(&stocked.round) {
                return Some(stocked.round);
            }
            self.count(POISONED);
        }
        None
    }
}

/// A bounded, fingerprint-keyed queue of precomputed rounds. The state
/// sits behind a lock so the bank works through `&self`.
pub struct ChallengeBank {
    build: VfBuild,
    fingerprint: Fingerprint,
    capacity: usize,
    state: Mutex<BankState>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ChallengeBank {
    /// Creates an empty bank for one build, drawing challenge bytes from
    /// `gen`. `cfg.workers` is ignored (see [`BankConfig::workers`]).
    pub fn new(build: VfBuild, cfg: BankConfig, gen: ChallengeFn) -> ChallengeBank {
        ChallengeBank {
            fingerprint: build.fingerprint(),
            build,
            capacity: cfg.capacity.max(1),
            state: Mutex::new(BankState {
                queue: VecDeque::new(),
                gen,
                counts: [0; 5],
                series: None,
            }),
        }
    }

    /// Draws one challenge set and replays its expected checksum on the
    /// calling thread, under the lock: the caller wants the pair before
    /// it proceeds anyway, and the lock keeps the generator order.
    fn compute(&self, state: &mut BankState) -> PrecomputedRound {
        let challenges = state.draw_challenges(self.build.params.grid_blocks as usize);
        let expected = expected_checksum(&self.build, &challenges);
        PrecomputedRound {
            challenges,
            expected,
        }
    }

    /// The fingerprint of the build this bank precomputes for.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Current stock level.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).queue.len()
    }

    /// `true` if no stock is available right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum stock.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Feeds this bank's effectiveness counts into the registry's
    /// fleet-wide `vf_bank_*_total` series, which every bank on the
    /// registry shares. Counts made before the call are added first, so
    /// the series sum every bank's whole history.
    pub fn register_telemetry(&self, reg: &Registry) {
        let mut state = lock_unpoisoned(&self.state);
        let series = SERIES.map(|name| reg.counter(name, &[]));
        for (c, &n) in series.iter().zip(&state.counts) {
            c.add(n);
        }
        state.series = Some(series);
    }

    /// This bank's own counts.
    pub fn counters(&self) -> BankCounters {
        let c = lock_unpoisoned(&self.state).counts;
        BankCounters {
            hits: c[HIT],
            misses: c[MISS],
            refills: c[REFILL],
            fingerprint_rejects: c[FOREIGN],
            poisoned: c[POISONED],
        }
    }

    /// Non-blocking take: `Ok(Some(_))` on a hit, `Ok(None)` when the
    /// bank has no *valid* stock (the caller falls back to online
    /// replay — poisoned pairs are discarded, never issued), or
    /// [`BankError::ForeignFingerprint`] when `fp` names a different
    /// build than this bank serves — stock computed for build A is never
    /// issued for build B.
    pub fn take(&self, fp: &Fingerprint) -> Result<Option<PrecomputedRound>, BankError> {
        let mut state = lock_unpoisoned(&self.state);
        if *fp != self.fingerprint {
            state.count(FOREIGN);
            return Err(BankError::ForeignFingerprint);
        }
        let pair = state.pop_valid();
        state.count(if pair.is_some() { HIT } else { MISS });
        Ok(pair)
    }

    /// Blocking take: always returns a *valid* pair for a matching
    /// fingerprint. Valid stock is a hit; an empty — or fully poisoned —
    /// bank is a miss, and the pair is computed on the calling thread
    /// (counted as a refill), next in generator order.
    pub fn take_blocking(&self, fp: &Fingerprint) -> Result<PrecomputedRound, BankError> {
        let mut state = lock_unpoisoned(&self.state);
        if *fp != self.fingerprint {
            state.count(FOREIGN);
            return Err(BankError::ForeignFingerprint);
        }
        if let Some(pair) = state.pop_valid() {
            state.count(HIT);
            return Ok(pair);
        }
        state.count(MISS);
        state.count(REFILL);
        Ok(self.compute(&mut state))
    }

    /// Chaos hook: flips one bit of the expected checksum of the stocked
    /// pair at `index` *without* updating its integrity tag — exactly
    /// what a DRAM fault on the verifier host would do. Returns `false`
    /// when no pair sits at that index. Test/fault-injection API.
    pub fn corrupt_stock(&self, index: usize) -> bool {
        let mut state = lock_unpoisoned(&self.state);
        match state.queue.get_mut(index) {
            Some(stocked) => {
                stocked.round.expected[0] ^= 1 << 17;
                true
            }
            None => false,
        }
    }

    /// Synchronously precomputes up to `n` pairs (bounded by remaining
    /// capacity) on the calling thread. Deterministic: pairs enter the
    /// queue in generator order.
    pub fn fill(&self, n: usize) {
        let mut state = lock_unpoisoned(&self.state);
        for _ in 0..n {
            if state.queue.len() >= self.capacity {
                break;
            }
            let round = self.compute(&mut state);
            state.stock(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_vf, params::VfParams};

    /// A deterministic challenge source: a byte counter stream.
    fn counter_gen(seed: u8) -> ChallengeFn {
        let mut next = seed;
        Box::new(move |c: &mut [u8; 16]| {
            for byte in c.iter_mut() {
                *byte = next;
                next = next.wrapping_add(1);
            }
        })
    }

    fn tiny_build(fill_seed: u32) -> VfBuild {
        build_vf(&VfParams::test_tiny(), 0x1000, fill_seed).unwrap()
    }

    fn sync_bank(fill_seed: u32, capacity: usize, gen_seed: u8) -> ChallengeBank {
        ChallengeBank::new(
            tiny_build(fill_seed),
            BankConfig {
                capacity,
                workers: 0,
            },
            counter_gen(gen_seed),
        )
    }

    #[test]
    fn zero_worker_bank_is_deterministic() {
        // Two banks over the same build and generator seed must issue
        // byte-identical rounds in the same order.
        let a = sync_bank(7, 4, 3);
        let b = sync_bank(7, 4, 3);
        a.fill(3);
        b.fill(3);
        let fp = a.fingerprint();
        for _ in 0..3 {
            let ra = a.take(&fp).unwrap().expect("stock");
            let rb = b.take(&fp).unwrap().expect("stock");
            assert_eq!(ra.challenges, rb.challenges);
            assert_eq!(ra.expected, rb.expected);
        }
    }

    #[test]
    fn pairs_are_bit_exact_against_direct_replay() {
        let bank = sync_bank(7, 2, 9);
        bank.fill(2);
        let build = tiny_build(7);
        let fp = bank.fingerprint();
        while let Some(round) = bank.take(&fp).unwrap() {
            assert_eq!(round.expected, expected_checksum(&build, &round.challenges));
        }
    }

    #[test]
    fn parallel_fill_matches_serial_fill() {
        // A fill stocks the rounds a caller would get by drawing one
        // challenge set per round from the same generator, in order, and
        // replaying each with the scalar oracle.
        let bank = sync_bank(7, 4, 3);
        bank.fill(4);
        let build = tiny_build(7);
        let mut gen = counter_gen(3);
        let fp = bank.fingerprint();
        for _ in 0..4 {
            let challenges: Vec<[u8; 16]> = (0..build.params.grid_blocks)
                .map(|_| {
                    let mut c = [0u8; 16];
                    gen(&mut c);
                    c
                })
                .collect();
            let round = bank.take(&fp).unwrap().expect("stock");
            assert_eq!(round.challenges, challenges);
            assert_eq!(
                round.expected,
                crate::replay::expected_checksum_scalar(&build, &challenges)
            );
        }
    }

    #[test]
    fn parallel_fill_respects_capacity() {
        // A fill onto partial stock tops the bank up to capacity, no
        // further.
        let bank = sync_bank(7, 2, 5);
        bank.fill(1);
        bank.fill(10);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.counters().refills, 2);
    }

    #[test]
    fn exhaustion_reports_out_of_stock() {
        let bank = sync_bank(7, 2, 1);
        bank.fill(2);
        let fp = bank.fingerprint();
        assert!(bank.take(&fp).unwrap().is_some());
        assert!(bank.take(&fp).unwrap().is_some());
        // Empty: the non-blocking take signals the caller to replay
        // online instead.
        assert!(bank.take(&fp).unwrap().is_none());
        let c = bank.counters();
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
        assert_eq!(c.refills, 2);
    }

    #[test]
    fn refill_after_drain_restocks() {
        let bank = sync_bank(7, 2, 1);
        bank.fill(2);
        let fp = bank.fingerprint();
        let first = bank.take(&fp).unwrap().expect("stock");
        let _ = bank.take(&fp).unwrap().expect("stock");
        assert!(bank.is_empty());
        bank.fill(2);
        assert_eq!(bank.len(), 2);
        let third = bank.take(&fp).unwrap().expect("restocked");
        // The generator stream continues — restocked rounds are fresh,
        // never re-issues.
        assert_ne!(first.challenges, third.challenges);
        assert_eq!(bank.counters().refills, 4);
    }

    #[test]
    fn fill_respects_capacity() {
        let bank = sync_bank(7, 2, 1);
        bank.fill(10);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.counters().refills, 2);
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let bank = sync_bank(7, 2, 1);
        bank.fill(1);
        // Same params, different fill seed → different image → different
        // fingerprint. Stock for build A must never be issued for B.
        let other_fp = tiny_build(8).fingerprint();
        assert_ne!(other_fp, bank.fingerprint());
        assert!(bank.take(&other_fp).is_err());
        assert!(bank.take_blocking(&other_fp).is_err());
        assert_eq!(bank.counters().fingerprint_rejects, 2);
        // The stock itself is untouched.
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn blocking_take_refills_inline_without_workers() {
        let bank = sync_bank(7, 2, 5);
        let fp = bank.fingerprint();
        // Empty bank: the blocking take computes the pair on this
        // thread.
        let round = bank.take_blocking(&fp).unwrap();
        let build = tiny_build(7);
        assert_eq!(round.expected, expected_checksum(&build, &round.challenges));
        let c = bank.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.refills, 1);
    }

    #[test]
    fn poisoned_stock_is_discarded_never_issued() {
        let bank = sync_bank(7, 4, 3);
        bank.fill(2);
        let fp = bank.fingerprint();
        // Corrupt the front pair the way a DRAM fault would: payload
        // changes, integrity tag doesn't.
        assert!(bank.corrupt_stock(0));
        let round = bank.take(&fp).unwrap().expect("second pair is intact");
        // The issued pair must be the *second* one — bit-exact against
        // the oracle, so the corrupted expected value can never be the
        // basis of an accept.
        let build = tiny_build(7);
        assert_eq!(
            round.expected,
            crate::replay::expected_checksum_scalar(&build, &round.challenges)
        );
        let c = bank.counters();
        assert_eq!(c.poisoned, 1);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn fully_poisoned_bank_reports_out_of_stock() {
        let bank = sync_bank(7, 4, 3);
        bank.fill(2);
        assert!(bank.corrupt_stock(0));
        assert!(bank.corrupt_stock(1));
        let fp = bank.fingerprint();
        // Every pair is poisoned: the non-blocking take reports a miss,
        // which sends the verifier down the online-replay path.
        assert!(bank.take(&fp).unwrap().is_none());
        let c = bank.counters();
        assert_eq!(c.poisoned, 2);
        assert_eq!(c.hits, 0);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn blocking_take_refills_past_poisoned_stock() {
        let bank = sync_bank(7, 4, 3);
        bank.fill(1);
        assert!(bank.corrupt_stock(0));
        let fp = bank.fingerprint();
        // The poisoned pair is discarded and a fresh one computed on this
        // thread — the caller always gets a valid pair.
        let round = bank.take_blocking(&fp).unwrap();
        let build = tiny_build(7);
        assert_eq!(
            round.expected,
            crate::replay::expected_checksum_scalar(&build, &round.challenges)
        );
        let c = bank.counters();
        assert_eq!(c.poisoned, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.refills, 2);
    }

    #[test]
    fn corrupt_stock_out_of_range_is_reported() {
        let bank = sync_bank(7, 2, 3);
        assert!(!bank.corrupt_stock(0));
    }

    #[test]
    fn worker_count_does_not_change_stock_order() {
        // `workers` is ignored: a bank built with three stocks and issues
        // the same rounds, in the same generator order, as one built with
        // none — through a fill and through inline refills alike.
        let bank = |workers| {
            let cfg = BankConfig {
                capacity: 2,
                workers,
            };
            ChallengeBank::new(tiny_build(7), cfg, counter_gen(1))
        };
        let (three, zero) = (bank(3), bank(0));
        three.fill(2);
        zero.fill(2);
        let fp = zero.fingerprint();
        for _ in 0..4 {
            let a = three.take_blocking(&fp).unwrap();
            let b = zero.take_blocking(&fp).unwrap();
            assert_eq!(a.challenges, b.challenges);
            assert_eq!(a.expected, b.expected);
        }
        assert_eq!(three.counters(), zero.counters());
        assert_eq!(zero.counters().refills, 4);
    }
}
