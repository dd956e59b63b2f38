//! Precomputed challenge bank — the verifier's online fast path.
//!
//! SAGE's verifier is meant to be cheap *online* (paper §5.1: the
//! enclave can precompute expected checksums, leaving only a compare and
//! a timing check in the challenge–response round — the standard
//! verifier-side precomputation trick of SWATT/Pioneer-style protocols).
//! The bank realizes that: a bounded queue of
//! `(challenges, expected_checksum)` pairs, filled by background worker
//! threads *between* rounds, so a round that hits the bank does **zero**
//! replay on its critical path.
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
//! With `workers == 0` the bank spawns nothing: stock appears only via
//! the synchronous [`ChallengeBank::fill`] / blocking-take refill, in
//! generator order — the deterministic mode tests use.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sage_telemetry::{Counter, Registry};

use crate::{
    batch::{replay_block_batched, StepTrace},
    codegen::VfBuild,
    pool::ReplayPool,
    replay::expected_checksum,
};

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
    /// Background refill threads; `0` disables background refill
    /// entirely (deterministic synchronous mode).
    pub workers: usize,
}

impl Default for BankConfig {
    fn default() -> BankConfig {
        BankConfig {
            capacity: 4,
            workers: 1,
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
    stop: bool,
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
}

struct Inner {
    build: VfBuild,
    fingerprint: Fingerprint,
    capacity: usize,
    state: Mutex<BankState>,
    /// Signalled when queue space frees up (or on stop) — refillers wait.
    space: Condvar,
    /// Signalled when stock arrives — blocking takers wait.
    stock: Condvar,
}

/// A bounded, fingerprint-keyed queue of precomputed rounds.
pub struct ChallengeBank {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    /// Draws one challenge set under the state lock (keeps the generator
    /// sequence well-ordered) without touching the queue.
    fn draw_challenges(state: &mut BankState, blocks: usize) -> Vec<[u8; 16]> {
        (0..blocks)
            .map(|_| {
                let mut c = [0u8; 16];
                (state.gen)(&mut c);
                c
            })
            .collect()
    }

    /// Computes one pair synchronously — under the lock, deliberately:
    /// this is the deterministic path (`fill` / workers-0 blocking take),
    /// where the caller wants the pair ready before proceeding anyway.
    /// Background workers use [`worker_loop`], which replays unlocked.
    fn refill_once(&self, state: &mut MutexGuard<'_, BankState>) {
        let blocks = self.build.params.grid_blocks as usize;
        let challenges = Self::draw_challenges(state, blocks);
        let expected = expected_checksum(&self.build, &challenges);
        let round = PrecomputedRound {
            challenges,
            expected,
        };
        let guard = guard_tag(&round);
        state.queue.push_back(Stocked { round, guard });
        state.count(REFILL);
        self.stock.notify_all();
    }

    /// Pops stock until a pair with an intact integrity tag surfaces.
    /// Poisoned pairs are discarded and counted; their queue slots are
    /// handed back to refillers.
    fn pop_valid(&self, state: &mut MutexGuard<'_, BankState>) -> Option<PrecomputedRound> {
        while let Some(stocked) = state.queue.pop_front() {
            self.space.notify_all();
            if stocked.guard == guard_tag(&stocked.round) {
                return Some(stocked.round);
            }
            state.count(POISONED);
        }
        None
    }
}

impl ChallengeBank {
    /// Creates a bank for one build, drawing challenge bytes from `gen`.
    pub fn new(build: VfBuild, cfg: BankConfig, gen: ChallengeFn) -> ChallengeBank {
        let fingerprint = build.fingerprint();
        let inner = Arc::new(Inner {
            build,
            fingerprint,
            capacity: cfg.capacity.max(1),
            state: Mutex::new(BankState {
                queue: VecDeque::new(),
                gen,
                stop: false,
                counts: [0; 5],
                series: None,
            }),
            space: Condvar::new(),
            stock: Condvar::new(),
        });
        // Failure to spawn a worker (thread exhaustion on the verifier
        // host) degrades the bank to fewer — possibly zero — background
        // refillers instead of panicking: blocking takes still refill
        // synchronously when no worker exists.
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let inner = Arc::clone(&inner);
            match std::thread::Builder::new()
                .name(format!("sage-bank-{i}"))
                .spawn(move || worker_loop(&inner))
            {
                Ok(handle) => workers.push(handle),
                Err(_) => break,
            }
        }
        ChallengeBank { inner, workers }
    }

    /// The fingerprint of the build this bank precomputes for.
    pub fn fingerprint(&self) -> Fingerprint {
        self.inner.fingerprint
    }

    /// Current stock level.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.state).queue.len()
    }

    /// `true` if no stock is available right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum stock.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Feeds this bank's effectiveness counts into the registry's
    /// fleet-wide `vf_bank_*_total` series, which every bank on the
    /// registry shares. Counts made before the call are added first, so
    /// the series sum every bank's whole history.
    pub fn register_telemetry(&self, reg: &Registry) {
        let mut state = lock_unpoisoned(&self.inner.state);
        let series = SERIES.map(|name| reg.counter(name, &[]));
        for (c, &n) in series.iter().zip(&state.counts) {
            c.add(n);
        }
        state.series = Some(series);
    }

    /// This bank's own counts.
    pub fn counters(&self) -> BankCounters {
        let c = lock_unpoisoned(&self.inner.state).counts;
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
        let mut state = lock_unpoisoned(&self.inner.state);
        if *fp != self.inner.fingerprint {
            state.count(FOREIGN);
            return Err(BankError::ForeignFingerprint);
        }
        let pair = self.inner.pop_valid(&mut state);
        state.count(if pair.is_some() { HIT } else { MISS });
        Ok(pair)
    }

    /// Blocking take: always returns a *valid* pair for a matching
    /// fingerprint. With background workers the caller waits for stock
    /// (counted as a miss when it had to wait); with `workers == 0` an
    /// empty — or fully poisoned — bank is refilled synchronously on the
    /// calling thread, preserving the deterministic generator order.
    pub fn take_blocking(&self, fp: &Fingerprint) -> Result<PrecomputedRound, BankError> {
        let mut state = lock_unpoisoned(&self.inner.state);
        if *fp != self.inner.fingerprint {
            state.count(FOREIGN);
            return Err(BankError::ForeignFingerprint);
        }
        let mut first_attempt = true;
        loop {
            if let Some(pair) = self.inner.pop_valid(&mut state) {
                if first_attempt {
                    state.count(HIT);
                }
                return Ok(pair);
            }
            if first_attempt {
                state.count(MISS);
                first_attempt = false;
            }
            if self.workers.is_empty() {
                self.inner.refill_once(&mut state);
            } else {
                state = self
                    .inner
                    .stock
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Chaos hook: flips one bit of the expected checksum of the stocked
    /// pair at `index` *without* updating its integrity tag — exactly
    /// what a DRAM fault on the verifier host would do. Returns `false`
    /// when no pair sits at that index. Test/fault-injection API.
    pub fn corrupt_stock(&self, index: usize) -> bool {
        let mut state = lock_unpoisoned(&self.inner.state);
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
        let mut state = lock_unpoisoned(&self.inner.state);
        for _ in 0..n {
            if state.queue.len() >= self.inner.capacity {
                break;
            }
            self.inner.refill_once(&mut state);
        }
    }

    /// Precomputes up to `n` pairs with every `(round, block)` replay
    /// scheduled on `pool` at once — see [`prefill_banks`], of which
    /// this is the single-bank case.
    pub fn fill_parallel(&self, n: usize, pool: &ReplayPool) {
        prefill_banks(&[self], n, pool);
    }
}

/// Precomputes up to `n` rounds into **each** bank, scheduling every
/// single `(fingerprint, round, block)` replay on `pool` as one flat
/// work-stealing job list.
///
/// [`ChallengeBank::fill`] is round-serial: each round's replay
/// parallelizes over its own grid blocks, but rounds — and banks —
/// proceed one after another, so a grid smaller than the machine leaves
/// cores idle at every round boundary and a fleet of fingerprints
/// serializes entirely. Here the pool's claim loop steals the next
/// un-replayed *block* wherever it lives, keeping every core busy until
/// all banks are stocked.
///
/// Determinism is preserved: challenge sets are drawn under each bank's
/// state lock in generator order before any replay starts, and rounds
/// enter each queue in that same draw order — only the replay
/// *computation* is reordered, and block checksums are combined with the
/// same wrapping sums as the serial path.
pub fn prefill_banks(banks: &[&ChallengeBank], n: usize, pool: &ReplayPool) {
    // Phase 1: draw challenges (generator order) and size the job list.
    let mut drawn: Vec<Vec<Vec<[u8; 16]>>> = Vec::with_capacity(banks.len());
    for bank in banks {
        let mut state = lock_unpoisoned(&bank.inner.state);
        let room = bank.inner.capacity.saturating_sub(state.queue.len()).min(n);
        let blocks = bank.inner.build.params.grid_blocks as usize;
        let sets: Vec<Vec<[u8; 16]>> = (0..room)
            .map(|_| Inner::draw_challenges(&mut state, blocks))
            .collect();
        drawn.push(sets);
    }

    // Phase 2: one flat (bank, round, block) job list over the pool.
    let traces: Vec<StepTrace> = banks
        .iter()
        .map(|b| StepTrace::new(&b.inner.build))
        .collect();
    let partials: Vec<Vec<Vec<Mutex<[u32; 8]>>>> = banks
        .iter()
        .zip(&drawn)
        .map(|(bank, sets)| {
            let blocks = bank.inner.build.params.grid_blocks as usize;
            sets.iter()
                .map(|_| (0..blocks).map(|_| Mutex::new([0u32; 8])).collect())
                .collect()
        })
        .collect();
    // (bank index, round index, block) triples — the flat job list.
    let mut jobs: Vec<(usize, usize, u32)> = Vec::new();
    for (i, bank) in banks.iter().enumerate() {
        let blocks = bank.inner.build.params.grid_blocks;
        for r in 0..drawn[i].len() {
            for b in 0..blocks {
                jobs.push((i, r, b));
            }
        }
    }
    pool.run_scoped(jobs.len(), &|idx| {
        let (i, r, b) = jobs[idx];
        let sums = replay_block_batched(
            &banks[i].inner.build,
            &traces[i],
            &drawn[i][r][b as usize],
            b,
        );
        *lock_unpoisoned(&partials[i][r][b as usize]) = sums;
    });

    // Phase 3: reduce and enqueue, per bank, in draw order.
    for ((bank, sets), parts) in banks.iter().zip(drawn).zip(partials) {
        let mut state = lock_unpoisoned(&bank.inner.state);
        if state.stop {
            continue;
        }
        for (challenges, blocks) in sets.into_iter().zip(parts) {
            let mut expected = [0u32; 8];
            for cell in blocks {
                let part = lock_unpoisoned(&cell);
                for j in 0..8 {
                    expected[j] = expected[j].wrapping_add(part[j]);
                }
            }
            let round = PrecomputedRound {
                challenges,
                expected,
            };
            let guard = guard_tag(&round);
            state.queue.push_back(Stocked { round, guard });
            state.count(REFILL);
        }
        bank.inner.stock.notify_all();
    }
}

impl Drop for ChallengeBank {
    fn drop(&mut self) {
        lock_unpoisoned(&self.inner.state).stop = true;
        self.inner.space.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim work: draw the next challenge set while below capacity.
        let challenges = {
            let mut state = lock_unpoisoned(&inner.state);
            loop {
                if state.stop {
                    return;
                }
                if state.queue.len() < inner.capacity {
                    let blocks = inner.build.params.grid_blocks as usize;
                    break Inner::draw_challenges(&mut state, blocks);
                }
                state = inner.space.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        // The expensive replay happens with the lock released.
        let expected = expected_checksum(&inner.build, &challenges);
        let mut state = lock_unpoisoned(&inner.state);
        if state.stop {
            return;
        }
        let round = PrecomputedRound {
            challenges,
            expected,
        };
        let guard = guard_tag(&round);
        state.queue.push_back(Stocked { round, guard });
        state.count(REFILL);
        inner.stock.notify_all();
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
        // Same generator seed → the work-stealing prefill must stock the
        // same rounds, in the same order, with the same checksums as the
        // round-serial fill.
        let serial = sync_bank(7, 4, 3);
        serial.fill(4);
        for pool in [ReplayPool::serial(), ReplayPool::new(3)] {
            let parallel = sync_bank(7, 4, 3);
            parallel.fill_parallel(4, &pool);
            let fp = serial.fingerprint();
            assert_eq!(parallel.len(), serial.len());
            let reference = sync_bank(7, 4, 3);
            reference.fill(4);
            for _ in 0..4 {
                let a = reference.take(&fp).unwrap().expect("stock");
                let b = parallel.take(&fp).unwrap().expect("stock");
                assert_eq!(a.challenges, b.challenges);
                assert_eq!(a.expected, b.expected);
            }
        }
    }

    #[test]
    fn prefill_banks_stocks_every_fingerprint() {
        // Three banks over distinct builds, one flat job list: every bank
        // ends up stocked with pairs bit-exact against direct replay.
        let banks = [sync_bank(7, 2, 1), sync_bank(8, 2, 2), sync_bank(9, 2, 3)];
        let refs: Vec<&ChallengeBank> = banks.iter().collect();
        let pool = ReplayPool::new(2);
        prefill_banks(&refs, 2, &pool);
        for (bank, fill_seed) in banks.iter().zip([7u32, 8, 9]) {
            assert_eq!(bank.len(), 2);
            let build = tiny_build(fill_seed);
            let fp = bank.fingerprint();
            while let Some(round) = bank.take(&fp).unwrap() {
                assert_eq!(round.expected, expected_checksum(&build, &round.challenges));
            }
        }
    }

    #[test]
    fn parallel_fill_respects_capacity() {
        let bank = sync_bank(7, 2, 5);
        bank.fill_parallel(10, &ReplayPool::serial());
        assert_eq!(bank.len(), 2);
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
        // Empty bank, zero workers: the blocking take computes the pair
        // synchronously on this thread.
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
            crate::replay::expected_checksum_unpooled(&build, &round.challenges)
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
        // Zero workers: the poisoned pair is discarded and a fresh one
        // computed synchronously — the caller always gets a valid pair.
        let round = bank.take_blocking(&fp).unwrap();
        let build = tiny_build(7);
        assert_eq!(
            round.expected,
            crate::replay::expected_checksum_unpooled(&build, &round.challenges)
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
    fn background_workers_stock_the_bank() {
        let bank = ChallengeBank::new(
            tiny_build(7),
            BankConfig {
                capacity: 2,
                workers: 1,
            },
            counter_gen(1),
        );
        let fp = bank.fingerprint();
        // The worker fills asynchronously; blocking takes always succeed.
        for _ in 0..4 {
            let round = bank.take_blocking(&fp).unwrap();
            assert_eq!(round.challenges.len(), 2); // test_tiny: 2 blocks
        }
        let c = bank.counters();
        assert_eq!(c.hits + c.misses, 4);
        assert!(c.refills >= 4);
    }
}
