//! A shared atomic counter.
//!
//! The control plane bumps its counters from one thread, and the few
//! multi-threaded producers (replay-pool prefills, per-SM simulator
//! folds) bump once per refill or per run, not per cycle — so one
//! relaxed `fetch_add` on one `AtomicU64` is the whole cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter, cheap to bump from any thread.
///
/// Cloning is shallow: clones share the same cell, so a clone handed
/// to an instrumented component and the registry's copy always agree.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.add(5);
        b.add(7);
        assert_eq!(a.get(), 12);
        assert_eq!(b.get(), 12);
    }

    #[test]
    fn concurrent_bumps_are_all_counted() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
