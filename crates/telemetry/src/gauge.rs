//! A last-value gauge.
//!
//! Counters and histograms cover everything monotonic, but the spot-check
//! sampling layer exports a *model* quantity — the per-device detection
//! probability `P(detect within k epochs)` — that moves in both
//! directions as coverage knobs change. A gauge is one atomic `u64`
//! holding the latest set value, like a [`Counter`](crate::Counter)
//! that is stored to instead of added to.
//!
//! Values are plain `u64`. Fractional quantities export in fixed-point
//! per-mille (the convention the service layer already uses for link
//! fault rates), keeping both exporters integer-only and byte-stable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A last-value-wins gauge, cheap to set from any thread.
///
/// Cloning is shallow: clones share the same cell, so the handle held
/// by an instrumented component and the registry's copy always agree.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the current value (relaxed; last writer wins).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(250);
        g.set(984);
        assert_eq!(g.get(), 984);
    }

    #[test]
    fn clones_share_state() {
        let a = Gauge::new();
        let b = a.clone();
        a.set(7);
        assert_eq!(b.get(), 7);
        b.set(3);
        assert_eq!(a.get(), 3);
    }
}
