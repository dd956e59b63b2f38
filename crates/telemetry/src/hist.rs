//! Fixed-bucket log2 histograms with mergeable snapshots.
//!
//! Bucket layout covers the whole `u64` range with 65 buckets: bucket
//! 0 holds exactly the value 0, bucket `i` (1..=64) holds
//! `[2^(i-1), 2^i - 1]`. The index of a value is one integer
//! instruction (`64 - leading_zeros`), and recording is two relaxed
//! `fetch_add`s — one bucket bump, one sum accumulate. Deliberately no
//! min/max tracking: a CAS loop per record would dwarf the fast-path
//! budget the overhead gate enforces (`tests/perf_gates.rs`).
//!
//! Percentile queries run on [`HistogramSnapshot`]s, nearest-rank over
//! the cumulative bucket counts, answering with a linear interpolation
//! of the ranked observation's position *within* its bucket — so a
//! distribution whose samples all land in one log2 bucket still
//! resolves distinct p50/p90/p99 instead of saturating at the bucket's
//! upper bound. The answer is deterministic (integer arithmetic only)
//! and never leaves the containing bucket, so the relative error stays
//! bounded by the bucket width (at most 2×).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` bounds of bucket `i`.
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        let low = 1u64 << (i - 1);
        let high = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
        (low, high)
    }
}

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// A concurrent log2 histogram.
///
/// Cloning is shallow — clones record into the same buckets, so the
/// instrumented component and the registry always agree.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation (two relaxed `fetch_add`s).
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.inner.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .finish()
    }
}

/// An immutable histogram state: mergeable, queryable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of the recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// Folds another snapshot in (element-wise bucket addition — the
    /// operation is associative and commutative, so per-shard or
    /// per-device snapshots merge in any order to the same result).
    /// `sum` wraps on overflow, matching [`Histogram::record`]'s atomic
    /// accumulation — a merge never panics where recording would not.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`), linearly interpolated
    /// within the bucket holding the ranked observation: rank `p` of the
    /// bucket's `c` observations answers `lo + (hi−lo)·p/c` (integer
    /// arithmetic, widened so the 64-bit edge buckets cannot overflow).
    /// `q = 1.0` still answers the top bucket's upper bound. `None`
    /// when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let p = rank - seen; // position within this bucket, 1..=c
                let span = (hi - lo) as u128;
                return Some(lo + (span * p as u128 / c as u128) as u64);
            }
            seen += c;
        }
        // Unreachable: cumulative count reaches n >= rank.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_partitions_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Bounds tile the range with no gaps or overlaps.
        assert_eq!(bucket_bounds(0), (0, 0));
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, bucket_bounds(i - 1).1 + 1, "bucket {i} gap");
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
        assert_eq!(bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn record_lands_in_reported_bucket() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 7 + 1023 + 1024)
                .wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets[bucket_index(7)], 1);
        assert_eq!(s.buckets[bucket_index(1023)], 1);
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let h = Histogram::new();
        // 9 observations of 10 (bucket [8,15]) and 1 of 1000 ([512,1023]).
        for _ in 0..9 {
            h.record(10);
        }
        h.record(1000);
        let s = h.snapshot();
        // p50: rank 5 of the 9 observations in [8,15] → 8 + 7·5/9 = 11.
        assert_eq!(s.percentile(0.50), Some(11));
        // p90: rank 9 of 9 in [8,15] → the bucket's upper bound.
        assert_eq!(s.percentile(0.90), Some(15));
        // p99: rank 10 → sole observation in [512,1023] → upper bound.
        assert_eq!(s.percentile(0.99), Some(1023));
        assert_eq!(s.percentile(1.0), Some(1023));
    }

    /// The saturation fix: 100 samples in one log2 bucket must resolve
    /// distinct, monotone p50/p90/p99 instead of one shared upper bound.
    #[test]
    fn interpolation_resolves_within_one_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(10_000); // bucket [8192, 16383]
        }
        let s = h.snapshot();
        let (lo, hi) = bucket_bounds(bucket_index(10_000));
        let p50 = s.percentile(0.50).unwrap();
        let p90 = s.percentile(0.90).unwrap();
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!(p50, lo + (hi - lo) * 50 / 100);
        assert_eq!(p90, lo + (hi - lo) * 90 / 100);
        assert_eq!(p99, lo + (hi - lo) * 99 / 100);
        assert!(p50 < p90 && p90 < p99, "{p50} {p90} {p99}");
        assert_eq!(s.percentile(1.0), Some(hi));
    }

    /// The 64-bit edge buckets must not overflow the interpolation
    /// arithmetic.
    #[test]
    fn interpolation_survives_extreme_buckets() {
        let h = Histogram::new();
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.percentile(1.0), Some(u64::MAX));
        assert!(s.percentile(0.5).unwrap() >= bucket_bounds(64).0);
    }

    #[test]
    fn empty_snapshot_has_no_percentiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(3);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum, 106);
        assert_eq!(m.buckets[bucket_index(3)], 2);
    }
}
