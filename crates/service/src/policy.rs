//! The quarantine and retry policy (the paper's §7.2 robustness rules,
//! turned into control-plane knobs).

/// Policy knobs governing how the service reacts to failed rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Policy {
    /// Consecutive hard failures (wrong checksum, exhausted restarts, or
    /// timeouts) after which a device is quarantined.
    pub quarantine_after: u32,
    /// How many consecutive timing-only rejects are treated as the
    /// paper's ≈0.5% false positive and answered with an immediate
    /// restart ("in which case the verification process is restarted")
    /// before they start counting as hard failures.
    pub max_timing_restarts: u32,
    /// Base retry delay after a hard failure, in virtual ticks. Doubles
    /// per consecutive failure.
    pub backoff_base: u64,
    /// Upper bound on the exponential backoff delay.
    pub backoff_cap: u64,
    /// Consecutive *wrong-checksum* failures after which a device is
    /// quarantined, independent of [`Policy::quarantine_after`]. Wrong
    /// values are the one failure class an honest device can never
    /// produce (the checksum is deterministic), so operators running a
    /// fault-tolerant fleet set this below `quarantine_after`: transient
    /// faults (timeouts, slow rounds) burn the larger budget and recover,
    /// persistent corruption hits this budget and quarantines. The
    /// default equals `quarantine_after`, which leaves the historical
    /// single-budget behaviour unchanged.
    pub value_quarantine_after: u32,
    /// When `true`, a round that times out is granted the same §7.2
    /// restart allowance as a timing-only reject (shared
    /// `max_timing_restarts` budget): the watchdog bounds a hung device,
    /// but a transiently-unreachable one gets restarted instead of
    /// burning hard failures. Default `false` (historical behaviour:
    /// timeouts count as hard failures immediately).
    pub restart_on_timeout: bool,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            quarantine_after: 4,
            max_timing_restarts: 2,
            backoff_base: 2_000,
            backoff_cap: 64_000,
            value_quarantine_after: 4,
            restart_on_timeout: false,
        }
    }
}

impl Policy {
    /// The retry delay after the `consecutive_failures`-th consecutive
    /// failure: `backoff_base · 2^(n−1)`, capped at `backoff_cap`.
    pub fn backoff_delay(&self, consecutive_failures: u32) -> u64 {
        let shift = consecutive_failures.saturating_sub(1).min(32);
        self.backoff_base
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap)
            .max(1)
    }
}

/// Deterministic backoff jitter in `0..=max`, keyed by `(name,
/// attempt)` — no shared RNG, so separate processes (and a restored
/// service) compute the same value, yet two peers recovering from the
/// same outage land on different retry schedules instead of a
/// synchronized storm. `max == 0` disables jitter (and keeps historical
/// schedules byte-identical).
pub fn seeded_jitter(max: u64, name: &str, attempt: u64) -> u64 {
    if max == 0 {
        return 0;
    }
    // FNV-1a over the name, then one splitmix round folding the attempt.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % (max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = Policy {
            backoff_base: 1_000,
            backoff_cap: 6_000,
            ..Policy::default()
        };
        assert_eq!(p.backoff_delay(1), 1_000);
        assert_eq!(p.backoff_delay(2), 2_000);
        assert_eq!(p.backoff_delay(3), 4_000);
        assert_eq!(p.backoff_delay(4), 6_000); // capped
        assert_eq!(p.backoff_delay(40), 6_000); // shift clamp, no overflow
    }

    #[test]
    fn zero_failures_still_positive() {
        assert!(Policy::default().backoff_delay(0) >= 1);
    }

    #[test]
    fn seeded_jitter_is_deterministic_bounded_and_desynchronized() {
        assert_eq!(seeded_jitter(0, "gpu-a", 3), 0, "max 0 disables jitter");
        for attempt in 0..32 {
            let j = seeded_jitter(100, "gpu-a", attempt);
            assert!(j <= 100);
            assert_eq!(j, seeded_jitter(100, "gpu-a", attempt));
        }
        // Two peers backing off from the same outage must not follow
        // the same schedule.
        let schedule = |name: &str| {
            (0..8)
                .map(|a| seeded_jitter(1_000, name, a))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule("gpu-a"), schedule("gpu-b"));
    }
}
