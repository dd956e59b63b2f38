//! Spot-check sampling: seeded per-epoch coverage plans and the
//! detection-probability model behind them.
//!
//! A verifier that re-attests every device every round pays the full
//! checksum-replay bill each epoch. SAGE's security argument does not
//! require that: a cheater that fails *any* attested round is caught,
//! so attesting a random coverage-`c` sample of the fleet each epoch
//! still detects a persistent cheater within a geometrically-distributed
//! number of epochs — `P(detect within k epochs) = 1 − (1 − c)^k` — at
//! `1/c` of the cost.
//!
//! The plan is a pure function: device `d` is covered in epoch `e` iff
//! `splitmix(seed, e, fnv(d)) mod 1000 < coverage_per_mille`. Every
//! verifier replica and restarted process computes the
//! same plan from the same `(seed, epoch, name)` — no shared RNG, no
//! coordination, and the same determinism story as
//! [`crate::policy::seeded_jitter`]. Per-device draws are independent
//! Bernoulli trials, which is exactly the assumption the closed-form
//! model needs, so the statistical suite can check the implementation
//! against the formula with no slack for modeling error.
//!
//! Coverage `1000` (the default) short-circuits to "attest everything"
//! and keeps historical schedules byte-identical.

/// Sampling knobs, embedded in [`crate::ServiceConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Fraction of the fleet attested per epoch, in per-mille
    /// (`1000` = full coverage = sampling off, the historical default).
    pub coverage_per_mille: u32,
    /// Plan seed. Two fleets with different seeds sample different
    /// devices in the same epoch; one fleet restarted from a snapshot
    /// re-derives the identical plan.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            coverage_per_mille: 1000,
            seed: 0,
        }
    }
}

impl SamplingConfig {
    /// Whether sampling changes anything (`coverage < 1000`).
    pub fn is_active(&self) -> bool {
        self.coverage_per_mille < 1000
    }
}

/// One epoch's resolved spot-check decisions for a roster — the
/// materialized form of the pure per-device rule, used where a whole
/// epoch's plan is inspected at once (the statistical suite). No plan
/// is ever sent: every replica re-derives it from `(seed, epoch, name)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpotCheckPlan {
    /// The epoch index this plan covers.
    pub epoch: u64,
    /// Coverage the plan was drawn at, in per-mille.
    pub coverage_per_mille: u32,
    /// Names selected for attestation this epoch, in roster order.
    pub selected: Vec<String>,
}

impl SpotCheckPlan {
    /// Draws the plan for `epoch` over `roster`.
    pub fn for_epoch(cfg: &SamplingConfig, epoch: u64, roster: &[&str]) -> SpotCheckPlan {
        SpotCheckPlan {
            epoch,
            coverage_per_mille: cfg.coverage_per_mille,
            selected: roster
                .iter()
                .filter(|name| covers(cfg, epoch, name))
                .map(|name| name.to_string())
                .collect(),
        }
    }

    /// Whether `device` is attested under this plan.
    pub fn covers(&self, device: &str) -> bool {
        self.selected.iter().any(|n| n == device)
    }
}

/// The per-device coverage rule: is `device` attested in `epoch`?
///
/// An independent Bernoulli(`coverage`) trial per `(seed, epoch,
/// device)` — FNV-1a over the name, two splitmix rounds folding the
/// seed and epoch, then a per-mille threshold test.
pub fn covers(cfg: &SamplingConfig, epoch: u64, device: &str) -> bool {
    if !cfg.is_active() {
        return true;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in device.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= epoch.wrapping_mul(0xD605_0B44_C9C8_2A4D);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 1000) < u64::from(cfg.coverage_per_mille)
}

/// The closed-form detection model: the probability that a device
/// cheating persistently from epoch 1 is attested (and therefore
/// caught) within `k` epochs, `1 − (1 − c)^k`. Returned in per-mille,
/// rounded to nearest — the fixed-point convention of the telemetry
/// gauge that exports it.
///
/// The model counts the first covered epoch as detection. A cheater
/// that answers its replay tap's recording round honestly passes that
/// round, so when a covered epoch holds a single round, detection lands
/// one covered epoch later than the model says. The attack matrix's
/// unsampled-epoch campaign
/// (`unsampled_epoch_cheater_caught_on_{classic,precomputed}_path`)
/// pins exactly that case.
pub fn detect_probability_per_mille(coverage_per_mille: u32, k: u64) -> u64 {
    let c = f64::from(coverage_per_mille.min(1000)) / 1000.0;
    let p = 1.0 - (1.0 - c).powi(k.min(i32::MAX as u64) as i32);
    (p * 1000.0).round() as u64
}

/// Epochs needed before a persistent cheater is detected with at least
/// `confidence_per_mille` probability: `⌈ln(1−conf)/ln(1−c)⌉`. The `k`
/// the detection gauge is quoted at, and the horizon the attack matrix
/// holds the sampled-epoch campaigns to.
///
/// Same caveat as [`detect_probability_per_mille`]: against a cheater
/// that answers its replay tap's recording round honestly, detection
/// lands one covered epoch later whenever a covered epoch holds a
/// single round.
pub fn epochs_to_detect(coverage_per_mille: u32, confidence_per_mille: u32) -> u64 {
    let c = f64::from(coverage_per_mille.min(1000)) / 1000.0;
    if c >= 1.0 {
        return 1;
    }
    if c <= 0.0 {
        return u64::MAX;
    }
    let conf = f64::from(confidence_per_mille.min(999)) / 1000.0;
    ((1.0 - conf).ln() / (1.0 - c).ln()).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(coverage: u32, seed: u64) -> SamplingConfig {
        SamplingConfig {
            coverage_per_mille: coverage,
            seed,
        }
    }

    #[test]
    fn full_coverage_covers_everything() {
        let c = cfg(1000, 9);
        assert!(!c.is_active());
        for epoch in 0..50 {
            assert!(covers(&c, epoch, "gpu-00"));
        }
    }

    #[test]
    fn coverage_rule_is_deterministic_and_seed_sensitive() {
        let a = cfg(250, 1);
        let b = cfg(250, 2);
        let draws = |c: &SamplingConfig| {
            (0..64)
                .map(|e| covers(c, e, "gpu-03"))
                .collect::<Vec<bool>>()
        };
        assert_eq!(draws(&a), draws(&a), "same seed → same plan");
        assert_ne!(draws(&a), draws(&b), "different seed → different plan");
    }

    #[test]
    fn plan_matches_the_per_device_rule() {
        let c = cfg(500, 77);
        let roster = ["gpu-00", "gpu-01", "gpu-02", "gpu-03"];
        let plan = SpotCheckPlan::for_epoch(&c, 12, &roster);
        for name in roster {
            assert_eq!(plan.covers(name), covers(&c, 12, name));
        }
        assert_eq!(plan.epoch, 12);
        assert_eq!(plan.coverage_per_mille, 500);
    }

    #[test]
    fn empirical_coverage_tracks_the_knob() {
        // 4000 (device, epoch) draws at 25%: the empirical rate must sit
        // near 250‰. Seeds are fixed, so this can never flake.
        let c = cfg(250, 5);
        let mut hits = 0u32;
        for d in 0..40 {
            let name = format!("gpu-{d:02}");
            for e in 0..100 {
                if covers(&c, e, &name) {
                    hits += 1;
                }
            }
        }
        let per_mille = hits * 1000 / 4000;
        assert!(
            (220..=280).contains(&per_mille),
            "empirical coverage {per_mille}‰ far from 250‰"
        );
    }

    #[test]
    fn detection_model_closed_form() {
        assert_eq!(detect_probability_per_mille(1000, 1), 1000);
        assert_eq!(detect_probability_per_mille(500, 1), 500);
        assert_eq!(detect_probability_per_mille(500, 2), 750);
        assert_eq!(detect_probability_per_mille(250, 4), 684); // 1-0.75^4
        assert_eq!(detect_probability_per_mille(0, 10), 0);
    }

    #[test]
    fn epochs_to_detect_inverts_the_model() {
        // At 25% coverage, 16 epochs give 1-0.75^16 ≈ 0.9899 ≥ 0.98.
        let k = epochs_to_detect(250, 980);
        assert_eq!(k, 14); // 1-0.75^14 ≈ 0.9822
        assert!(detect_probability_per_mille(250, k) >= 980);
        assert_eq!(epochs_to_detect(1000, 999), 1);
        assert_eq!(epochs_to_detect(0, 990), u64::MAX);
    }
}
