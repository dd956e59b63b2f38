//! The verifier's timing policy (paper §7.2).
//!
//! The verifier measures the wall time of every checksum exchange and
//! accepts only responses arriving before `T_avg + 2.5σ`, calibrated over
//! repeated runs on the known-good configuration. With normally
//! distributed runtimes the false-positive probability is ≈ 0.5%, "in
//! which case the verification process is restarted".

use sage_crypto::canon::{self, CanonError, Reader};

/// Calibration statistics of the checksum runtime, in device cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Mean runtime.
    pub t_avg: f64,
    /// Standard deviation.
    pub sigma: f64,
    /// Number of calibration runs.
    pub runs: usize,
    /// Threshold multiplier (2.5 in the paper).
    pub k_sigma: f64,
}

impl Calibration {
    /// Computes statistics from a series of measured runtimes.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[u64]) -> Calibration {
        Calibration::from_samples_k(samples, 2.5)
    }

    /// Same as [`Calibration::from_samples`] with a custom `k·σ`
    /// multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples_k(samples: &[u64], k_sigma: f64) -> Calibration {
        Calibration::try_from_samples_k(samples, k_sigma).expect("calibration requires samples")
    }

    /// Fallible variant of [`Calibration::from_samples`]: returns
    /// [`SageError::Protocol`] on empty input instead of panicking, so
    /// long-running layers (the attestation service) can degrade
    /// gracefully when a device yields no usable samples.
    pub fn try_from_samples(samples: &[u64]) -> crate::error::Result<Calibration> {
        Calibration::try_from_samples_k(samples, 2.5)
    }

    /// Fallible variant of [`Calibration::from_samples_k`].
    pub fn try_from_samples_k(samples: &[u64], k_sigma: f64) -> crate::error::Result<Calibration> {
        if samples.is_empty() {
            return Err(crate::error::SageError::Protocol(
                "calibration requires samples".into(),
            ));
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Ok(Calibration {
            t_avg: mean,
            sigma: var.sqrt(),
            runs: samples.len(),
            k_sigma,
        })
    }

    /// The detection threshold `T_avg + k·σ`, in cycles (rounded up).
    ///
    /// A floor of `t_avg + 1` is applied so a zero-variance calibration
    /// (possible in the deterministic simulator with a fixed seed) still
    /// yields a usable threshold.
    pub fn threshold(&self) -> u64 {
        let t = self.t_avg + self.k_sigma * self.sigma;
        (t.ceil() as u64).max(self.t_avg as u64 + 1)
    }

    /// Whether a measured runtime passes.
    pub fn accepts(&self, measured: u64) -> bool {
        measured <= self.threshold()
    }

    /// Appends the canonical encoding `t_avg ‖ sigma ‖ k_sigma ‖ runs`,
    /// each a little-endian `u64` (the floats as their bit patterns).
    /// The service snapshot and the enclave-sealed blob both carry
    /// these 32 bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        canon::put_u64(out, self.t_avg.to_bits());
        canon::put_u64(out, self.sigma.to_bits());
        canon::put_u64(out, self.k_sigma.to_bits());
        canon::put_u64(out, self.runs as u64);
    }

    /// Decodes one calibration from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Calibration, CanonError> {
        // Fields are read in the order written, which is the encoding's.
        Ok(Calibration {
            t_avg: f64::from_bits(r.u64()?),
            sigma: f64::from_bits(r.u64()?),
            k_sigma: f64::from_bits(r.u64()?),
            runs: r.u64()? as usize,
        })
    }
}

/// Outcome statistics over repeated verifications (for the robustness
/// analysis: false-positive rate ≈ 0.5% at 2.5σ).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerificationStats {
    /// Runs accepted.
    pub accepted: u64,
    /// Runs rejected on timing.
    pub timing_rejects: u64,
    /// Runs rejected on checksum value.
    pub value_rejects: u64,
}

impl VerificationStats {
    /// Fraction of runs rejected on timing alone.
    pub fn timing_reject_rate(&self) -> f64 {
        let total = self.accepted + self.timing_rejects + self.value_rejects;
        if total == 0 {
            0.0
        } else {
            self.timing_rejects as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_hand_computation() {
        let c = Calibration::from_samples(&[100, 102, 98, 100]);
        assert!((c.t_avg - 100.0).abs() < 1e-9);
        assert!((c.sigma - 2.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(c.runs, 4);
        // threshold = 100 + 2.5·√2 ≈ 103.54 → 104.
        assert_eq!(c.threshold(), 104);
        assert!(c.accepts(104));
        assert!(!c.accepts(105));
    }

    #[test]
    fn zero_variance_gets_floor() {
        let c = Calibration::from_samples(&[500, 500, 500]);
        assert_eq!(c.threshold(), 501);
        assert!(c.accepts(500));
        assert!(!c.accepts(502));
    }

    #[test]
    fn custom_multiplier() {
        let c = Calibration::from_samples_k(&[100, 104], 1.0);
        // mean 102, sigma 2 → threshold 104.
        assert_eq!(c.threshold(), 104);
    }

    #[test]
    fn false_positive_rate_near_half_percent_for_gaussian() {
        // Draw pseudo-normal samples (sum of 12 uniforms), calibrate, and
        // check the 2.5σ one-sided tail is near 0.6% (Φ(2.5) ≈ 0.9938).
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next_uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut draw = || {
            let s: f64 = (0..12).map(|_| next_uniform()).sum::<f64>() - 6.0;
            (100_000.0 + 300.0 * s) as u64
        };
        let calib_samples: Vec<u64> = (0..2000).map(|_| draw()).collect();
        let c = Calibration::from_samples(&calib_samples);
        let mut rejects = 0;
        let trials = 20_000;
        for _ in 0..trials {
            if !c.accepts(draw()) {
                rejects += 1;
            }
        }
        let rate = rejects as f64 / trials as f64;
        assert!(rate > 0.001 && rate < 0.02, "rate = {rate}");
    }

    #[test]
    fn verification_stats() {
        let s = VerificationStats {
            accepted: 99,
            timing_rejects: 1,
            ..Default::default()
        };
        assert!((s.timing_reject_rate() - 0.01).abs() < 1e-9);
        assert_eq!(VerificationStats::default().timing_reject_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires samples")]
    fn empty_samples_panic() {
        let _ = Calibration::from_samples(&[]);
    }

    #[test]
    fn try_from_samples_reports_empty_input() {
        assert!(matches!(
            Calibration::try_from_samples(&[]),
            Err(crate::error::SageError::Protocol(_))
        ));
        let c = Calibration::try_from_samples(&[100, 102, 98, 100]).unwrap();
        assert_eq!(c, Calibration::from_samples(&[100, 102, 98, 100]));
    }
}
