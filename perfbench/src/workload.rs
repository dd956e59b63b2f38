//! The four workloads' configurations. Each fixes the fleet, the
//! service configuration and how much work a run does per requested
//! second, so every run of a seed does identical work.

use sage_evidence::FreshnessPolicy;
use sage_service::{LinkProfile, QuorumConfig, SamplingConfig, ServiceConfig};

use crate::common::{self, DeviceKind};

/// The adversarial part of the `byzantine` workload.
pub struct Byzantine {
    /// Every `cheater_every`-th device (from index `cheater_every - 1`)
    /// is planted as a cheater after warm-up; even ones are slowed,
    /// odd ones relayed.
    pub cheater_every: usize,
    /// Extra cycles a slowed cheater adds to every checksum run.
    pub slow_cycles: u64,
    /// Extra wire delay a relayed cheater's responses pay.
    pub relay_delay: u64,
    /// Lossy profile on the cheaters' links.
    pub cheater_link: LinkProfile,
    /// The verifier replica that lies (inverts every ballot).
    pub liar: usize,
}

/// One workload's configuration.
pub struct Spec {
    pub name: &'static str,
    pub kind: DeviceKind,
    pub devices: usize,
    pub cfg: ServiceConfig,
    /// SimNet link profile (sockets have none).
    pub link: LinkProfile,
    /// Setups (+ enrollments) per run; the median is reported.
    pub setups: usize,
    /// Build all but the first setup between steady-phase blocks
    /// instead of up front (for fleets small enough to hold twice).
    pub interleave_setups: bool,
    /// Epochs before the steady phase.
    pub warmup_epochs: u64,
    /// Steady-phase epochs per requested second (fixes the work).
    pub epochs_per_second: f64,
    /// Block start offset within an epoch, as a fraction of it: fleet
    /// and exact rounds start right after each seal, so their blocks
    /// start mid-epoch and hold exactly one round per device.
    pub block_phase: f64,
    /// Devices audited (report issued and verified) after each block.
    pub audit_sample: usize,
    pub byzantine: Option<Byzantine>,
}

/// Mean one-way link delay of a profile.
fn mean_link(p: &LinkProfile) -> u64 {
    p.latency + p.jitter / 2
}

const CLEAN_LINK: LinkProfile = LinkProfile {
    latency: 100,
    jitter: 25,
    drop_per_mille: 0,
    dup_per_mille: 0,
};

impl Spec {
    /// Ten thousand modeled devices: the control plane at scale.
    pub fn fleet() -> Spec {
        let reattest = 50_000;
        // One seal per re-attestation period (interval + round trip).
        let period = reattest + 2 * mean_link(&CLEAN_LINK) + common::MODELED_BASE_CYCLES + 4;
        Spec {
            name: "fleet",
            kind: DeviceKind::Modeled,
            devices: 10_000,
            cfg: ServiceConfig {
                reattest_interval: reattest,
                epoch_interval: period,
                shards: 1,
                workers: 0,
                bank_capacity: 0,
                bank_workers: 0,
                event_capacity: 65_536,
                ..ServiceConfig::default()
            },
            link: CLEAN_LINK,
            setups: 3,
            interleave_setups: false,
            warmup_epochs: 1,
            epochs_per_second: 3.0,
            block_phase: 0.5,
            audit_sample: 4,
            byzantine: None,
        }
    }

    /// Twenty-four cycle-accurate devices: the paper's checksum.
    pub fn exact() -> Spec {
        Spec {
            name: "exact",
            kind: DeviceKind::Exact,
            devices: 24,
            cfg: ServiceConfig {
                // Epochs are set from a pilot run (see `Spec::config`).
                bank_workers: 0,
                // One thread: with the worker pool on, every step hands
                // work across threads and the block rate follows the
                // host's wake-up latency instead of the simulator.
                shards: 1,
                workers: 0,
                ..ServiceConfig::default()
            },
            link: CLEAN_LINK,
            setups: 25,
            interleave_setups: true,
            warmup_epochs: 1,
            epochs_per_second: 55.0,
            block_phase: 0.5,
            audit_sample: 8,
            byzantine: None,
        }
    }

    /// One modeled device per core, each on its own `DeviceLink` over a
    /// Unix socket: real sockets, framing and supervision threads.
    pub fn uds() -> Spec {
        let reattest = 20_000;
        Spec {
            name: "uds",
            kind: DeviceKind::Modeled,
            devices: common::cores(),
            cfg: ServiceConfig {
                reattest_interval: reattest,
                // The clock driver freezes virtual time while a round is
                // out, so a round takes no virtual time and an epoch of
                // 1,000 intervals holds 1,000 rounds per device.
                epoch_interval: 1_000 * reattest,
                bank_capacity: 0,
                bank_workers: 0,
                ..ServiceConfig::default()
            },
            link: CLEAN_LINK,
            setups: 25,
            interleave_setups: true,
            warmup_epochs: 1,
            epochs_per_second: 16.0,
            block_phase: 0.5,
            audit_sample: 4,
            byzantine: None,
        }
    }

    /// Two thousand modeled devices under attack: lossy links, a lying
    /// replica, sampling, freshness decay and planted cheaters.
    pub fn byzantine() -> Spec {
        let reattest = 10_000;
        let period = reattest + 2 * mean_link(&CLEAN_LINK) + common::MODELED_BASE_CYCLES + 4;
        let epoch = 2 * period;
        Spec {
            name: "byzantine",
            kind: DeviceKind::Modeled,
            devices: 2_000,
            cfg: ServiceConfig {
                reattest_interval: reattest,
                epoch_interval: epoch,
                freshness: FreshnessPolicy {
                    stale_after: 3 * epoch,
                    degraded_after: 6 * epoch,
                },
                quorum: QuorumConfig {
                    verifiers: 4,
                    seed: 0x51D,
                },
                sampling: SamplingConfig {
                    coverage_per_mille: 250,
                    seed: 0,
                },
                relay_rtt_gate: 2_000,
                backoff_jitter: 500,
                bank_capacity: 0,
                bank_workers: 0,
                ..ServiceConfig::default()
            },
            link: LinkProfile {
                dup_per_mille: 20,
                ..CLEAN_LINK
            },
            setups: 7,
            interleave_setups: true,
            warmup_epochs: 2,
            epochs_per_second: 16.0,
            block_phase: 0.0,
            audit_sample: 4,
            byzantine: Some(Byzantine {
                cheater_every: 50,
                slow_cycles: 3_000,
                relay_delay: 5_000,
                cheater_link: LinkProfile {
                    drop_per_mille: 100,
                    dup_per_mille: 20,
                    ..CLEAN_LINK
                },
                liar: 1,
            }),
        }
    }

    /// The service configuration for `seed`: the sampling plan is an
    /// input, and the cycle-accurate epoch follows a pilot device's
    /// measured exchange time.
    pub fn config(&self, seed: u64) -> ServiceConfig {
        let mut cfg = self.cfg;
        if cfg.sampling.is_active() {
            cfg.sampling.seed = seed ^ 0xC0FFEE;
        }
        if cfg.epoch_interval == 0 {
            cfg.epoch_interval = cfg.reattest_interval
                + 2 * mean_link(&self.link)
                + pilot_cycles(self.kind, cfg.calibration_runs);
        }
        cfg
    }

    /// Whether fleet index `index` is planted as a cheater.
    pub fn is_cheater(&self, index: usize) -> bool {
        self.byzantine
            .as_ref()
            .is_some_and(|b| index % b.cheater_every == b.cheater_every - 1)
    }
}

/// Median exchange time of a freshly installed device, in cycles.
fn pilot_cycles(kind: DeviceKind, runs: usize) -> u64 {
    let mut session = kind.session();
    let samples: Vec<f64> = (0..runs.max(3))
        .map(|r| {
            let ch = vec![[r as u8; 16]; kind.params().grid_blocks as usize];
            session.run_checksum(&ch).expect("pilot run").1 as f64
        })
        .collect();
    common::median(&samples) as u64
}
