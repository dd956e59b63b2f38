//! Benchmark harnesses that regenerate every table and figure of the
//! SAGE evaluation (paper §7). See DESIGN.md for the experiment index.
//!
//! Binaries (run with `cargo run --release -p sage-bench --bin <name>`):
//!
//! | binary        | reproduces                                        |
//! |---------------|---------------------------------------------------|
//! | `table1`      | Table 1 — checksum implementations (exp. 1–4 + the CCTL extension) |
//! | `table2`      | Table 2 — user-kernel execution under SAGE (§7.4) |
//! | `ptx_vs_sass` | §7.1 — optimized microcode vs compiler-style code |
//! | `robustness`  | §7.2 — detection threshold and adversarial NOP    |
//! | `inclusion`   | §7.3 — memory-region inclusion probability        |
//! | `trng_eval`   | §6.6 — TRNG statistics (ENT + NIST subset)        |
//!
//! The attestation round's end-to-end performance is measured by
//! `perfbench/` at the repository root; the wall-clock gates CI holds
//! the code to live in `tests/perf_gates.rs`.
//!
//! Scale note: the paper runs 108 SMs × 100 000 iterations on silicon;
//! the simulator runs a 2-SM device at proportionally reduced iteration
//! counts (`SCALE` constants below). Cycle counts are reported raw and
//! as per-iteration-per-thread figures so shape comparisons against the
//! paper are direct; EXPERIMENTS.md records both sides.

use std::time::Instant;

use sage::GpuSession;
use sage_gpu_sim::{Device, DeviceConfig, LaunchParams, StallReason};
use sage_sgx_sim::EpcModel;
use sage_vf::{expected_checksum, SmcMode, VfParams};

/// The benchmark device: an Ampere-like 2-SM device with the A100 data
/// cache enabled. The 512 KiB checksum region warms into the L2 (which it
/// trivially fits — the A100 has 40 MB) so steady-state loads see L2
/// latency with modest spread, emergently rather than by configuration.
pub fn bench_device() -> DeviceConfig {
    let mut cfg = DeviceConfig::sim_large();
    cfg.num_sms = 2;
    cfg
}

/// Experiment presets mirroring Table 1 (at simulator scale).
pub mod experiments {
    use super::*;

    /// Full-occupancy geometry for the bench device: 2 blocks of 1024
    /// threads per SM (the paper's §6.3 occupancy recipe).
    pub fn geometry(cfg: &DeviceConfig) -> (u32, u32) {
        (cfg.num_sms * 2, 1024)
    }

    fn base(cfg: &DeviceConfig) -> VfParams {
        let (blocks, threads) = geometry(cfg);
        VfParams {
            data_bytes: 512 * 1024, // the paper's 524 288-byte region
            unroll: 15,
            pattern_pairs: 10,
            iterations: 60,
            smc: SmcMode::Off,
            inner: None,
            grid_blocks: blocks,
            block_threads: threads,
            naive_schedule: false,
            injected_nops: 0,
        }
    }

    /// Experiment 1: reference implementation (no SMC, ~420-instruction
    /// loop fitting the instruction caches).
    pub fn exp1(cfg: &DeviceConfig) -> VfParams {
        base(cfg)
    }

    /// Experiment 2: experiment 1 plus one adversarial NOP per loop pass.
    pub fn exp2(cfg: &DeviceConfig) -> VfParams {
        let mut p = base(cfg);
        p.injected_nops = 1;
        p
    }

    /// Experiment 3: self-modifying code with eviction-by-overflow — the
    /// loop exceeds the 128 KiB instruction-cache slice (~8 300
    /// instructions, as the paper's 8 342).
    pub fn exp3(cfg: &DeviceConfig) -> VfParams {
        let mut p = base(cfg);
        p.smc = SmcMode::Evict;
        p.unroll = 305;
        p.iterations = 10;
        p
    }

    /// Experiment 4: experiment 3 plus an inner loop that hides the
    /// instruction-cache misses (and blows up verification cost).
    pub fn exp4(cfg: &DeviceConfig) -> VfParams {
        let mut p = exp3(cfg);
        p.inner = Some((9, 160));
        p.iterations = 4;
        p
    }

    /// Extension experiment (§6.4 proposal): self-modifying code with an
    /// explicit `CCTL` instruction-cache invalidation — small loop, full
    /// utilization.
    pub fn exp5_cctl(cfg: &DeviceConfig) -> VfParams {
        let mut p = base(cfg);
        p.smc = SmcMode::Cctl;
        p
    }

    /// The compiler-style schedule of experiment 1 (§7.1 comparison).
    pub fn exp1_naive(cfg: &DeviceConfig) -> VfParams {
        let mut p = base(cfg);
        p.naive_schedule = true;
        p
    }
}

/// One measured experiment.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Human-readable label.
    pub label: String,
    /// Loop instruction count (Table 1 "instructions").
    pub loop_instructions: usize,
    /// Outer iterations.
    pub iterations: u32,
    /// Inner loop, if any.
    pub inner: Option<(usize, u32)>,
    /// Measured exchange times, cycles (one per run).
    pub samples: Vec<u64>,
    /// Scheduler utilization (fraction of peak issue rate).
    pub utilization: f64,
    /// Fraction of stall cycles attributed to instruction fetch.
    pub ifetch_stall_fraction: f64,
    /// Wall-clock seconds of one verifier replay (the "AMD" column).
    pub verify_seconds: f64,
    /// Modelled enclave verification seconds (the "Intel" column).
    pub verify_seconds_sgx: f64,
}

impl Measurement {
    /// Mean of the samples.
    pub fn t_avg(&self) -> f64 {
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation of the samples.
    pub fn sigma(&self) -> f64 {
        let m = self.t_avg();
        (self
            .samples
            .iter()
            .map(|&s| (s as f64 - m).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64)
            .sqrt()
    }

    /// Minimum sample.
    pub fn t_min(&self) -> u64 {
        *self.samples.iter().min().expect("non-empty")
    }

    /// Simulated seconds at the A100 clock for the mean runtime.
    pub fn t_avg_seconds(&self, cfg: &DeviceConfig) -> f64 {
        cfg.cycles_to_seconds(self.t_avg() as u64)
    }
}

/// Runs one experiment: `runs` timed checksum exchanges (each verified
/// against the replay) plus one instrumented run for utilization, plus a
/// timed verifier replay.
pub fn measure(
    cfg: &DeviceConfig,
    params: &VfParams,
    label: &str,
    runs: usize,
) -> Result<Measurement, sage::SageError> {
    let dev = Device::new(cfg.clone());
    let mut session = GpuSession::install(dev, params, 0xE11A)?;
    let challenges: Vec<[u8; 16]> = (0..params.grid_blocks)
        .map(|b| {
            let mut c = [0u8; 16];
            for (i, byte) in c.iter_mut().enumerate() {
                *byte = (sage_vf::spec::splitmix32(b << 8 | i as u32)) as u8;
            }
            c
        })
        .collect();

    // Timed verifier replay ("AMD" column) and checksum expectation.
    let t0 = Instant::now();
    let expected = expected_checksum(session.build(), &challenges);
    let verify_seconds = t0.elapsed().as_secs_f64();
    let epc = EpcModel::default();
    let working_set = params.data_bytes as u64 + params.total_threads() * 32;
    let verify_seconds_sgx = epc.enclave_seconds(verify_seconds, working_set);

    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (got, measured) = session.run_checksum(&challenges)?;
        if got != expected {
            return Err(sage::SageError::ChecksumMismatch { got, expected });
        }
        samples.push(measured);
    }

    // Instrumented run for utilization and stall breakdown.
    let layout = session.build().layout;
    let (_, stats) = session.dev.run_single(LaunchParams {
        ctx: session.ctx,
        entry_pc: layout.entry_addr(),
        grid_dim: params.grid_blocks,
        block_dim: params.block_threads,
        regs_per_thread: session.build().regs_per_thread(),
        smem_bytes: session.build().smem_bytes(),
        params: vec![],
    })?;

    Ok(Measurement {
        label: label.to_string(),
        loop_instructions: session.build().loop_instructions,
        iterations: params.iterations,
        inner: params.inner,
        samples,
        utilization: stats.utilization(),
        ifetch_stall_fraction: stats.stall_fraction(StallReason::InstructionFetch),
        verify_seconds,
        verify_seconds_sgx,
    })
}

/// The `host` stanza `perfbench` embeds in every report, so a recorded
/// number can always be traced to the machine that produced it
/// (wall-clock figures are meaningless across hosts otherwise). Returns
/// a JSON object: `{"cores": N, "rustc": "rustc 1.x.y (…)"}`.
pub fn host_stanza() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"rustc\": \"{}\"}}",
        rustc.escape_default()
    )
}

/// Renders a list of `(row label, values per column)` as an aligned text
/// table.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).max(8);
    let col_w: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|(_, vals)| vals.get(i).map(|v| v.len()).unwrap_or(0))
                .max()
                .unwrap_or(0)
                .max(c.len())
        })
        .collect();
    print!("{:label_w$}", "");
    for (c, w) in columns.iter().zip(&col_w) {
        print!("  {c:>w$}");
    }
    println!();
    for (label, vals) in rows {
        print!("{label:label_w$}");
        for (v, w) in vals.iter().zip(&col_w) {
            print!("  {v:>w$}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        let cfg = bench_device();
        for p in [
            experiments::exp1(&cfg),
            experiments::exp2(&cfg),
            experiments::exp3(&cfg),
            experiments::exp4(&cfg),
            experiments::exp5_cctl(&cfg),
            experiments::exp1_naive(&cfg),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn exp3_loop_exceeds_l2i() {
        let cfg = bench_device();
        let p = experiments::exp3(&cfg);
        let build = sage_vf::build_vf(&p, 0, 1).unwrap();
        assert!(build.layout.loop_bytes > cfg.l2i_bytes);
        // ~8300 instructions, mirroring the paper's 8342.
        assert!(build.loop_instructions > 8000 && build.loop_instructions < 8700);
    }

    #[test]
    fn exp1_loop_fits_l0i() {
        let cfg = bench_device();
        let p = experiments::exp1(&cfg);
        let build = sage_vf::build_vf(&p, 0, 1).unwrap();
        assert!(build.layout.loop_bytes < cfg.l0i_bytes);
        // ~420 instructions, mirroring the paper's 428.
        assert!(build.loop_instructions > 380 && build.loop_instructions < 470);
    }

    #[test]
    fn measurement_statistics() {
        let m = Measurement {
            label: "x".into(),
            loop_instructions: 1,
            iterations: 1,
            inner: None,
            samples: vec![10, 14],
            utilization: 0.5,
            ifetch_stall_fraction: 0.0,
            verify_seconds: 1.0,
            verify_seconds_sgx: 4.7,
        };
        assert_eq!(m.t_avg(), 12.0);
        assert_eq!(m.sigma(), 2.0);
        assert_eq!(m.t_min(), 10);
    }

    #[test]
    fn quick_measure_smoke() {
        // A drastically reduced config so this stays fast in CI.
        let mut cfg = bench_device();
        cfg.num_sms = 1;
        let mut p = experiments::exp1(&cfg);
        p.grid_blocks = 2;
        p.block_threads = 128;
        p.iterations = 3;
        p.unroll = 4;
        let m = measure(&cfg, &p, "smoke", 2).unwrap();
        assert_eq!(m.samples.len(), 2);
        assert!(m.utilization > 0.0);
        assert!(m.verify_seconds_sgx > m.verify_seconds);
    }
}
