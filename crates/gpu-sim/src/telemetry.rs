//! The simulator's telemetry adapter.
//!
//! The per-SM hot loops keep accumulating into plain-`u64`
//! [`KernelStats`](crate::stats::KernelStats) — zero atomics inside a
//! simulated cycle — and this adapter folds each finished run's
//! aggregate into shared [`sage_telemetry`] instruments once, at
//! [`Device::run`](crate::Device::run) exit. That keeps instrumentation
//! off the simulation's critical path entirely: the cost is a handful
//! of relaxed `fetch_add`s per *run*, not per cycle.
//!
//! Fault-hook applications arrive as cumulative
//! [`FaultCounters`](crate::fault::FaultCounters); the adapter exports
//! deltas so the `sim_faults_applied_total` series counts events like
//! every other counter.

use sage_telemetry::{Counter, Histogram, Registry};

use crate::fault::FaultCounters;
use crate::stats::{KernelStats, StallReason};

/// Pipeline labels, in [`KernelStats`] field order.
const PIPES: [&str; 4] = ["fma", "alu", "mem", "control"];
/// Instruction-cache level labels.
const ICACHE_LEVELS: [&str; 3] = ["l0", "l1", "l2"];
/// Global-memory operation labels.
const GMEM_OPS: [&str; 3] = ["load", "store", "atomic"];
/// Fault-kind labels, in [`FaultCounters`] field order.
const FAULT_KINDS: [&str; 3] = ["flip", "stall", "skew"];

/// One device's handles on the fleet's shared simulator instruments.
pub(crate) struct SimTelemetry {
    runs: Counter,
    run_cycles: Histogram,
    issued: [Counter; 4],
    stalls: [Counter; 6],
    slot_cycles: Counter,
    icache_hits: [Counter; 3],
    icache_fills: Counter,
    gmem: [Counter; 3],
    smem: Counter,
    barriers: Counter,
    faults: [Counter; 3],
    /// Cumulative fault counters at the previous observation, for
    /// delta export.
    last_faults: FaultCounters,
    /// Registry handle for series whose label set is only known at
    /// fold time (the per-opcode dispatch counters).
    reg: Registry,
}

/// How many of a run's most-issued opcodes are exported as labeled
/// `sim_opcode_issues_total` counters at each fold.
const TOP_OPCODES: usize = 8;

impl SimTelemetry {
    /// Gets the fleet's simulator series. They carry no device label,
    /// so every device on the registry shares one set.
    pub(crate) fn new(reg: &Registry) -> SimTelemetry {
        SimTelemetry {
            runs: reg.counter("sim_runs_total", &[]),
            run_cycles: reg.histogram("sim_run_cycles", &[]),
            issued: PIPES.map(|p| reg.counter("sim_issued_total", &[("pipe", p)])),
            stalls: StallReason::ALL
                .map(|r| reg.counter("sim_stall_cycles_total", &[("reason", r.label())])),
            slot_cycles: reg.counter("sim_slot_cycles_total", &[]),
            icache_hits: ICACHE_LEVELS
                .map(|l| reg.counter("sim_icache_hits_total", &[("level", l)])),
            icache_fills: reg.counter("sim_icache_mem_fills_total", &[]),
            gmem: GMEM_OPS.map(|k| reg.counter("sim_gmem_ops_total", &[("kind", k)])),
            smem: reg.counter("sim_smem_accesses_total", &[]),
            barriers: reg.counter("sim_barriers_total", &[]),
            faults: FAULT_KINDS.map(|k| reg.counter("sim_faults_applied_total", &[("kind", k)])),
            last_faults: FaultCounters::default(),
            reg: reg.clone(),
        }
    }

    /// Folds one finished run's aggregate stats and the device's
    /// cumulative fault counters into the shared instruments.
    pub(crate) fn observe_run(&mut self, stats: &KernelStats, faults: FaultCounters) {
        self.runs.inc();
        self.run_cycles.record(stats.cycles);
        for (c, n) in self.issued.iter().zip([
            stats.issued_fma,
            stats.issued_alu,
            stats.issued_mem,
            stats.issued_control,
        ]) {
            c.add(n);
        }
        for (c, &n) in self.stalls.iter().zip(&stats.stalls) {
            c.add(n);
        }
        self.slot_cycles.add(stats.slot_cycles);
        for (c, &n) in self.icache_hits.iter().zip(&stats.icache_hits) {
            c.add(n);
        }
        self.icache_fills.add(stats.icache_mem_fills);
        for (c, n) in
            self.gmem
                .iter()
                .zip([stats.gmem_loads, stats.gmem_stores, stats.gmem_atomics])
        {
            c.add(n);
        }
        self.smem.add(stats.smem_accesses);
        self.barriers.add(stats.barriers);
        // Per-opcode dispatch mix: the run's top-issued opcodes, as
        // labeled counters. Minted lazily (get-or-create) because the
        // label set depends on the workload; the registry dedupes, so a
        // stable mix costs no new series after the first run.
        for (op, n) in stats.top_opcodes(TOP_OPCODES) {
            self.reg
                .counter("sim_opcode_issues_total", &[("opcode", op.mnemonic())])
                .add(n);
        }
        for (c, (now, before)) in self.faults.iter().zip([
            (faults.flips, self.last_faults.flips),
            (faults.stalls, self.last_faults.stalls),
            (faults.skews, self.last_faults.skews),
        ]) {
            c.add(now.saturating_sub(before));
        }
        self.last_faults = faults;
    }
}
