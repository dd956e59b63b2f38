//! The device: memory allocator, contexts, command processor/channels,
//! DMA engine and grid scheduling across SMs.
//!
//! Security-relevant modelling choices (paper §2, §3.3):
//! - contexts share one physical memory with **no isolation**;
//! - the host can read/write device memory directly ([`Device::peek`] /
//!   [`Device::poke`], the MMIO path the adversary uses);
//! - every host↔device transfer and launch command can be observed and
//!   tampered with by an installed [`BusTap`] (the PCIe interposer the
//!   threat model grants the adversary).

use crate::{
    config::DeviceConfig,
    error::{Result, SimError},
    fault::{FaultHook, RunEffects},
    mem::GlobalMemory,
    sm::{JitterRng, PendingBlock, Sm, SmReport},
    stats::KernelStats,
};

/// Opaque context identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ContextId(pub u32);

/// Kernel launch parameters.
#[derive(Clone, Debug)]
pub struct LaunchParams {
    /// Issuing context.
    pub ctx: ContextId,
    /// Entry PC: device byte address of the first instruction.
    pub entry_pc: u32,
    /// Number of thread blocks (x dimension).
    pub grid_dim: u32,
    /// Threads per block (multiple of 32).
    pub block_dim: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Shared memory per block, bytes.
    pub smem_bytes: u32,
    /// Kernel parameters; the device copies them to a parameter block
    /// whose address is placed in `R0` of every thread.
    pub params: Vec<u32>,
}

/// A PCIe interposer: observes and may tamper with every bus-level
/// operation. Installed by the adversary harness (`sage-attacks`).
/// `Send` so a tapped device can migrate across the attestation
/// service's worker threads.
pub trait BusTap: Send {
    /// Host-to-device copy about to be written at `addr`.
    fn on_h2d(&mut self, addr: u32, data: &mut Vec<u8>) {
        let _ = (addr, data);
    }
    /// Device-to-host copy about to be returned from `addr`.
    fn on_d2h(&mut self, addr: u32, data: &mut Vec<u8>) {
        let _ = (addr, data);
    }
    /// A kernel launch command in flight.
    fn on_launch(&mut self, params: &mut LaunchParams) {
        let _ = params;
    }
}

/// Report for one launch after [`Device::run`].
#[derive(Clone, Debug, Default)]
pub struct LaunchReport {
    /// Cycle at which the last block of this launch completed (max over
    /// SMs), measured from the start of the run.
    pub completion_cycle: u64,
    /// Instructions issued on behalf of this launch.
    pub issued: u64,
    /// Number of blocks executed.
    pub blocks: u32,
}

/// Report for a whole [`Device::run`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Aggregated device statistics (all launches).
    pub stats: KernelStats,
    /// Per-launch reports, indexed by the launch id returned from
    /// [`Device::launch`].
    pub launches: Vec<LaunchReport>,
    /// Completion cycle of the whole run.
    pub total_cycles: u64,
    /// Per-SM statistics in `sm_id` order (SMs that received no blocks
    /// are omitted).
    pub per_sm: Vec<(u32, KernelStats)>,
    /// Per-SM issue traces (present when tracing is enabled via
    /// [`Device::set_trace_capacity`]).
    pub traces: Vec<crate::trace::TraceBuffer>,
}

struct ContextInfo {
    #[allow(dead_code)]
    id: ContextId,
}

/// The simulated device.
pub struct Device {
    /// Device configuration (architecture + latencies).
    pub cfg: DeviceConfig,
    /// Device global memory (shared by all contexts).
    pub mem: GlobalMemory,
    alloc_next: u32,
    contexts: Vec<ContextInfo>,
    queued: Vec<LaunchParams>,
    bus_tap: Option<Box<dyn BusTap>>,
    fault_hook: Option<Box<dyn FaultHook>>,
    fault_runs: u64,
    timing_seed: u64,
    hazard_check: bool,
    /// Cycles spent on bus transfers since the last [`Device::take_bus_cycles`].
    bus_cycles: u64,
    launch_counter: usize,
    cycle_limit: u64,
    trace_capacity: Option<usize>,
    telemetry: Option<crate::telemetry::SimTelemetry>,
    /// Bump arena for per-run transient device state (launch parameter
    /// blocks): carved out of device memory lazily on first use, then
    /// *reset* — not reallocated — at every run, so a long-lived device
    /// no longer leaks address space one parameter block per launch.
    param_arena: Option<ParamArena>,
    /// Reusable host staging buffer for parameter-block DMA.
    param_stage: Vec<u8>,
}

/// The per-run parameter-block arena. [`Device::run`] rewinds `cursor`
/// to zero at entry and bumps it per launch; when a run needs more than
/// `capacity`, a larger region is carved and the old one is abandoned
/// (device memory is a bump allocator with no free, so growth is the
/// rare path and steady state allocates nothing).
struct ParamArena {
    base: u32,
    capacity: u32,
    cursor: u32,
}

/// The host's core count, read once per process: each
/// `available_parallelism` call reads cgroup files.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Device {
        let mem = GlobalMemory::new(cfg.gmem_bytes);
        Device {
            mem,
            alloc_next: 4096, // keep null page unmapped
            contexts: Vec::new(),
            queued: Vec::new(),
            bus_tap: None,
            fault_hook: None,
            fault_runs: 0,
            timing_seed: 0x5AEE_D001,
            hazard_check: false,
            bus_cycles: 0,
            launch_counter: 0,
            cycle_limit: 20_000_000_000,
            trace_capacity: None,
            telemetry: None,
            param_arena: None,
            param_stage: Vec::new(),
            cfg,
        }
    }

    /// Attaches this device to a telemetry registry: every subsequent
    /// non-empty [`Device::run`] folds its aggregate issue/stall/cache
    /// stats and fault-hook applications into the registry's `sim_*`
    /// series, which every device on the registry shares. The
    /// per-cycle SM loops are untouched — the cost is a few relaxed
    /// `fetch_add`s per run.
    pub fn install_telemetry(&mut self, reg: &sage_telemetry::Registry) {
        self.telemetry = Some(crate::telemetry::SimTelemetry::new(reg));
    }

    /// Enables per-SM issue tracing on subsequent runs (last `capacity`
    /// issues per SM are retained in the [`RunReport`]).
    pub fn set_trace_capacity(&mut self, capacity: Option<usize>) {
        self.trace_capacity = capacity;
    }

    /// Sets the timing seed (run-to-run jitter; architectural values are
    /// unaffected).
    pub fn set_timing_seed(&mut self, seed: u64) {
        self.timing_seed = seed;
    }

    /// Enables the register-hazard validation checker.
    pub fn set_hazard_check(&mut self, on: bool) {
        self.hazard_check = on;
    }

    /// Sets a cycle budget per [`Device::run`] (runaway protection).
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// Installs a bus interposer (adversary), returning any previous one.
    pub fn install_bus_tap(&mut self, tap: Box<dyn BusTap>) -> Option<Box<dyn BusTap>> {
        self.bus_tap.replace(tap)
    }

    /// Removes the bus interposer.
    pub fn remove_bus_tap(&mut self) -> Option<Box<dyn BusTap>> {
        self.bus_tap.take()
    }

    /// Installs a fault-injection hook (chaos engine), returning any
    /// previous one. Absent by default; when absent, [`Device::run`]
    /// pays a single `Option` check.
    pub fn install_fault_hook(&mut self, hook: Box<dyn FaultHook>) -> Option<Box<dyn FaultHook>> {
        self.fault_hook.replace(hook)
    }

    /// Removes the fault-injection hook.
    pub fn remove_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.fault_hook.take()
    }

    /// Counters of faults the installed hook has applied so far (zeros
    /// when no hook is installed).
    pub fn faults_applied(&self) -> crate::fault::FaultCounters {
        self.fault_hook
            .as_ref()
            .map(|h| h.applied())
            .unwrap_or_default()
    }

    /// Number of non-empty [`Device::run`]s so far (the run index the
    /// fault hook is keyed by).
    pub fn fault_run_index(&self) -> u64 {
        self.fault_runs
    }

    /// Creates a new context. Contexts have no memory isolation from each
    /// other (paper §2).
    pub fn create_context(&mut self) -> ContextId {
        let id = ContextId(self.contexts.len() as u32);
        self.contexts.push(ContextInfo { id });
        id
    }

    /// Allocates `bytes` of device memory (16-byte aligned); returns the
    /// base address.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32> {
        let base = self.alloc_next;
        let aligned = (bytes as u64).div_ceil(16) * 16;
        let end = base as u64 + aligned;
        if end > self.mem.len() as u64 {
            return Err(SimError::OutOfMemory { requested: bytes });
        }
        self.alloc_next = end as u32;
        Ok(base)
    }

    /// Device-memory allocation watermark: the address the next
    /// [`Device::alloc`] would return. Steady-state runs keep this flat
    /// (per-run parameter blocks come from a reused arena); growth
    /// means genuinely new allocations.
    pub fn alloc_watermark(&self) -> u32 {
        self.alloc_next
    }

    /// Copies host bytes to device memory over the (tappable) bus.
    pub fn memcpy_h2d(&mut self, addr: u32, data: &[u8]) -> Result<()> {
        let mut buf = data.to_vec();
        if let Some(tap) = self.bus_tap.as_mut() {
            tap.on_h2d(addr, &mut buf);
        }
        self.bus_cycles += self.transfer_cycles(buf.len());
        self.mem.write_bytes(addr, &buf)
    }

    /// Copies device memory to the host over the (tappable) bus.
    pub fn memcpy_d2h(&mut self, addr: u32, len: u32) -> Result<Vec<u8>> {
        let mut buf = self.mem.read_bytes(addr, len)?.to_vec();
        if let Some(tap) = self.bus_tap.as_mut() {
            tap.on_d2h(addr, &mut buf);
        }
        self.bus_cycles += self.transfer_cycles(buf.len());
        Ok(buf)
    }

    fn transfer_cycles(&self, bytes: usize) -> u64 {
        // One-way latency plus ~16 bytes per cycle of bandwidth.
        self.cfg.lat.pcie as u64 + (bytes as u64) / 16
    }

    /// Direct MMIO read (adversary path: no driver, no tap, no timing).
    pub fn peek(&self, addr: u32, len: u32) -> Result<Vec<u8>> {
        Ok(self.mem.read_bytes(addr, len)?.to_vec())
    }

    /// Direct MMIO write (adversary path).
    pub fn poke(&mut self, addr: u32, data: &[u8]) -> Result<()> {
        self.mem.write_bytes(addr, data)
    }

    /// Returns and clears the accumulated bus-transfer cycles.
    pub fn take_bus_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.bus_cycles)
    }

    /// Queues a kernel launch; returns its launch id within the next
    /// [`Device::run`].
    pub fn launch(&mut self, params: LaunchParams) -> Result<usize> {
        let mut params = params;
        if let Some(tap) = self.bus_tap.as_mut() {
            tap.on_launch(&mut params);
        }
        if params.block_dim == 0 || !params.block_dim.is_multiple_of(32) {
            return Err(SimError::BadLaunch(format!(
                "block_dim {} is not a non-zero multiple of 32",
                params.block_dim
            )));
        }
        if params.grid_dim == 0 {
            return Err(SimError::BadLaunch("grid_dim is zero".into()));
        }
        if self.cfg.blocks_resident_per_sm(
            params.block_dim,
            params.regs_per_thread,
            params.smem_bytes,
        ) == 0
        {
            return Err(SimError::BadLaunch(format!(
                "block of {} threads / {} regs / {} B smem does not fit on an SM",
                params.block_dim, params.regs_per_thread, params.smem_bytes
            )));
        }
        let id = self.queued.len();
        self.queued.push(params);
        Ok(id)
    }

    /// Executes all queued launches to completion and reports statistics.
    ///
    /// Blocks are distributed round-robin over SMs in launch order; each
    /// SM interleaves resident blocks cycle by cycle. SMs are simulated
    /// independently (cross-SM memory ordering is not modelled beyond
    /// commutative atomics — sufficient for every workload in this
    /// reproduction, see DESIGN.md), from a shared claim loop on up to
    /// one worker per host core, the calling thread among them; each SM
    /// fast-forwards through windows where every partition is stalled.
    pub fn run(&mut self) -> Result<RunReport> {
        self.execute(false)
    }

    /// The reference for [`Device::run`]: one SM at a time on the calling
    /// thread, ticking every cycle (no stall fast-forward). Bit-exact with
    /// `run` — same checksums, same per-SM cycle counts, same stall
    /// breakdowns (SMs only interact through commutative global atomics,
    /// and per-SM timing jitter is seeded by `sm_id`, not by scheduling
    /// order). The slow oracle `run` is tested against.
    pub fn run_reference(&mut self) -> Result<RunReport> {
        self.execute(true)
    }

    fn execute(&mut self, reference: bool) -> Result<RunReport> {
        let queued = std::mem::take(&mut self.queued);
        if queued.is_empty() {
            return Ok(RunReport::default());
        }
        let mut per_sm: Vec<Vec<PendingBlock>> = vec![Vec::new(); self.cfg.num_sms as usize];
        let mut launches: Vec<LaunchReport> = vec![LaunchReport::default(); queued.len()];

        // Rewind (or grow) the parameter-block arena for this run. Sizing
        // up front keeps the hot path a pure cursor bump per launch.
        let needed: u32 = queued
            .iter()
            .map(|lp| (lp.params.len() as u32 * 4).max(4).div_ceil(16) * 16)
            .sum();
        match &mut self.param_arena {
            Some(a) if a.capacity >= needed => a.cursor = 0,
            _ => {
                let base = self.alloc(needed)?;
                self.param_arena = Some(ParamArena {
                    base,
                    capacity: needed,
                    cursor: 0,
                });
            }
        }

        let mut rr = 0usize;
        for (launch_id, lp) in queued.iter().enumerate() {
            // Parameter block: bump-allocated from the per-run arena.
            let param_base = {
                let a = self.param_arena.as_mut().expect("arena sized above");
                let base = a.base + a.cursor;
                a.cursor += (lp.params.len() as u32 * 4).max(4).div_ceil(16) * 16;
                base
            };
            self.param_stage.clear();
            self.param_stage
                .extend(lp.params.iter().flat_map(|w| w.to_le_bytes()));
            self.mem.write_bytes(param_base, &self.param_stage)?;
            let submit_cycle = self.cfg.lat.pcie as u64 * (self.launch_counter as u64 + 1);
            self.launch_counter += 1;
            for cta in 0..lp.grid_dim {
                let n_sms = per_sm.len();
                per_sm[rr % n_sms].push(PendingBlock {
                    launch_id,
                    cta_id: cta,
                    block_dim: lp.block_dim,
                    grid_dim: lp.grid_dim,
                    entry_pc: lp.entry_pc,
                    regs_per_thread: lp.regs_per_thread,
                    smem_bytes: lp.smem_bytes,
                    param_base,
                    submit_cycle,
                });
                rr += 1;
            }
        }

        // Chaos engine: consult the fault hook once per run, after all
        // parameter DMA and before any SM starts. Memory faults (bit
        // flips) land now — corrupting code regions also corrupts the
        // icache lines decoded from them this run — while timing faults
        // come back as effects folded into the merge below.
        let effects: RunEffects = match self.fault_hook.as_mut() {
            Some(hook) => {
                let run_index = self.fault_runs;
                self.fault_runs += 1;
                hook.on_run(run_index, &self.mem)
            }
            None => {
                self.fault_runs += 1;
                RunEffects::default()
            }
        };

        // One job per SM that received blocks. All DMA (parameter blocks)
        // is done above, before any SM starts — the command-processor
        // boundary the worker threads synchronise at.
        let jobs: Vec<(u32, Vec<PendingBlock>)> = per_sm
            .into_iter()
            .enumerate()
            .filter(|(_, blocks)| !blocks.is_empty())
            .map(|(sm_id, blocks)| (sm_id as u32, blocks))
            .collect();
        let n_jobs = jobs.len();

        // Everything a worker needs, captured by value or as Sync refs
        // (Device itself is not Sync — the bus tap is an arbitrary boxed
        // trait object).
        let cfg = &self.cfg;
        let mem = &self.mem;
        let timing_seed = self.timing_seed;
        let hazard_check = self.hazard_check;
        let cycle_limit = self.cycle_limit;
        let trace_capacity = self.trace_capacity;
        let run_sm = |sm_id: u32, blocks: Vec<PendingBlock>, fast_forward: bool| {
            let mut sm = Sm::new(cfg, sm_id, blocks, timing_seed, hazard_check);
            sm.set_fast_forward(fast_forward);
            if let Some(cap) = trace_capacity {
                sm.set_trace(cap);
            }
            sm.run(mem, cycle_limit)
        };

        let results: Vec<(u32, Result<SmReport>)> = if reference {
            let mut results = Vec::with_capacity(n_jobs);
            for (sm_id, blocks) in jobs {
                let report = run_sm(sm_id, blocks, false);
                let failed = report.is_err();
                results.push((sm_id, report));
                if failed {
                    break;
                }
            }
            results
        } else {
            // Only a run with blocks on two or more SMs asks for the core
            // count: a one-SM device such as `sim_tiny` runs on the caller.
            let workers = if n_jobs < 2 {
                1
            } else {
                host_cores().min(n_jobs)
            };
            // Workers claim job indices from a shared counter; each
            // result lands in its job's slot, so the merge below is in
            // `sm_id` order no matter which worker ran which SM. The
            // calling thread claims too, so only `workers − 1` helpers
            // are spawned.
            type JobSlot = std::sync::Mutex<Option<(u32, Vec<PendingBlock>)>>;
            let job_slots: Vec<JobSlot> = jobs
                .into_iter()
                .map(|j| std::sync::Mutex::new(Some(j)))
                .collect();
            let next = std::sync::atomic::AtomicUsize::new(0);
            let claim = || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= job_slots.len() {
                        break;
                    }
                    let (sm_id, blocks) = job_slots[i]
                        .lock()
                        .expect("no poisoning")
                        .take()
                        .expect("each job claimed once");
                    local.push((i, sm_id, run_sm(sm_id, blocks, true)));
                }
                local
            };
            let collected: Vec<(usize, u32, Result<SmReport>)> = std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
                let mut collected = claim();
                for h in helpers {
                    collected.extend(h.join().expect("SM worker panicked"));
                }
                collected
            });
            let mut results: Vec<Option<(u32, Result<SmReport>)>> = Vec::new();
            results.resize_with(n_jobs, || None);
            for (i, sm_id, report) in collected {
                results[i] = Some((sm_id, report));
            }
            results
                .into_iter()
                .map(|r| r.expect("every job produced a report"))
                .collect()
        };

        // Deterministic merge in sm_id order (errors propagate in the
        // same order regardless of which worker hit them first).
        let mut stats = KernelStats::default();
        let mut total_cycles = 0u64;
        let mut traces = Vec::new();
        let mut per_sm_stats = Vec::new();
        for (sm_id, report) in results {
            let mut report = report?;
            // Injected SM stall: the whole SM finishes `stall` cycles
            // later, so its cycle count and every launch completion it
            // contributed to move together.
            let stall = effects.stall_for(sm_id);
            report.stats.cycles += stall;
            total_cycles = total_cycles.max(report.stats.cycles);
            per_sm_stats.push((sm_id, report.stats.clone()));
            stats.merge(&report.stats);
            if let Some(t) = report.trace {
                traces.push(t);
            }
            for (launch_id, local) in report.launches {
                let lr = &mut launches[launch_id];
                lr.completion_cycle = lr.completion_cycle.max(local.completion + stall);
                lr.issued += local.issued;
                lr.blocks += local.blocks;
            }
        }
        // Injected clock skew: every completion the host observes is
        // shifted by the same amount (the device counter itself lies).
        if effects.clock_skew > 0 {
            total_cycles += effects.clock_skew;
            for lr in launches.iter_mut().filter(|lr| lr.blocks > 0) {
                lr.completion_cycle += effects.clock_skew;
            }
        }
        stats.cycles = total_cycles;
        self.launch_counter = 0;
        if let Some(t) = self.telemetry.as_mut() {
            let faults = self
                .fault_hook
                .as_ref()
                .map(|h| h.applied())
                .unwrap_or_default();
            t.observe_run(&stats, faults);
        }
        Ok(RunReport {
            stats,
            launches,
            total_cycles,
            per_sm: per_sm_stats,
            traces,
        })
    }

    /// Convenience: queue one launch and run it alone; returns its report
    /// plus the global stats.
    pub fn run_single(&mut self, params: LaunchParams) -> Result<(LaunchReport, KernelStats)> {
        let id = self.launch(params)?;
        let report = self.run()?;
        Ok((report.launches[id].clone(), report.stats))
    }

    /// A deterministic jitter source derived from the device timing seed
    /// (used by host-side latency modelling in higher layers).
    pub fn jitter(&self) -> JitterRng {
        JitterRng::new(self.timing_seed ^ 0xDEAD_10CC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_isa::ProgramBuilder;
    use sage_isa::Reg;

    fn device() -> Device {
        Device::new(DeviceConfig::sim_tiny())
    }

    /// Kernel: out[tid] = tid * 3 + cta_id, with out base in params[0].
    fn simple_kernel(dev: &mut Device) -> (u32, u32) {
        let out = dev.alloc(4096).unwrap();
        let mut b = ProgramBuilder::new();
        // R0 = param base (ABI). Load out-base into R1.
        b.ctrl(sage_isa::CtrlInfo::stall(1).with_write_bar(0));
        b.ldg(Reg(1), Reg(0), 0);
        b.s2r(Reg(2), sage_isa::SpecialReg::TidX);
        b.s2r(Reg(3), sage_isa::SpecialReg::CtaIdX);
        b.imad(Reg(4), Reg(2), 3u32.into(), Reg(3)); // tid*3 + cta
                                                     // addr = out + 4*(tid + cta*blockdim)
        b.s2r(Reg(5), sage_isa::SpecialReg::NTidX);
        b.imad(Reg(6), Reg(3), Reg(5).into(), Reg(2)); // cta*ntid + tid
        b.ctrl(sage_isa::CtrlInfo::stall(1).with_wait(0));
        b.lea(Reg(7), Reg(6), Reg(1).into(), 2); // out + 4*idx
        b.stg(Reg(7), 0, Reg(4));
        b.exit();
        let prog = b.build().unwrap();
        let code = dev.alloc(prog.byte_len() as u32).unwrap();
        dev.memcpy_h2d(code, &prog.encode()).unwrap();
        (code, out)
    }

    #[test]
    fn end_to_end_kernel_execution() {
        let mut dev = device();
        let ctx = dev.create_context();
        let (code, out) = simple_kernel(&mut dev);
        let (report, stats) = dev
            .run_single(LaunchParams {
                ctx,
                entry_pc: code,
                grid_dim: 4,
                block_dim: 64,
                regs_per_thread: 8,
                smem_bytes: 0,
                params: vec![out],
            })
            .unwrap();
        assert_eq!(report.blocks, 4);
        assert!(report.completion_cycle > 0);
        assert!(stats.issued_total() > 0);
        let bytes = dev.memcpy_d2h(out, 4 * 64 * 4).unwrap();
        for cta in 0..4u32 {
            for tid in 0..64u32 {
                let idx = (cta * 64 + tid) as usize;
                let v = u32::from_le_bytes(bytes[idx * 4..idx * 4 + 4].try_into().unwrap());
                assert_eq!(v, tid * 3 + cta, "cta {cta} tid {tid}");
            }
        }
    }

    #[test]
    fn telemetry_fold_exports_opcode_dispatch_mix() {
        let mut dev = device();
        let reg = sage_telemetry::Registry::new();
        dev.install_telemetry(&reg);
        let ctx = dev.create_context();
        let (code, out) = simple_kernel(&mut dev);
        dev.run_single(LaunchParams {
            ctx,
            entry_pc: code,
            grid_dim: 4,
            block_dim: 64,
            regs_per_thread: 8,
            smem_bytes: 0,
            params: vec![out],
        })
        .unwrap();
        let series = reg.collect();
        let opcode_series: Vec<_> = series
            .iter()
            .filter(|(name, _, _)| name == "sim_opcode_issues_total")
            .collect();
        // The kernel issues IMAD, S2R, LDG, STG, LEA, EXIT — all within
        // the top-8 cut, each a distinct labeled series.
        assert!(
            opcode_series.len() >= 5,
            "expected a dispatch mix, got {opcode_series:?}"
        );
        let imad = opcode_series
            .iter()
            .find(|(_, labels, _)| labels.iter().any(|(k, v)| k == "opcode" && v == "IMAD"))
            .expect("IMAD series present");
        match imad.2 {
            sage_telemetry::MetricValue::Counter(n) => assert!(n > 0),
            ref v => panic!("unexpected metric value {v:?}"),
        }
    }

    #[test]
    fn launch_validation() {
        let mut dev = device();
        let ctx = dev.create_context();
        let bad = LaunchParams {
            ctx,
            entry_pc: 0,
            grid_dim: 1,
            block_dim: 48, // not a multiple of 32
            regs_per_thread: 8,
            smem_bytes: 0,
            params: vec![],
        };
        assert!(matches!(dev.launch(bad), Err(SimError::BadLaunch(_))));
        let too_big = LaunchParams {
            ctx,
            entry_pc: 0,
            grid_dim: 1,
            block_dim: 1024, // tiny device: max 256 threads/SM
            regs_per_thread: 8,
            smem_bytes: 0,
            params: vec![],
        };
        assert!(dev.launch(too_big).is_err());
    }

    #[test]
    fn allocation_bounds() {
        let mut dev = device();
        let a = dev.alloc(100).unwrap();
        let b = dev.alloc(100).unwrap();
        assert!(b >= a + 100);
        assert_eq!(b % 16, 0);
        assert!(dev.alloc(u32::MAX).is_err());
    }

    #[test]
    fn repeated_runs_reuse_the_param_arena() {
        let mut dev = device();
        let ctx = dev.create_context();
        let (code, out) = simple_kernel(&mut dev);
        let lp = || LaunchParams {
            ctx,
            entry_pc: code,
            grid_dim: 2,
            block_dim: 32,
            regs_per_thread: 8,
            smem_bytes: 0,
            params: vec![out],
        };
        dev.run_single(lp()).unwrap();
        let after_first = dev.alloc_watermark();
        for _ in 0..5 {
            dev.run_single(lp()).unwrap();
        }
        assert_eq!(
            dev.alloc_watermark(),
            after_first,
            "steady-state runs must not grow device memory (arena reuse)"
        );
    }

    #[test]
    fn bus_tap_sees_and_tampers_transfers() {
        struct FlipTap;
        impl BusTap for FlipTap {
            fn on_h2d(&mut self, _addr: u32, data: &mut Vec<u8>) {
                for b in data.iter_mut() {
                    *b ^= 0xFF;
                }
            }
        }
        let mut dev = device();
        let buf = dev.alloc(16).unwrap();
        dev.install_bus_tap(Box::new(FlipTap));
        dev.memcpy_h2d(buf, &[0x00, 0x0F]).unwrap();
        assert_eq!(dev.peek(buf, 2).unwrap(), vec![0xFF, 0xF0]);
        dev.remove_bus_tap();
        dev.memcpy_h2d(buf, &[0x00, 0x0F]).unwrap();
        assert_eq!(dev.peek(buf, 2).unwrap(), vec![0x00, 0x0F]);
    }

    #[test]
    fn mmio_poke_bypasses_everything() {
        let mut dev = device();
        let buf = dev.alloc(16).unwrap();
        dev.poke(buf, &[1, 2, 3]).unwrap();
        assert_eq!(dev.peek(buf, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = |seed: u64| {
            let mut dev = device();
            let ctx = dev.create_context();
            dev.set_timing_seed(seed);
            let (code, out) = simple_kernel(&mut dev);
            let (report, _) = dev
                .run_single(LaunchParams {
                    ctx,
                    entry_pc: code,
                    grid_dim: 2,
                    block_dim: 64,
                    regs_per_thread: 8,
                    smem_bytes: 0,
                    params: vec![out],
                })
                .unwrap();
            report.completion_cycle
        };
        assert_eq!(run(7), run(7));
        // Different seeds shift timing (jitter), not semantics.
        // Completion may or may not differ across seeds; both runs just
        // must not panic.
        let _ = (run(7), run(8));
    }

    #[test]
    fn two_launches_share_the_device() {
        let mut dev = device();
        let ctx = dev.create_context();
        let (code, out) = simple_kernel(&mut dev);
        let mk = |params: Vec<u32>| LaunchParams {
            ctx,
            entry_pc: code,
            grid_dim: 2,
            block_dim: 64,
            regs_per_thread: 8,
            smem_bytes: 0,
            params,
        };
        let id0 = dev.launch(mk(vec![out])).unwrap();
        let out2 = dev.alloc(4096).unwrap();
        let id1 = dev.launch(mk(vec![out2])).unwrap();
        let report = dev.run().unwrap();
        assert_eq!(report.launches.len(), 2);
        assert!(report.launches[id0].completion_cycle > 0);
        assert!(report.launches[id1].completion_cycle > 0);
        // Both wrote their buffers.
        assert_eq!(dev.peek(out, 8).unwrap(), dev.peek(out2, 8).unwrap());
    }

    #[test]
    fn deadlock_is_detected() {
        // A kernel where one warp waits at a barrier that a second warp
        // never reaches (it exited).
        let mut dev = device();
        let ctx = dev.create_context();
        let mut b = ProgramBuilder::new();
        b.s2r(Reg(1), sage_isa::SpecialReg::WarpId);
        b.isetp(
            sage_isa::PredReg(0),
            sage_isa::CmpOp::Ne,
            Reg(1),
            0u32.into(),
        );
        // Warp 0 waits at the barrier; the others exit: with warps_done
        // accounting the barrier then releases — so instead warp 1+ spins
        // forever at a *second* barrier warp 0 never reaches.
        b.pred(sage_isa::Pred::on(sage_isa::PredReg(0)));
        b.bra("spin");
        b.bar_sync();
        b.exit();
        b.label("spin");
        b.bra("spin");
        let prog = b.build().unwrap();
        let code = dev.alloc(prog.byte_len() as u32).unwrap();
        dev.memcpy_h2d(code, &prog.encode()).unwrap();
        dev.set_cycle_limit(200_000);
        let r = dev.run_single(LaunchParams {
            ctx,
            entry_pc: code,
            grid_dim: 1,
            block_dim: 64,
            regs_per_thread: 8,
            smem_bytes: 0,
            params: vec![],
        });
        assert!(matches!(
            r,
            Err(SimError::Deadlock { .. }) | Err(SimError::CycleLimit { .. })
        ));
    }
}
