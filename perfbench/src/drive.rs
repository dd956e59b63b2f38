//! The one driver every workload runs through, over whichever transport
//! its [`Bed`] provides. Every run has the same shape:
//!
//! 1. **Setup**, repeated `setups` times (the median is reported): build
//!    every device (VF codegen + install), the service, the telemetry
//!    registry and the transport, and attach the devices; then
//!    **enroll** the whole fleet (enclave launch + join). Large fleets
//!    do every setup up front and keep the last; small ones keep the
//!    first and build the rest between steady-phase blocks.
//! 2. **Warm-up** to a fixed virtual time.
//! 3. **Steady phase**: a fixed, seed-deterministic number of blocks,
//!    each one evidence epoch long, so every run of a given seed does
//!    identical work. Each block is timed on its own; after it, a
//!    relying-party audit issues and verifies `DeviceReport`s for a
//!    fixed device sample (timed separately from the rounds).
//! 4. **Checks** after timing: device states, cheaters, telemetry
//!    against the event log, and (on SimNet) the determinism
//!    fingerprint.
//!
//! With `--trace 1` on a bed that records spans, the blocks alternate
//! untraced and traced, so one run yields both the per-layer
//! attribution and the tracing overhead.
//!
//! The end-to-end figures are timed on CPU-time clocks, not the wall
//! clock: set-up, enrollment and rounds on the process clock (every
//! thread, device links included), audits on the calling thread's. On
//! a shared host a thread that waits for a CPU, or whose vCPU is
//! stolen, loses wall time that says nothing about the program; the
//! CPU clocks leave that out and keep everything the program computes,
//! syscalls and thread hand-offs included. Per-call and per-layer
//! figures stay on the wall clock.

use std::sync::Arc;
use std::time::Instant;

use sage::multi::FleetMember;
use sage_crypto::DhGroup;
use sage_evidence::verify_report;
use sage_service::{
    AttestationService, Counters, DeviceState, EventKind, FailReason, NodeId, ServiceConfig,
    SimNet, Transport, VerifierBehavior, VERIFIER_NODE,
};
use sage_sgx_sim::{Enclave, SgxPlatform};
use sage_telemetry::{MetricValue, Registry};

use crate::common::{self, secs, DeviceKind};
use crate::report::Report;
use crate::trace::{self, NetCounts, Spans};
use crate::workload::Spec;
use crate::Args;

/// Epochs run after timing, at most, for every cheater to reach
/// `Quarantined`.
const MAX_DRAIN_EPOCHS: u64 = 400;

/// A built and enrolled fleet.
pub struct Fleet<B: Bed> {
    pub svc: AttestationService<B::Net>,
    pub reg: Registry,
    pub ids: Vec<NodeId>,
    pub links: B::Links,
}

/// What a transport adds to the shared driver: how devices attach and
/// join, how the service is advanced, and what only it can check.
pub trait Bed: Sized {
    /// The transport the service runs over.
    type Net: Transport;
    /// What keeps a fleet's devices attached (device links on sockets).
    type Links;
    /// Whether a run's history is fixed by its seed alone; such runs
    /// print the determinism fingerprint.
    const SIMULATED: bool;

    /// Adjusts a freshly built device before it joins (bus taps); the
    /// device will be node `node`.
    fn tap(&self, _member: &mut FleetMember, _node: u16) {}

    /// Builds the transport and the service over it, and attaches the
    /// devices. Timed as part of the setup.
    fn open(
        &mut self,
        spec: &Spec,
        cfg: &ServiceConfig,
        seed: u64,
        report: &mut Report,
    ) -> (AttestationService<Self::Net>, Registry, Self::Links);

    /// Enrolls one device.
    fn join(
        &mut self,
        svc: &mut AttestationService<Self::Net>,
        member: FleetMember,
        enclave: Enclave,
    ) -> NodeId;

    /// Runs the service to virtual time `at`.
    fn advance(&mut self, svc: &mut AttestationService<Self::Net>, at: u64);

    /// The simulated network, for per-link profiles.
    fn sim_mut(_net: &mut Self::Net) -> Option<&mut SimNet> {
        None
    }

    /// What the transport carried over the attributed blocks, and the
    /// frame mix for the wire replay. `started` and `responses` are the
    /// rounds those blocks started and got answers for.
    fn traffic(
        &self,
        svc: &AttestationService<Self::Net>,
        kind: DeviceKind,
        started: u64,
        responses: u64,
    ) -> (NetCounts, Vec<Vec<u8>>);

    /// Drops a setup the steady phase does not run.
    fn retire(&mut self, fleet: Fleet<Self>) {
        drop(fleet);
    }

    /// Shuts the steady-phase fleet down after timing, with the
    /// transport's own gates and per-layer metrics. `step_us` is the
    /// attributed blocks' wall per verdict.
    fn finish(&mut self, fleet: Fleet<Self>, report: &mut Report, step_us: f64) {
        let _ = (report, step_us);
        self.retire(fleet);
    }
}

/// A service over `net` with telemetry attached.
pub fn service<T: Transport>(cfg: &ServiceConfig, net: T) -> (AttestationService<T>, Registry) {
    let mut svc = AttestationService::new(*cfg, DhGroup::test_group(), net);
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    (svc, reg)
}

/// Verdicts (pass + fail) recorded so far.
fn judged(c: &Counters) -> u64 {
    c.rounds_passed + c.value_rejects + c.timing_rejects + c.timeouts + c.relay_rejects
}

/// Events recorded so far (the ring may have evicted some).
fn events_total<T: Transport>(svc: &AttestationService<T>) -> u64 {
    svc.log().events().len() as u64 + svc.log().events_dropped()
}

/// Sum of every chain's length at the newest seal.
fn sealed_records<T: Transport>(svc: &AttestationService<T>) -> u64 {
    svc.sealed_epochs()
        .last()
        .map_or(0, |e| e.leaves.iter().map(|l| l.seq).sum())
}

/// The exported total of every series named `name`.
fn counter_total(reg: &Registry, name: &str) -> u64 {
    reg.collect()
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// Gate: the telemetry totals must agree with the event log's counters.
fn check_telemetry(report: &mut Report, reg: &Registry, counters: &Counters) {
    for (series, log) in [
        ("service_rounds_passed_total", counters.rounds_passed),
        ("service_rounds_started_total", counters.rounds_started),
        ("service_devices_joined_total", counters.joins),
    ] {
        let exported = counter_total(reg, series);
        report.gate(exported == log, || {
            format!("telemetry {series} = {exported} but the event log counts {log}")
        });
    }
}

/// Audit timings of one block.
#[derive(Default)]
struct Audit {
    /// CPU seconds the audit took on the calling thread.
    cpu: f64,
    /// Reports that were not issued or did not verify.
    failed: u64,
    /// Per-report `report_for` wall, µs.
    query_us: Vec<f64>,
    /// Per-report `verify_report` wall, µs.
    verify_us: Vec<f64>,
}

/// The relying party's audit: issue each sampled device's report and
/// verify it against the newest sealed root, with its evidence key.
fn audit<T: Transport>(svc: &AttestationService<T>, audited: &[(String, [u8; 16])]) -> Audit {
    let mut a = Audit::default();
    let root = svc.sealed_epochs().last().map_or([0; 32], |e| e.root);
    let now = svc.now();
    let c = common::thread_cpu_s();
    for (name, key) in audited {
        let t0 = Instant::now();
        let rep = svc.report_for(name);
        let t1 = Instant::now();
        let ok = rep.is_some_and(|r| verify_report(&r, &root, key, now).is_ok());
        let t2 = Instant::now();
        a.query_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        a.verify_us.push(t2.duration_since(t1).as_secs_f64() * 1e6);
        a.failed += u64::from(!ok);
    }
    a.cpu = common::thread_cpu_s() - c;
    a
}

/// The audited devices (spread evenly over the fleet) with the
/// evidence keys a relying party holds for them.
fn audited_devices<T: Transport>(
    svc: &AttestationService<T>,
    fleet: usize,
    sample: usize,
) -> Vec<(String, [u8; 16])> {
    (0..sample)
        .map(|k| {
            let name = common::device_name(k * fleet / sample);
            let key = svc.evidence_key_of(&name).expect("audited device is keyed");
            (name, key)
        })
        .collect()
}

/// One timed block of the steady phase.
struct Block {
    traced: bool,
    /// Wall seconds (per-layer attribution).
    wall: f64,
    /// Process CPU seconds (the end-to-end rate).
    cpu: f64,
    judged: u64,
    started: u64,
    timeouts: u64,
}

/// What the repeated setups measured: one sample per setup (or per
/// device for the per-call figures).
#[derive(Default)]
struct Setups {
    /// Process CPU seconds per setup.
    setup_s: Vec<f64>,
    /// Devices admitted per process CPU second of enrollment.
    enroll_rate: Vec<f64>,
    install_us: Vec<f64>,
    launch_us: Vec<f64>,
    join_us: Vec<f64>,
    minflt_per_enroll: Vec<f64>,
}

impl Setups {
    /// Builds a fleet (timed as one setup) and enrolls it (timed as one
    /// enrollment), gating that every device was admitted.
    fn build<B: Bed>(
        &mut self,
        bed: &mut B,
        spec: &Spec,
        cfg: &ServiceConfig,
        seed: u64,
        report: &mut Report,
    ) -> Fleet<B> {
        let n = spec.devices;
        let c = common::process_cpu_s();
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let ti = Instant::now();
            let mut m = common::member(spec.kind, i, seed);
            self.install_us.push(secs(ti) * 1e6);
            // Devices join in index order, so device i is node i + 1.
            bed.tap(&mut m, i as u16 + 1);
            members.push(m);
        }
        let (mut svc, reg, links) = bed.open(spec, cfg, seed, report);
        self.setup_s.push(common::process_cpu_s() - c);

        let platform = SgxPlatform::new([7u8; 16]);
        let flt0 = common::minor_faults();
        let c = common::process_cpu_s();
        let mut ids = Vec::with_capacity(n);
        for (i, m) in members.into_iter().enumerate() {
            let t0 = Instant::now();
            let e = common::enclave(&platform, i, seed);
            let t1 = Instant::now();
            ids.push(bed.join(&mut svc, m, e));
            self.launch_us
                .push(t1.duration_since(t0).as_secs_f64() * 1e6);
            self.join_us.push(secs(t1) * 1e6);
        }
        self.enroll_rate.push(n as f64 / (common::process_cpu_s() - c));
        let flt1 = common::minor_faults();
        self.minflt_per_enroll
            .push(flt1.saturating_sub(flt0) as f64 / n as f64);

        let refused = svc.log().counters().quarantines;
        report.attempted += n as u64;
        report.failed += refused;
        report.gate(refused == 0, || {
            format!("{refused} of {n} enrollments were not admitted")
        });
        Fleet {
            svc,
            reg,
            ids,
            links,
        }
    }
}

/// Runs one workload on `bed`. `spans` is the span store when the bed
/// records spans (traced SimNet runs).
pub fn drive<B: Bed>(spec: &Spec, args: &Args, mut bed: B, spans: Option<Arc<Spans>>) -> Report {
    let seed = args.seed;
    let n = spec.devices;
    let cfg = spec.config(seed);
    let epoch = cfg.epoch_interval;
    let mut report = Report::default();

    // ---- setup + enrollment, repeated ------------------------------------
    // Small fleets spread their extra setups over the steady phase, so
    // the samples straddle host-noise episodes; large ones build them
    // all up front, one fleet in memory at a time.
    let mut su = Setups::default();
    let up_front = if spec.interleave_setups {
        1
    } else {
        spec.setups
    };
    let mut kept: Option<Fleet<B>> = None;
    for _ in 0..up_front {
        if let Some(old) = kept.take() {
            bed.retire(old);
        }
        kept = Some(su.build(&mut bed, spec, &cfg, seed, &mut report));
    }
    let mut fleet = kept.expect("at least one setup");

    // ---- warm-up, then plant the adversary ---------------------------------
    let phase = (epoch as f64 * spec.block_phase) as u64;
    let mut at = spec.warmup_epochs * epoch + phase;
    bed.advance(&mut fleet.svc, at);
    let mut cheaters: Vec<(usize, u64)> = Vec::new(); // (index, rounds banked)
    if let Some(b) = &spec.byzantine {
        let svc = &mut fleet.svc;
        let statuses = svc.statuses();
        for i in (0..n).filter(|&i| spec.is_cheater(i)) {
            let name = common::device_name(i);
            let banked = statuses
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.rounds_passed);
            let node = svc.node_mut(&name).expect("cheater is managed");
            if cheaters.len().is_multiple_of(2) {
                node.extra_compute = b.slow_cycles;
            } else {
                node.relay_delay = b.relay_delay;
            }
            let net = B::sim_mut(svc.transport_mut()).expect("byzantine runs on SimNet");
            net.set_link(VERIFIER_NODE, fleet.ids[i], b.cheater_link);
            net.set_link(fleet.ids[i], VERIFIER_NODE, b.cheater_link);
            cheaters.push((i, banked));
        }
        svc.quorum_mut()
            .expect("byzantine runs a quorum")
            .set_behavior(b.liar, VerifierBehavior::Invert);
    }

    // The relying party holds each audited device's evidence key.
    let audited = audited_devices(&fleet.svc, n, spec.audit_sample);

    // ---- steady phase -------------------------------------------------------
    let epochs = ((args.seconds as f64 * spec.epochs_per_second).ceil() as u64).max(4);
    let c0 = fleet.svc.log().counters();
    let ev0 = events_total(&fleet.svc);
    let rec0 = (sealed_records(&fleet.svc), judged(&c0));
    let setup_every = (epochs / spec.setups as u64).max(1);
    let mut blocks = Vec::with_capacity(epochs as usize);
    let mut audits = (0u64, 0.0); // (reports, CPU seconds)
    let mut query_us = Vec::new();
    let mut verify_us = Vec::new();
    let mut audits_failed = 0u64;
    for b in 0..epochs {
        let traced = spans.is_some() && b % 2 == 1;
        if let Some(sp) = &spans {
            sp.set_on(traced);
        }
        let before = fleet.svc.log().counters();
        at += epoch;
        let c = common::process_cpu_s();
        let t = Instant::now();
        bed.advance(&mut fleet.svc, at);
        let wall = secs(t);
        let cpu = common::process_cpu_s() - c;

        if let Some(sp) = &spans {
            sp.set_on(false);
        }
        let after = fleet.svc.log().counters();
        blocks.push(Block {
            traced,
            wall,
            cpu,
            judged: judged(&after) - judged(&before),
            started: after.rounds_started - before.rounds_started,
            timeouts: after.timeouts - before.timeouts,
        });

        let a = audit(&fleet.svc, &audited);
        audits.0 += audited.len() as u64;
        audits.1 += a.cpu;
        audits_failed += a.failed;
        query_us.extend(a.query_us);
        verify_us.extend(a.verify_us);
        if su.setup_s.len() < spec.setups && (b + 1) % setup_every == 0 {
            let extra = su.build(&mut bed, spec, &cfg, seed, &mut report);
            bed.retire(extra);
        }
    }
    eprintln!(
        "{}: setup {:.4} CPU s, enroll {:.0}/CPU s (medians of {})",
        spec.name,
        common::median(&su.setup_s),
        common::median(&su.enroll_rate),
        su.setup_s.len()
    );
    let threads = common::threads();
    let c1 = fleet.svc.log().counters();
    let ev1 = events_total(&fleet.svc);
    let rec1 = (sealed_records(&fleet.svc), judged(&c1));
    let timed_rounds: u64 = blocks.iter().map(|b| b.judged).sum();
    report.attempted += audited.len() as u64 * epochs;
    report.failed += audits_failed;
    report.gate(audits_failed == 0, || {
        format!("{audits_failed} audited reports failed verify_report")
    });
    report.gate(timed_rounds > 0, || {
        "the timed phase judged no rounds".into()
    });

    // ---- post-timing checks -------------------------------------------------
    if spec.byzantine.is_some() {
        let mut drained = 0;
        while fleet.svc.log().counters().quarantines < cheaters.len() as u64
            && drained < MAX_DRAIN_EPOCHS
        {
            at += epoch;
            bed.advance(&mut fleet.svc, at);
            drained += 1;
        }
        eprintln!(
            "{}: cheaters settled {drained} epochs after timing",
            spec.name
        );
    }
    let svc = &fleet.svc;
    let statuses = svc.statuses();
    let counters = svc.log().counters();
    let cheater_names: Vec<String> = cheaters
        .iter()
        .map(|&(i, _)| common::device_name(i))
        .collect();
    for &(i, banked) in &cheaters {
        let name = common::device_name(i);
        let s = statuses
            .iter()
            .find(|s| s.name == name)
            .expect("cheater status");
        // One honest round may have been in flight at planting time.
        report.gate(s.rounds_passed <= banked + 1, || {
            format!(
                "false accept: cheater {name} passed {} rounds after planting",
                s.rounds_passed - banked
            )
        });
        report.gate(s.state == DeviceState::Quarantined, || {
            format!("cheater {name} ended {}", s.state)
        });
    }
    let honest_untrusted = statuses
        .iter()
        .filter(|s| !cheater_names.contains(&s.name) && s.state != DeviceState::Trusted)
        .count();
    report.gate(honest_untrusted == 0, || {
        format!("{honest_untrusted} honest devices are not Trusted at the end")
    });
    check_telemetry(&mut report, &fleet.reg, &counters);

    // Operations: every round started; an honest round fails if it ended
    // in a failure verdict. A timing-only reject the §7.2 rule restarts
    // is a re-measurement: the restart and the round it re-measures are
    // one operation, failed only if the re-measurement fails.
    let (honest_failed, honest_restarts) = if cheaters.is_empty() {
        (
            judged(&counters) - counters.rounds_passed,
            counters.restarts,
        )
    } else {
        let mut failed = 0u64;
        let mut restarts = 0u64;
        for e in svc
            .log()
            .events()
            .iter()
            .filter(|e| !cheater_names.contains(&e.device))
        {
            match e.kind {
                EventKind::RoundFailed { reason, .. } if reason != FailReason::LinkDown => {
                    failed += 1
                }
                EventKind::Restarted { .. } => restarts += 1,
                _ => {}
            }
        }
        (failed, restarts)
    };
    report.attempted += counters.rounds_started - honest_restarts;
    report.failed += honest_failed - honest_restarts;

    // Determinism fingerprint: the newest sealed root plus the counters.
    if B::SIMULATED {
        let root = svc.sealed_epochs().last().map_or([0; 32], |e| e.root);
        let mut h = root.to_vec();
        h.extend_from_slice(svc.log().counters_json().as_bytes());
        h.extend_from_slice(&timed_rounds.to_le_bytes());
        report.fingerprint = Some((timed_rounds, common::hex(&sage_crypto::sha256(&h))));
    }

    // ---- end-to-end metrics ---------------------------------------------------
    // Rounds per process CPU second over the untraced (or the traced)
    // blocks, all of them together.
    let rate = |traced: bool| {
        let (judged, cpu) = blocks
            .iter()
            .filter(|b| b.traced == traced)
            .fold((0u64, 0.0), |(j, c), b| (j + b.judged, c + b.cpu));
        judged as f64 / cpu
    };
    let rounds_per_s = rate(false);
    report.e2e("setup_s", common::median(&su.setup_s));
    report.e2e("enroll_per_s", common::median(&su.enroll_rate));
    report.e2e("rounds_per_s", rounds_per_s);
    report.e2e("peak_rss_mib", common::peak_rss_mib());
    report.e2e("reports_per_s", audits.0 as f64 / audits.1);
    let total_wall: f64 = blocks.iter().map(|b| b.wall).sum();
    let total_cpu: f64 = blocks.iter().map(|b| b.cpu).sum();
    eprintln!(
        "{}: {n} devices, {epochs} epochs, {timed_rounds} rounds in {total_cpu:.3} CPU s / {total_wall:.3} wall s ({:.0} / {:.0} rounds/s)",
        spec.name,
        timed_rounds as f64 / total_cpu,
        timed_rounds as f64 / total_wall,
    );

    if !args.trace {
        bed.finish(fleet, &mut report, 0.0);
        return report;
    }

    // ---- per-layer metrics (traced run) ----------------------------------------
    // The attribution comes from the traced blocks; a bed that records
    // no spans attributes every block, so its overhead reads 1.
    let tracing_blocks = spans.is_some();
    let tr: Vec<&Block> = blocks
        .iter()
        .filter(|b| b.traced == tracing_blocks)
        .collect();
    let step_s: f64 = tr.iter().map(|b| b.wall).sum();
    let rounds = tr.iter().map(|b| b.judged).sum::<u64>().max(1) as f64;
    let started = tr.iter().map(|b| b.started).sum::<u64>();
    let responses = tr.iter().map(|b| b.judged - b.timeouts).sum::<u64>();
    let steady_judged = (judged(&c1) - judged(&c0)).max(1) as f64;
    let records_per_round = (rec1.0 - rec0.0) as f64 / (rec1.1 - rec0.1).max(1) as f64;
    let (nc, frames) = bed.traffic(svc, spec.kind, started, responses);
    let twins = trace::measure_twins(
        spec.kind,
        &cfg,
        seed,
        n,
        spec.byzantine.as_ref().map(|b| b.liar),
        &frames,
    );
    let run_us: Vec<f64> = spans.as_ref().map_or(Vec::new(), |sp| {
        sp.of_kind("gpu_sim.run")
            .iter()
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    });
    let exact = spec.kind == DeviceKind::Exact;
    let cycles: Vec<f64> = if exact {
        frames
            .iter()
            .filter_map(|b| match sage_service::wire::decode(b) {
                Ok(sage_service::Frame::Response {
                    measured_cycles, ..
                }) => Some(measured_cycles as f64),
                _ => None,
            })
            .collect()
    } else {
        Vec::new()
    };

    // Children of the step: measured spans plus twin estimates. A device
    // on its own thread (sockets) is no child of the step.
    let device_s = if exact {
        run_us.iter().sum::<f64>() / 1e6
    } else {
        twins.modeled_run_us * nc.to_devices as f64 / 1e6
    };
    let parts = [
        (nc.send_ns + nc.drain_ns) as f64 / 1e9,
        (twins.encode_ns * nc.sends as f64 + twins.decode_ns * nc.delivered as f64) / 1e9,
        device_s,
        (twins.prepare_us * started as f64 + twins.check_us * responses as f64) / 1e6,
        (twins.append_us * records_per_round * rounds + twins.seal_us * tr.len() as f64) / 1e6,
        twins.quorum_collect_us * rounds / 1e6,
    ];
    let explained: f64 = parts.iter().sum();
    let step_us = step_s / rounds * 1e6;
    let (bank_hits, bank_misses) = (
        counter_total(&fleet.reg, "vf_bank_hits_total") as f64,
        counter_total(&fleet.reg, "vf_bank_misses_total") as f64,
    );
    let series = fleet.reg.collect().len() as f64;
    let scrape_ms = common::time_us(1, || {
        std::hint::black_box(fleet.reg.to_prometheus());
    }) / 1e3;
    let skips = (c1.spotcheck_skips - c0.spotcheck_skips) as f64;
    let starts = (c1.rounds_started - c0.rounds_started) as f64;

    for (name, value) in [
        ("service.step_us_per_round", step_us),
        (
            "service.self_us_per_round",
            (step_s - explained) / rounds * 1e6,
        ),
        (
            "service.events_per_round",
            (ev1 - ev0) as f64 / steady_judged,
        ),
        ("service.join_us_p50", common::quantile(&su.join_us, 0.5)),
        ("service.join_us_p99", common::quantile(&su.join_us, 0.99)),
        ("service.query_us", common::median(&query_us)),
        ("core.install_us", common::median(&su.install_us)),
        ("core.calibrate_us", twins.calibrate_us),
        ("core.sake_us", twins.sake_us),
        ("core.prepare_us", twins.prepare_us),
        ("core.check_us", twins.check_us),
        ("crypto.modpow_us", twins.modpow_us),
        ("crypto.cmac_ns", twins.cmac_ns),
        ("sgx_sim.launch_us", common::median(&su.launch_us)),
        (
            "process.minflt_per_enroll",
            common::median(&su.minflt_per_enroll),
        ),
        ("net.send_ns", nc.send_ns as f64 / nc.sends.max(1) as f64),
        ("net.drain_ns", nc.drain_ns as f64 / nc.drains.max(1) as f64),
        ("net.frames_per_round", nc.sends as f64 / rounds),
        ("net.bytes_per_round", nc.bytes as f64 / rounds),
        ("wire.encode_ns", twins.encode_ns),
        ("wire.decode_ns", twins.decode_ns),
        ("gpu_sim.run_us_p50", common::quantile(&run_us, 0.5)),
        ("gpu_sim.run_us_p99", common::quantile(&run_us, 0.99)),
        ("gpu_sim.runs_per_round", run_us.len() as f64 / rounds),
        ("gpu_sim.cycles_per_run", common::median(&cycles)),
        ("vf.replay_us", twins.replay_us),
        ("vf.modeled_run_us", twins.modeled_run_us),
        (
            "vf.bank_hit_ratio",
            bank_hits / (bank_hits + bank_misses).max(1.0),
        ),
        ("evidence.append_us", twins.append_us),
        ("evidence.seal_us", twins.seal_us),
        ("evidence.records_per_round", records_per_round),
        ("evidence.verify_report_us", common::median(&verify_us)),
        ("quorum.collect_us", twins.quorum_collect_us),
        (
            "quorum.disputes_per_round",
            (c1.quorum_disputes - c0.quorum_disputes) as f64 / steady_judged,
        ),
        ("sampling.skip_ratio", skips / (skips + starts).max(1.0)),
        ("telemetry.series", series),
        ("telemetry.series_per_device", series / n as f64),
        ("telemetry.scrape_ms", scrape_ms),
        (
            "process.cpu_us_per_round",
            total_cpu * 1e6 / timed_rounds as f64,
        ),
        ("process.threads", threads as f64),
        ("trace.coverage", explained / step_s),
        ("trace.overhead", rounds_per_s / rate(tracing_blocks)),
    ] {
        report.layer(name, value);
    }

    if let Some(sp) = &spans {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.tsv", spec.name, seed));
        match sp.write_out(&path, &frames) {
            Ok(()) => eprintln!("{}: spans written to {}", spec.name, path.display()),
            Err(e) => eprintln!("{}: could not write spans: {e}", spec.name),
        }
    }
    bed.finish(fleet, &mut report, step_us);
    report
}
