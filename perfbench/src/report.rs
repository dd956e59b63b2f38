//! What one run reports: operation counts, correctness gates, the
//! determinism fingerprint, and the metrics, printed as the final JSON
//! line.

use crate::Args;

/// The end-to-end metrics, with units, every workload reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("enroll_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("reports_per_s", "1/s"),
];

/// The per-layer metrics, with units. A traced run reports every one;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.step_us_per_round", "us"),
    ("service.self_us_per_round", "us"),
    ("service.events_per_round", "count"),
    ("service.join_us_p50", "us"),
    ("service.join_us_p99", "us"),
    ("service.query_us", "us"),
    ("core.install_us", "us"),
    ("core.calibrate_us", "us"),
    ("core.sake_us", "us"),
    ("core.prepare_us", "us"),
    ("core.check_us", "us"),
    ("crypto.modpow_us", "us"),
    ("crypto.cmac_ns", "ns"),
    ("sgx_sim.launch_us", "us"),
    ("process.minflt_per_enroll", "count"),
    ("net.send_ns", "ns"),
    ("net.drain_ns", "ns"),
    ("net.frames_per_round", "count"),
    ("net.bytes_per_round", "B"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("tcp.pump_us_per_round", "us"),
    ("tcp.rtt_us_p50", "us"),
    ("tcp.rtt_us_p99", "us"),
    ("tcp.join_remote_us_p50", "us"),
    ("tcp.frames_shed", "count"),
    ("tcp.heartbeat_misses", "count"),
    ("gpu_sim.run_us_p50", "us"),
    ("gpu_sim.run_us_p99", "us"),
    ("gpu_sim.runs_per_round", "count"),
    ("gpu_sim.cycles_per_run", "cycles"),
    ("vf.replay_us", "us"),
    ("vf.modeled_run_us", "us"),
    ("vf.bank_hit_ratio", "ratio"),
    ("evidence.append_us", "us"),
    ("evidence.seal_us", "us"),
    ("evidence.records_per_round", "count"),
    ("evidence.verify_report_us", "us"),
    ("quorum.collect_us", "us"),
    ("quorum.disputes_per_round", "count"),
    ("sampling.skip_ratio", "ratio"),
    ("telemetry.series", "count"),
    ("telemetry.series_per_device", "count"),
    ("telemetry.scrape_ms", "ms"),
    ("process.cpu_us_per_round", "us"),
    ("process.threads", "count"),
    ("host.calib_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The value recorded under `name`, or 0 for one never recorded.
fn value_of(recorded: &[(&'static str, f64)], name: &str) -> f64 {
    recorded
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// The catalogue entry for `name`; an unknown name is a bug here.
fn known(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
        .0
}

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: enrollments, rounds started, report audits.
    pub attempted: u64,
    /// Operations failed: enrollments not admitted, honest rounds not
    /// passed, reports that did not verify.
    pub failed: u64,
    /// Violated correctness gates (empty on a correct run).
    pub violations: Vec<String>,
    /// End-to-end metrics (tracing off).
    end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced run).
    layers: Vec<(&'static str, f64)>,
    /// `(timed-phase rounds, history digest)` of a SimNet workload.
    pub fingerprint: Option<(u64, String)>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.push((known(END_TO_END, name), value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((known(PER_LAYER, name), value));
    }

    /// Checks a correctness gate, recording `what` when it fails.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let v = what();
            eprintln!("GATE FAILED: {v}");
            self.violations.push(v);
        }
    }

    /// Prints the fingerprint, the per-layer table (traced runs) and the
    /// final JSON line, then exits non-zero if a gate failed.
    pub fn finish(self, args: &Args) {
        if let Some((rounds, digest)) = &self.fingerprint {
            println!(
                "fingerprint workload={} seed={} seconds={} timed_rounds={rounds} history_digest={digest}",
                args.workload, args.seed, args.seconds
            );
        }
        let (table, recorded) = if args.trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        if args.trace {
            println!("per-layer metrics, workload {}:", args.workload);
            for &(name, unit) in table {
                println!("  {name:<30} {:>16.4} {unit}", value_of(recorded, name));
            }
        }
        let correct = self.violations.is_empty();
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = value_of(recorded, name);
                let value = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        if !correct {
            std::process::exit(1);
        }
    }
}
