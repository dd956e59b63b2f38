//! One end-to-end attestation benchmark over the real
//! `AttestationService`, with per-layer attribution traced from outside
//! the program. See `perfbench/README.md` for the workloads, metrics and
//! how to read a result.
//!
//! Usage:
//!   sage-perfbench --workload fleet|exact|uds|byzantine --seed N
//!                  --seconds S --trace 0|1
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! The exit code is non-zero when a correctness gate fails.

mod common;
mod drive;
mod report;
mod sim;
mod trace;
mod uds;
mod workload;

use report::Report;
use workload::Spec;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: network jitter, agent and enclave entropy.
    pub seed: u64,
    /// Requested measuring time; fixes the (deterministic) timed work.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str =
    "usage: sage-perfbench --workload fleet|exact|uds|byzantine --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.clamp(1, 600),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calib_ms = common::host_calib_ms();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} host {} calib {calib_ms:.1} ms",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sage_bench::host_stanza()
    );
    let mut report: Report = match args.workload.as_str() {
        "fleet" => sim::run(&Spec::fleet(), &args),
        "exact" => sim::run(&Spec::exact(), &args),
        "byzantine" => sim::run(&Spec::byzantine(), &args),
        "uds" => uds::run(&Spec::uds(), &args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace {
        report.layer("host.calib_ms", calib_ms);
    }
    report.finish(&args);
}
