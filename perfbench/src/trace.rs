//! Tracing from outside the program: a `Transport` wrapper around
//! `SimNet`, a `BusTap` span per cycle-accurate checksum run, and
//! "twin" timers that call the same public functions the service calls,
//! on a standalone copy built from the workload's configuration.
//!
//! Nothing here is compiled into the program under test; every span
//! sits on a boundary the benchmark can reach through public API.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sage::Verifier;
use sage_crypto::{BigUint, DhGroup};
use sage_evidence::{
    epoch_root, EpochLeaf, EvidenceChain, EvidencePath, EvidencePayload, StageVerdict,
};
use sage_gpu_sim::{BusTap, LaunchParams};
use sage_service::{
    wire, Envelope, Frame, LinkEvent, NodeId, ServiceConfig, SimNet, Transport, VerifierBehavior,
    VerifierSet, VERIFIER_NODE,
};
use sage_sgx_sim::SgxPlatform;

use crate::common::{self, DeviceKind};

/// Frames whose bytes are kept for the wire replay and span ids.
const CAPTURE_FRAMES: usize = 8_192;
/// Spans held in memory per run (later spans are counted, not kept).
const MAX_SPANS: usize = 200_000;

/// One recorded span: a layer boundary crossing.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary name.
    pub kind: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Device node the span concerns (0 = the verifier / fleet).
    pub device: u16,
    /// The captured frame the span carried, as index + 1 (0 = none);
    /// its round id is decoded when the spans are written out.
    pub frame: u32,
}

/// Span store shared by the transport wrapper and the bus taps.
pub struct Spans {
    origin: Instant,
    on: AtomicBool,
    kept: Mutex<Vec<Span>>,
}

impl Spans {
    /// A fresh store with tracing off.
    pub fn new() -> Arc<Spans> {
        Arc::new(Spans {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            kept: Mutex::new(Vec::new()),
        })
    }

    /// Turns span recording on or off (per timed block).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn ns_since(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span that started at `t0`.
    pub fn record(&self, kind: &'static str, t0: Instant, dur_ns: u64, device: u16, frame: u32) {
        let start_ns = self.ns_since(t0);
        let mut kept = self.kept.lock().expect("span store poisoned");
        if kept.len() < MAX_SPANS {
            kept.push(Span {
                kind,
                start_ns,
                dur_ns,
                device,
                frame,
            });
        }
    }

    /// A copy of every kept span of `kind`.
    pub fn of_kind(&self, kind: &str) -> Vec<Span> {
        let kept = self.kept.lock().expect("span store poisoned");
        kept.iter().filter(|s| s.kind == kind).copied().collect()
    }

    /// Writes every kept span as tab-separated lines to `path`, with the
    /// round id read from the captured `frames` where the span has one.
    pub fn write_out(&self, path: &std::path::Path, frames: &[Vec<u8>]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let kept = self.kept.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tstart_ns\tdur_ns\tdevice\tround")?;
        for s in kept.iter() {
            let round = (s.frame as usize)
                .checked_sub(1)
                .and_then(|i| frames.get(i))
                .map_or(0, |b| frame_round(b));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.kind, s.start_ns, s.dur_ns, s.device, round
            )?;
        }
        out.flush()
    }
}

/// Counters the transport wrapper keeps while tracing is on.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounts {
    /// `send` calls.
    pub sends: u64,
    /// Wall nanoseconds inside `send`.
    pub send_ns: u64,
    /// Encoded bytes handed to `send`.
    pub bytes: u64,
    /// `drain_due` calls.
    pub drains: u64,
    /// Wall nanoseconds inside `drain_due`.
    pub drain_ns: u64,
    /// Frames `drain_due` delivered.
    pub delivered: u64,
    /// Delivered frames addressed to a device (challenges it runs).
    pub to_devices: u64,
}

/// The `Transport` wrapper: forwards to `SimNet`, timing `send` and
/// `drain_due` and capturing a sample of frames while tracing is on.
pub struct TracedNet {
    inner: SimNet,
    spans: Arc<Spans>,
    /// Counters over the traced blocks.
    pub counts: NetCounts,
    /// Captured frame bytes (the wire replay's frame mix).
    pub captured: Vec<Vec<u8>>,
}

impl TracedNet {
    /// Wraps a network; spans go to `spans`.
    pub fn new(inner: SimNet, spans: Arc<Spans>) -> TracedNet {
        TracedNet {
            inner,
            spans,
            counts: NetCounts::default(),
            captured: Vec::new(),
        }
    }
}

/// A frame's round, when it carries one.
fn frame_round(bytes: &[u8]) -> u64 {
    match wire::decode(bytes) {
        Ok(Frame::Challenge { round, .. }) | Ok(Frame::Response { round, .. }) => round,
        _ => 0,
    }
}

impl Transport for TracedNet {
    fn send(&mut self, now: u64, env: Envelope) {
        if !self.spans.on() {
            return self.inner.send(now, env);
        }
        let device = if env.src == VERIFIER_NODE {
            env.dst.0
        } else {
            env.src.0
        };
        let len = env.bytes.len() as u64;
        let frame = if self.captured.len() < CAPTURE_FRAMES {
            self.captured.push(env.bytes.clone());
            self.captured.len() as u32
        } else {
            0
        };
        let t0 = Instant::now();
        self.inner.send(now, env);
        let dur = t0.elapsed().as_nanos() as u64;
        self.counts.sends += 1;
        self.counts.send_ns += dur;
        self.counts.bytes += len;
        self.spans.record("net.send", t0, dur, device, frame);
    }

    fn poll(&mut self, now: u64, node: NodeId) -> Option<Envelope> {
        self.inner.poll(now, node)
    }

    fn next_event_at(&self) -> Option<u64> {
        self.inner.next_event_at()
    }

    fn drain_due(&mut self, now: u64) -> Vec<Envelope> {
        if !self.spans.on() {
            return self.inner.drain_due(now);
        }
        let t0 = Instant::now();
        let out = self.inner.drain_due(now);
        let dur = t0.elapsed().as_nanos() as u64;
        self.counts.drains += 1;
        self.counts.drain_ns += dur;
        self.counts.delivered += out.len() as u64;
        self.counts.to_devices += out.iter().filter(|e| e.dst != VERIFIER_NODE).count() as u64;
        self.spans.record("net.drain", t0, dur, 0, 0);
        out
    }

    fn take_link_events(&mut self) -> Vec<LinkEvent> {
        self.inner.take_link_events()
    }
}

/// The pieces of a SimNet workload's transport the workload needs,
/// whether or not it is traced.
pub trait SimTransport: Transport {
    /// The underlying network (per-link profiles).
    fn sim_mut(&mut self) -> &mut SimNet;
    /// The wrapper, when tracing.
    fn traced(&self) -> Option<&TracedNet>;
}

impl SimTransport for SimNet {
    fn sim_mut(&mut self) -> &mut SimNet {
        self
    }
    fn traced(&self) -> Option<&TracedNet> {
        None
    }
}

impl SimTransport for TracedNet {
    fn sim_mut(&mut self) -> &mut SimNet {
        &mut self.inner
    }
    fn traced(&self) -> Option<&TracedNet> {
        Some(self)
    }
}

/// A `BusTap` that spans each checksum run from the launch command to
/// the result readback, and otherwise leaves the bus untouched.
pub struct RunTap {
    device: u16,
    spans: Arc<Spans>,
    started: Option<Instant>,
}

impl RunTap {
    /// A tap for device node `device`.
    pub fn new(device: u16, spans: Arc<Spans>) -> RunTap {
        RunTap {
            device,
            spans,
            started: None,
        }
    }
}

impl BusTap for RunTap {
    fn on_launch(&mut self, _params: &mut LaunchParams) {
        if self.spans.on() {
            self.started = Some(Instant::now());
        }
    }

    fn on_d2h(&mut self, _addr: u32, _data: &mut Vec<u8>) {
        if let Some(t0) = self.started.take() {
            let dur = t0.elapsed().as_nanos() as u64;
            self.spans.record("gpu_sim.run", t0, dur, self.device, 0);
        }
    }
}

/// Per-call costs of the public functions the service calls, measured
/// on a standalone copy of the workload's configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Twins {
    pub calibrate_us: f64,
    pub sake_us: f64,
    pub modpow_us: f64,
    pub replay_us: f64,
    pub modeled_run_us: f64,
    pub prepare_us: f64,
    pub check_us: f64,
    pub append_us: f64,
    pub seal_us: f64,
    pub cmac_ns: f64,
    pub quorum_collect_us: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Repetitions per twin timer (the median is kept).
const TWIN_REPS: usize = 7;

/// Measures every twin call for a workload's configuration. `frames`
/// is the frame mix to replay through the codec; `fleet` the device
/// count an epoch seal covers.
pub fn measure_twins(
    kind: DeviceKind,
    cfg: &ServiceConfig,
    seed: u64,
    fleet: usize,
    liar: Option<usize>,
    frames: &[Vec<u8>],
) -> Twins {
    let group = DhGroup::test_group();
    let platform = SgxPlatform::new([7u8; 16]);
    let mut t = Twins::default();

    // Enrollment: calibrate and SAKE on fresh copies.
    let mut cal = Vec::new();
    let mut sake = Vec::new();
    for rep in 0..TWIN_REPS {
        let mut m = common::member(kind, rep, seed ^ 0x7717);
        let e = common::enclave(&platform, rep, seed ^ 0x7717);
        let mut v = Verifier::new(e, m.session.build().clone(), group.clone());
        if cfg.bank_capacity > 0 {
            v.enable_fast_path(sage_vf::BankConfig {
                capacity: cfg.bank_capacity,
                workers: cfg.bank_workers,
            });
        }
        let t0 = Instant::now();
        v.calibrate(&mut m.session, cfg.calibration_runs)
            .expect("twin calibrate");
        cal.push(common::secs(t0) * 1e6);
        let t0 = Instant::now();
        v.establish_key(&mut m.session, &mut m.agent, None)
            .expect("twin SAKE");
        sake.push(common::secs(t0) * 1e6);
    }
    t.calibrate_us = common::median(&cal);
    t.sake_us = common::median(&sake);
    let base = BigUint::from_u64(2);
    let exp = BigUint::from_bytes_be(&[0xA5; 32]);
    t.modpow_us = common::time_us(TWIN_REPS, || {
        std::hint::black_box(group.modpow(&base, &exp));
    });

    // One calibrated copy for the per-round calls.
    let mut m = common::member(kind, 0, seed ^ 0x7718);
    let e = common::enclave(&platform, 0, seed ^ 0x7718);
    let mut v = Verifier::new(e, m.session.build().clone(), group.clone());
    if cfg.bank_capacity > 0 {
        v.enable_fast_path(sage_vf::BankConfig {
            capacity: cfg.bank_capacity,
            workers: cfg.bank_workers,
        });
    }
    v.calibrate(&mut m.session, cfg.calibration_runs)
        .expect("twin calibrate");
    t.prepare_us = common::time_us(TWIN_REPS * 4, || {
        std::hint::black_box(v.prepare_round_blocking());
    });
    let (challenges, expected) = v.prepare_round_blocking();
    t.replay_us = common::time_us(TWIN_REPS * 4, || {
        std::hint::black_box(v.expected(&challenges));
    });
    let (got, measured) = m.session.run_checksum(&challenges).expect("twin run");
    if kind == DeviceKind::Modeled {
        t.modeled_run_us = common::time_us(TWIN_REPS * 4, || {
            std::hint::black_box(m.session.run_checksum(&challenges).expect("twin run"));
        });
    }
    t.check_us = common::time_us(TWIN_REPS * 4, || {
        let verdict = match expected {
            Some(exp) => v.check_response_precomputed(exp, got, measured),
            None => v.check_response(&challenges, got, measured),
        };
        std::hint::black_box(verdict.expect("twin verdict"));
    });

    // Evidence: appends on a fresh chain, and one seal over the fleet.
    let mut chain = EvidenceChain::new(&common::device_name(0), &[0x42; 16]);
    let mut round = 0u64;
    t.append_us = common::time_ns_batched(TWIN_REPS, 256, || {
        round += 1;
        chain.append(
            round,
            EvidencePayload::ChecksumRound {
                round,
                measured_cycles: measured,
                threshold_cycles: measured + 10,
                verdict: StageVerdict::Pass,
                path: EvidencePath::Classic,
            },
        );
    }) / 1e3;
    let names: Vec<String> = (0..fleet).map(common::device_name).collect();
    t.seal_us = common::time_us(5, || {
        let mut leaves: Vec<EpochLeaf> = names
            .iter()
            .enumerate()
            .map(|(i, n)| EpochLeaf {
                device: n.clone(),
                head: [i as u8; 32],
                seq: i as u64,
            })
            .collect();
        leaves.sort_by(|a, b| a.device.cmp(&b.device));
        std::hint::black_box(epoch_root(&leaves));
    });
    let msg = [0x5Au8; 96];
    t.cmac_ns = common::time_ns_batched(TWIN_REPS, 1_000, || {
        std::hint::black_box(sage_crypto::cmac_aes128(&[0x42; 16], &msg));
    });

    if cfg.quorum.is_active() {
        let mut set = VerifierSet::from_config(&cfg.quorum).expect("quorum is active");
        if let Some(i) = liar {
            set.set_behavior(i, VerifierBehavior::Invert);
        }
        let name = common::device_name(1);
        let mut round = 0u64;
        t.quorum_collect_us = common::time_ns_batched(TWIN_REPS, 200, || {
            round += 1;
            std::hint::black_box(set.collect(&name, round, StageVerdict::Pass));
        }) / 1e3;
    }

    // The codec over the captured frame mix.
    let decoded: Vec<Frame> = frames.iter().filter_map(|b| wire::decode(b).ok()).collect();
    if !decoded.is_empty() {
        t.decode_ns = common::time_ns_batched(TWIN_REPS, 1, || {
            for b in frames {
                std::hint::black_box(wire::decode(b).ok());
            }
        }) / frames.len() as f64;
        t.encode_ns = common::time_ns_batched(TWIN_REPS, 1, || {
            for f in &decoded {
                std::hint::black_box(wire::encode(f));
            }
        }) / decoded.len() as f64;
    }
    t
}

/// The round's frame mix for a transport the wrapper cannot see
/// (sockets): one challenge and one response per round, shaped by the
/// workload's VF parameters.
pub fn synthetic_frames(kind: DeviceKind, rounds: u64) -> Vec<Vec<u8>> {
    let blocks = kind.params().grid_blocks as usize;
    (1..=rounds)
        .flat_map(|round| {
            let challenge = Frame::Challenge {
                round,
                challenges: vec![[round as u8; 16]; blocks],
            };
            let response = Frame::Response {
                round,
                checksum: [round as u32; 8],
                measured_cycles: common::MODELED_BASE_CYCLES + round % 5,
            };
            [wire::encode(&challenge), wire::encode(&response)]
        })
        .collect()
}
