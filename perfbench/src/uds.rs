//! The socket bed, for `uds`: one `DeviceLink` per device dials the
//! verifier's `TcpTransport` over a Unix-domain socket, enrolls through
//! `join_remote`, and is re-attested under `ClockDriver` pacing. The
//! only workload where real sockets, framing and the supervision
//! threads carry the round.
//!
//! The transport cannot be wrapped (`join_remote` and the clock driver
//! take `TcpTransport` itself), so a traced run records no spans inside
//! the timed blocks; the wire replay uses a synthetic frame mix.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sage::multi::FleetMember;
use sage_crypto::DhGroup;
use sage_service::{
    AttestationService, Bind, ClockDriver, DeviceLink, DeviceLinkConfig, DeviceLinkReport,
    FrameStream, LinkConfig, NodeId, Pump, ServiceConfig, TcpTransport,
};
use sage_sgx_sim::Enclave;
use sage_telemetry::Registry;

use crate::common::{self, DeviceKind};
use crate::drive::{self, Bed, Fleet};
use crate::report::Report;
use crate::trace::{self, NetCounts};
use crate::workload::Spec;
use crate::Args;

/// Wall nanoseconds per virtual tick for the `ClockDriver` watchdog:
/// an outstanding round gets about two seconds before it times out.
const NS_PER_TICK: u64 = 200_000;
/// Wall budget for the device links to connect.
const CONNECT_BUDGET: Duration = Duration::from_secs(30);
/// Rounds in the synthetic frame mix the wire replay uses.
const REPLAY_ROUNDS: u64 = 64;

/// One fleet's device links and the socket they dial.
struct Links {
    links: Vec<DeviceLink>,
    sock: PathBuf,
}

struct UdsBed {
    /// Directory of the sockets, inside the working directory.
    dir: PathBuf,
    /// Setups opened so far (each binds a fresh socket).
    opened: usize,
    /// Enrollment streams of the fleet being set up, by device name.
    streams: HashMap<String, FrameStream>,
    driver: ClockDriver,
    /// Per-device `join_remote` wall, µs.
    join_us: Vec<f64>,
    /// A device asked to enroll again instead of resuming.
    reenrolls: bool,
}

impl UdsBed {
    /// Stops every link (joining its thread), the service and its
    /// acceptor thread, and removes the socket.
    fn shut_down(&mut self, fleet: Fleet<Self>) -> Vec<DeviceLinkReport> {
        let reports = fleet
            .links
            .links
            .into_iter()
            .map(DeviceLink::stop)
            .collect();
        drop(fleet.svc);
        // The acceptor blocks in `accept`; one last connection lets it
        // see the shutdown and exit.
        drop(std::os::unix::net::UnixStream::connect(&fleet.links.sock));
        let _ = std::fs::remove_file(&fleet.links.sock);
        reports
    }
}

impl Bed for UdsBed {
    type Net = TcpTransport;
    type Links = Links;
    const SIMULATED: bool = false;

    /// Binds a fresh socket, spawns one link per device and waits until
    /// every link has connected and asked to enroll.
    fn open(
        &mut self,
        spec: &Spec,
        cfg: &ServiceConfig,
        seed: u64,
        report: &mut Report,
    ) -> (AttestationService<TcpTransport>, Registry, Links) {
        let n = spec.devices;
        let sock = self
            .dir
            .join(format!("v{}-{}.sock", std::process::id(), self.opened));
        self.opened += 1;
        let _ = std::fs::remove_file(&sock);
        let link_cfg = LinkConfig {
            seed: seed ^ 0x5A6E_11E7,
            ..LinkConfig::default()
        };
        let net = TcpTransport::bind(Bind::Uds(sock.clone()), link_cfg).expect("bind the socket");
        let (mut svc, reg) = drive::service(cfg, net);
        svc.transport().attach_telemetry(&reg);
        let links: Vec<DeviceLink> = (0..n)
            .map(|i| {
                DeviceLink::spawn(
                    common::member(spec.kind, i, seed),
                    DhGroup::test_group(),
                    DeviceLinkConfig {
                        connect: Bind::Uds(sock.clone()),
                        ..DeviceLinkConfig::default()
                    },
                )
            })
            .collect();
        let deadline = Instant::now() + CONNECT_BUDGET;
        while svc.transport().pending_enrolls() < n && Instant::now() < deadline {
            svc.transport().wait_activity(Duration::from_millis(1));
        }
        while let Some((name, stream)) = svc.transport_mut().take_pending_enroll() {
            self.streams.insert(name, stream);
        }
        let connected = self.streams.len();
        report.gate(connected == n, || {
            format!("only {connected} of {n} device links connected")
        });
        report.failed += (n - connected) as u64;
        (svc, reg, Links { links, sock })
    }

    fn join(
        &mut self,
        svc: &mut AttestationService<TcpTransport>,
        twin: FleetMember,
        enclave: Enclave,
    ) -> NodeId {
        let stream = self
            .streams
            .remove(&twin.name)
            .expect("every device link asked to enroll");
        let t = Instant::now();
        let id = svc.join_remote(twin, enclave, stream);
        self.join_us.push(common::secs(t) * 1e6);
        id
    }

    fn advance(&mut self, svc: &mut AttestationService<TcpTransport>, at: u64) {
        self.reenrolls |= self.driver.run_until(svc, at) == Pump::Enrolls;
    }

    /// Every challenge the verifier sent and every response it read;
    /// the device runs on its link's thread, so none is the step's.
    fn traffic(
        &self,
        _svc: &AttestationService<TcpTransport>,
        kind: DeviceKind,
        started: u64,
        responses: u64,
    ) -> (NetCounts, Vec<Vec<u8>>) {
        let counts = NetCounts {
            sends: started,
            delivered: responses,
            ..NetCounts::default()
        };
        (counts, trace::synthetic_frames(kind, REPLAY_ROUNDS))
    }

    fn retire(&mut self, fleet: Fleet<Self>) {
        self.shut_down(fleet);
    }

    fn finish(&mut self, fleet: Fleet<Self>, report: &mut Report, step_us: f64) {
        let n = fleet.links.links.len() as u64;
        let rtt_us: Vec<f64> = fleet
            .svc
            .transport()
            .take_rtt_samples()
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let stats = fleet.svc.transport().stats();
        let enrollments: u64 = self.shut_down(fleet).iter().map(|r| r.enrollments).sum();
        let _ = std::fs::remove_dir(&self.dir);
        report.gate(!self.reenrolls, || {
            "a device asked to re-enroll instead of resuming".into()
        });
        report.gate(enrollments == n, || {
            format!("{enrollments} enrollments by {n} device links (re-enrollment)")
        });
        report.layer("tcp.pump_us_per_round", step_us);
        report.layer("tcp.join_remote_us_p50", common::median(&self.join_us));
        report.layer("tcp.rtt_us_p50", common::quantile(&rtt_us, 0.5));
        report.layer("tcp.rtt_us_p99", common::quantile(&rtt_us, 0.99));
        report.layer("tcp.frames_shed", stats.frames_shed as f64);
        report.layer("tcp.heartbeat_misses", stats.heartbeat_misses as f64);
    }
}

/// Runs the `uds` workload. Its RTT percentiles cover every round of
/// the steady-phase fleet, warm-up included.
pub fn run(spec: &Spec, args: &Args) -> Report {
    // A path relative to the checkout keeps the socket inside it and
    // well under the Unix socket path limit.
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).expect("create the socket directory");
    let bed = UdsBed {
        dir,
        opened: 0,
        streams: HashMap::new(),
        driver: ClockDriver::new(NS_PER_TICK),
        join_us: Vec::new(),
        reenrolls: false,
    };
    drive::drive(spec, args, bed, None)
}
