//! The SimNet bed, for `fleet`, `exact` and `byzantine`: devices join
//! in-process and the service advances by its own event loop. A traced
//! run wraps the network in `TracedNet` and taps every cycle-accurate
//! device's bus.

use std::sync::Arc;

use sage::multi::FleetMember;
use sage_service::{AttestationService, NodeId, ServiceConfig, SimNet};
use sage_sgx_sim::Enclave;
use sage_telemetry::Registry;

use crate::common::DeviceKind;
use crate::drive::{self, Bed};
use crate::report::Report;
use crate::trace::{NetCounts, RunTap, SimTransport, Spans, TracedNet};
use crate::workload::Spec;
use crate::Args;

/// A SimNet bed; `wrap` builds the transport around each fresh network.
struct SimBed<W> {
    wrap: W,
    /// Span store for the cycle-accurate devices' bus taps.
    taps: Option<Arc<Spans>>,
}

impl<T: SimTransport, W: Fn(SimNet) -> T> Bed for SimBed<W> {
    type Net = T;
    type Links = ();
    const SIMULATED: bool = true;

    fn tap(&self, member: &mut FleetMember, node: u16) {
        if let Some(sp) = &self.taps {
            member
                .session
                .dev
                .install_bus_tap(Box::new(RunTap::new(node, Arc::clone(sp))));
        }
    }

    fn open(
        &mut self,
        spec: &Spec,
        cfg: &ServiceConfig,
        seed: u64,
        _report: &mut Report,
    ) -> (AttestationService<T>, Registry, ()) {
        let (svc, reg) = drive::service(cfg, (self.wrap)(SimNet::new(seed, spec.link)));
        (svc, reg, ())
    }

    fn join(
        &mut self,
        svc: &mut AttestationService<T>,
        member: FleetMember,
        enclave: Enclave,
    ) -> NodeId {
        svc.join(member, enclave)
    }

    fn advance(&mut self, svc: &mut AttestationService<T>, at: u64) {
        svc.run_until(at);
    }

    fn sim_mut(net: &mut T) -> Option<&mut SimNet> {
        Some(net.sim_mut())
    }

    fn traffic(
        &self,
        svc: &AttestationService<T>,
        _kind: DeviceKind,
        _started: u64,
        _responses: u64,
    ) -> (NetCounts, Vec<Vec<u8>>) {
        let net = svc.transport().traced().expect("traced run wraps the net");
        (net.counts, net.captured.clone())
    }
}

/// Runs a SimNet workload, traced or not.
pub fn run(spec: &Spec, args: &Args) -> Report {
    if args.trace {
        let spans = Spans::new();
        let for_net = Arc::clone(&spans);
        let bed = SimBed {
            wrap: move |net| TracedNet::new(net, Arc::clone(&for_net)),
            taps: (spec.kind == DeviceKind::Exact).then(|| Arc::clone(&spans)),
        };
        drive::drive(spec, args, bed, Some(spans))
    } else {
        let bed = SimBed {
            wrap: |net| net,
            taps: None,
        };
        drive::drive(spec, args, bed, None)
    }
}
