//! The attack-matrix conformance suite: every adversary module from
//! `crates/attacks` (paper §8) is mounted against a calibrated,
//! telemetry-attached [`Verifier`] and must be rejected on **both**
//! verdict paths — the classic online-replay path
//! ([`Verifier::check_response`]) and the PR-3 bank-hit fast path
//! ([`Verifier::check_response_precomputed`] fed from a stocked
//! [`ChallengeBank`]). 7 attacks × 2 paths = 14 rejection cases, each
//! asserting the error variant *and* the
//! `verifier_rejects_total{cause, path}` telemetry label, so the
//! observability layer is conformance-tested against the security
//! model, not just against happy-path accounting.
//!
//! | Module     | Mount                                        | Cause       |
//! |------------|----------------------------------------------|-------------|
//! | `datasub`  | tampered fill byte in the checksummed region | wrong_value |
//! | `forge`    | PCIe [`ReplayTap`] replays a stale result    | wrong_value |
//! | `lepc`     | constant substitution in checksummed code    | wrong_value |
//! | `memcopy`  | variant (b): traversal redirect to a copy    | wrong_value |
//! | `nop`      | injected instructions inflate the loop       | too_slow    |
//! | `proxy`    | faster remote GPU + 2× network latency       | too_slow    |
//! | `takeover` | co-dispatched spin kernel steals SM slots    | too_slow    |
//!
//! The evidence-tampering campaigns at the bottom extend the matrix to
//! the PR-7 evidence layer: a [`DeviceReport`] minted by an honest fleet
//! run is doctored per campaign (forked chain, reordered records,
//! stale-evidence replay, wrong-key CMACs, foreign root, clipped proof,
//! inflated claim) and [`verify_report`] must reject each with its exact
//! cause — on histories produced by *both* verdict paths (classic
//! online-replay and the precomputed bank-hit fast path), with the
//! honest report accepted on both (zero false accepts, zero false
//! rejects).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sage_repro::attacks::{
    datasub, forge::ReplayTap, lepc, memcopy::patch_immediates, nop, proxy::faster_gpu,
    takeover::spin_kernel, Detection,
};
use sage_repro::core::{
    agent::DeviceAgent, multi::FleetMember, timing::Calibration, GpuSession, SageError, Verifier,
};
use sage_repro::crypto::{DhGroup, EntropySource};
use sage_repro::evidence::{
    genesis_head, verify_report, verify_suffix, DeviceReport, EvidencePath, EvidencePayload,
    EvidenceRecord, Freshness, FreshnessPolicy, ReportError, StageVerdict,
};
use sage_repro::gpu::{BusTap, Device, DeviceConfig, LaunchParams};
use sage_repro::isa::Opcode;
use sage_repro::service::{
    covers, epochs_to_detect, AttestationService, DeviceState, EventKind, FailReason, LinkProfile,
    Policy, QuorumConfig, SamplingConfig, ServiceConfig, SimNet, VerifierBehavior,
};
use sage_repro::sgx::SgxPlatform;
use sage_repro::telemetry::{MetricValue, Registry};
use sage_repro::vf::{BankConfig, VfParams};

/// Which rejection the attack must produce, mirroring the telemetry
/// `cause` label values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cause {
    WrongValue,
    TooSlow,
}

impl Cause {
    fn label(self) -> &'static str {
        match self {
            Cause::WrongValue => "wrong_value",
            Cause::TooSlow => "too_slow",
        }
    }
}

/// An attack mounted and ready to be judged: a calibrated verifier plus
/// the attacked device's response to one fresh-challenge round.
/// `respond` returns `Some(got)` for the value actually read back from
/// the device, or `None` when the adversary preserves the correct value
/// (timing-only attacks — the harness substitutes the expected
/// checksum); the second element is the measured exchange time.
/// A device's answer to one round: `Some(got)` for the value actually
/// read back, `None` when the adversary preserves the correct value;
/// plus the measured exchange time.
type Response = (Option<[u32; 8]>, u64);
/// The attacked device, as the harness drives it: challenges in,
/// response out.
type Responder = Box<dyn FnMut(&[[u8; 16]]) -> Response>;

struct Scenario {
    verifier: Verifier,
    respond: Responder,
    cause: Cause,
}

fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

/// Installs a session and calibrates a fresh verifier on it while the
/// device is still honest (attacks are mounted afterwards).
fn calibrated(
    cfg: &DeviceConfig,
    params: &VfParams,
    fill_seed: u32,
    cal_runs: usize,
    seed: u8,
) -> (GpuSession, Verifier) {
    let dev = Device::new(cfg.clone());
    let mut session = GpuSession::install(dev, params, fill_seed).unwrap();
    let enclave = SgxPlatform::new([seed; 16]).launch(b"verifier", &mut entropy(seed));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.calibrate(&mut session, cal_runs).unwrap();
    (session, verifier)
}

/// Reads one counter series out of the registry, by exact label match.
fn counter_value(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
    for (n, ls, v) in reg.collect() {
        let same = n == name
            && ls.len() == labels.len()
            && ls
                .iter()
                .zip(labels)
                .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2);
        if same {
            match v {
                MetricValue::Counter(c) => return c,
                other => panic!("{name} is not a counter: {other:?}"),
            }
        }
    }
    panic!("series {name}{labels:?} not found");
}

fn assert_cause(attack: &str, path: &str, err: &SageError, cause: Cause) {
    let ok = matches!(
        (cause, err),
        (Cause::WrongValue, SageError::ChecksumMismatch { .. })
            | (Cause::TooSlow, SageError::TimingExceeded { .. })
    );
    assert!(ok, "{attack}/{path}: expected {cause:?}, got {err:?}");
}

/// Judges the mounted attack on both verdict paths and asserts the
/// rejection plus its telemetry labels. This is the shared core of all
/// 14 matrix cases.
fn assert_rejected_on_both_paths(attack: &'static str, mut sc: Scenario) {
    let reg = Registry::new();
    sc.verifier.attach_telemetry(&reg);
    let cause = sc.cause.label();

    // Classic path: fresh challenges, online replay inside the verdict.
    let ch = sc.verifier.generate_challenges();
    let (got, measured) = (sc.respond)(&ch);
    let got = got.unwrap_or_else(|| sc.verifier.expected(&ch));
    let err = sc.verifier.check_response(&ch, got, measured).unwrap_err();
    assert_cause(attack, "classic", &err, sc.cause);
    assert_eq!(
        counter_value(
            &reg,
            "verifier_rejects_total",
            &[("cause", cause), ("path", "classic")],
        ),
        1,
        "{attack}: classic reject must be labeled cause={cause}",
    );

    // PR-3 bank-hit fast path: the expected checksum comes out of a
    // synchronously stocked bank (workers = 0, deterministic), so the
    // judged round does zero replay.
    sc.verifier.enable_fast_path(BankConfig {
        capacity: 4,
        workers: 0,
    });
    sc.verifier.prefill_rounds(2);
    let (ch, precomputed) = sc.verifier.prepare_round();
    let expected = precomputed.expect("prefilled workers=0 bank must hit");
    let (got, measured) = (sc.respond)(&ch);
    let got = got.unwrap_or(expected);
    let err = sc
        .verifier
        .check_response_precomputed(expected, got, measured)
        .unwrap_err();
    assert_cause(attack, "precomputed", &err, sc.cause);
    assert_eq!(
        counter_value(
            &reg,
            "verifier_rejects_total",
            &[("cause", cause), ("path", "precomputed")],
        ),
        1,
        "{attack}: fast-path reject must be labeled cause={cause}",
    );

    // The bank round that fed the fast path is visible in this attack's
    // registry, and neither path accepted anything.
    assert!(counter_value(&reg, "vf_bank_hits_total", &[]) >= 1);
    for path in ["classic", "precomputed"] {
        assert_eq!(
            counter_value(&reg, "verifier_accepts_total", &[("path", path)],),
            0,
            "{attack}: no accept may leak through on the {path} path",
        );
    }
}

/// Data substitution (§8): one tampered byte in the checksummed fill.
/// `iterations = 40` gives the pseudo-random traversal the same
/// near-certain coverage the module's own experiment uses.
#[test]
fn datasub_rejected_on_both_paths() {
    let mut params = VfParams::test_tiny();
    params.iterations = 40;

    // Module-level conformance: the packaged mount agrees on the cause.
    assert_eq!(
        datasub::naive_tamper(&DeviceConfig::sim_tiny(), &params, 256).unwrap(),
        Detection::WrongChecksum
    );

    let (mut session, verifier) = calibrated(&DeviceConfig::sim_tiny(), &params, 0xDA7A, 5, 11);
    let layout = session.build().layout;
    let addr = layout.base + layout.fill_off + 256;
    let orig = session.dev.peek(addr, 1).unwrap()[0];
    session.dev.poke(addr, &[orig ^ 0x3C]).unwrap();

    assert_rejected_on_both_paths(
        "datasub",
        Scenario {
            verifier,
            respond: Box::new(move |ch| {
                let (got, measured) = session.run_checksum(ch).unwrap();
                (Some(got), measured)
            }),
            cause: Cause::WrongValue,
        },
    );
}

/// Pre-computation / replay (§8): a PCIe interposer records the first
/// result readback and substitutes it into every later round. Fresh
/// challenges make the stale answer wrong.
#[test]
fn forge_rejected_on_both_paths() {
    let params = VfParams::test_tiny();
    let (mut session, verifier) = calibrated(&DeviceConfig::sim_tiny(), &params, 0x4E94, 5, 23);
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));

    // Recording round: the tap captures this (honest) result and will
    // replay it against every fresh challenge the harness issues.
    let recorded_ch: Vec<[u8; 16]> = (0..params.grid_blocks)
        .map(|b| [b as u8 ^ 0x17; 16])
        .collect();
    session.run_checksum(&recorded_ch).unwrap();

    assert_rejected_on_both_paths(
        "forge",
        Scenario {
            verifier,
            respond: Box::new(move |ch| {
                let (got, measured) = session.run_checksum(ch).unwrap();
                (Some(got), measured)
            }),
            cause: Cause::WrongValue,
        },
    );
}

/// LEPC constant substitution (§5.2.2). First the module's premise,
/// executably: a `MOV` of the forged PC reproduces `LEPC` bit-exactly.
/// Then the consequence for SAGE: the substituted constant lives in
/// checksummed bytes (here the reference loop image's absolute epilog
/// branch target), so the traversal folds the forgery into the value.
#[test]
fn lepc_rejected_on_both_paths() {
    // Premise: constant substitution perfectly forges a PC-folding
    // checksum (why folding LEPC alone is not a defence).
    let mut dev = Device::new(DeviceConfig::sim_tiny());
    let out = dev.alloc(4).unwrap();
    let base = dev.alloc(1024).unwrap();
    let genuine = lepc::pc_checksum_kernel(out, true, 0);
    let (honest_value, _) = lepc::run_at(&mut dev, &genuine, base, out).unwrap();
    let base2 = dev.alloc(1024).unwrap();
    let forged = lepc::pc_checksum_kernel(out, false, base + 16);
    let (forged_value, _) = lepc::run_at(&mut dev, &forged, base2, out).unwrap();
    assert_eq!(forged_value, honest_value, "LEPC forged bit-exactly");

    // Consequence on the real VF: substitute the absolute epilog-branch
    // immediate inside the (checksummed, never-executed) reference loop
    // image — the same edit a relocating adversary needs — and the
    // value verdict catches it.
    let mut params = VfParams::test_tiny();
    params.iterations = 40;
    let (mut session, verifier) = calibrated(&DeviceConfig::sim_tiny(), &params, 0x1E9C, 5, 31);
    let layout = session.build().layout;
    let ref_addr = layout.base + layout.ref_loop_off;
    let mut ref_img = session.dev.peek(ref_addr, layout.loop_bytes).unwrap();
    let patched = patch_immediates(
        &mut ref_img,
        Opcode::Bra,
        layout.base + layout.epilog_off,
        layout.base + layout.epilog_off + 64,
    );
    assert!(
        patched >= 1,
        "reference loop must carry the absolute target"
    );
    session.dev.poke(ref_addr, &ref_img).unwrap();

    assert_rejected_on_both_paths(
        "lepc",
        Scenario {
            verifier,
            respond: Box::new(move |ch| {
                let (got, measured) = session.run_checksum(ch).unwrap();
                (Some(got), measured)
            }),
            cause: Cause::WrongValue,
        },
    );
}

/// Bus tap for the memory-copy mount: rewrites the traversal-base
/// immediates in every upload of the executable loop copies, exactly as
/// the module's variant (b) does (the adversary's persistent in-line
/// patch survives the driver's per-round repair upload).
struct LeaRedirect {
    exec_base: u32,
    exec_len: u32,
    old: u32,
    new: u32,
}

impl BusTap for LeaRedirect {
    fn on_h2d(&mut self, addr: u32, data: &mut Vec<u8>) {
        if addr >= self.exec_base && addr < self.exec_base + self.exec_len {
            patch_immediates(data, Opcode::Lea, self.old, self.new);
        }
    }
}

/// Memory copy, variant (b) (§8, Fig. 7): tamper the original region and
/// redirect the traversal to a pristine copy. The fold includes the
/// absolute data pointer, so the redirect itself flips the value.
#[test]
fn memcopy_rejected_on_both_paths() {
    let mut params = VfParams::test_tiny();
    params.iterations = 10;
    let (mut session, verifier) = calibrated(&DeviceConfig::sim_tiny(), &params, 0xB00B, 5, 41);
    let layout = session.build().layout;

    let copy_base = session.dev.alloc(layout.data_bytes).unwrap();
    let pristine = session.dev.peek(layout.base, layout.data_bytes).unwrap();
    session.dev.poke(copy_base, &pristine).unwrap();
    let t = layout.base + layout.fill_off + 128;
    session.dev.poke(t, &[0xEE]).unwrap();
    session.dev.install_bus_tap(Box::new(LeaRedirect {
        exec_base: layout.base + layout.exec_loops_off,
        exec_len: layout.loop_bytes * layout.num_blocks,
        old: layout.base,
        new: copy_base,
    }));

    assert_rejected_on_both_paths(
        "memcopy",
        Scenario {
            verifier,
            respond: Box::new(move |ch| {
                let (got, measured) = session.run_checksum(ch).unwrap();
                (Some(got), measured)
            }),
            cause: Cause::WrongValue,
        },
    );
}

/// Instruction injection (§7.2, experiment 2): the injected VF computes
/// the correct value but every loop pass pays for the extra
/// instructions. The verifier's calibration comes from genuine runs of
/// the same configuration; the injected measurements must always exceed
/// the threshold.
#[test]
fn nop_rejected_on_both_paths() {
    let (cfg, mut params) = nop::timing_test_setup();
    params.iterations = 50;
    let genuine = nop::timing_samples(&cfg, &params, 0x5EED, 4).unwrap();
    let calibration = Calibration::from_samples(&genuine);

    let mut injected_params = params;
    injected_params.injected_nops = 16;
    let mut injected = nop::timing_samples(&cfg, &injected_params, 0x5EED, 2).unwrap();
    assert!(
        injected.iter().min().unwrap() > &calibration.threshold(),
        "injected runs must separate from the genuine threshold"
    );

    // The verifier replays the genuine build; the adversary's responses
    // carry the correct value (None) but the injected timings.
    let dev = Device::new(cfg.clone());
    let session = GpuSession::install(dev, &params, 0x5EED).unwrap();
    let enclave = SgxPlatform::new([7u8; 16]).launch(b"verifier", &mut entropy(53));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.set_calibration(calibration);

    assert_rejected_on_both_paths(
        "nop",
        Scenario {
            verifier,
            respond: Box::new(move |_ch| (None, injected.pop().expect("one sample per round"))),
            cause: Cause::TooSlow,
        },
    );
}

/// Proxy attack (§8): a faster remote GPU computes the correct value,
/// but the answer crosses the network twice. Same build (same params,
/// fill seed and allocation order), so only the timing verdict fires.
#[test]
fn proxy_rejected_on_both_paths() {
    const NETWORK_LATENCY: u64 = 70_000;
    let params = VfParams::test_tiny();
    let cfg = DeviceConfig::sim_tiny();
    let (_genuine_session, verifier) = calibrated(&cfg, &params, 0x9409, 6, 61);

    let proxy_dev = Device::new(faster_gpu(&cfg));
    let mut proxy_session = GpuSession::install(proxy_dev, &params, 0x9409).unwrap();

    assert_rejected_on_both_paths(
        "proxy",
        Scenario {
            verifier,
            respond: Box::new(move |ch| {
                let (got, cycles) = proxy_session.run_checksum(ch).unwrap();
                (Some(got), cycles + 2 * NETWORK_LATENCY)
            }),
            cause: Cause::TooSlow,
        },
    );
}

/// Resource takeover (§8): the adversary queues a spin kernel ahead of
/// the VF. The VF occupies every SM at full occupancy, so the stolen
/// slots delay the checksum visibly — value correct, time over budget.
#[test]
fn takeover_rejected_on_both_paths() {
    let mut params = VfParams::test_tiny();
    params.iterations = 8;
    let (mut session, verifier) = calibrated(&DeviceConfig::sim_tiny(), &params, 0x7A4E, 6, 71);

    let mut spin = spin_kernel(3000);
    let spin_base = session.dev.alloc(spin.byte_len() as u32).unwrap();
    spin.relocate(spin_base);
    session.dev.poke(spin_base, &spin.encode()).unwrap();

    let respond = Box::new(move |ch: &[[u8; 16]]| {
        // Malicious host runtime: replicate the driver's restore flow,
        // then dispatch the spin kernel *before* the VF.
        let layout = session.build().layout;
        let exec_off = layout.exec_loops_off as usize;
        let exec_len = (layout.loop_bytes * layout.num_blocks) as usize;
        let exec_img = session.build().image[exec_off..exec_off + exec_len].to_vec();
        session
            .dev
            .memcpy_h2d(layout.base + layout.exec_loops_off, &exec_img)
            .unwrap();
        session
            .dev
            .memcpy_h2d(layout.result_addr(), &[0u8; 32])
            .unwrap();
        session.dev.take_bus_cycles();
        for (b, c) in ch.iter().enumerate() {
            session
                .dev
                .memcpy_h2d(layout.challenge_addr(b as u32), c)
                .unwrap();
        }
        session
            .dev
            .launch(LaunchParams {
                ctx: session.ctx,
                entry_pc: spin_base,
                grid_dim: 2,
                block_dim: 256,
                regs_per_thread: 16,
                smem_bytes: 0,
                params: vec![],
            })
            .unwrap();
        let vf_id = session
            .dev
            .launch(LaunchParams {
                ctx: session.ctx,
                entry_pc: layout.entry_addr(),
                grid_dim: params.grid_blocks,
                block_dim: params.block_threads,
                regs_per_thread: session.build().regs_per_thread(),
                smem_bytes: session.build().smem_bytes(),
                params: vec![],
            })
            .unwrap();
        let report = session.dev.run().unwrap();
        let raw = session.dev.memcpy_d2h(layout.result_addr(), 32).unwrap();
        let measured = session.dev.take_bus_cycles() + report.launches[vf_id].completion_cycle;
        let mut got = [0u32; 8];
        for (j, cell) in got.iter_mut().enumerate() {
            *cell = u32::from_le_bytes(raw[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
        }
        (Some(got), measured)
    });

    assert_rejected_on_both_paths(
        "takeover",
        Scenario {
            verifier,
            respond,
            cause: Cause::TooSlow,
        },
    );
}

// ---------------------------------------------------------------------
// Evidence-tampering campaigns (PR-7): doctored DeviceReports against
// verify_report, on histories from both verdict paths.
// ---------------------------------------------------------------------

/// An honest fleet history's verifiable artifacts: the minted report,
/// the trusted epoch root, the device's evidence key, and the service
/// clock the report was asserted at.
struct HonestReport {
    report: DeviceReport,
    root: [u8; 32],
    key: [u8; 16],
    now: u64,
}

/// Drives a deterministic two-device fleet (perfect links, synchronous
/// bank refills) long enough to seal two epochs and leave a non-trivial
/// chain suffix — one checksum round plus two liveness probes — then
/// mints gpu-a's report. `bank_capacity = 0` forces every verdict down
/// the classic online-replay path; `> 0` keeps them all on the
/// precomputed bank-hit fast path, and the recorded per-round
/// [`EvidencePath`] is asserted to prove which path produced the
/// history.
fn honest_fleet_report(bank_capacity: usize, expected_path: EvidencePath) -> HonestReport {
    fn fleet_member(name: &str, seed: u8) -> FleetMember {
        let mut params = VfParams::test_tiny();
        params.iterations = 5;
        let session =
            GpuSession::install(Device::new(DeviceConfig::sim_tiny()), &params, 0xF1EE7).unwrap();
        let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(seed))));
        m.name = name.to_string();
        m
    }

    let net = SimNet::new(
        42,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        bank_capacity,
        bank_workers: 0,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 60_000,
            degraded_after: 120_000,
        },
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let archive = Archive::attach(&mut svc);
    svc.join(
        fleet_member("gpu-a", 41),
        SgxPlatform::new([7u8; 16]).launch(b"svc-verifier", &mut entropy(61)),
    );
    svc.join(
        fleet_member("gpu-b", 42),
        SgxPlatform::new([7u8; 16]).launch(b"svc-verifier", &mut entropy(62)),
    );
    svc.run_for(82_000);
    assert!(svc.probe_device("gpu-a").unwrap(), "liveness probe answers");
    assert!(svc.probe_device("gpu-a").unwrap(), "second probe answers");

    // The history really came from the path under test.
    let rounds: Vec<EvidencePath> = archive
        .history(&svc, "gpu-a")
        .iter()
        .filter_map(|r| match r.payload {
            EvidencePayload::ChecksumRound { path, .. } => Some(path),
            _ => None,
        })
        .collect();
    assert!(!rounds.is_empty(), "fleet run must record checksum rounds");
    assert!(
        rounds.iter().all(|p| *p == expected_path),
        "bank_capacity={bank_capacity}: rounds must ride the {expected_path:?} path, got {rounds:?}"
    );

    let report = svc.report_for("gpu-a").expect("epoch sealed with gpu-a");
    assert!(
        report.suffix.len() >= 3,
        "campaigns need a reorderable suffix, got {}",
        report.suffix.len()
    );
    HonestReport {
        root: svc.sealed_epochs().last().unwrap().root,
        key: svc.evidence_key_of("gpu-a").unwrap(),
        now: report.claim.asserted_at,
        report,
    }
}

/// Re-seals a doctored report under the device's own evidence key, so
/// verification penetrates past the envelope MAC to the inner check the
/// campaign targets (an attacker holding the key still cannot rewrite
/// history).
fn reseal(r: DeviceReport, key: &[u8; 16]) -> DeviceReport {
    DeviceReport::seal(
        r.epoch,
        r.leaf,
        r.epoch_root,
        r.proof,
        r.suffix,
        r.claim,
        key,
    )
}

/// Runs every evidence-tampering campaign against one honest history
/// and asserts the exact reject cause for each — plus that the honest
/// report itself still verifies at its own clock (no false rejects) and
/// that nothing doctored ever comes back `Ok` (no false accepts).
fn assert_campaigns_rejected(h: &HonestReport) {
    assert_eq!(
        verify_report(&h.report, &h.root, &h.key, h.now),
        Ok(Freshness::Trusted),
        "the honest report must verify at its own clock"
    );

    // Campaign: forked chain. A valid prefix, then history diverges —
    // suffix[1] is re-signed (correct key, correct back-link) with a
    // doctored payload, so suffix[2]'s stored `prev` no longer matches.
    let mut forked = h.report.clone();
    let fork_at = forked.suffix[1].clone();
    let doctored = match fork_at.payload {
        EvidencePayload::ChannelLiveness { nonce, verdict } => EvidencePayload::ChannelLiveness {
            nonce: nonce ^ 1,
            verdict,
        },
        EvidencePayload::ChecksumRound {
            round,
            measured_cycles,
            threshold_cycles,
            verdict,
            path,
        } => EvidencePayload::ChecksumRound {
            round,
            measured_cycles: measured_cycles.wrapping_add(1),
            threshold_cycles,
            verdict,
            path,
        },
        other => other,
    };
    forked.suffix[1] =
        EvidenceRecord::seal(fork_at.seq, fork_at.at, doctored, fork_at.prev, &h.key);
    let broken_seq = forked.suffix[2].seq;
    assert_eq!(
        verify_report(&reseal(forked, &h.key), &h.root, &h.key, h.now),
        Err(ReportError::BrokenLink { seq: broken_seq }),
        "forked chain must be rejected as broken_link"
    );

    // Campaign: reordered records. Swapping two suffix records breaks
    // the sequence before anything else.
    let mut reordered = h.report.clone();
    reordered.suffix.swap(0, 1);
    let expected_seq = h.report.suffix[0].seq;
    let got_seq = h.report.suffix[1].seq;
    assert_eq!(
        verify_report(&reseal(reordered, &h.key), &h.root, &h.key, h.now),
        Err(ReportError::BadSeq {
            expected: expected_seq,
            got: got_seq,
        }),
        "reordered records must be rejected as bad_seq"
    );

    // Campaign: stale-evidence replay. The untouched report presented
    // after the degraded window claims a trust level the policy no
    // longer yields.
    let replay_at = h.now + h.report.claim.policy.degraded_after;
    assert_eq!(
        verify_report(&h.report, &h.root, &h.key, replay_at),
        Err(ReportError::StaleEvidence {
            claimed: Freshness::Trusted,
            recomputed: Freshness::Degraded,
        }),
        "replayed stale report must be rejected as stale_evidence"
    );

    // Campaign: wrong-key CMAC, envelope level — a relying party holding
    // the real key sees a report MAC'd under any other key fail first.
    let foreign = DeviceReport::seal(
        h.report.epoch,
        h.report.leaf.clone(),
        h.report.epoch_root,
        h.report.proof.clone(),
        h.report.suffix.clone(),
        h.report.claim,
        &[0x5C; 16],
    );
    assert_eq!(
        verify_report(&foreign, &h.root, &h.key, h.now),
        Err(ReportError::BadReportTag),
        "re-keyed envelope must be rejected as bad_report_tag"
    );

    // Campaign: wrong-key CMAC, record level — one suffix record
    // re-signed under a foreign key inside a correctly sealed envelope.
    let mut rekeyed = h.report.clone();
    let rec = rekeyed.suffix[0].clone();
    rekeyed.suffix[0] = EvidenceRecord::seal(rec.seq, rec.at, rec.payload, rec.prev, &[0x5C; 16]);
    assert_eq!(
        verify_report(&reseal(rekeyed, &h.key), &h.root, &h.key, h.now),
        Err(ReportError::BadTag { seq: rec.seq }),
        "re-keyed record must be rejected as bad_tag"
    );

    // Campaign: foreign epoch root — the report anchors to an epoch the
    // relying party does not trust.
    let mut wrong_root = h.root;
    wrong_root[0] ^= 0x80;
    assert_eq!(
        verify_report(&h.report, &wrong_root, &h.key, h.now),
        Err(ReportError::BadEpochRoot),
        "mismatched trusted root must be rejected as bad_epoch_root"
    );

    // Campaign: clipped inclusion proof — drop the sibling step so the
    // leaf no longer reaches the root.
    let mut clipped = h.report.clone();
    assert!(
        !clipped.proof.steps.is_empty(),
        "two-device proof has a step"
    );
    clipped.proof.steps.clear();
    assert_eq!(
        verify_report(&reseal(clipped, &h.key), &h.root, &h.key, h.now),
        Err(ReportError::BadProof),
        "clipped proof must be rejected as bad_proof"
    );

    // Campaign: inflated freshness claim — the anchor is pushed past the
    // newest evidenced pass, contradicting the carried records.
    let mut inflated = h.report.clone();
    inflated.claim.last_pass_at = inflated.claim.last_pass_at.map(|t| t + 1);
    inflated.claim.level = inflated
        .claim
        .policy
        .level(inflated.claim.last_pass_at, inflated.claim.asserted_at);
    assert_eq!(
        verify_report(&reseal(inflated, &h.key), &h.root, &h.key, h.now),
        Err(ReportError::InconsistentClaim),
        "inflated claim must be rejected as inconsistent_claim"
    );
}

/// All eight campaigns against a history whose every verdict came down
/// the classic online-replay path.
#[test]
fn evidence_tampering_rejected_on_classic_path_history() {
    let h = honest_fleet_report(0, EvidencePath::Classic);
    assert_campaigns_rejected(&h);
}

/// The same eight campaigns against a history whose every verdict came
/// out of the precomputed challenge bank.
#[test]
fn evidence_tampering_rejected_on_precomputed_path_history() {
    let h = honest_fleet_report(2, EvidencePath::Precomputed);
    assert_campaigns_rejected(&h);
}

// ---------------------------------------------------------------------
// Byzantine campaigns (PR-10): verifier quorums, spot-check sampling and
// the relay/topology detector, mounted against a live fleet. Each
// campaign runs twice — once with `bank_capacity = 0` (every verdict on
// the classic online-replay path) and once with a stocked bank (every
// verdict on the precomputed fast path) — and asserts the exact
// reject/suspect causes plus zero false accepts on both.
// ---------------------------------------------------------------------

/// One fleet device for the Byzantine campaigns (same tiny build the
/// evidence campaigns use).
fn byz_member(name: &str, seed: u8) -> FleetMember {
    let mut params = VfParams::test_tiny();
    params.iterations = 5;
    let session =
        GpuSession::install(Device::new(DeviceConfig::sim_tiny()), &params, 0xF1EE7).unwrap();
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(seed))));
    m.name = name.to_string();
    m
}

/// The knobs one Byzantine campaign turns; everything else is the same
/// deterministic perfect-link fleet the evidence campaigns run on.
struct FleetSpec {
    bank_capacity: usize,
    quorum: QuorumConfig,
    sampling: SamplingConfig,
    relay_rtt_gate: u64,
}

/// Every record a device's chain has held: what the archive sink took
/// at each epoch seal, keyed by device, ahead of what the chain still
/// retains.
#[derive(Clone, Default)]
struct Archive(Arc<Mutex<HashMap<String, Vec<EvidenceRecord>>>>);

impl Archive {
    fn attach(svc: &mut AttestationService<SimNet>) -> Archive {
        let archive = Archive::default();
        let sink = archive.clone();
        svc.attach_archive(move |name, records| {
            let mut map = sink.0.lock().unwrap();
            map.entry(name.to_string())
                .or_default()
                .extend_from_slice(records);
        });
        archive
    }

    /// The device's whole history, archived ++ live, checked to
    /// re-verify from genesis to the live head.
    fn history(&self, svc: &AttestationService<SimNet>, name: &str) -> Vec<EvidenceRecord> {
        let chain = svc.evidence_of(name).unwrap();
        let mut all = self
            .0
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .unwrap_or_default();
        all.extend_from_slice(chain.records());
        assert_eq!(
            verify_suffix(&all, genesis_head(name), 0, &chain.evidence_key()),
            Ok(chain.head()),
            "{name}: archived ++ live records must re-verify from genesis to the live head"
        );
        all
    }
}

fn byzantine_fleet(spec: &FleetSpec, names: &[&str]) -> (AttestationService<SimNet>, Archive) {
    let net = SimNet::new(
        7,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        latency_budget: 200,
        deadline_slack: 10_000,
        calibration_runs: 5,
        policy: Policy::default(),
        bank_capacity: spec.bank_capacity,
        bank_workers: 0,
        epoch_interval: 30_000,
        quorum: spec.quorum,
        sampling: spec.sampling,
        relay_rtt_gate: spec.relay_rtt_gate,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let archive = Archive::attach(&mut svc);
    for (i, name) in names.iter().enumerate() {
        svc.join(
            byz_member(name, 41 + i as u8),
            SgxPlatform::new([7u8; 16]).launch(b"svc-verifier", &mut entropy(61 + i as u8)),
        );
    }
    (svc, archive)
}

/// Installs the §8 replay tap on an enrolled fleet device (the same
/// post-enrollment compromise `tests/service_fleet.rs` uses).
fn compromise_fleet_device(svc: &mut AttestationService<SimNet>, name: &str) {
    let session = svc.session_mut(name).expect("device is managed");
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
}

fn fleet_rounds_passed(svc: &AttestationService<SimNet>, name: &str) -> u64 {
    svc.statuses()
        .iter()
        .find(|s| s.name == name)
        .unwrap()
        .rounds_passed
}

/// Asserts every checksum round a device recorded rode the expected
/// verdict path — proving which path produced the history under test.
fn assert_fleet_path(
    svc: &AttestationService<SimNet>,
    archive: &Archive,
    name: &str,
    expected: EvidencePath,
) {
    let rounds: Vec<EvidencePath> = archive
        .history(svc, name)
        .iter()
        .filter_map(|r| match r.payload {
            EvidencePayload::ChecksumRound { path, .. } => Some(path),
            _ => None,
        })
        .collect();
    assert!(!rounds.is_empty(), "{name}: no checksum rounds recorded");
    assert!(
        rounds.iter().all(|p| *p == expected),
        "{name}: rounds must ride the {expected:?} path, got {rounds:?}"
    );
}

/// Every sealed quorum-vote record on one device's chain, as
/// `(verifier, vote, outcome, votes_accept, votes_reject)`.
fn quorum_votes_of(
    svc: &AttestationService<SimNet>,
    archive: &Archive,
    name: &str,
) -> Vec<(u16, StageVerdict, StageVerdict, u16, u16)> {
    archive
        .history(svc, name)
        .iter()
        .filter_map(|r| match r.payload {
            EvidencePayload::QuorumVote {
                verifier,
                vote,
                outcome,
                votes_accept,
                votes_reject,
                ..
            } => Some((verifier, vote, outcome, votes_accept, votes_reject)),
            _ => None,
        })
        .collect()
}

/// Campaign: colluding cheating devices under spot-check sampling. Two
/// devices mount the §8 replay together while the sampler attests only
/// half the fleet per epoch. Sampling may *delay* detection — a still-
/// `Trusted` cheater sleeps through uncovered epochs — but never
/// prevents it: the first covered epoch fails the round, the device
/// leaves `Trusted` (losing skip eligibility), and the quarantine
/// budget runs out.
fn colluding_cheaters_under_sampling(bank_capacity: usize, expected_path: EvidencePath) {
    let names = ["gpu-a", "gpu-b", "gpu-c", "gpu-evil1", "gpu-evil2"];
    let evil = ["gpu-evil1", "gpu-evil2"];
    let (mut svc, archive) = byzantine_fleet(
        &FleetSpec {
            bank_capacity,
            quorum: QuorumConfig::default(),
            sampling: SamplingConfig {
                coverage_per_mille: 500,
                seed: 0xC0FFEE,
            },
            relay_rtt_gate: 0,
        },
        &names,
    );
    svc.run_for(45_000);
    for n in names {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} after settling"
        );
    }

    for n in evil {
        compromise_fleet_device(&mut svc, n);
    }
    let banked: Vec<u64> = evil.iter().map(|n| fleet_rounds_passed(&svc, n)).collect();

    let mut settled = false;
    for _ in 0..200 {
        svc.run_for(30_000);
        if evil
            .iter()
            .all(|n| svc.state_of(n) == Some(DeviceState::Quarantined))
        {
            settled = true;
            break;
        }
    }
    assert!(settled, "both colluders must quarantine despite sampling");

    // Zero false accepts: past one honest round already in flight at
    // compromise time plus the tap's recording round, no cheating round
    // ever passed.
    for (i, n) in evil.iter().enumerate() {
        assert!(
            fleet_rounds_passed(&svc, n) <= banked[i] + 2,
            "{n}: cheating rounds were accepted"
        );
    }
    // Zero false rejects: honest devices hold Trusted throughout.
    for n in &names[..3] {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} must stay trusted"
        );
    }

    let counters = svc.log().counters();
    assert_eq!(counters.quarantines, 2, "exactly the two colluders fall");
    assert!(
        counters.value_rejects >= 2 * u64::from(Policy::default().value_quarantine_after),
        "each colluder must burn its full value-reject budget"
    );
    assert!(
        counters.spotcheck_skips >= 1,
        "the sampler must actually skip epochs"
    );
    assert_eq!(counters.timing_rejects, 0);
    assert_eq!(counters.relay_rejects, 0);
    for n in names {
        assert_fleet_path(&svc, &archive, n, expected_path);
    }
}

#[test]
fn colluding_cheaters_under_sampling_rejected_on_classic_path() {
    colluding_cheaters_under_sampling(0, EvidencePath::Classic);
}

#[test]
fn colluding_cheaters_under_sampling_rejected_on_precomputed_path() {
    colluding_cheaters_under_sampling(2, EvidencePath::Precomputed);
}

/// Campaign: one lying verifier in an N = 4 quorum (threshold 3). The
/// liar inverts every ballot — false rejects against honest passes,
/// false accepts laundering the cheater's failures — and every lie is
/// outvoted 3-to-1, flagged `VerifierSuspect`, and sealed into the
/// evidence chain. The lifecycle never follows the liar: zero false
/// accepts, zero false rejects.
fn lying_verifier_outvoted(bank_capacity: usize, expected_path: EvidencePath) {
    let names = ["gpu-a", "gpu-b", "gpu-evil"];
    let (mut svc, archive) = byzantine_fleet(
        &FleetSpec {
            bank_capacity,
            quorum: QuorumConfig {
                verifiers: 4,
                seed: 0x51D,
            },
            sampling: SamplingConfig::default(),
            relay_rtt_gate: 0,
        },
        &names,
    );
    svc.run_for(45_000);
    for n in names {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} after settling"
        );
    }
    // An all-honest quorum is silent: unanimous agreement appends no
    // dispute events and no vote evidence.
    assert_eq!(svc.log().counters().quorum_disputes, 0);
    assert_eq!(svc.log().counters().verifier_suspects, 0);

    svc.quorum_mut()
        .unwrap()
        .set_behavior(1, VerifierBehavior::Invert);
    compromise_fleet_device(&mut svc, "gpu-evil");

    let mut settled = false;
    for _ in 0..100 {
        svc.run_for(30_000);
        if svc.state_of("gpu-evil") == Some(DeviceState::Quarantined) {
            settled = true;
            break;
        }
    }
    assert!(
        settled,
        "the cheater must quarantine despite the liar's accept votes"
    );
    for n in &names[..2] {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n}: the liar's reject votes must not dent an honest device"
        );
    }

    let counters = svc.log().counters();
    assert!(counters.quorum_disputes >= 2);
    assert!(counters.verifier_suspects >= 1);

    let set = svc.quorum().unwrap();
    assert_eq!(set.threshold(), 3);
    let liar = &set.replicas()[1];
    assert!(liar.suspected, "the liar must be flagged VerifierSuspect");
    assert!(liar.dissents >= 2);
    for (i, r) in set.replicas().iter().enumerate() {
        if i != 1 {
            assert!(!r.suspected, "replica {i} is honest and must stay clean");
        }
    }
    assert!(
        set.honest_views_agree(),
        "honest replicas' evidence views must stay identical"
    );

    // The sealed dissent always records the honest outcome — a false
    // reject on a passing honest round...
    let honest_dissents = quorum_votes_of(&svc, &archive, "gpu-a");
    assert!(
        !honest_dissents.is_empty(),
        "false-reject dissents must be sealed into the honest chain"
    );
    for (verifier, vote, outcome, acc, rej) in &honest_dissents {
        assert_eq!(*verifier, 1, "only the liar dissents");
        assert_eq!(
            *outcome,
            StageVerdict::Pass,
            "outcome follows the honest verdict"
        );
        assert_ne!(
            *vote,
            StageVerdict::Pass,
            "the sealed ballot is the lie itself"
        );
        assert_eq!(
            (*acc, *rej),
            (3, 1),
            "3 honest accepts outvote 1 lying reject"
        );
    }
    // ...and a false accept cannot launder the cheater's failures.
    let laundering: Vec<_> = quorum_votes_of(&svc, &archive, "gpu-evil")
        .into_iter()
        .filter(|(_, _, outcome, _, _)| *outcome != StageVerdict::Pass)
        .collect();
    assert!(
        !laundering.is_empty(),
        "false-accept dissents must be sealed into the cheater's chain"
    );
    for (verifier, vote, outcome, acc, rej) in &laundering {
        assert_eq!(*verifier, 1);
        assert_eq!(*vote, StageVerdict::Pass, "the liar votes accept");
        assert_ne!(*outcome, StageVerdict::Pass, "the round still fails");
        assert_eq!(
            (*acc, *rej),
            (1, 3),
            "3 honest rejects outvote 1 lying accept"
        );
    }
    for n in names {
        assert_fleet_path(&svc, &archive, n, expected_path);
    }
}

#[test]
fn lying_verifier_outvoted_on_classic_path() {
    lying_verifier_outvoted(0, EvidencePath::Classic);
}

#[test]
fn lying_verifier_outvoted_on_precomputed_path() {
    lying_verifier_outvoted(2, EvidencePath::Precomputed);
}

/// Campaign: ⌈N/3⌉ − 1 colluding lying verifiers at N = 7 (two
/// colluders, threshold 5). The Byzantine minority dissents on every
/// verdict, both are flagged, and the five honest replicas still clear
/// the threshold on every round — the quorum stays correct.
fn colluding_verifier_minority_outvoted(bank_capacity: usize, expected_path: EvidencePath) {
    let names = ["gpu-a", "gpu-b", "gpu-evil"];
    let colluders = [2usize, 5];
    let (mut svc, archive) = byzantine_fleet(
        &FleetSpec {
            bank_capacity,
            quorum: QuorumConfig {
                verifiers: 7,
                seed: 0xBEEF,
            },
            sampling: SamplingConfig::default(),
            relay_rtt_gate: 0,
        },
        &names,
    );
    svc.run_for(45_000);
    for n in names {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} after settling"
        );
    }
    for i in colluders {
        svc.quorum_mut()
            .unwrap()
            .set_behavior(i, VerifierBehavior::Invert);
    }
    compromise_fleet_device(&mut svc, "gpu-evil");

    let mut settled = false;
    for _ in 0..100 {
        svc.run_for(30_000);
        if svc.state_of("gpu-evil") == Some(DeviceState::Quarantined) {
            settled = true;
            break;
        }
    }
    assert!(
        settled,
        "the cheater must quarantine under a Byzantine minority"
    );
    for n in &names[..2] {
        assert_eq!(svc.state_of(n), Some(DeviceState::Trusted), "{n}");
    }

    let set = svc.quorum().unwrap();
    assert_eq!(set.threshold(), 5, "⌈2·7/3⌉ = 5");
    for i in colluders {
        assert!(set.replicas()[i].suspected, "colluder {i} must be flagged");
        assert!(set.replicas()[i].dissents >= 2);
    }
    for (i, r) in set.replicas().iter().enumerate() {
        if !colluders.contains(&i) {
            assert!(!r.suspected, "honest replica {i} must stay clean");
        }
    }
    assert!(set.honest_views_agree());

    // Every sealed vote shows the five honest replicas clearing the
    // threshold against the two lies, with the outcome never flipped.
    for n in names {
        for (verifier, vote, outcome, acc, rej) in quorum_votes_of(&svc, &archive, n) {
            assert!(
                colluders.contains(&usize::from(verifier)),
                "{n}: only colluders dissent"
            );
            assert_ne!(vote, outcome, "{n}: a dissent is a mismatched ballot");
            if outcome == StageVerdict::Pass {
                assert_eq!(
                    (acc, rej),
                    (5, 2),
                    "{n}: 5 honest accepts vs 2 lying rejects"
                );
            } else {
                assert_eq!(
                    (acc, rej),
                    (2, 5),
                    "{n}: 5 honest rejects vs 2 lying accepts"
                );
            }
        }
        assert_fleet_path(&svc, &archive, n, expected_path);
    }
}

#[test]
fn colluding_verifier_minority_outvoted_on_classic_path() {
    colluding_verifier_minority_outvoted(0, EvidencePath::Classic);
}

#[test]
fn colluding_verifier_minority_outvoted_on_precomputed_path() {
    colluding_verifier_minority_outvoted(2, EvidencePath::Precomputed);
}

/// Campaign: relay/proxy checksum outsourcing (§8). The relayed GPU's
/// compute time looks perfectly honest — `measured_cycles` stays under
/// the §7.2 threshold — but the answer pays an extra hop on the wire,
/// and the round-trip topology evidence (wall clock minus device-
/// reported compute vs the calibrated RTT gate) catches it: rejected as
/// `relay`, never restartable, straight to quarantine.
fn relay_outsourcing_caught_by_topology(bank_capacity: usize, expected_path: EvidencePath) {
    let names = ["gpu-a", "gpu-relay"];
    let (mut svc, archive) = byzantine_fleet(
        &FleetSpec {
            bank_capacity,
            quorum: QuorumConfig::default(),
            sampling: SamplingConfig::default(),
            relay_rtt_gate: 2_000,
        },
        &names,
    );
    svc.run_for(45_000);
    for n in names {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} after settling"
        );
    }

    // The compromise: responses now pay a second link crossing, without
    // touching the reported compute time.
    svc.node_mut("gpu-relay").unwrap().relay_delay = 5_000;
    let banked = fleet_rounds_passed(&svc, "gpu-relay");

    let mut settled = false;
    for _ in 0..100 {
        svc.run_for(30_000);
        if svc.state_of("gpu-relay") == Some(DeviceState::Quarantined) {
            settled = true;
            break;
        }
    }
    assert!(settled, "the relayed device must quarantine");
    assert_eq!(svc.state_of("gpu-a"), Some(DeviceState::Trusted));
    // Zero false accepts: past the one honest round already in flight
    // when the relay was inserted, no relayed round may pass.
    assert!(
        fleet_rounds_passed(&svc, "gpu-relay") <= banked + 1,
        "relayed rounds were accepted"
    );

    // The cause is exactly `relay` — not a timing or value reject, not
    // a timeout — on every post-compromise failure.
    let counters = svc.log().counters();
    assert!(
        counters.relay_rejects >= u64::from(Policy::default().quarantine_after),
        "relay rejects must burn the quarantine budget"
    );
    assert_eq!(counters.timing_rejects, 0);
    assert_eq!(counters.value_rejects, 0);
    assert_eq!(counters.timeouts, 0);
    assert_eq!(counters.quarantines, 1);
    let relay_fails = svc
        .log()
        .events()
        .iter()
        .filter(|e| {
            e.device == "gpu-relay"
                && matches!(
                    e.kind,
                    EventKind::RoundFailed {
                        reason: FailReason::Relay,
                        ..
                    }
                )
        })
        .count() as u64;
    assert_eq!(relay_fails, counters.relay_rejects);

    // The evidence chain records the relayed rounds as TooSlow on the
    // path under test (timing-class failure, §7.2 ∪ topology).
    let verdicts: Vec<StageVerdict> = archive
        .history(&svc, "gpu-relay")
        .iter()
        .filter_map(|r| match r.payload {
            EvidencePayload::ChecksumRound { verdict, .. } => Some(verdict),
            _ => None,
        })
        .collect();
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| **v == StageVerdict::TooSlow)
            .count() as u64,
        counters.relay_rejects,
        "every relay reject is sealed as a TooSlow round"
    );
    for n in names {
        assert_fleet_path(&svc, &archive, n, expected_path);
    }
}

#[test]
fn relay_outsourcing_rejected_on_classic_path() {
    relay_outsourcing_caught_by_topology(0, EvidencePath::Classic);
}

#[test]
fn relay_outsourcing_rejected_on_precomputed_path() {
    relay_outsourcing_caught_by_topology(2, EvidencePath::Precomputed);
}

/// Campaign: the sampling-aware cheater. A device compromised while
/// `Trusted` keeps sleeping through every epoch the seeded plan leaves
/// it uncovered — cheating undetected exactly as long as the sampler
/// looks away — and is caught the first covered epoch, within the
/// modeled `epochs_to_detect(c, 98%)` bound.
fn unsampled_epoch_cheater_caught_within_model(bank_capacity: usize, expected_path: EvidencePath) {
    let sampling = SamplingConfig {
        coverage_per_mille: 250,
        seed: 0x5A37,
    };
    let names = ["gpu-a", "gpu-cheat"];
    let (mut svc, archive) = byzantine_fleet(
        &FleetSpec {
            bank_capacity,
            quorum: QuorumConfig::default(),
            sampling,
            relay_rtt_gate: 0,
        },
        &names,
    );
    svc.run_for(45_000);
    for n in names {
        assert_eq!(
            svc.state_of(n),
            Some(DeviceState::Trusted),
            "{n} after settling"
        );
    }

    let banked = fleet_rounds_passed(&svc, "gpu-cheat");
    compromise_fleet_device(&mut svc, "gpu-cheat");
    let compromised_at = 45_000u64;
    let start_epoch = compromised_at / 30_000;
    let k = epochs_to_detect(sampling.coverage_per_mille, 980);

    let mut settled = false;
    for _ in 0..(k + 6) {
        svc.run_for(30_000);
        if svc.state_of("gpu-cheat") == Some(DeviceState::Quarantined) {
            settled = true;
            break;
        }
    }
    assert!(settled, "the sampled-epoch cheater must still quarantine");
    assert_eq!(svc.state_of("gpu-a"), Some(DeviceState::Trusted));

    // The first failing round: find when it started and which epoch
    // that was.
    let events = svc.log().events();
    let first_fail_round = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RoundFailed { round, .. } if e.device == "gpu-cheat" => Some(round),
            _ => None,
        })
        .expect("the cheater must fail a round");
    let detect_at = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RoundStarted { round }
                if e.device == "gpu-cheat" && round == first_fail_round =>
            {
                Some(e.at)
            }
            _ => None,
        })
        .expect("the failing round has a start");
    let detect_epoch = detect_at / 30_000;
    // The tap spends the first round after the compromise recording an
    // honest readback; every round after it replays a stale answer. For
    // this device under this plan the first covered epoch after that
    // recording round is deterministic, and the failure lands no later
    // than one epoch past it (round-cadence slack).
    let recorded_at = events
        .iter()
        .find(|e| {
            e.device == "gpu-cheat"
                && e.at > compromised_at
                && matches!(e.kind, EventKind::RoundPassed { .. })
        })
        .expect("the tap records one passing round")
        .at;
    let first_covered = (recorded_at / 30_000 + 1..)
        .find(|e| covers(&sampling, *e, "gpu-cheat"))
        .expect("coverage > 0 covers every device eventually");
    let fail_at = events
        .iter()
        .find(|e| e.device == "gpu-cheat" && matches!(e.kind, EventKind::RoundFailed { .. }))
        .expect("the cheater must fail a round")
        .at;
    assert!(
        fail_at / 30_000 <= first_covered + 1,
        "failed in epoch {} but the plan covers the cheater at epoch {first_covered}",
        fail_at / 30_000
    );

    // Caught within the modeled bound, in an epoch the plan covers.
    assert!(
        detect_epoch - start_epoch <= k,
        "detection took {} epochs, model bounds it at {k}",
        detect_epoch - start_epoch
    );
    assert!(
        covers(&sampling, detect_epoch, "gpu-cheat"),
        "detection must land in a covered epoch"
    );

    // The cheater really did hide first: at least one uncovered epoch
    // was skipped between compromise and detection, and every skip the
    // log shows for it agrees with the pure sampling rule.
    let skipped: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SpotCheckSkipped { epoch } if e.device == "gpu-cheat" => Some(epoch),
            _ => None,
        })
        .collect();
    assert!(
        skipped
            .iter()
            .any(|e| *e >= start_epoch && *e < detect_epoch),
        "the cheater must hide through at least one uncovered epoch, skips: {skipped:?}"
    );
    for e in &skipped {
        assert!(
            !covers(&sampling, *e, "gpu-cheat"),
            "epoch {e} was skipped but the plan covers it"
        );
    }

    // Zero false accepts: past one in-flight honest round and the tap's
    // recording round nothing passed, and the budget ran out as value
    // rejects.
    assert!(
        fleet_rounds_passed(&svc, "gpu-cheat") <= banked + 2,
        "the cheater passed {} rounds after its compromise",
        fleet_rounds_passed(&svc, "gpu-cheat") - banked
    );
    let counters = svc.log().counters();
    assert_eq!(counters.quarantines, 1);
    assert!(counters.value_rejects >= u64::from(Policy::default().value_quarantine_after));
    for n in names {
        assert_fleet_path(&svc, &archive, n, expected_path);
    }
}

#[test]
fn unsampled_epoch_cheater_caught_on_classic_path() {
    unsampled_epoch_cheater_caught_within_model(0, EvidencePath::Classic);
}

#[test]
fn unsampled_epoch_cheater_caught_on_precomputed_path() {
    unsampled_epoch_cheater_caught_within_model(2, EvidencePath::Precomputed);
}

/// The reject causes are what the matrix table says they are — the
/// stable `cause()` labels a fleet operator would alert on.
#[test]
fn evidence_reject_causes_have_stable_labels() {
    for (err, label) in [
        (ReportError::BadReportTag, "bad_report_tag"),
        (ReportError::BadEpochRoot, "bad_epoch_root"),
        (ReportError::BadProof, "bad_proof"),
        (
            ReportError::BadSeq {
                expected: 1,
                got: 2,
            },
            "bad_seq",
        ),
        (ReportError::BadTag { seq: 1 }, "bad_tag"),
        (ReportError::BrokenLink { seq: 1 }, "broken_link"),
        (ReportError::InconsistentClaim, "inconsistent_claim"),
        (
            ReportError::StaleEvidence {
                claimed: Freshness::Trusted,
                recomputed: Freshness::Stale,
            },
            "stale_evidence",
        ),
    ] {
        assert_eq!(err.cause(), label);
    }
}
