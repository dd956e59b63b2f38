//! The enclave-resident verifier: challenges, replay, timing verdicts,
//! key establishment and external attestation.

use sage_crypto::canon::Reader;
use sage_crypto::DhGroup;
use sage_sgx_sim::{Enclave, Quote};
use sage_telemetry::{Counter, Histogram, Registry};
use sage_vf::{
    codegen::VfBuild, expected_checksum, BankConfig, BankCounters, ChallengeBank, Fingerprint,
};

use crate::{
    agent::DeviceAgent,
    channel::{Role, SecureChannel},
    error::{Result, SageError},
    sake::{derive_challenges, SakeMessage, SakeVerifier},
    session::GpuSession,
    timing::{Calibration, VerificationStats},
};

/// Result of a successful attestation + key establishment.
#[derive(Clone, Debug)]
pub struct AttestationOutcome {
    /// The established symmetric session key.
    pub session_key: [u8; 16],
    /// Measured checksum exchange time (cycles).
    pub measured_cycles: u64,
    /// The threshold it was checked against.
    pub threshold_cycles: u64,
}

/// A hook for adversarial message interposition in tests and the attack
/// harness: called with the flow step index and the in-flight message.
pub type MessageTap<'a> = &'a mut dyn FnMut(usize, &mut SakeMessage);

/// A transport closure carrying one challenge set to the device and
/// returning its `(checksum, measured_cycles)` answer — the seam that
/// lets [`Verifier::calibrate_with`] run over in-process sessions and
/// real sockets alike.
pub type ChecksumRun<'a> = &'a mut dyn FnMut(&[[u8; 16]]) -> Result<([u32; 8], u64)>;

/// Which verification path judged a response: the classic online-replay
/// path ([`Verifier::check_response`]) or the precomputed bank-hit fast
/// path ([`Verifier::check_response_precomputed`]). Telemetry labels
/// verdicts with this so the attack matrix can assert both paths reject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VerdictPath {
    Classic,
    Precomputed,
}

impl VerdictPath {
    const ALL: [VerdictPath; 2] = [VerdictPath::Classic, VerdictPath::Precomputed];

    fn label(self) -> &'static str {
        match self {
            VerdictPath::Classic => "classic",
            VerdictPath::Precomputed => "precomputed",
        }
    }
}

/// Reject-cause labels, mirroring [`crate::error::SageError`]'s two
/// verdict failures.
const REJECT_CAUSES: [&str; 2] = ["wrong_value", "too_slow"];

/// This verifier's handles on the fleet's shared verdict instruments
/// (cause × path labeled verdicts plus the measured-cycles
/// distribution).
struct VerifierTelemetry {
    /// Accepts by path.
    accepts: [Counter; 2],
    /// Rejects by `[cause][path]` (cause 0 = wrong_value, 1 = too_slow).
    rejects: [[Counter; 2]; 2],
    /// Every measured exchange time judged, accept or reject (cycles).
    measured: Histogram,
    /// Kept so a bank enabled *after* attachment still gets registered
    /// (see [`Verifier::enable_fast_path`]).
    registry: Registry,
}

impl VerifierTelemetry {
    fn new(reg: &Registry) -> VerifierTelemetry {
        VerifierTelemetry {
            accepts: VerdictPath::ALL
                .map(|p| reg.counter("verifier_accepts_total", &[("path", p.label())])),
            rejects: REJECT_CAUSES.map(|cause| {
                VerdictPath::ALL.map(|p| {
                    reg.counter(
                        "verifier_rejects_total",
                        &[("cause", cause), ("path", p.label())],
                    )
                })
            }),
            measured: reg.histogram("verifier_measured_cycles", &[]),
            registry: reg.clone(),
        }
    }
}

/// The SAGE verifier, running inside the (simulated) enclave.
pub struct Verifier {
    /// The hosting enclave (nonce source, sealing, quotes).
    pub enclave: Enclave,
    build: VfBuild,
    fingerprint: Fingerprint,
    group: DhGroup,
    calibration: Option<Calibration>,
    stats: VerificationStats,
    bank: Option<ChallengeBank>,
    telemetry: Option<VerifierTelemetry>,
}

impl Verifier {
    /// Creates a verifier for an installed VF build.
    pub fn new(enclave: Enclave, build: VfBuild, group: DhGroup) -> Verifier {
        let fingerprint = build.fingerprint();
        Verifier {
            enclave,
            build,
            fingerprint,
            group,
            calibration: None,
            stats: VerificationStats::default(),
            bank: None,
            telemetry: None,
        }
    }

    /// Attaches this verifier to a telemetry registry: verdicts are
    /// exported as `verifier_accepts_total{path}` /
    /// `verifier_rejects_total{cause, path}` counters (cause ∈
    /// `wrong_value` | `too_slow`, path ∈ `classic` | `precomputed`)
    /// plus a `verifier_measured_cycles` histogram over every judged
    /// exchange time. Every verifier on the registry shares these
    /// series. When the fast path is enabled, the bank feeds the
    /// registry's `vf_bank_*` series too.
    pub fn attach_telemetry(&mut self, reg: &Registry) {
        self.telemetry = Some(VerifierTelemetry::new(reg));
        if let Some(bank) = &self.bank {
            bank.register_telemetry(reg);
        }
    }

    /// Fresh random per-block challenges from the enclave DRBG.
    pub fn generate_challenges(&mut self) -> Vec<[u8; 16]> {
        (0..self.build.params.grid_blocks)
            .map(|_| self.enclave.nonce16())
            .collect()
    }

    /// Turns on the precomputed-round fast path: a [`ChallengeBank`]
    /// stocked by [`Verifier::prefill_rounds`] and refilled inline by
    /// blocking takes (`cfg.workers` is ignored; the bank starts no
    /// thread). Challenge bytes come from an AES-CTR generator seeded
    /// once from the enclave DRBG, so randomness still originates inside
    /// the enclave.
    ///
    /// After this, [`Verifier::prepare_round`] serves `(challenges,
    /// expected)` pairs whose replay already happened off the critical
    /// path; rounds that hit the bank skip replay entirely.
    pub fn enable_fast_path(&mut self, cfg: BankConfig) {
        let seed = self.enclave.random(32);
        let key: [u8; 16] = seed[..16].try_into().expect("16 bytes");
        let iv: [u8; 16] = seed[16..].try_into().expect("16 bytes");
        let mut ctr = sage_crypto::AesCtr::new(&key, &iv);
        let gen = Box::new(move |c: &mut [u8; 16]| ctr.keystream_into(c));
        let bank = ChallengeBank::new(self.build.clone(), cfg, gen);
        if let Some(t) = &self.telemetry {
            bank.register_telemetry(&t.registry);
        }
        self.bank = Some(bank);
    }

    /// Whether the precomputed fast path is active.
    pub fn fast_path_enabled(&self) -> bool {
        self.bank.is_some()
    }

    /// Bank hit/miss/refill counters, when the fast path is enabled.
    pub fn bank_counters(&self) -> Option<BankCounters> {
        self.bank.as_ref().map(|b| b.counters())
    }

    /// Synchronously precomputes up to `n` rounds into the bank (no-op
    /// without the fast path). This is the only way stock appears ahead
    /// of a take — deterministic tests and the offline phase of
    /// benchmarks use it. Rounds are replayed on the calling thread, in
    /// generator order ([`ChallengeBank::fill`]).
    pub fn prefill_rounds(&mut self, n: usize) {
        if let Some(bank) = &self.bank {
            bank.fill(n);
        }
    }

    /// Chaos hook: corrupts the stocked bank pair at `index` the way a
    /// host-memory fault would (payload changes, integrity tag doesn't).
    /// The bank detects the mismatch at take time and the round falls
    /// back to online replay — this hook exists so tests and the chaos
    /// soak can prove that. Returns `false` without the fast path or
    /// when no pair sits at `index`.
    pub fn corrupt_bank_stock(&self, index: usize) -> bool {
        self.bank
            .as_ref()
            .map(|b| b.corrupt_stock(index))
            .unwrap_or(false)
    }

    /// The fingerprint of this verifier's VF build.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Challenges for the next round, with the expected checksum attached
    /// when the bank had stock (`None` means the caller verifies via the
    /// replay path). Without the fast path — or when the bank is
    /// momentarily empty — this transparently degrades to
    /// [`Verifier::generate_challenges`]; no round is ever delayed.
    pub fn prepare_round(&mut self) -> (Vec<[u8; 16]>, Option<[u32; 8]>) {
        if let Some(bank) = &self.bank {
            if let Ok(Some(round)) = bank.take(&self.fingerprint) {
                return (round.challenges, Some(round.expected));
            }
        }
        (self.generate_challenges(), None)
    }

    /// Like [`Verifier::prepare_round`], but computes the next pair on
    /// this thread when the bank has no valid stock instead of falling
    /// back, so the expected checksum is always attached when the fast
    /// path is enabled. Stocked or computed, the pair is the next one in
    /// generator order, so the consumed challenge sequence is the same
    /// whatever the stock level — the property calibration relies on for
    /// reproducible runs.
    pub fn prepare_round_blocking(&mut self) -> (Vec<[u8; 16]>, Option<[u32; 8]>) {
        if let Some(bank) = &self.bank {
            if let Ok(round) = bank.take_blocking(&self.fingerprint) {
                return (round.challenges, Some(round.expected));
            }
        }
        (self.generate_challenges(), None)
    }

    /// The expected checksum for a challenge set (bit-exact replay).
    pub fn expected(&self, challenges: &[[u8; 16]]) -> [u32; 8] {
        expected_checksum(&self.build, challenges)
    }

    /// Calibrates the timing threshold over `runs` checksum exchanges on
    /// a known-good device (paper §7.2: 100 runs, threshold
    /// `T_avg + 2.5σ`). Each run's checksum is also verified. With the
    /// fast path enabled, expected checksums are drawn from the bank
    /// (replay overlaps the device runs instead of serializing with
    /// them).
    pub fn calibrate(&mut self, session: &mut GpuSession, runs: usize) -> Result<Calibration> {
        self.calibrate_with(runs, &mut |ch| session.run_checksum(ch))
    }

    /// Transport-agnostic calibration: the `run` closure carries each
    /// challenge set to wherever the device lives (an in-process
    /// [`GpuSession`], or a socket) and returns the `(checksum,
    /// measured_cycles)` pair it produced. Verdict logic is identical to
    /// [`Verifier::calibrate`], which is a thin wrapper over this.
    pub fn calibrate_with(&mut self, runs: usize, run: ChecksumRun<'_>) -> Result<Calibration> {
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (ch, precomputed) = self.prepare_round_blocking();
            let (got, measured) = run(&ch)?;
            let expected = precomputed.unwrap_or_else(|| self.expected(&ch));
            if got != expected {
                return Err(SageError::ChecksumMismatch { got, expected });
            }
            samples.push(measured);
        }
        let calibration = Calibration::try_from_samples(&samples)?;
        self.calibration = Some(calibration);
        Ok(calibration)
    }

    /// The current calibration, if any.
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }

    /// Installs an externally obtained calibration (e.g. from a golden
    /// reference of the same hardware configuration).
    pub fn set_calibration(&mut self, c: Calibration) {
        self.calibration = Some(c);
    }

    /// Seals the current calibration into the enclave's protected store,
    /// so a restarted verifier on the same platform can resume without
    /// re-measuring (sealing is bound to the enclave measurement).
    ///
    /// Returns `false` when no calibration exists yet.
    pub fn seal_calibration(&mut self) -> bool {
        let Some(c) = self.calibration else {
            return false;
        };
        let mut blob = Vec::with_capacity(32);
        c.encode(&mut blob);
        self.enclave.seal("calibration", &blob);
        true
    }

    /// Restores a previously sealed calibration. Returns `false` if no
    /// valid sealed blob exists (missing or tampered).
    pub fn unseal_calibration(&mut self) -> bool {
        let Some(blob) = self.enclave.unseal("calibration") else {
            return false;
        };
        let mut r = Reader::new(&blob);
        match Calibration::decode_from(&mut r).and_then(|c| r.finish().map(|_| c)) {
            Ok(c) => {
                self.calibration = Some(c);
                true
            }
            Err(_) => false,
        }
    }

    fn check_timing(&mut self, measured: u64, path: VerdictPath) -> Result<u64> {
        let calibration = self
            .calibration
            .ok_or_else(|| SageError::Protocol("verifier not calibrated".into()))?;
        if !calibration.accepts(measured) {
            self.stats.timing_rejects += 1;
            if let Some(t) = &self.telemetry {
                t.rejects[1][path as usize].inc();
            }
            return Err(SageError::TimingExceeded {
                measured,
                threshold: calibration.threshold(),
            });
        }
        Ok(calibration.threshold())
    }

    /// The calibrated detection threshold (`T_avg + k·σ`), if calibrated.
    pub fn threshold(&self) -> Option<u64> {
        self.calibration.map(|c| c.threshold())
    }

    /// Judges a checksum response that was produced elsewhere (e.g.
    /// received over a transport): replays the expected value for
    /// `challenges`, then applies the value and timing verdicts. Returns
    /// the threshold the measurement was checked against.
    ///
    /// This is the remote-verification hook the attestation service layer
    /// uses — [`Verifier::verify_once`] is the local, session-driving
    /// equivalent.
    pub fn check_response(
        &mut self,
        challenges: &[[u8; 16]],
        got: [u32; 8],
        measured: u64,
    ) -> Result<u64> {
        let expected = self.expected(challenges);
        self.judge(expected, got, measured, VerdictPath::Classic)
    }

    /// Judges a response against an already-known expected checksum (a
    /// bank hit): compare and timing check only, zero replay on the
    /// online critical path. This is the fast-path counterpart of
    /// [`Verifier::check_response`]; the verdicts are identical.
    pub fn check_response_precomputed(
        &mut self,
        expected: [u32; 8],
        got: [u32; 8],
        measured: u64,
    ) -> Result<u64> {
        self.judge(expected, got, measured, VerdictPath::Precomputed)
    }

    /// The shared verdict core: value compare, then timing check. Both
    /// public entry points funnel here so classic and precomputed
    /// verdicts are identical by construction — only the telemetry
    /// `path` label differs.
    fn judge(
        &mut self,
        expected: [u32; 8],
        got: [u32; 8],
        measured: u64,
        path: VerdictPath,
    ) -> Result<u64> {
        if let Some(t) = &self.telemetry {
            t.measured.record(measured);
        }
        if got != expected {
            self.stats.value_rejects += 1;
            if let Some(t) = &self.telemetry {
                t.rejects[0][path as usize].inc();
            }
            return Err(SageError::ChecksumMismatch { got, expected });
        }
        let threshold = self.check_timing(measured, path)?;
        self.stats.accepted += 1;
        if let Some(t) = &self.telemetry {
            t.accepts[path as usize].inc();
        }
        Ok(threshold)
    }

    /// One challenge–response verification round: fresh challenges, timed
    /// run, value and timing verdicts (the repeated invocation of Fig. 3,
    /// step 4). Uses a precomputed bank round when one is in stock,
    /// falling back to online replay transparently.
    pub fn verify_once(&mut self, session: &mut GpuSession) -> Result<u64> {
        let (ch, precomputed) = self.prepare_round();
        let (got, measured) = session.run_checksum(&ch)?;
        match precomputed {
            Some(expected) => self.check_response_precomputed(expected, got, measured)?,
            None => self.check_response(&ch, got, measured)?,
        };
        Ok(measured)
    }

    /// Verification outcome counters.
    pub fn stats(&self) -> VerificationStats {
        self.stats
    }

    /// Runs the full modified-SAKE key establishment against the device
    /// agent (paper §5.2.3), with an optional message tap for adversarial
    /// interposition.
    pub fn establish_key(
        &mut self,
        session: &mut GpuSession,
        agent: &mut DeviceAgent,
        mut tap: Option<MessageTap<'_>>,
    ) -> Result<AttestationOutcome> {
        let group = self.group.clone();
        self.establish_key_with(&mut |step, mut msg| {
            let mut touch = |step: usize, msg: &mut SakeMessage| {
                if let Some(t) = tap.as_mut() {
                    t(step, msg);
                }
            };
            // Tap numbering is unchanged from the monolithic flow: even
            // steps are verifier→device, odd steps device→verifier.
            touch(step * 2, &mut msg);
            let (mut reply, measured) = match (step, msg) {
                (0, SakeMessage::Challenge { v2 }) => {
                    let (commit, measured) = agent.handle_challenge(session, group.clone(), v2)?;
                    (commit, Some(measured))
                }
                (1, SakeMessage::RevealV1 { v1 }) => (agent.handle_reveal_v1(v1)?, None),
                (2, SakeMessage::RevealV0 { v0 }) => (agent.handle_reveal_v0(v0)?, None),
                _ => return Err(SageError::Protocol("bad flow: unexpected step".into())),
            };
            touch(step * 2 + 1, &mut reply);
            Ok((reply, measured))
        })
    }

    /// Transport-agnostic modified-SAKE key establishment: the enclave
    /// side of the flow runs here, while the `exchange` closure carries
    /// each verifier message to the device and returns its reply. Step 0
    /// sends the challenge and must come back as a commit together with
    /// the device's measured exchange time (`Some(cycles)` — over a real
    /// link the device reports it in the commit frame); steps 1 and 2
    /// carry the v1/v0 reveals. Timing and checksum verdicts, and their
    /// ordering relative to the reveals, are identical to the in-process
    /// [`Verifier::establish_key`], which is a thin wrapper over this.
    pub fn establish_key_with(
        &mut self,
        exchange: &mut dyn FnMut(usize, SakeMessage) -> Result<(SakeMessage, Option<u64>)>,
    ) -> Result<AttestationOutcome> {
        let mut entropy = {
            // The enclave DRBG provides the verifier's randomness.
            let seed = self.enclave.random(32);
            let key: [u8; 16] = seed[..16].try_into().expect("16 bytes");
            let iv: [u8; 16] = seed[16..].try_into().expect("16 bytes");
            sage_crypto::AesCtr::new(&key, &iv)
        };
        let (mut sake, msg) = SakeVerifier::start(self.group.clone(), &mut entropy);
        let SakeMessage::Challenge { v2 } = msg else {
            return Err(SageError::Protocol("bad flow: challenge".into()));
        };

        // The device computes the checksum under the v2-derived
        // challenges; the verifier replays the same derivation.
        let (commit, measured) = exchange(0, SakeMessage::Challenge { v2 })?;
        let measured =
            measured.ok_or_else(|| SageError::Protocol("commit carried no timing".into()))?;
        let challenges = derive_challenges(&v2, self.build.params.grid_blocks);
        sake.set_expected_checksum(self.expected(&challenges));
        let threshold = self.check_timing(measured, VerdictPath::Classic)?;

        let SakeMessage::Commit { w2, mac } = commit else {
            return Err(SageError::Protocol("bad flow: commit".into()));
        };
        let reveal1 = sake.on_commit(w2, mac)?;
        let (dev1, _) = exchange(1, reveal1)?;
        let SakeMessage::DeviceReveal1 { w1, k, mac_k } = dev1 else {
            return Err(SageError::Protocol("bad flow: device reveal 1".into()));
        };
        let reveal0 = sake.on_device_reveal1(w1, k, mac_k)?;
        let (dev0, _) = exchange(2, reveal0)?;
        let SakeMessage::DeviceReveal0 { w0 } = dev0 else {
            return Err(SageError::Protocol("bad flow: device reveal 0".into()));
        };
        sake.on_device_reveal0(w0)?;

        let session_key = sake
            .session_key()
            .ok_or_else(|| SageError::Protocol("no session key".into()))?;
        self.stats.accepted += 1;
        Ok(AttestationOutcome {
            session_key,
            measured_cycles: measured,
            threshold_cycles: threshold,
        })
    }

    /// Opens the verifier's end of the secure channel.
    pub fn open_channel(&self, outcome: &AttestationOutcome) -> SecureChannel {
        SecureChannel::new(outcome.session_key, Role::Host)
    }

    /// Checks a user kernel's authenticity: sends a fresh `r`, has the
    /// device measure `H(r ‖ code)` with the SHA-256 kernel, and compares
    /// against the locally computed expectation (paper §5.2.3, Eq. 9).
    pub fn verify_user_kernel(
        &mut self,
        session: &mut GpuSession,
        agent: &mut DeviceAgent,
        code: &[u8],
    ) -> Result<()> {
        self.verify_user_kernel_hash(session, agent, code)
            .map(|_| ())
    }

    /// Like [`Verifier::verify_user_kernel`], but returns the verified
    /// measurement `H(r ‖ code)` so callers (the evidence layer) can
    /// record what was checked, not just that it passed.
    pub fn verify_user_kernel_hash(
        &mut self,
        session: &mut GpuSession,
        agent: &mut DeviceAgent,
        code: &[u8],
    ) -> Result<[u8; 32]> {
        let r = self.enclave.nonce32();
        let device_hash = agent.measure_kernel(session, &r, code)?;
        let expected = sage_crypto::sha256::sha256_concat(&r, code);
        if !sage_crypto::ct_eq(&device_hash, &expected) {
            return Err(SageError::KernelHashMismatch);
        }
        Ok(expected)
    }

    /// Produces an enclave quote binding the attestation transcript for
    /// an external challenger (Fig. 2's challenger role).
    pub fn quote_attestation(&self, outcome: &AttestationOutcome) -> Quote {
        let mut h = sage_crypto::Sha256::new();
        h.update(b"sage-attestation:");
        h.update(&outcome.session_key);
        h.update(&outcome.measured_cycles.to_le_bytes());
        self.enclave.quote(h.finalize())
    }
}
