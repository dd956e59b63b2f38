//! The precomputed-round fast path at the verifier level: bank-backed
//! rounds verify identically to replay-online rounds, exhaustion degrades
//! transparently, and calibration runs off the bank.

use sage::{GpuSession, Verifier};
use sage_crypto::{DhGroup, EntropySource};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::SgxPlatform;
use sage_vf::{BankConfig, VfParams};

fn entropy(seed: u8) -> impl EntropySource {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

fn setup() -> (Verifier, GpuSession) {
    let params = VfParams::test_tiny();
    let dev = Device::new(DeviceConfig::sim_tiny());
    let session = GpuSession::install(dev, &params, 0xFEED).unwrap();
    let platform = SgxPlatform::new([9u8; 16]);
    let enclave = platform.launch(b"sage-verifier-v1", &mut entropy(3));
    let verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    (verifier, session)
}

#[test]
fn bank_rounds_verify_and_count_hits() {
    let (mut verifier, mut session) = setup();
    verifier.enable_fast_path(BankConfig {
        capacity: 8,
        workers: 0,
    });
    verifier.prefill_rounds(8);
    verifier.calibrate(&mut session, 6).unwrap();
    // Calibration drained 6 precomputed rounds; restock and verify.
    verifier.prefill_rounds(4);
    for _ in 0..3 {
        verifier.verify_once(&mut session).unwrap();
    }
    let c = verifier.bank_counters().unwrap();
    assert_eq!(c.hits, 9, "all rounds served from stock");
    assert_eq!(c.misses, 0);
    // Only the verify_once rounds pass through the accept counters;
    // calibration verifies inline.
    assert_eq!(verifier.stats().accepted, 3);
}

#[test]
fn exhausted_bank_falls_back_to_online_replay() {
    let (mut verifier, mut session) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    verifier.enable_fast_path(BankConfig {
        capacity: 2,
        workers: 0,
    });
    verifier.prefill_rounds(2);
    // Two hits, then the empty bank must degrade to online replay
    // without any round failing.
    for _ in 0..4 {
        verifier.verify_once(&mut session).unwrap();
    }
    let c = verifier.bank_counters().unwrap();
    assert_eq!(c.hits, 2);
    assert_eq!(c.misses, 2);
    assert_eq!(verifier.stats().accepted, 4);
}

#[test]
fn precomputed_expected_is_bit_exact_with_replay() {
    let (mut verifier, _session) = setup();
    verifier.enable_fast_path(BankConfig {
        capacity: 2,
        workers: 0,
    });
    verifier.prefill_rounds(2);
    let (ch, expected) = verifier.prepare_round();
    assert_eq!(expected.unwrap(), verifier.expected(&ch));
}

#[test]
fn without_fast_path_prepare_round_is_online() {
    let (mut verifier, mut session) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    assert!(!verifier.fast_path_enabled());
    assert!(verifier.bank_counters().is_none());
    let (ch, expected) = verifier.prepare_round();
    assert!(expected.is_none());
    assert_eq!(ch.len(), session.build().params.grid_blocks as usize);
}

#[test]
fn tampered_response_rejected_on_the_fast_path() {
    let (mut verifier, mut session) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    verifier.enable_fast_path(BankConfig {
        capacity: 1,
        workers: 0,
    });
    verifier.prefill_rounds(1);
    let (ch, expected) = verifier.prepare_round();
    let (mut got, measured) = session.run_checksum(&ch).unwrap();
    got[0] ^= 1;
    assert!(verifier
        .check_response_precomputed(expected.unwrap(), got, measured)
        .is_err());
    assert_eq!(verifier.stats().value_rejects, 1);
}

#[test]
fn poisoned_bank_stock_falls_back_to_online_replay() {
    let (mut verifier, mut session) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    verifier.enable_fast_path(BankConfig {
        capacity: 2,
        workers: 0,
    });
    verifier.prefill_rounds(2);
    // A host-memory fault flips a bit in both stocked pairs: payload
    // changes, integrity tag doesn't.
    assert!(verifier.corrupt_bank_stock(0));
    assert!(verifier.corrupt_bank_stock(1));
    // The round must discard the poisoned stock, degrade to the online
    // replay path, and still verify the honest device — the corrupted
    // expected value is never compared against anything.
    let (ch, expected) = verifier.prepare_round();
    assert!(expected.is_none(), "poisoned stock must not be issued");
    let (got, measured) = session.run_checksum(&ch).unwrap();
    verifier.check_response(&ch, got, measured).unwrap();
    // And the online expected value is bit-exact with the scalar
    // oracle — fallback does not change verdict semantics.
    assert_eq!(
        verifier.expected(&ch),
        sage_vf::replay::expected_checksum_scalar(session.build(), &ch)
    );
    let c = verifier.bank_counters().unwrap();
    assert_eq!(c.poisoned, 2, "both corrupted pairs recorded");
    assert_eq!(c.misses, 1, "the fallback round recorded a miss");
    assert_eq!(c.hits, 0);
    assert_eq!(verifier.stats().accepted, 1);
    assert_eq!(verifier.stats().value_rejects, 0, "no false reject");
}

#[test]
fn wrong_answer_still_rejected_after_poison_fallback() {
    let (mut verifier, mut session) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    verifier.enable_fast_path(BankConfig {
        capacity: 1,
        workers: 0,
    });
    verifier.prefill_rounds(1);
    assert!(verifier.corrupt_bank_stock(0));
    let (ch, expected) = verifier.prepare_round();
    assert!(expected.is_none());
    // A device that happens to answer with the *corrupted* expected
    // value must still be rejected: the poisoned pair is gone, the
    // verifier replays the true expectation online.
    let (mut got, measured) = session.run_checksum(&ch).unwrap();
    got[0] ^= 1 << 17; // the exact corruption corrupt_bank_stock applies
    assert!(verifier.check_response(&ch, got, measured).is_err());
    assert_eq!(verifier.stats().value_rejects, 1);
    assert_eq!(verifier.stats().accepted, 0, "zero false accepts");
}
