//! Evidence-layer throughput harness.
//!
//! Microbenchmarks the four verbs a fleet pays for per attestation
//! stage once the PR-7 evidence layer is on:
//!
//! * **append** — sealing one hash-linked, CMAC'd record onto a device
//!   chain (the per-stage cost every checksum round now carries),
//! * **seal** — folding a fleet's name-sorted chain heads into one
//!   Merkle [`EpochTree`], every level kept (the per-epoch cost,
//!   scaling with fleet width),
//! * **prove** — what `report_for` pays: a binary search for the
//!   device's leaf, its O(log n) proof read from the kept tree, plus
//!   minting its full [`DeviceReport`] envelope,
//! * **verify** — [`verify_report`] end to end: envelope CMAC, root
//!   match, Merkle walk, suffix re-verification, claim and freshness
//!   checks (the relying party's cost).
//!
//! Record payloads cycle through every record kind so the canonical
//! codec is exercised evenly. Everything is seeded and the verify loop
//! asserts every report actually verifies — a silent reject would make
//! the throughput figure fiction. Results go to `BENCH_evidence.json`
//! for CI trend tracking.
//!
//! Usage:
//!   evperf [--devices N] [--records N] [--iters N] [--seed N] [--out PATH]

use std::time::Instant;

use sage_evidence::{
    verify_report, DeviceReport, EpochLeaf, EpochTree, EvidenceChain, EvidencePath,
    EvidencePayload, Freshness, FreshnessClaim, FreshnessPolicy, StageVerdict,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Cycles through every record kind, all passing (the steady-state mix).
fn payload(kind: u64, rng: &mut SplitMix64) -> EvidencePayload {
    match kind % 4 {
        0 => EvidencePayload::ChecksumRound {
            round: kind,
            measured_cycles: 10_000 + (rng.next_u64() % 500),
            threshold_cycles: 12_000,
            verdict: StageVerdict::Pass,
            path: EvidencePath::Precomputed,
        },
        1 => EvidencePayload::ChannelLiveness {
            nonce: rng.next_u64(),
            verdict: StageVerdict::Pass,
        },
        2 => EvidencePayload::KernelHash {
            hash: {
                let mut h = [0u8; 32];
                h[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                h
            },
            verdict: StageVerdict::Pass,
        },
        _ => EvidencePayload::SakeConfirmed {
            key_fingerprint: rng.next_u64().to_le_bytes(),
            measured_cycles: 9_000,
            threshold_cycles: 12_000,
        },
    }
}

const POLICY: FreshnessPolicy = FreshnessPolicy {
    stale_after: 60_000,
    degraded_after: 120_000,
};

fn main() {
    let mut devices = 64usize;
    let mut records = 256u64;
    let mut iters = 200u64;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_evidence.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--devices" => {
                devices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--devices N")
            }
            "--records" => {
                records = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--records N")
            }
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).expect("--iters N"),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out_path = args.next().expect("--out PATH"),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: evperf [--devices N] [--records N] [--iters N] [--seed N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(
        devices > 0 && records > 0 && iters > 0,
        "need at least one device, record and iteration"
    );
    eprintln!("evperf: {devices} devices x {records} records, {iters} iters, seed {seed}");
    let mut rng = SplitMix64(seed);

    // --- append: grow every device's chain, one CMAC'd record at a time.
    let mut chains: Vec<EvidenceChain> = (0..devices)
        .map(|i| {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            EvidenceChain::new(&format!("gpu-{i:03}"), &key)
        })
        .collect();
    let t0 = Instant::now();
    for k in 0..records {
        for chain in &mut chains {
            chain.append(10_000 + 10 * k, payload(k, &mut rng));
        }
    }
    let append_wall = t0.elapsed().as_secs_f64();
    let appends = records * devices as u64;
    let appends_per_sec = appends as f64 / append_wall.max(1e-9);

    // --- seal: the fleet's chain heads into one epoch tree, many times.
    let mut leaves: Vec<EpochLeaf> = chains
        .iter()
        .map(|c| EpochLeaf {
            device: c.device().to_string(),
            head: c.head(),
            seq: c.seq(),
        })
        .collect();
    leaves.sort_by(|a, b| a.device.cmp(&b.device));
    let t1 = Instant::now();
    let mut tree = EpochTree::new(&[]);
    for _ in 0..iters {
        tree = EpochTree::new(&leaves);
    }
    let root = tree.root();
    let seal_wall = t1.elapsed().as_secs_f64();
    let seals_per_sec = iters as f64 / seal_wall.max(1e-9);

    // --- prove: leaf lookup + kept-tree proof + full report envelope
    // per device.
    // Reports are anchored at the sealed heads with an empty suffix (the
    // "just sealed" shape), asserted fresh under the policy.
    let asserted_at = 10_000 + 10 * records;
    let t2 = Instant::now();
    let mut reports = Vec::with_capacity(devices);
    for _ in 0..iters {
        reports.clear();
        for chain in &chains {
            let i = leaves.partition_point(|l| l.device.as_str() < chain.device());
            let proof = tree.prove(i);
            let claim = FreshnessClaim {
                policy: POLICY,
                last_pass_at: chain.last_pass_at(),
                asserted_at,
                level: POLICY.level(chain.last_pass_at(), asserted_at),
            };
            reports.push(DeviceReport::seal(
                1,
                leaves[i].clone(),
                root,
                proof,
                Vec::new(),
                claim,
                &chain.evidence_key(),
            ));
        }
    }
    let prove_wall = t2.elapsed().as_secs_f64();
    let proves = iters * devices as u64;
    let proves_per_sec = proves as f64 / prove_wall.max(1e-9);

    // --- verify: the relying party's full check, every report, every
    // iteration — and every one must come back Trusted.
    let t3 = Instant::now();
    for _ in 0..iters {
        for (i, report) in reports.iter().enumerate() {
            let level = verify_report(report, &root, &chains[i].evidence_key(), asserted_at)
                .expect("benchmark report must verify");
            assert_eq!(level, Freshness::Trusted, "benchmark fleet is fresh");
        }
    }
    let verify_wall = t3.elapsed().as_secs_f64();
    let verifies = iters * devices as u64;
    let verifies_per_sec = verifies as f64 / verify_wall.max(1e-9);

    let report_bytes = reports[0].encode().len();
    let proof_steps = reports[0].proof.steps.len();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"devices\": {devices},\n  \"records_per_device\": {records},\n  \"iters\": {iters},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!(
        "  \"append\": {{\"total\": {appends}, \"wall_seconds\": {append_wall:.6}, \"per_sec\": {appends_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"seal\": {{\"total\": {iters}, \"leaves\": {devices}, \"wall_seconds\": {seal_wall:.6}, \"per_sec\": {seals_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"prove\": {{\"total\": {proves}, \"wall_seconds\": {prove_wall:.6}, \"per_sec\": {proves_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"verify\": {{\"total\": {verifies}, \"wall_seconds\": {verify_wall:.6}, \"per_sec\": {verifies_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"report_bytes\": {report_bytes},\n  \"proof_steps\": {proof_steps}\n}}\n"
    ));
    std::fs::write(&out_path, out).expect("write BENCH_evidence.json");

    println!(
        "append {appends_per_sec:.0}/s  seal {seals_per_sec:.0}/s ({devices} leaves)  prove {proves_per_sec:.0}/s  verify {verifies_per_sec:.0}/s"
    );
    println!("report size {report_bytes} B, {proof_steps} proof steps; wrote {out_path}");
}
