//! Batched Groth16 verification and the proving-key cold-start cache.
//!
//! Three kinds of records land in the baseline:
//!
//! * `verify_batch/single` — one bundle through the batch entry point
//!   (criterion-timed), anchoring the comparison against `rln_verify/*`;
//! * `verify_batch/{16,64}/ns_per_proof` — self-timed RLC batches,
//!   recorded **per proof** so the speedup over `verify_batch/single`
//!   reads directly off the table (the ISSUE's ≥5× target at N=64);
//! * `verify_batch/16_quarter_invalid/ns_per_proof` — a self-timed
//!   `isolate_invalid` over 16 bundles of which every fourth carries a
//!   tampered payload (the relay-attack share of invalid proofs): the
//!   root check plus the bisection that names the culprits, per proof;
//! * `keycache/warm_load/10` — decode-and-rebuild time for a cached
//!   proving key, the cold-start path `RlnProver::keygen_or_load` takes
//!   on a warm cache.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_bench::sparse_single_member_path;
use waku_rln::{Identity, RlnMessageBundle, RlnProver, RlnVerifier};

const DEPTH: usize = 10;

fn fixture(n: usize) -> (RlnVerifier, Vec<RlnMessageBundle>) {
    let mut rng = StdRng::seed_from_u64(DEPTH as u64);
    let (prover, verifier) = RlnProver::keygen(DEPTH, &mut rng);
    let identity = Identity::random(&mut rng);
    let path = sparse_single_member_path(DEPTH);
    // Distinct epochs → distinct public inputs per bundle: the RLC fold
    // sees the general case, not a degenerate repeated statement.
    let bundles: Vec<RlnMessageBundle> = (0..n)
        .map(|i| {
            prover
                .prove_message(
                    &identity,
                    &path,
                    b"bench message",
                    1000 + i as u64,
                    &mut rng,
                )
                .unwrap()
        })
        .collect();
    (verifier, bundles)
}

fn bench_verify_batch(c: &mut Criterion) {
    let (verifier, bundles) = fixture(64);
    let refs: Vec<&RlnMessageBundle> = bundles.iter().collect();

    c.bench_function("verify_batch/single", |b| {
        b.iter(|| assert!(verifier.verify_batch(std::hint::black_box(&refs[..1]))))
    });

    for n in [16usize, 64] {
        // Self-timed so the record is per proof: criterion's whole-batch
        // numbers would need post-hoc division to compare across sizes.
        let batch = &refs[..n];
        let rounds = 5usize;
        let mut best = u128::MAX;
        for _ in 0..rounds {
            let started = Instant::now();
            assert!(verifier.verify_batch(std::hint::black_box(batch)));
            best = best.min(started.elapsed().as_nanos());
        }
        criterion::baseline::record_value(
            format!("verify_batch/{n}/ns_per_proof"),
            best / n as u128,
            rounds,
        );
        println!(
            "verify_batch/{n}: {:.2} ms per batch, {:.3} ms per proof",
            best as f64 / 1e6,
            best as f64 / 1e6 / n as f64
        );
    }

    // Isolation at a quarter invalid: tampering the payload changes the
    // public input x = H(m), so the proof no longer verifies.
    let mut attacked: Vec<RlnMessageBundle> = bundles[..16].to_vec();
    let invalid: Vec<usize> = (0..16).step_by(4).map(|i| i + 1).collect();
    for &i in &invalid {
        attacked[i].payload = b"tampered message".to_vec();
    }
    let attacked: Vec<&RlnMessageBundle> = attacked.iter().collect();
    let rounds = 5usize;
    let mut best = u128::MAX;
    for _ in 0..rounds {
        let started = Instant::now();
        let flagged = verifier.isolate_invalid(std::hint::black_box(&attacked));
        best = best.min(started.elapsed().as_nanos());
        assert_eq!(flagged, invalid);
    }
    criterion::baseline::record_value(
        "verify_batch/16_quarter_invalid/ns_per_proof",
        best / 16,
        rounds,
    );
    println!(
        "verify_batch/16_quarter_invalid: {:.2} ms per batch, {:.3} ms per proof",
        best as f64 / 1e6,
        best as f64 / 1e6 / 16.0
    );
}

fn bench_keycache_load(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(77);
    let (prover, _) = RlnProver::keygen(DEPTH, &mut rng);
    let template = waku_rln::circuit::build_for_setup(DEPTH);
    let dir = std::env::temp_dir().join(format!("waku-bench-keycache-{}", std::process::id()));
    let path = dir.join(format!("rln-depth{DEPTH}.keys"));
    waku_rln::keycache::save_keys(&path, DEPTH, prover.proving_key(), &template).unwrap();

    c.bench_function("keycache/warm_load/10", |b| {
        b.iter(|| {
            let (_, verifier) =
                RlnProver::keygen_or_load(DEPTH, std::hint::black_box(&path), &mut rng);
            assert_eq!(verifier.depth(), DEPTH);
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_verify_batch, bench_keycache_load
}
criterion_main!(benches);
