//! Property-based soundness tests for batched Groth16 verification:
//! randomized over batch sizes (1..=64) and corruption masks — sparse ones
//! and dense ones (one in four, all, only the first or last) — the batch
//! verdict must equal the AND of per-proof verdicts, and bisection must
//! isolate exactly the corrupted indices.
//!
//! Proof generation dominates the cost, so a pool of proofs over a fixed
//! toy circuit is generated once and batches are drawn from it by index;
//! corruption happens on cheap *copies* of pooled entries.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_snark::groth16::{prove, setup, PreparedVerifyingKey, Proof};
use waku_snark::r1cs::ConstraintSystem;

const POOL: usize = 64;

struct Fixture {
    pvk: PreparedVerifyingKey,
    proofs: Vec<Proof>,
    inputs: Vec<Vec<Fr>>,
}

/// `x³ + x + 5 = out` (the classic toy relation) with per-proof `x`, so
/// every pooled proof has distinct public inputs.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let build = |x_val: u64| {
            let x = Fr::from_u64(x_val);
            let out_val = x * x * x + x + Fr::from_u64(5);
            let mut cs = ConstraintSystem::new();
            let out = cs.alloc_input(out_val);
            let xv = cs.alloc_witness(x);
            let x2 = cs.alloc_witness(x * x);
            let x3 = cs.alloc_witness(x * x * x);
            cs.enforce(xv, xv, x2);
            cs.enforce(x2, xv, x3);
            use waku_snark::r1cs::{LinearCombination, Variable};
            let lhs = LinearCombination::from_var(x3)
                + LinearCombination::from_var(xv)
                + LinearCombination::from_const(Fr::from_u64(5));
            cs.enforce(lhs, Variable::ONE, out);
            cs.finalize();
            cs
        };
        let template = build(1);
        let pk = setup(&template, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let mut proofs = Vec::with_capacity(POOL);
        let mut inputs = Vec::with_capacity(POOL);
        for i in 0..POOL {
            let cs = build(i as u64 + 2);
            proofs.push(prove(&pk, &cs, &mut rng).expect("satisfiable"));
            inputs.push(cs.public_inputs().to_vec());
        }
        Fixture {
            pvk,
            proofs,
            inputs,
        }
    })
}

/// Builds a batch of `size` entries from the pool, then corrupts the
/// entries selected by `corrupt` — even positions get a tampered public
/// input, odd positions a proof swapped in from a different statement
/// (both realistic spam shapes: lying about the statement vs. replaying
/// someone else's proof).
fn batch_with(size: usize, corrupt: &[usize]) -> (Vec<Proof>, Vec<Vec<Fr>>, Vec<usize>) {
    let f = fixture();
    let mut proofs: Vec<Proof> = f.proofs[..size].to_vec();
    let mut inputs: Vec<Vec<Fr>> = f.inputs[..size].to_vec();
    let mut bad: Vec<usize> = corrupt.iter().copied().filter(|i| *i < size).collect();
    bad.sort_unstable();
    bad.dedup();
    for &i in &bad {
        if i % 2 == 0 {
            inputs[i][0] += Fr::one();
        } else {
            proofs[i] = f.proofs[(i + 1) % POOL];
        }
    }
    (proofs, inputs, bad)
}

/// Dense corruption masks over a random batch size: one member in four
/// (from a random offset), every member, only the first, or only the last.
fn dense_masks() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (1usize..=POOL, 0usize..4, 0usize..4).prop_map(|(size, shape, offset)| {
        let mask = match shape {
            0 => (offset.min(size - 1)..size).step_by(4).collect(),
            1 => (0..size).collect(),
            2 => vec![0],
            _ => vec![size - 1],
        };
        (size, mask)
    })
}

proptest! {
    // Each case runs a few multi-Miller loops (~ms each); keep the case
    // count modest — coverage comes from the randomized sizes/masks.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_valid_batches_accept(size in 1usize..=POOL) {
        let (proofs, inputs, _) = batch_with(size, &[]);
        prop_assert!(fixture().pvk.verify_batch(&proofs, &inputs).unwrap());
        prop_assert!(fixture()
            .pvk
            .verify_batch_isolating(&proofs, &inputs)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupted_batches_reject_and_isolate(
        size in 2usize..=POOL,
        mask in proptest::collection::vec(0usize..POOL, 1..4),
    ) {
        let (proofs, inputs, bad) = batch_with(size, &mask);
        prop_assume!(!bad.is_empty());
        prop_assert!(
            !fixture().pvk.verify_batch(&proofs, &inputs).unwrap(),
            "a batch with {bad:?} corrupted must fail"
        );
        // Bisection isolates exactly the corrupted indices.
        prop_assert_eq!(
            fixture().pvk.verify_batch_isolating(&proofs, &inputs).unwrap(),
            bad
        );
    }

    #[test]
    fn dense_masks_isolate_to_per_proof_verdicts(case in dense_masks()) {
        let (size, mask) = case;
        let f = fixture();
        let (proofs, inputs, bad) = batch_with(size, &mask);
        let individually: Vec<usize> = (0..size)
            .filter(|&i| !f.pvk.verify(&proofs[i], &inputs[i]).unwrap())
            .collect();
        prop_assert_eq!(&individually, &bad);
        prop_assert_eq!(f.pvk.verify_batch(&proofs, &inputs).unwrap(), bad.is_empty());
        prop_assert_eq!(f.pvk.verify_batch_isolating(&proofs, &inputs).unwrap(), bad);
    }

    #[test]
    fn batch_verdict_equals_per_proof_verdicts(
        size in 1usize..=16,
        mask in proptest::collection::vec(0usize..16, 0..3),
    ) {
        let f = fixture();
        let (proofs, inputs, _) = batch_with(size, &mask);
        let individually: Vec<bool> = proofs
            .iter()
            .zip(&inputs)
            .map(|(p, x)| f.pvk.verify(p, x).unwrap())
            .collect();
        let all_valid = individually.iter().all(|v| *v);
        prop_assert_eq!(f.pvk.verify_batch(&proofs, &inputs).unwrap(), all_valid);
        let flagged = f.pvk.verify_batch_isolating(&proofs, &inputs).unwrap();
        let expect: Vec<usize> = individually
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(flagged, expect);
    }
}
