//! The optimal ate pairing on BN254.
//!
//! The Miller loop runs in *twist coordinates*: the accumulator `T` and the
//! line slopes stay in Fp2, because the untwist `(x', y') ↦ (x'·w², y'·w³)`
//! maps the affine group law on `E'(Fp2)` to the one on `E(Fp12)`
//! coefficient-for-coefficient (`λ = λ'·w`, so `x₃` stays in the `w²` slot
//! and `y₃` in the `w³` slot). A line evaluated at an embedded G1 point
//! `(px, py)` is then the sparse element
//!
//! ```text
//! l = py − (λ'·px)·w + (λ'·x' − y')·w³,
//! ```
//!
//! multiplied into the accumulator with a sparse product
//! (`Fp12::mul_by_line`). The two Frobenius correction steps of the
//! optimal ate formula become the endomorphism `ψ` in twist coordinates
//! (see [`crate::endo`]): `Q₁ = ψ(Q)`, `Q₂ = −ψ²(Q)`.
//!
//! Three batching levers sit on top:
//!
//! * [`G2Prepared`] — for a *fixed* G2 point the sequence of line
//!   coefficients `(λ', x', y')` depends only on the point, so a verifier
//!   precomputes them once and each pairing replays ~90 stored
//!   coefficients with no G2 arithmetic and no inversions at all.
//! * [`miller_loop_mixed`] — runs any number of dynamic and prepared pairs
//!   under one shared `f`-squaring chain, and amortizes the dynamic pairs'
//!   slope denominators with one Fp2 batch inversion per step. This is the
//!   engine under batch Groth16 verification.
//! * Thread chunks — with enough dynamic pairs, [`miller_loop_mixed`]
//!   splits them into one chunk per pool thread, each with its own
//!   squaring chain, and multiplies the partial products (bit-identical,
//!   since Fp12 arithmetic is exact).
//!
//! The final exponentiation does the easy part with Frobenius/conjugation
//! and the hard part with the `x`-chain of Devegili, Scott and Dahab:
//! three exponentiations by the 63-bit BN parameter over Granger–Scott
//! cyclotomic squarings, instead of one by the 762-bit exponent
//! `(p⁴ − p² + 1)/r`. Its output is bit-identical to that generic power
//! (an oracle test pins it).
//!
//! The BN parameter is `x = 4965661367192848881`; the Miller loop runs over
//! `6x + 2 = 29793968203157093288`.

use waku_arith::fields::Fq;
use waku_arith::traits::Field;

use crate::endo::psi;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::point::BatchInvert;

/// The BN curve parameter `x`.
pub const BN_X: u64 = 4965661367192848881;
/// Miller loop count `6x + 2` (65 bits, hence `u128`).
pub const ATE_LOOP_COUNT: u128 = 6 * (BN_X as u128) + 2;

/// One recorded (or freshly computed) Miller-loop line, in twist
/// coordinates relative to the pre-step accumulator.
#[derive(Copy, Clone, Debug)]
enum LineCoeff {
    /// Tangent or chord with slope `λ'` through `(x', y')`.
    Line { lambda: Fp2, x: Fp2, y: Fp2 },
    /// Vertical line `X − x'·w²` (the points cancelled).
    Vertical { x: Fp2 },
    /// A step touching the point at infinity: neutral factor.
    One,
}

/// Denominator of the tangent slope at `t` (placeholder 1 when no
/// inversion will be needed), collected before the batch inversion.
fn double_denom(t: &G2Affine) -> Fp2 {
    if t.is_identity() {
        Fp2::one()
    } else {
        t.y.double()
    }
}

/// Denominator of the chord slope through `t` and `q` (placeholder 1 for
/// the identity/vertical cases). Classification is a pure function of the
/// two inputs, so the collection and application passes agree.
fn add_denom(t: &G2Affine, q: &G2Affine) -> Fp2 {
    if t.is_identity() || q.is_identity() {
        Fp2::one()
    } else if t.x == q.x {
        if t.y == q.y {
            t.y.double()
        } else {
            Fp2::one()
        }
    } else {
        q.x - t.x
    }
}

/// Tangent step `t ← 2t` given the inverted denominator; returns the line.
fn double_step(t: &mut G2Affine, inv: &Fp2) -> LineCoeff {
    if t.is_identity() {
        return LineCoeff::One;
    }
    let xx = t.x.square();
    let lambda = (xx.double() + xx) * *inv;
    let coeff = LineCoeff::Line {
        lambda,
        x: t.x,
        y: t.y,
    };
    let x3 = lambda.square() - t.x.double();
    let y3 = lambda * (t.x - x3) - t.y;
    *t = G2Affine::new_unchecked(x3, y3);
    coeff
}

/// Chord step `t ← t + q` given the inverted denominator; returns the
/// line. Handles the degenerate cases (identity inputs, doubling,
/// cancellation) the same way in both the prepare and replay paths.
fn add_step(t: &mut G2Affine, q: &G2Affine, inv: &Fp2) -> LineCoeff {
    if q.is_identity() {
        return LineCoeff::One;
    }
    if t.is_identity() {
        *t = *q;
        return LineCoeff::One;
    }
    if t.x == q.x {
        if t.y == q.y {
            return double_step(t, inv);
        }
        let coeff = LineCoeff::Vertical { x: t.x };
        *t = G2Affine::identity();
        return coeff;
    }
    let lambda = (q.y - t.y) * *inv;
    let coeff = LineCoeff::Line {
        lambda,
        x: t.x,
        y: t.y,
    };
    let x3 = lambda.square() - t.x - q.x;
    let y3 = lambda * (t.x - x3) - t.y;
    *t = G2Affine::new_unchecked(x3, y3);
    coeff
}

/// Multiplies `f` by a recorded line evaluated at the embedded G1 point
/// `(px, py)`. The value is the sparse element with coefficients placed as
/// `1 → c0.c0`, `w² = v → c0.c1`, `w → c1.c0`, `w³ = v·w → c1.c1`, so a
/// tangent or chord costs a sparse product.
fn mul_line(f: &mut Fp12, coeff: &LineCoeff, px: Fq, py: Fq) {
    match coeff {
        LineCoeff::Line { lambda, x, y } => {
            *f = f.mul_by_line(py, -lambda.scale(px), *lambda * *x - *y);
        }
        LineCoeff::Vertical { x } => {
            *f *= Fp12::new(Fp6::new(Fp2::from_base(px), -*x, Fp2::zero()), Fp6::zero());
        }
        LineCoeff::One => {}
    }
}

/// Precomputed Miller-loop line coefficients for a fixed G2 point.
///
/// Replaying the stored `(λ', x', y')` triples costs no G2 arithmetic and
/// no field inversions, so pairings against fixed points (the `γ`/`δ`
/// elements of a Groth16 verifying key) skip the accumulator work
/// entirely. ~90 triples ≈ 8.6 KiB per point.
#[derive(Clone, Debug)]
pub struct G2Prepared {
    coeffs: Vec<LineCoeff>,
    infinity: bool,
}

impl G2Prepared {
    /// Runs the ate-loop schedule once for `q`, recording every line.
    pub fn new(q: &G2Affine) -> Self {
        if q.is_identity() {
            return G2Prepared {
                coeffs: Vec::new(),
                infinity: true,
            };
        }
        let mut t = *q;
        let mut coeffs = Vec::with_capacity(103);
        let loop_bits = 128 - ATE_LOOP_COUNT.leading_zeros();
        for i in (0..loop_bits - 1).rev() {
            let inv = double_denom(&t)
                .inverse()
                .expect("no 2-torsion on the twist");
            coeffs.push(double_step(&mut t, &inv));
            if (ATE_LOOP_COUNT >> i) & 1 == 1 {
                let inv = add_denom(&t, q).inverse().expect("placeholder is 1");
                coeffs.push(add_step(&mut t, q, &inv));
            }
        }
        let q1 = psi(q);
        let q2 = psi(&q1).neg();
        for corr in [&q1, &q2] {
            let inv = add_denom(&t, corr).inverse().expect("placeholder is 1");
            coeffs.push(add_step(&mut t, corr, &inv));
        }
        G2Prepared {
            coeffs,
            infinity: false,
        }
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        G2Prepared::new(q)
    }
}

/// A dynamic pair's loop state: the embedded G1 coordinates, the original
/// G2 point, and the running accumulator.
#[derive(Copy, Clone)]
struct DynPair {
    px: Fq,
    py: Fq,
    q: G2Affine,
    t: G2Affine,
}

/// Fewest dynamic pairs a thread chunk of the Miller loop gets. Each chunk
/// pays its own `f`-squaring chain and its own batch inversion per step
/// (one Fq inversion each, ~1.5 ms per loop in total); on an idle 2-thread
/// pool a split pays from 2 pairs per chunk, but inside a bisection both
/// threads are already busy and every extra chunk is pure extra work, so
/// only loops of at least 8 pairs split.
const MIN_DYNAMIC_PER_CHUNK: usize = 4;

/// Product of Miller loops over `dynamic` (fresh G2 points) and `prepared`
/// (fixed G2 points with recorded lines), *without* the final
/// exponentiation.
///
/// All dynamic pairs of a chunk advance in lock-step under one shared
/// `f`-squaring chain, so each doubling/addition phase needs a single Fp2
/// batch inversion across the chunk — the marginal pairing cost of one
/// more pair is roughly its line arithmetic. With a multi-thread pool and
/// enough dynamic pairs, the pairs are split into one chunk per pool
/// thread, each running its own loop as a pool task, and the partial
/// products are multiplied; Fp12 arithmetic is exact, so the result is
/// bit-identical to the one-chunk loop. Pairs with an identity element on
/// either side are skipped (contribute the neutral factor 1).
pub fn miller_loop_mixed(
    dynamic: &[(G1Affine, G2Affine)],
    prepared: &[(G1Affine, &G2Prepared)],
) -> Fp12 {
    let chunks = (dynamic.len() / MIN_DYNAMIC_PER_CHUNK).clamp(1, waku_pool::current_num_threads());
    miller_loop_chunked(dynamic, prepared, dynamic.len().div_ceil(chunks))
}

/// [`miller_loop_mixed`] with the dynamic pairs split into chunks of at
/// most `chunk` pairs (the prepared pairs ride with the first chunk).
fn miller_loop_chunked(
    dynamic: &[(G1Affine, G2Affine)],
    prepared: &[(G1Affine, &G2Prepared)],
    chunk: usize,
) -> Fp12 {
    let dyns: Vec<DynPair> = dynamic
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| DynPair {
            px: p.x,
            py: p.y,
            q: *q,
            t: *q,
        })
        .collect();
    let preps: Vec<(Fq, Fq, &G2Prepared)> = prepared
        .iter()
        .filter(|(p, prep)| !p.is_identity() && !prep.infinity)
        .map(|(p, prep)| (p.x, p.y, *prep))
        .collect();
    let chunk = chunk.max(1);
    if dyns.len() <= chunk {
        return miller_loop_serial(dyns, &preps);
    }
    let chunks: Vec<(usize, &[DynPair])> = dyns.chunks(chunk).enumerate().collect();
    let partials = waku_pool::par_map(&chunks, |&(i, c)| {
        miller_loop_serial(c.to_vec(), if i == 0 { &preps } else { &[] })
    });
    partials.into_iter().fold(Fp12::one(), |acc, f| acc * f)
}

/// One Miller loop over `dyns` and `preps` under a single squaring chain.
fn miller_loop_serial(mut dyns: Vec<DynPair>, preps: &[(Fq, Fq, &G2Prepared)]) -> Fp12 {
    if dyns.is_empty() && preps.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    let mut denoms: Vec<Fp2> = Vec::with_capacity(dyns.len());
    let mut cursor = 0usize;

    // One double or add phase across every pair: collect the dynamic
    // pairs' denominators, invert them together, step + evaluate, then
    // replay the prepared pairs' stored coefficient for this position.
    macro_rules! phase {
        ($denom:expr, $step:expr) => {{
            denoms.clear();
            for d in dyns.iter() {
                #[allow(clippy::redundant_closure_call)]
                denoms.push($denom(d));
            }
            Fp2::batch_invert(&mut denoms);
            for (d, inv) in dyns.iter_mut().zip(denoms.iter()) {
                #[allow(clippy::redundant_closure_call)]
                let coeff = $step(d, inv);
                mul_line(&mut f, &coeff, d.px, d.py);
            }
            for (px, py, prep) in preps.iter() {
                mul_line(&mut f, &prep.coeffs[cursor], *px, *py);
            }
            cursor += 1;
        }};
    }

    let loop_bits = 128 - ATE_LOOP_COUNT.leading_zeros();
    // Standard double-and-add over the bits of 6x+2, MSB (skipped) downward.
    for i in (0..loop_bits - 1).rev() {
        f = f.square();
        phase!(
            |d: &DynPair| double_denom(&d.t),
            |d: &mut DynPair, inv: &Fp2| double_step(&mut d.t, inv)
        );
        if (ATE_LOOP_COUNT >> i) & 1 == 1 {
            phase!(
                |d: &DynPair| add_denom(&d.t, &d.q),
                |d: &mut DynPair, inv: &Fp2| {
                    let q = d.q;
                    add_step(&mut d.t, &q, inv)
                }
            );
        }
    }

    // Optimal-ate correction: two Frobenius addition steps, Q₁ = ψ(Q) and
    // Q₂ = −ψ²(Q) in twist coordinates.
    let corrections: Vec<(G2Affine, G2Affine)> = dyns
        .iter()
        .map(|d| {
            let q1 = psi(&d.q);
            let q2 = psi(&q1).neg();
            (q1, q2)
        })
        .collect();
    for pick in [0usize, 1] {
        let corr = &corrections;
        denoms.clear();
        for (d, c) in dyns.iter().zip(corr.iter()) {
            let target = if pick == 0 { &c.0 } else { &c.1 };
            denoms.push(add_denom(&d.t, target));
        }
        Fp2::batch_invert(&mut denoms);
        for ((d, c), inv) in dyns.iter_mut().zip(corr.iter()).zip(denoms.iter()) {
            let target = if pick == 0 { c.0 } else { c.1 };
            let coeff = add_step(&mut d.t, &target, inv);
            mul_line(&mut f, &coeff, d.px, d.py);
        }
        for (px, py, prep) in preps.iter() {
            mul_line(&mut f, &prep.coeffs[cursor], *px, *py);
        }
        cursor += 1;
    }
    f
}

/// Product of Miller loops `∏ f_{6x+2, Qᵢ}(Pᵢ) · (frobenius line steps)`,
/// *without* the final exponentiation. Pairs with an identity element on
/// either side are skipped (contribute the neutral factor 1).
pub fn miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    miller_loop_mixed(pairs, &[])
}

/// `f^x` for the BN parameter `x` ([`BN_X`]), by square-and-multiply over
/// its 63 bits with cyclotomic squarings (so `f` must lie in the
/// cyclotomic subgroup).
fn exp_by_x(f: &Fp12) -> Fp12 {
    let mut res = *f;
    for bit in (0..63 - BN_X.leading_zeros()).rev() {
        res = res.cyclotomic_square();
        if (BN_X >> bit) & 1 == 1 {
            res *= *f;
        }
    }
    res
}

/// Final exponentiation `f ↦ f^((p¹²−1)/r)`.
///
/// The easy part `(p⁶−1)(p²+1)` is one inversion, a conjugation and a
/// Frobenius map; it lands in the cyclotomic subgroup, where inversion is
/// conjugation and squaring is [`Fp12::cyclotomic_square`]. The hard part
/// `(p⁴−p²+1)/r` is the Devegili–Scott–Dahab decomposition
/// `λ₀ + λ₁p + λ₂p² + λ₃p³` with each `λᵢ` a polynomial in `x`: three
/// `exp_by_x` chains (`f^x`, `f^{x²}`, `f^{x³}`), Frobenius maps and a
/// short fixed multiplication chain. It computes exactly the same power as
/// a generic exponentiation by `(p⁴−p²+1)/r`, so every pairing value is
/// bit-identical to that reference.
///
/// Returns `None` if `f` is zero (which a Miller loop never produces for
/// valid points).
pub fn final_exponentiation(f: &Fp12) -> Option<Fp12> {
    // Easy part: f^(p⁶−1) = conj(f)·f⁻¹, then ^(p²+1).
    let f_inv = f.inverse()?;
    let f1 = f.conjugate() * f_inv;
    let t = f1.frobenius_map(2) * f1;

    // Hard part, in the shape of go-ethereum's bn256 finalExponentiation.
    let fp = t.frobenius_map(1);
    let fp2 = t.frobenius_map(2);
    let fp3 = fp2.frobenius_map(1);
    let fu = exp_by_x(&t);
    let fu2 = exp_by_x(&fu);
    let fu3 = exp_by_x(&fu2);

    let y0 = fp * fp2 * fp3;
    let y1 = t.conjugate();
    let y2 = fu2.frobenius_map(2);
    let y3 = fu.frobenius_map(1).conjugate();
    let y4 = (fu * fu2.frobenius_map(1)).conjugate();
    let y5 = fu2.conjugate();
    let y6 = (fu3 * fu3.frobenius_map(1)).conjugate();

    let mut t0 = y6.cyclotomic_square() * y4 * y5;
    let mut t1 = y3 * y5 * t0;
    t0 *= y2;
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square();
    t0 = t1 * y1;
    t1 *= y0;
    Some(t0.cyclotomic_square() * t1)
}

/// The full optimal ate pairing `e: G1 × G2 → μ_r ⊂ Fp12`.
///
/// # Examples
///
/// ```
/// use waku_curve::{g1::G1Affine, g2::G2Affine, pairing::pairing};
/// use waku_arith::traits::Field;
/// let e = pairing(&G1Affine::generator(), &G2Affine::generator());
/// assert!(!e.is_zero());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fp12 {
    final_exponentiation(&miller_loop(&[(*p, *q)])).expect("miller loop output is nonzero")
}

/// Product of pairings `∏ e(Pᵢ, Qᵢ)` sharing a single final exponentiation
/// (the shape Groth16 verification needs).
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    final_exponentiation(&miller_loop(pairs)).expect("miller loop output is nonzero")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use waku_arith::biguint::BigUint;
    use waku_arith::fields::Fr;
    use waku_arith::traits::PrimeField;

    /// The reference final exponentiation: the same easy part, then the
    /// hard part as one generic power by `(p⁴ − p² + 1)/r`.
    fn final_exponentiation_reference(f: &Fp12) -> Option<Fp12> {
        static HARD: OnceLock<Vec<u64>> = OnceLock::new();
        let hard = HARD.get_or_init(|| {
            let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
            let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
            let num = p.pow(4).sub(&p.pow(2)).add(&BigUint::one());
            let (q, rem) = num.div_rem(&r);
            assert!(rem.is_zero(), "BN identity: r | p⁴ − p² + 1");
            q.limbs().to_vec()
        });
        let f1 = f.conjugate() * f.inverse()?;
        let f2 = f1.frobenius_map(2) * f1;
        Some(f2.pow(hard))
    }

    fn random_pairs(rng: &mut StdRng, n: usize) -> Vec<(G1Affine, G2Affine)> {
        (0..n)
            .map(|_| {
                (
                    G1Projective::generator().mul(Fr::random(rng)).to_affine(),
                    G2Projective::generator().mul(Fr::random(rng)).to_affine(),
                )
            })
            .collect()
    }

    #[test]
    fn final_exponentiation_matches_generic_power() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in 0..32 {
            let f = miller_loop(&random_pairs(&mut rng, 1 + n % 3));
            assert_eq!(
                final_exponentiation(&f),
                final_exponentiation_reference(&f),
                "Miller output {n}"
            );
        }
        assert_eq!(final_exponentiation(&Fp12::zero()), None);
    }

    #[test]
    fn cyclotomic_square_matches_square_in_the_subgroup() {
        let mut rng = StdRng::seed_from_u64(32);
        for pair in random_pairs(&mut rng, 8) {
            let e = pairing(&pair.0, &pair.1);
            assert_eq!(e.cyclotomic_square(), e.square());
            // After the easy part alone (not yet of order r) too.
            let f = miller_loop(&[pair]);
            let f1 = f.conjugate() * f.inverse().unwrap();
            let easy = f1.frobenius_map(2) * f1;
            assert_eq!(easy.cyclotomic_square(), easy.square());
        }
    }

    #[test]
    fn chunked_miller_loop_is_bit_identical_to_one_chunk() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut pairs = random_pairs(&mut rng, 64);
        // Identity pairs on either side contribute nothing in any chunk.
        pairs[5].0 = G1Affine::identity();
        pairs[17].1 = G2Affine::identity();
        pairs[40] = (G1Affine::identity(), G2Affine::identity());
        let gamma = G2Prepared::new(&random_pairs(&mut rng, 1)[0].1);
        let prepared = [(G1Affine::generator(), &gamma)];
        waku_pool::with_threads(2, || {
            for n in 0..=64 {
                let dynamic = &pairs[..n];
                let one_chunk = miller_loop_chunked(dynamic, &prepared, usize::MAX);
                for chunk in [1, 3, 8, n.div_ceil(2)] {
                    assert_eq!(
                        miller_loop_chunked(dynamic, &prepared, chunk),
                        one_chunk,
                        "{n} dynamic pairs in chunks of {chunk}"
                    );
                }
                assert_eq!(miller_loop_mixed(dynamic, &prepared), one_chunk);
            }
        });
    }

    #[test]
    fn pairing_is_nondegenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fp12::one(), "e(G1, G2) must be a primitive r-th root");
        assert!(!e.is_zero());
        // It must have order dividing r.
        assert_eq!(e.pow(&<Fr as PrimeField>::MODULUS), Fp12::one());
    }

    #[test]
    fn pairing_with_identity_is_one() {
        assert_eq!(
            pairing(&G1Affine::identity(), &G2Affine::generator()),
            Fp12::one()
        );
        assert_eq!(
            pairing(&G1Affine::generator(), &G2Affine::identity()),
            Fp12::one()
        );
    }

    #[test]
    fn bilinearity() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let q = G2Projective::generator().mul(b).to_affine();
        let lhs = pairing(&p, &q);
        let base = pairing(&G1Affine::generator(), &G2Affine::generator());
        let ab = a * b;
        let rhs = base.pow(&ab.to_canonical_limbs());
        assert_eq!(lhs, rhs, "e(aG, bH) = e(G, H)^(ab)");
    }

    #[test]
    fn linearity_in_first_argument() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let q = G2Affine::generator();
        let sum = g.mul(a).add(&g.mul(b)).to_affine();
        let lhs = pairing(&sum, &q);
        let rhs = pairing(&g.mul(a).to_affine(), &q) * pairing(&g.mul(b).to_affine(), &q);
        assert_eq!(lhs, rhs, "e(P1+P2, Q) = e(P1,Q)·e(P2,Q)");
    }

    #[test]
    fn inverse_point_inverts_pairing() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let e = pairing(&p, &q);
        let e_neg = pairing(&p.neg(), &q);
        assert_eq!(e * e_neg, Fp12::one(), "e(-P, Q) = e(P, Q)^(-1)");
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut rng = StdRng::seed_from_u64(9);
        let p1 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let p2 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q1 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q2 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let combined = multi_pairing(&[(p1, q1), (p2, q2)]);
        let separate = pairing(&p1, &q1) * pairing(&p2, &q2);
        assert_eq!(combined, separate);
    }

    #[test]
    fn untwisted_generator_is_on_e_fp12() {
        // The untwist (x', y') ↦ (x'·w², y'·w³) by coefficient placement.
        let g = G2Affine::generator();
        let x = Fp12::new(Fp6::new(Fp2::zero(), g.x, Fp2::zero()), Fp6::zero());
        let y = Fp12::new(Fp6::zero(), Fp6::new(Fp2::zero(), g.y, Fp2::zero()));
        let b = Fp12::from_base(Fq::from_u64(3));
        assert_eq!(
            y.square(),
            x.square() * x + b,
            "untwist must land on y² = x³ + 3 over Fp12"
        );
    }

    #[test]
    fn groth16_shape_identity() {
        // e(aP, bQ) · e(-abP, Q) = 1 — the cancellation pattern the
        // verifier relies on.
        let mut rng = StdRng::seed_from_u64(11);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let left = multi_pairing(&[
            (g1.mul(a).to_affine(), g2.mul(b).to_affine()),
            (g1.mul(a * b).neg().to_affine(), G2Affine::generator()),
        ]);
        assert_eq!(left, Fp12::one());
    }

    #[test]
    fn prepared_miller_loop_matches_dynamic() {
        let mut rng = StdRng::seed_from_u64(13);
        let p1 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let p2 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q1 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q2 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let dynamic = miller_loop(&[(p1, q1), (p2, q2)]);
        let q1p = G2Prepared::new(&q1);
        let q2p = G2Prepared::new(&q2);
        let replayed = miller_loop_mixed(&[], &[(p1, &q1p), (p2, &q2p)]);
        assert_eq!(dynamic, replayed, "prepared lines must replay exactly");
        let mixed = miller_loop_mixed(&[(p1, q1)], &[(p2, &q2p)]);
        assert_eq!(dynamic, mixed, "mixed dynamic/prepared must agree");
    }

    #[test]
    fn prepared_identity_and_identity_g1_are_skipped() {
        let prep_inf = G2Prepared::new(&G2Affine::identity());
        let p = G1Affine::generator();
        assert_eq!(miller_loop_mixed(&[], &[(p, &prep_inf)]), Fp12::one());
        let prep = G2Prepared::new(&G2Affine::generator());
        assert_eq!(
            miller_loop_mixed(&[], &[(G1Affine::identity(), &prep)]),
            Fp12::one()
        );
    }

    #[test]
    fn batched_dynamic_pairs_match_separate_loops() {
        // Four dynamic pairs in one lock-step loop (one batch inversion per
        // phase) must equal the product of four separate loops.
        let mut rng = StdRng::seed_from_u64(17);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                (
                    G1Projective::generator()
                        .mul(Fr::random(&mut rng))
                        .to_affine(),
                    G2Projective::generator()
                        .mul(Fr::random(&mut rng))
                        .to_affine(),
                )
            })
            .collect();
        let batched = miller_loop(&pairs);
        let mut separate = Fp12::one();
        for pair in &pairs {
            separate *= miller_loop(std::slice::from_ref(pair));
        }
        assert_eq!(batched, separate);
    }
}
