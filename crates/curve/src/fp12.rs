//! Quadratic extension `Fp12 = Fp6[w]/(w² − v)` — the pairing target field.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::Fq;
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::Fp2;
use crate::fp6::Fp6;

/// An element `c0 + c1·w` of Fp12.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp12 {
    /// Constant coefficient.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

/// Frobenius constants `γᵢ = ξ^((pⁱ−1)/6)` for i = 0..=3, derived at first
/// use.
fn frobenius_coeffs() -> &'static [Fp2; 4] {
    static CELL: OnceLock<[Fp2; 4]> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let six = BigUint::from(6u64);
        let mut out = [Fp2::one(); 4];
        for (i, slot) in out.iter_mut().enumerate() {
            let p_i = p.pow(i as u32);
            let (e, r) = p_i.sub(&BigUint::one()).div_rem(&six);
            assert!(r.is_zero(), "p^i - 1 must be divisible by 6");
            *slot = Fp2::xi().pow(e.limbs());
        }
        out
    })
}

impl Fp12 {
    /// Builds an element from its Fp6 coefficients.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Fp12 { c0, c1 }
    }

    /// Embeds an Fp6 element.
    pub fn from_fp6(c0: Fp6) -> Self {
        Fp12 {
            c0,
            c1: Fp6::zero(),
        }
    }

    /// Embeds an Fq element.
    pub fn from_base(c: Fq) -> Self {
        Fp12::from_fp6(Fp6::from_fp2(Fp2::from_base(c)))
    }

    /// Conjugation `c0 − c1·w`; equals the `p⁶`-power Frobenius, and for
    /// elements in the cyclotomic subgroup equals inversion.
    pub fn conjugate(&self) -> Self {
        Fp12 {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)` for `power ≤ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `power > 3`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        assert!(power <= 3, "frobenius power out of precomputed range");
        let g = frobenius_coeffs()[power];
        Fp12 {
            c0: self.c0.frobenius_map(power),
            c1: self.c1.frobenius_map(power).scale(g),
        }
    }

    /// Multiplication by the sparse element `a + (b0 + b1·v)·w` with `a` in
    /// the base field — the shape of a Miller-loop line evaluated at a G1
    /// point: ten Fp2 multiplications instead of eighteen.
    pub(crate) fn mul_by_line(&self, a: Fq, b0: Fp2, b1: Fp2) -> Self {
        let fa = Fp6::new(
            self.c0.c0.scale(a),
            self.c0.c1.scale(a),
            self.c0.c2.scale(a),
        );
        let fb = self.c1.mul_by_01(b0, b1);
        Fp12 {
            c0: fa + fb.mul_by_v(),
            c1: (self.c0 + self.c1).mul_by_01(b0 + Fp2::from_base(a), b1) - fa - fb,
        }
    }

    /// Granger–Scott squaring ("Faster Squaring in the Cyclotomic Subgroup
    /// of Sixth Degree Finite Fields", PKC 2010), valid only for elements
    /// of the cyclotomic subgroup — norm 1 over Fp6 and over Fp4, which
    /// holds for every output of the final exponentiation's easy part.
    ///
    /// Viewing Fp12 as `Fp4³` with `Fp4 = Fp2[s]/(s² − ξ)`, the square
    /// needs three Fp4 squarings (six Fp2 multiplications) instead of the
    /// general square's two Fp6 multiplications. Outside the subgroup the
    /// result is not `self²`.
    pub fn cyclotomic_square(&self) -> Self {
        // The three Fp4 coordinates (z0 + z1·s), (z2 + z3·s), (z4 + z5·s).
        let (z0, z4, z3) = (self.c0.c0, self.c0.c1, self.c0.c2);
        let (z2, z1, z5) = (self.c1.c0, self.c1.c1, self.c1.c2);
        // (a + b·s)² = (a² + ξb²) + 2ab·s.
        let fp4_square = |a: Fp2, b: Fp2| {
            let ab = a * b;
            let t0 = (a + b) * (b.mul_by_nonresidue() + a) - ab - ab.mul_by_nonresidue();
            (t0, ab.double())
        };
        let (t0, t1) = fp4_square(z0, z1);
        let (t2, t3) = fp4_square(z2, z3);
        let (t4, t5) = fp4_square(z4, z5);
        // 3t − 2z for the "minus" slots, 3t + 2z for the "plus" slots.
        let minus = |t: Fp2, z: Fp2| (t - z).double() + t;
        let plus = |t: Fp2, z: Fp2| (t + z).double() + t;
        Fp12 {
            c0: Fp6::new(minus(t0, z0), minus(t2, z4), minus(t4, z3)),
            c1: Fp6::new(plus(t5.mul_by_nonresidue(), z2), plus(t1, z1), plus(t3, z5)),
        }
    }
}

impl Add for Fp12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp12 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fp12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp12 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Mul for Fp12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba with w² = v.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp12 {
            c0: v0 + v1.mul_by_v(),
            c1: s - v0 - v1,
        }
    }
}

impl Neg for Fp12 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp12 {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl AddAssign for Fp12 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp12 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp12({:?} + ({:?})·w)", self.c0, self.c1)
    }
}

impl fmt::Display for Fp12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) + ({})·w", self.c0, self.c1)
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Fp12 {
            c0: Fp6::zero(),
            c1: Fp6::zero(),
        }
    }

    fn one() -> Self {
        Fp12 {
            c0: Fp6::one(),
            c1: Fp6::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        // Complex squaring: (c0 + c1 w)² = (c0² + c1²·v) + 2c0c1·w.
        let ab = self.c0 * self.c1;
        let a = self.c0 + self.c1;
        let b = self.c0 + self.c1.mul_by_v();
        let t = a * b - ab - ab.mul_by_v();
        Fp12 {
            c0: t,
            c1: ab.double(),
        }
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 − c1 w)/(c0² − c1²·v)
        let t = self.c0.square() - self.c1.square().mul_by_v();
        let t_inv = t.inverse()?;
        Some(Fp12 {
            c0: self.c0 * t_inv,
            c1: -(self.c1 * t_inv),
        })
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp12 {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w.square(), v);
        assert_eq!(w * w, v);
    }

    #[test]
    fn square_matches_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = Fp12::random(&mut rng);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn sparse_products_match_generic_mul() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let f = Fp12::random(&mut rng);
            let (a, b0, b1) = (
                Fq::random(&mut rng),
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
            );
            let line = Fp12::new(
                Fp6::from_fp2(Fp2::from_base(a)),
                Fp6::new(b0, b1, Fp2::zero()),
            );
            assert_eq!(f.mul_by_line(a, b0, b1), f * line);
            assert_eq!(f.c0.mul_by_01(b0, b1), f.c0 * Fp6::new(b0, b1, Fp2::zero()));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let a = Fp12::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fp12::one());
        }
    }

    #[test]
    fn associativity_distributivity() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        let c = Fp12::random(&mut rng);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn frobenius_is_pth_power() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Fp12::random(&mut rng);
        assert_eq!(a.frobenius_map(1), a.pow(&<Fq as PrimeField>::MODULUS));
        assert_eq!(a.frobenius_map(1).frobenius_map(1), a.frobenius_map(2));
        assert_eq!(a.frobenius_map(2).frobenius_map(1), a.frobenius_map(3));
    }

    #[test]
    fn conjugate_is_p6_frobenius() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Fp12::random(&mut rng);
        let f3 = a.frobenius_map(3);
        // p⁶ = (p³)²; conjugation flips the sign of c1.
        assert_eq!(f3.frobenius_map(3), a.conjugate());
    }
}
