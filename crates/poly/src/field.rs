//! Arithmetic in the prime field 𝔽_p, p = 2⁶¹ − 1.
//!
//! The Schwartz–Zippel test needs to evaluate polynomials with integer
//! coefficients at random points without overflow or rounding. Working
//! modulo a large prime keeps every value in one machine word; since the
//! characteristic polynomials have integer coefficients, equality over ℤ
//! implies equality mod p, and a difference that is non-zero over ℤ is
//! non-zero mod p unless p divides every coefficient — impossible here
//! because coefficients are bounded by the number of disjuncts (≪ p).

/// The Mersenne prime 2⁶¹ − 1.
pub const P: u64 = (1u64 << 61) - 1;

/// An element of 𝔽_p with p = 2⁶¹ − 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Fp(u64);

#[allow(clippy::should_implement_trait)] // `+ - * neg` operator impls are also provided below
impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Builds a field element from a non-negative integer.
    #[inline]
    pub fn new(value: u64) -> Self {
        Fp(value % P)
    }

    /// Builds a field element from a (possibly large) signed integer.
    pub fn from_i128(value: i128) -> Self {
        let m = value.rem_euclid(P as i128) as u64;
        Fp(m)
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Addition in 𝔽_p.
    #[inline]
    pub fn add(self, other: Fp) -> Fp {
        let sum = self.0 + other.0; // < 2^62, no overflow
        Fp(if sum >= P { sum - P } else { sum })
    }

    /// Subtraction in 𝔽_p.
    #[inline]
    pub fn sub(self, other: Fp) -> Fp {
        Fp(if self.0 >= other.0 {
            self.0 - other.0
        } else {
            self.0 + P - other.0
        })
    }

    /// Negation in 𝔽_p.
    #[inline]
    pub fn neg(self) -> Fp {
        if self.0 == 0 {
            Fp(0)
        } else {
            Fp(P - self.0)
        }
    }

    /// Multiplication in 𝔽_p.
    #[inline]
    pub fn mul(self, other: Fp) -> Fp {
        let prod = (self.0 as u128) * (other.0 as u128);
        Fp((prod % (P as u128)) as u64)
    }

    /// Exponentiation by squaring.
    pub fn pow(self, mut exp: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            exp >>= 1;
        }
        acc
    }

    /// `1 − self`, the evaluation of a negative literal `(1 − X_i)`.
    #[inline]
    pub fn one_minus(self) -> Fp {
        Fp::ONE.sub(self)
    }
}

impl std::ops::Add for Fp {
    type Output = Fp;
    fn add(self, rhs: Fp) -> Fp {
        Fp::add(self, rhs)
    }
}

impl std::ops::Sub for Fp {
    type Output = Fp;
    fn sub(self, rhs: Fp) -> Fp {
        Fp::sub(self, rhs)
    }
}

impl std::ops::Mul for Fp {
    type Output = Fp;
    fn mul(self, rhs: Fp) -> Fp {
        Fp::mul(self, rhs)
    }
}

impl std::ops::Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::neg(self)
    }
}

impl std::fmt::Display for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_wraps_around_p() {
        let a = Fp::new(P - 1);
        let b = Fp::new(5);
        assert_eq!(a.add(b).value(), 4);
    }

    #[test]
    fn subtraction_and_negation() {
        let a = Fp::new(3);
        let b = Fp::new(10);
        assert_eq!(a.sub(b).value(), P - 7);
        assert_eq!(b.neg().add(b), Fp::ZERO);
        assert_eq!(Fp::ZERO.neg(), Fp::ZERO);
    }

    #[test]
    fn multiplication_large_operands() {
        let a = Fp::new(P - 2);
        let b = Fp::new(P - 3);
        // (p-2)(p-3) = p^2 -5p + 6 ≡ 6 (mod p)
        assert_eq!(a.mul(b).value(), 6);
    }

    #[test]
    fn from_signed_values() {
        assert_eq!(Fp::from_i128(-(P as i128) - 5).value(), P - 5);
    }

    #[test]
    fn pow_and_inverse() {
        let a = Fp::new(123_456_789);
        assert_eq!(a.pow(0), Fp::ONE);
        assert_eq!(a.pow(1), a);
        // Fermat: a^(p-1) = 1.
        assert_eq!(a.pow(P - 1), Fp::ONE);
    }

    #[test]
    fn one_minus() {
        assert_eq!(Fp::new(1).one_minus(), Fp::ZERO);
        assert_eq!(Fp::ZERO.one_minus(), Fp::ONE);
        assert_eq!(Fp::new(7).one_minus().add(Fp::new(7)), Fp::ONE);
    }

    #[test]
    fn operator_overloads_match_methods() {
        let a = Fp::new(11);
        let b = Fp::new(13);
        assert_eq!(a + b, a.add(b));
        assert_eq!(a - b, a.sub(b));
        assert_eq!(a * b, a.mul(b));
        assert_eq!(-a, a.neg());
    }

    #[test]
    fn field_axioms_on_samples() {
        let xs = [
            Fp::new(0),
            Fp::new(1),
            Fp::new(17),
            Fp::new(P - 1),
            Fp::new(1 << 40),
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(a + b, b + a);
                assert_eq!(a * b, b * a);
                for &c in &xs {
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }
}
