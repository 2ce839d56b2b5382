//! Sparse multivariate polynomials with degree ≤ 1 in every variable.
//!
//! Characteristic polynomials of normalized DNF formulas (Definition 11)
//! are multilinear: every variable appears with degree at most one, because
//! duplicate literals inside a disjunct are removed. A monomial is
//! therefore a *set* of variables, and a polynomial is a map from variable
//! sets to integer coefficients.
//!
//! Expanding a characteristic polynomial can take exponential time and
//! space (each disjunct with `k` negative literals expands into `2^k`
//! monomials); this type is the exact baseline, and also the witness used
//! to test Lemma 1 against the naive count-equivalence decision.

use std::collections::BTreeMap;

use pxml_events::EventId;

use crate::field::Fp;

/// A multilinear monomial: the sorted set of variables (event ids) it
/// multiplies.
pub type Monomial = Vec<EventId>;

/// A sparse multilinear polynomial with integer (`i128`) coefficients over
/// variables identified by [`EventId`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MPoly {
    /// Map from monomial (sorted variable list) to non-zero coefficient.
    terms: BTreeMap<Monomial, i128>,
}

impl MPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        MPoly::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: i128) -> Self {
        let mut p = MPoly::zero();
        if c != 0 {
            p.terms.insert(Vec::new(), c);
        }
        p
    }

    /// The polynomial `X_v`.
    pub fn var(v: EventId) -> Self {
        let mut p = MPoly::zero();
        p.terms.insert(vec![v], 1);
        p
    }

    /// The polynomial `1 − X_v` (characteristic-polynomial image of a
    /// negative literal).
    pub fn one_minus_var(v: EventId) -> Self {
        let mut p = MPoly::zero();
        p.terms.insert(Vec::new(), 1);
        p.terms.insert(vec![v], -1);
        p
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The coefficient of a monomial (0 if absent). The monomial need not
    /// be sorted.
    pub fn coeff(&self, monomial: &[EventId]) -> i128 {
        let mut m = monomial.to_vec();
        m.sort_unstable();
        m.dedup();
        self.terms.get(&m).copied().unwrap_or(0)
    }

    /// Iterates over the (monomial, coefficient) pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, i128)> + '_ {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    fn insert_term(&mut self, monomial: Monomial, coeff: i128) {
        if coeff == 0 {
            return;
        }
        let entry = self.terms.entry(monomial).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            // Remove cancelled terms to keep equality syntactic.
            let key: Vec<EventId> = self
                .terms
                .iter()
                .find(|(_, &c)| c == 0)
                .map(|(k, _)| k.clone())
                .expect("just inserted");
            self.terms.remove(&key);
        }
    }

    /// Polynomial addition.
    pub fn add(&self, other: &MPoly) -> MPoly {
        let mut out = self.clone();
        for (m, c) in other.terms() {
            out.insert_term(m.clone(), c);
        }
        out
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &MPoly) -> MPoly {
        let mut out = self.clone();
        for (m, c) in other.terms() {
            out.insert_term(m.clone(), -c);
        }
        out
    }

    /// Polynomial multiplication. Multiplying two terms that share a
    /// variable keeps degree 1 in that variable (X² = X never arises in
    /// characteristic polynomials because a disjunct never multiplies `X_i`
    /// by `X_i`, and `X_i · (1 − X_i)` only arises for inconsistent
    /// disjuncts, which Definition 11 removes before expansion).
    ///
    /// # Panics
    /// Panics if the two factors share a variable (which would break the
    /// multilinear invariant).
    pub fn mul(&self, other: &MPoly) -> MPoly {
        let mut out = MPoly::zero();
        for (ma, ca) in self.terms() {
            for (mb, cb) in other.terms() {
                let mut m = ma.clone();
                for v in mb {
                    assert!(
                        !m.contains(v),
                        "multilinear multiplication would square variable {v:?}"
                    );
                    m.push(*v);
                }
                m.sort_unstable();
                out.insert_term(m, ca * cb);
            }
        }
        out
    }

    /// Evaluates the polynomial over 𝔽_p at the given point. `point(v)`
    /// must return the value of variable `v`.
    pub fn eval_fp(&self, point: &dyn Fn(EventId) -> Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for (m, c) in self.terms() {
            let mut term = Fp::from_i128(c);
            for &v in m {
                term = term.mul(point(v));
            }
            acc = acc.add(term);
        }
        acc
    }

    /// Evaluates the polynomial over the integers at a 0/1 point. This is
    /// exactly "the number of disjuncts satisfied by the valuation" when
    /// the polynomial is a characteristic polynomial (proof of Lemma 1).
    pub fn eval_01(&self, point: &dyn Fn(EventId) -> bool) -> i128 {
        let mut acc: i128 = 0;
        for (m, c) in self.terms() {
            if m.iter().all(|&v| point(v)) {
                acc += c;
            }
        }
        acc
    }

    /// The total degree of the polynomial (size of the largest monomial).
    pub fn degree(&self) -> usize {
        self.terms.keys().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EventId {
        EventId::from_index(i)
    }

    #[test]
    fn constants_and_vars() {
        assert!(MPoly::zero().is_zero());
        assert!(MPoly::constant(0).is_zero());
        assert_eq!(MPoly::constant(3).coeff(&[]), 3);
        assert_eq!(MPoly::var(e(2)).coeff(&[e(2)]), 1);
        assert_eq!(MPoly::var(e(2)).coeff(&[]), 0);
    }

    #[test]
    fn one_minus_var_expansion() {
        let p = MPoly::one_minus_var(e(0));
        assert_eq!(p.coeff(&[]), 1);
        assert_eq!(p.coeff(&[e(0)]), -1);
        assert_eq!(p, MPoly::constant(1).sub(&MPoly::var(e(0))));
    }

    #[test]
    fn addition_cancels_terms() {
        let p = MPoly::var(e(0)).add(&MPoly::constant(2));
        let q = MPoly::var(e(0)).sub(&MPoly::constant(2));
        let sum = p.add(&q);
        assert_eq!(sum.coeff(&[e(0)]), 2);
        assert_eq!(sum.coeff(&[]), 0);
        let diff = p.sub(&p);
        assert!(diff.is_zero());
    }

    #[test]
    fn multiplication_expands_products() {
        // (1 - X0)(1 - X1) = 1 - X0 - X1 + X0X1
        let p = MPoly::one_minus_var(e(0)).mul(&MPoly::one_minus_var(e(1)));
        assert_eq!(p.coeff(&[]), 1);
        assert_eq!(p.coeff(&[e(0)]), -1);
        assert_eq!(p.coeff(&[e(1)]), -1);
        assert_eq!(p.coeff(&[e(0), e(1)]), 1);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    #[should_panic(expected = "square variable")]
    fn multiplication_rejects_shared_variables() {
        MPoly::var(e(0)).mul(&MPoly::var(e(0)));
    }

    #[test]
    fn eval_01_counts_like_characteristic_polynomial() {
        // X0 + X0·X1 evaluated at (1,1) is 2, at (1,0) is 1, at (0,*) is 0.
        let p = MPoly::var(e(0)).add(&MPoly::var(e(0)).mul(&MPoly::var(e(1))));
        assert_eq!(p.eval_01(&|_| true), 2);
        assert_eq!(p.eval_01(&|v| v == e(0)), 1);
        assert_eq!(p.eval_01(&|_| false), 0);
    }

    #[test]
    fn eval_fp_matches_eval_01_on_01_points() {
        let p = MPoly::one_minus_var(e(0))
            .mul(&MPoly::var(e(1)))
            .add(&MPoly::constant(5));
        for bits in 0..4u32 {
            let point01 = move |v: EventId| (bits >> v.index()) & 1 == 1;
            let pointfp = move |v: EventId| {
                if (bits >> v.index()) & 1 == 1 {
                    Fp::ONE
                } else {
                    Fp::ZERO
                }
            };
            let exact = p.eval_01(&point01);
            assert_eq!(p.eval_fp(&pointfp), Fp::from_i128(exact));
        }
    }

    #[test]
    fn coeff_accepts_unsorted_monomials() {
        let p = MPoly::var(e(3)).mul(&MPoly::var(e(1)));
        assert_eq!(p.coeff(&[e(3), e(1)]), 1);
        assert_eq!(p.coeff(&[e(1), e(3)]), 1);
    }
}
