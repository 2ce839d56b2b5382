//! Characteristic polynomials of DNF formulas (Definition 11).
//!
//! Given a DNF formula `ψ`, its characteristic polynomial `P_ψ` is obtained
//! by (after removing inconsistent disjuncts) replacing positive literals
//! `X_i` by themselves, negative literals `¬X_i` by `(1 − X_i)`,
//! conjunction by product and disjunction by sum. The key facts used by the
//! paper:
//!
//! * the value of `P_ψ` at a 0/1 point equals the number of disjuncts the
//!   corresponding valuation satisfies (proof of Lemma 1), and
//! * `ψ ≡⁺ ψ'` (count-equivalence) iff `P_ψ = P_ψ'` (Lemma 1),
//!
//! which reduces count-equivalence to polynomial identity testing.
//!
//! Two interfaces are provided: [`characteristic_polynomial`] expands the
//! polynomial explicitly (exponential in the number of negative literals
//! per disjunct — exact baseline), and [`eval_characteristic`] evaluates it
//! at a field point directly from the DNF in linear time, which is all the
//! Schwartz–Zippel test needs.

use pxml_events::{Condition, Dnf, EventId};

use crate::field::Fp;
use crate::mpoly::MPoly;

/// Explicitly expands the characteristic polynomial `P_ψ` of a DNF formula.
///
/// Worst-case exponential in the number of negative literals per disjunct;
/// use [`eval_characteristic`] inside randomized tests instead.
pub fn characteristic_polynomial(dnf: &Dnf) -> MPoly {
    let mut acc = MPoly::zero();
    for disjunct in dnf.normalized().disjuncts() {
        acc = acc.add(&condition_polynomial(disjunct));
    }
    acc
}

/// The characteristic polynomial of a single (consistent) conjunction.
pub fn condition_polynomial(condition: &Condition) -> MPoly {
    let mut acc = MPoly::constant(1);
    for literal in condition.literals() {
        let factor = if literal.positive {
            MPoly::var(literal.event)
        } else {
            MPoly::one_minus_var(literal.event)
        };
        acc = acc.mul(&factor);
    }
    acc
}

/// Evaluates `P_ψ` at the field point `point` **without expanding** the
/// polynomial: for each consistent disjunct, multiply `point(X_i)` for
/// positive literals and `1 − point(X_i)` for negative ones, then sum.
/// Linear in the number of literals of the formula.
pub fn eval_characteristic(dnf: &Dnf, point: &dyn Fn(EventId) -> Fp) -> Fp {
    let mut acc = Fp::ZERO;
    for disjunct in dnf.disjuncts() {
        if !disjunct.is_consistent() {
            continue;
        }
        let mut term = Fp::ONE;
        for literal in disjunct.literals() {
            let x = point(literal.event);
            term = term.mul(if literal.positive { x } else { x.one_minus() });
        }
        acc = acc.add(term);
    }
    acc
}

/// Evaluates `P_ψ − P_ψ'` at a field point, directly from the two DNFs.
pub fn eval_characteristic_difference(lhs: &Dnf, rhs: &Dnf, point: &dyn Fn(EventId) -> Fp) -> Fp {
    eval_characteristic(lhs, point).sub(eval_characteristic(rhs, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_events::Literal;

    // pxml_events does not expose a convenience constructor for enumerating
    // valuations over n events with the default guard, so define one here.
    mod helpers {
        use pxml_events::valuation::{all_valuations, Valuation};
        pub(super) fn vals(n: usize) -> Vec<Valuation> {
            all_valuations(n, 20).unwrap().collect()
        }
    }

    fn e(i: usize) -> EventId {
        EventId::from_index(i)
    }

    #[test]
    fn single_positive_literal() {
        let dnf = Dnf::of(Condition::of(Literal::pos(e(0))));
        let p = characteristic_polynomial(&dnf);
        assert_eq!(p, MPoly::var(e(0)));
    }

    #[test]
    fn negative_literal_expands_to_one_minus_x() {
        let dnf = Dnf::of(Condition::of(Literal::neg(e(0))));
        let p = characteristic_polynomial(&dnf);
        assert_eq!(p.coeff(&[]), 1);
        assert_eq!(p.coeff(&[e(0)]), -1);
    }

    #[test]
    fn inconsistent_disjunct_contributes_zero() {
        let inconsistent = Condition::from_literals([Literal::pos(e(0)), Literal::neg(e(0))]);
        let dnf = Dnf::from_disjuncts([inconsistent]);
        assert!(characteristic_polynomial(&dnf).is_zero());
        assert_eq!(eval_characteristic(&dnf, &|_| Fp::new(7)), Fp::ZERO);
    }

    #[test]
    fn empty_condition_is_the_constant_one() {
        let dnf = Dnf::of(Condition::always());
        let p = characteristic_polynomial(&dnf);
        assert_eq!(p.coeff(&[]), 1);
        assert_eq!(eval_characteristic(&dnf, &|_| Fp::new(999)), Fp::ONE);
    }

    #[test]
    fn lemma1_forward_direction_on_example() {
        // A ∨ (A ∧ B) vs A: equivalent but not count-equivalent, so the
        // characteristic polynomials must differ.
        let lhs = Dnf::from_disjuncts([
            Condition::of(Literal::pos(e(0))),
            Condition::from_literals([Literal::pos(e(0)), Literal::pos(e(1))]),
        ]);
        let rhs = Dnf::of(Condition::of(Literal::pos(e(0))));
        assert_ne!(
            characteristic_polynomial(&lhs),
            characteristic_polynomial(&rhs)
        );
    }

    #[test]
    fn value_at_01_point_counts_satisfied_disjuncts() {
        // Proof of Lemma 1: P_ψ(ν) = number of disjuncts satisfied by ν.
        let dnf = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(e(0)), Literal::neg(e(1))]),
            Condition::of(Literal::pos(e(2))),
            Condition::of(Literal::pos(e(0))),
        ]);
        let p = characteristic_polynomial(&dnf);
        for v in helpers::vals(3) {
            let expected = dnf.count_satisfied(&v) as i128;
            let got = p.eval_01(&|ev| v.get(ev));
            assert_eq!(got, expected, "valuation {v:?}");
        }
    }

    #[test]
    fn eval_characteristic_agrees_with_expansion_at_random_like_points() {
        let dnf = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(e(0)), Literal::neg(e(1)), Literal::neg(e(2))]),
            Condition::from_literals([Literal::neg(e(0)), Literal::pos(e(2))]),
        ]);
        let p = characteristic_polynomial(&dnf);
        // A few deterministic "random" points.
        for seed in [1u64, 17, 123_456, 987_654_321] {
            let point = move |v: EventId| Fp::new(seed.wrapping_mul(v.index() as u64 + 3) + 11);
            assert_eq!(p.eval_fp(&point), eval_characteristic(&dnf, &point));
        }
    }

    #[test]
    fn difference_of_identical_formulas_is_zero_everywhere() {
        let dnf = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(e(0)), Literal::neg(e(1))]),
            Condition::of(Literal::pos(e(1))),
        ]);
        for x in [0u64, 1, 2, 55_555] {
            let point = move |v: EventId| Fp::new(x + v.index() as u64);
            assert_eq!(eval_characteristic_difference(&dnf, &dnf, &point), Fp::ZERO);
        }
    }

    #[test]
    fn count_equivalent_reorderings_have_equal_polynomials() {
        let d1 = Condition::from_literals([Literal::pos(e(0)), Literal::neg(e(1))]);
        let d2 = Condition::of(Literal::pos(e(2)));
        let a = Dnf::from_disjuncts([d1.clone(), d2.clone()]);
        let b = Dnf::from_disjuncts([d2, d1]);
        assert_eq!(characteristic_polynomial(&a), characteristic_polynomial(&b));
    }
}
