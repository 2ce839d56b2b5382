//! Commutative provenance semirings: one condition algebra, many
//! scenarios.
//!
//! The paper's tractability results all hinge on conditions being
//! evaluated by a single fold — multiply along a conjunction, sum over
//! disjoint worlds. That fold is not intrinsically about probability: it
//! works over any **commutative semiring** `(K, ⊕, ⊗, 0, 1)` whose
//! addition and multiplication are associative and commutative, with `0`
//! the `⊕`-identity and `⊗`-annihilator and `1` the `⊗`-identity (Green,
//! Karvounarakis & Tannen's provenance semirings, instantiated for the
//! prob-tree model).
//!
//! [`Semiring`] abstracts the fold; each instance is a new scenario for
//! free, evaluated over the **same** prepared match sets and shard plans:
//!
//! | instance | `K` | answers |
//! |---|---|---|
//! | [`Probability`] | `f64` | Definition 8's `eval` — the classic path |
//! | [`Possibility`] | `bool` | "is this answer possible at all?" (the possibility problem) |
//! | [`Lineage`] | event-id sets | why-provenance: which base events the answer depends on |
//!
//! Only condition evaluation ([`Condition::eval_in`](crate::Condition::eval_in))
//! and the prepared-query drains are generic. Valuation weights, DNF sums
//! and the update simplifier's certainty pruning fold probabilities
//! directly. `Probability`'s operations monomorphize to plain `f64`
//! arithmetic in the exact sequence the pre-semiring code used, so
//! [`Condition::probability`](crate::Condition::probability) is
//! bit-identical to its hand-rolled ancestor (property-tested in the
//! integration suite).

use std::collections::BTreeSet;
use std::fmt;

use crate::condition::Literal;
use crate::event::{EventId, EventTable};

/// A commutative semiring `(K, ⊕, ⊗, 0, 1)` interpreting condition
/// literals, plus the zero test pruning folds key on.
///
/// # Laws
///
/// For all `a`, `b`, `c` produced by `zero`/`one`/`literal` and closed
/// under `add`/`mul` (property-tested in `tests/tests/semirings.rs`):
///
/// * `add` and `mul` are associative and commutative;
/// * `add(a, zero()) = a`, `mul(a, one()) = a`, `mul(a, zero()) = zero()`;
/// * `mul(a, add(b, c)) = add(mul(a, b), mul(a, c))` whenever `b` and `c`
///   arise from **disjoint** events (sums over mutually exclusive
///   worlds).
pub trait Semiring {
    /// The carrier `K`.
    type Value: Clone + PartialEq + fmt::Debug;

    /// The additive identity `0` (the value of an impossible condition).
    fn zero(&self) -> Self::Value;

    /// The multiplicative identity `1` (the value of the empty, always
    /// true condition).
    fn one(&self) -> Self::Value;

    /// Semiring addition `⊕`, combining values of mutually exclusive
    /// alternatives.
    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Semiring multiplication `⊗`, combining values of independent
    /// conjuncts.
    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// The interpretation of one literal under the event distribution.
    fn literal(&self, literal: Literal, events: &EventTable) -> Self::Value;

    /// `true` iff `value` is the additive identity — the test pruning
    /// passes key on ("this branch contributes nothing").
    fn is_zero(&self, value: &Self::Value) -> bool;
}

/// The probability semiring `([0, 1], +, ·, 0, 1)` — Definition 8's
/// `eval`, and the workspace's specialized fast path: every operation
/// monomorphizes to the exact `f64` arithmetic the pre-semiring folds
/// performed, in the same order, so results are bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probability;

impl Semiring for Probability {
    type Value = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn one(&self) -> f64 {
        1.0
    }

    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn literal(&self, literal: Literal, events: &EventTable) -> f64 {
        literal.prob(events)
    }

    fn is_zero(&self, value: &f64) -> bool {
        *value == 0.0
    }
}

/// The boolean semiring `({⊥, ⊤}, ∨, ∧, ⊥, ⊤)` — the *possibility
/// problem*: is there **any** positive-probability world where the
/// condition holds? A positive literal is always possible (the table
/// enforces `π > 0`); a negative literal is possible iff `π < 1`.
///
/// Bridge law (property-tested): `Possibility ≡ (Probability > 0)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Possibility;

impl Semiring for Possibility {
    type Value = bool;

    fn zero(&self) -> bool {
        false
    }

    fn one(&self) -> bool {
        true
    }

    fn add(&self, a: bool, b: bool) -> bool {
        a || b
    }

    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }

    fn literal(&self, literal: Literal, events: &EventTable) -> bool {
        literal.prob(events) > 0.0
    }

    fn is_zero(&self, value: &bool) -> bool {
        !*value
    }
}

/// The lineage (why-provenance) semiring: which base events does a value
/// depend on at all? `None` is the annihilating `0` (impossible); a
/// possible value carries the set of events consulted. Both `⊕` and `⊗`
/// are set union on possible values — union is associative, commutative,
/// idempotent and self-distributive, so the laws hold with `⊕ = ⊗`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lineage;

impl Semiring for Lineage {
    type Value = Option<BTreeSet<EventId>>;

    fn zero(&self) -> Self::Value {
        None
    }

    fn one(&self) -> Self::Value {
        Some(BTreeSet::new())
    }

    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(mut a), Some(b)) => {
                a.extend(b);
                Some(a)
            }
        }
    }

    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        match (a, b) {
            (None, _) | (_, None) => None,
            (Some(mut a), Some(b)) => {
                a.extend(b);
                Some(a)
            }
        }
    }

    fn literal(&self, literal: Literal, _events: &EventTable) -> Self::Value {
        Some(BTreeSet::from([literal.event]))
    }

    fn is_zero(&self, value: &Self::Value) -> bool {
        value.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.insert("w1", 0.8);
        let w2 = t.insert("w2", 0.7);
        let sure = t.insert("sure", 1.0);
        (t, w1, w2, sure)
    }

    #[test]
    fn probability_monomorphizes_to_plain_arithmetic() {
        let (t, w1, w2, _) = table();
        let s = Probability;
        assert_eq!(s.mul(s.one(), s.literal(Literal::pos(w1), &t)), 0.8);
        let v = s.mul(
            s.literal(Literal::pos(w1), &t),
            s.literal(Literal::neg(w2), &t),
        );
        assert_eq!(v.to_bits(), (0.8f64 * (1.0 - 0.7)).to_bits());
        assert!(s.is_zero(&0.0));
        assert!(!s.is_zero(&1e-300));
    }

    #[test]
    fn possibility_tracks_positive_probability() {
        let (t, w1, _, sure) = table();
        assert!(Possibility.literal(Literal::pos(w1), &t));
        assert!(Possibility.literal(Literal::neg(w1), &t));
        assert!(Possibility.literal(Literal::pos(sure), &t));
        assert!(!Possibility.literal(Literal::neg(sure), &t));
    }

    #[test]
    fn lineage_unions_and_annihilates() {
        let (t, w1, w2, _) = table();
        let s = Lineage;
        let a = s.literal(Literal::pos(w1), &t);
        let b = s.literal(Literal::neg(w2), &t);
        let ab = s.mul(a.clone(), b.clone());
        assert_eq!(ab, Some(BTreeSet::from([w1, w2])));
        assert_eq!(s.add(a.clone(), s.zero()), a);
        assert_eq!(s.mul(b, s.zero()), None);
        assert!(s.is_zero(&s.zero()));
        assert!(!s.is_zero(&s.one()));
    }
}
