//! Valuations of event variables.
//!
//! A valuation corresponds to a choice `V ⊆ W` of the events that are true;
//! the possible-world semantics of a prob-tree enumerates all of them
//! (Definition 4). Valuations are stored as compact bitsets.

use crate::condition::Literal;
use crate::event::{EventId, EventTable};

/// A truth assignment for the event variables of one [`EventTable`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Valuation {
    bits: Vec<u64>,
    len: usize,
}

impl Valuation {
    /// The all-false valuation over `len` events.
    pub fn empty(len: usize) -> Self {
        Valuation {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The all-true valuation over `len` events.
    pub fn full(len: usize) -> Self {
        let mut v = Valuation::empty(len);
        for i in 0..len {
            v.set(EventId::from_index(i), true);
        }
        v
    }

    /// Builds a valuation from the set of true events.
    pub fn from_true_events<I: IntoIterator<Item = EventId>>(len: usize, events: I) -> Self {
        let mut v = Valuation::empty(len);
        for e in events {
            v.set(e, true);
        }
        v
    }

    /// Number of event variables covered by this valuation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the valuation covers no event variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The truth value of `event`.
    #[inline]
    pub fn get(&self, event: EventId) -> bool {
        let i = event.index();
        debug_assert!(i < self.len, "event {i} out of range {}", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the truth value of `event`.
    #[inline]
    pub fn set(&mut self, event: EventId, value: bool) {
        let i = event.index();
        debug_assert!(i < self.len, "event {i} out of range {}", self.len);
        if value {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Sets every event that is true in `other` to true in `self` (bitwise
    /// union). The factorized world engine combines per-component partial
    /// assignments into a joint valuation this way: components assign
    /// disjoint event sets, so the union of their representatives is the
    /// joint assignment.
    ///
    /// # Panics
    /// Panics if the two valuations cover a different number of events.
    pub fn union_with(&mut self, other: &Valuation) {
        assert_eq!(
            self.len, other.len,
            "cannot union valuations over different event counts"
        );
        for (word, other_word) in self.bits.iter_mut().zip(&other.bits) {
            *word |= other_word;
        }
    }

    /// Probability of this valuation under the independent distribution of
    /// `events`: `Π_{w ∈ V} π(w) · Π_{w ∉ V} (1 − π(w))` (Definition 4).
    ///
    /// The valuation may cover a *prefix* of the table (a partial
    /// valuation): events the valuation does not cover are marginalized
    /// analytically — their true and false branches sum to 1, so they
    /// contribute a factor of 1 and the result is the marginal probability
    /// of the partial assignment.
    pub fn probability(&self, events: &EventTable) -> f64 {
        assert!(
            self.len <= events.len(),
            "valuation covers {} events but the table declares only {}",
            self.len,
            events.len()
        );
        self.probability_over(events, (0..self.len).map(EventId::from_index))
    }

    /// Marginal probability of the partial assignment this valuation makes
    /// to `subset` only: `Π_{w ∈ subset ∩ V} π(w) · Π_{w ∈ subset ∖ V}
    /// (1 − π(w))`, folded in `subset` order. Events outside `subset` are
    /// marginalized analytically (factor 1). This is the workhorse of the
    /// relevant-event world engine, which assigns truth values only to the
    /// events actually mentioned by a prob-tree's conditions.
    pub fn probability_over<I: IntoIterator<Item = EventId>>(
        &self,
        events: &EventTable,
        subset: I,
    ) -> f64 {
        let mut acc = 1.0;
        for e in subset {
            let literal = if self.get(e) {
                Literal::pos(e)
            } else {
                Literal::neg(e)
            };
            acc *= literal.prob(events);
        }
        acc
    }
}

/// Error returned when an exhaustive enumeration over `2^{|W|}` valuations
/// would exceed the caller-provided bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TooManyValuations {
    /// Number of event variables requested.
    pub num_events: usize,
    /// The caller's bound on the number of event variables.
    pub max_events: usize,
}

impl std::fmt::Display for TooManyValuations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "enumerating 2^{} valuations exceeds the configured bound of 2^{}",
            self.num_events, self.max_events
        )
    }
}

impl std::error::Error for TooManyValuations {}

/// Iterator over the valuations that extend a start valuation by every
/// assignment of a list of free events, in binary-counter order: the
/// first free event flips fastest, and the all-true assignment of the
/// free events comes last. Events outside the list keep their bit from
/// the start valuation.
#[derive(Debug)]
pub struct Valuations {
    free: Vec<EventId>,
    next: Option<Valuation>,
}

impl Valuations {
    /// The `2^{|free|}` valuations that agree with `start` outside `free`,
    /// beginning with `start` itself (whose `free` bits should be false).
    pub fn over(start: Valuation, free: Vec<EventId>) -> Self {
        Valuations {
            free,
            next: Some(start),
        }
    }
}

impl Iterator for Valuations {
    type Item = Valuation;

    fn next(&mut self) -> Option<Valuation> {
        let current = self.next.take()?;
        // Binary increment over the free events; stop after the all-true
        // assignment.
        let mut succ = current.clone();
        for &e in &self.free {
            if succ.get(e) {
                succ.set(e, false);
            } else {
                succ.set(e, true);
                self.next = Some(succ);
                break;
            }
        }
        Some(current)
    }
}

/// Enumerates all valuations over `num_events` events, refusing to start if
/// `num_events > max_events` (exponential-work guard).
pub fn all_valuations(
    num_events: usize,
    max_events: usize,
) -> Result<Valuations, TooManyValuations> {
    if num_events > max_events {
        return Err(TooManyValuations {
            num_events,
            max_events,
        });
    }
    Ok(Valuations::over(
        Valuation::empty(num_events),
        (0..num_events).map(EventId::from_index).collect(),
    ))
}

/// Default bound on the number of event variables for exhaustive
/// enumerations (2^24 ≈ 16M valuations).
pub const DEFAULT_MAX_EXHAUSTIVE_EVENTS: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of true events.
    fn count_true(v: &Valuation) -> usize {
        (0..v.len())
            .filter(|&i| v.get(EventId::from_index(i)))
            .count()
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut v = Valuation::empty(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let e = EventId::from_index(i);
            assert!(!v.get(e));
            v.set(e, true);
            assert!(v.get(e));
        }
        assert_eq!(count_true(&v), 8);
        v.set(EventId::from_index(64), false);
        assert_eq!(count_true(&v), 7);
    }

    #[test]
    fn union_with_merges_disjoint_assignments() {
        let mut a = Valuation::from_true_events(130, [EventId::from_index(0)]);
        let b =
            Valuation::from_true_events(130, [EventId::from_index(64), EventId::from_index(129)]);
        a.union_with(&b);
        assert_eq!(count_true(&a), 3);
        assert!(a.get(EventId::from_index(0)));
        assert!(a.get(EventId::from_index(64)));
        assert!(a.get(EventId::from_index(129)));
    }

    #[test]
    #[should_panic(expected = "different event counts")]
    fn union_with_rejects_mismatched_lengths() {
        let mut a = Valuation::empty(3);
        a.union_with(&Valuation::empty(4));
    }

    #[test]
    fn full_and_empty() {
        let v = Valuation::full(10);
        assert_eq!(count_true(&v), 10);
        let e = Valuation::empty(10);
        assert_eq!(count_true(&e), 0);
    }

    #[test]
    fn probability_of_valuation_matches_figure2() {
        // Figure 1: π(w1)=0.8, π(w2)=0.7.
        // V={w2}: (1−0.8)·0.7 = 0.14;  V={w1,w2}: 0.8·0.7 = 0.56.
        // (These two valuations both yield the Figure 2 world A→C→D with
        // total probability 0.70.)
        let mut t = EventTable::new();
        let w1 = t.insert("w1", 0.8);
        let w2 = t.insert("w2", 0.7);
        let v1 = Valuation::from_true_events(2, [w2]);
        let v2 = Valuation::from_true_events(2, [w1, w2]);
        assert!((v1.probability(&t) - 0.14).abs() < 1e-12);
        assert!((v2.probability(&t) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn partial_valuation_probability_marginalizes_uncovered_events() {
        // Table with three events, valuation covering only the first two:
        // the third event is marginalized (factor 1).
        let mut t = EventTable::new();
        let w1 = t.insert("w1", 0.8);
        let w2 = t.insert("w2", 0.7);
        let w3 = t.insert("w3", 0.5);
        let partial = Valuation::from_true_events(2, [w1]);
        assert!((partial.probability(&t) - 0.8 * 0.3).abs() < 1e-12);
        // probability_over an explicit subset, from a full-length valuation.
        let full = Valuation::from_true_events(3, [w1, w3]);
        assert!((full.probability_over(&t, [w1, w2]) - 0.8 * 0.3).abs() < 1e-12);
        assert!((full.probability_over(&t, [w3]) - 0.5).abs() < 1e-12);
        assert_eq!(full.probability_over(&t, []), 1.0);
    }

    #[test]
    #[should_panic(expected = "declares only")]
    fn probability_rejects_valuations_longer_than_the_table() {
        let mut t = EventTable::new();
        t.insert("w1", 0.5);
        let v = Valuation::empty(2);
        let _ = v.probability(&t);
    }

    #[test]
    fn all_valuations_enumerates_exactly_2_pow_n() {
        let vals: Vec<_> = all_valuations(4, 10).unwrap().collect();
        assert_eq!(vals.len(), 16);
        // All distinct.
        let mut sorted = vals.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn all_valuations_zero_events_is_single_empty_world() {
        let vals: Vec<_> = all_valuations(0, 10).unwrap().collect();
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].len(), 0);
    }

    #[test]
    fn valuation_probabilities_sum_to_one() {
        let mut t = EventTable::new();
        t.insert("a", 0.3);
        t.insert("b", 0.9);
        t.insert("c", 0.5);
        let total: f64 = all_valuations(3, 10)
            .unwrap()
            .map(|v| v.probability(&t))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumeration_guard_refuses_large_event_sets() {
        let err = all_valuations(30, 24).unwrap_err();
        assert_eq!(err.num_events, 30);
        assert!(err.to_string().contains("2^30"));
    }
}
