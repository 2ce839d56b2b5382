//! Propositional formulas in disjunctive normal form and count-equivalence.
//!
//! Definition 10 of the paper: two DNF formulas `ψ`, `ψ'` are
//! *count-equivalent* (`ψ ≡⁺ ψ'`) if every valuation satisfies the same
//! number of disjuncts in both. Count-equivalence is strictly stronger than
//! logical equivalence — `A ∨ (A ∧ B)` is equivalent to `A` but not
//! count-equivalent — and is exactly the notion needed to compare the
//! multiset of children conditions of two prob-trees (Lemma 2).
//!
//! This module provides the DNF data type plus the **naive exponential**
//! decision procedures used as ground-truth baselines; the polynomial
//! identity-testing route (Lemma 1, Theorem 2) lives in `pxml-poly`.

use std::collections::BTreeMap;
use std::fmt;

use crate::condition::{Condition, Literal};
use crate::event::{EventId, EventTable};
use crate::valuation::{all_valuations, TooManyValuations, Valuation};

/// A propositional formula in disjunctive normal form: a disjunction of
/// conjunctive [`Condition`]s. The empty DNF is `false`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Dnf {
    disjuncts: Vec<Condition>,
}

impl Dnf {
    /// The empty disjunction (`false`).
    pub fn none() -> Self {
        Dnf::default()
    }

    /// A DNF with a single disjunct.
    pub fn of(condition: Condition) -> Self {
        Dnf {
            disjuncts: vec![condition],
        }
    }

    /// Builds a DNF from its disjuncts.
    pub fn from_disjuncts<I: IntoIterator<Item = Condition>>(disjuncts: I) -> Self {
        Dnf {
            disjuncts: disjuncts.into_iter().collect(),
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Condition] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// `true` for the empty disjunction.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Adds a disjunct.
    pub fn push(&mut self, condition: Condition) {
        self.disjuncts.push(condition);
    }

    /// Total number of literals across all disjuncts (the `Nl` size measure
    /// used in Theorem 2's error analysis).
    pub fn literal_count(&self) -> usize {
        self.disjuncts.iter().map(Condition::len).sum()
    }

    /// The event variables mentioned anywhere in the formula, deduplicated
    /// and sorted.
    pub fn events(&self) -> Vec<EventId> {
        let mut events: Vec<EventId> = self
            .disjuncts
            .iter()
            .flat_map(super::condition::Condition::events)
            .collect();
        events.sort_unstable();
        events.dedup();
        events
    }

    /// The *normalization* used by Definition 11: removes disjuncts with
    /// incompatible atomic conditions (their characteristic-polynomial
    /// contribution is 0); duplicate literals inside a disjunct are already
    /// removed by [`Condition`]'s representation.
    pub fn normalized(&self) -> Dnf {
        Dnf {
            disjuncts: self
                .disjuncts
                .iter()
                .filter(|c| c.is_consistent())
                .cloned()
                .collect(),
        }
    }

    /// Number of disjuncts satisfied by `valuation`.
    pub fn count_satisfied(&self, valuation: &Valuation) -> usize {
        self.disjuncts.iter().filter(|c| c.eval(valuation)).count()
    }

    /// Truth value under `valuation` (at least one disjunct satisfied).
    pub fn eval(&self, valuation: &Valuation) -> bool {
        self.disjuncts.iter().any(|c| c.eval(valuation))
    }

    /// Naive (exponential-time) decision of count-equivalence
    /// (Definition 10), by enumerating all valuations over the events of
    /// either formula. Ground truth for the Schwartz–Zippel test.
    pub fn count_equivalent_naive(
        &self,
        other: &Dnf,
        num_events: usize,
        max_events: usize,
    ) -> Result<bool, TooManyValuations> {
        for v in all_valuations(num_events, max_events)? {
            if self.count_satisfied(&v) != other.count_satisfied(&v) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Naive (exponential-time) decision of plain logical equivalence.
    /// Under the Section 5 *set semantics* this —not count-equivalence— is
    /// the relevant notion (and makes structural equivalence
    /// co-NP-complete).
    pub fn equivalent_naive(
        &self,
        other: &Dnf,
        num_events: usize,
        max_events: usize,
    ) -> Result<bool, TooManyValuations> {
        for v in all_valuations(num_events, max_events)? {
            if self.eval(&v) != other.eval(&v) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Probability that the formula is true under the independent
    /// distribution of `events`, computed by exhaustive enumeration.
    /// Exponential; used in tests and in the arbitrary-formula variant
    /// baselines.
    pub fn probability_naive(
        &self,
        events: &EventTable,
        max_events: usize,
    ) -> Result<f64, TooManyValuations> {
        let mut total = 0.0;
        for v in all_valuations(events.len(), max_events)? {
            if self.eval(&v) {
                total += v.probability(events);
            }
        }
        Ok(total)
    }

    /// `true` if every pair of disjuncts contains a complementary literal
    /// pair, i.e. the disjuncts are syntactically mutually exclusive: no
    /// valuation satisfies two of them. For such a DNF,
    /// [`Dnf::count_satisfied`] is 0/1-valued, so count-equivalence and
    /// logical equivalence coincide.
    pub fn pairwise_disjoint(&self) -> bool {
        for (i, a) in self.disjuncts.iter().enumerate() {
            if !a.is_consistent() {
                continue; // never satisfied: disjoint with everything
            }
            for b in &self.disjuncts[i + 1..] {
                if b.is_consistent() && !a.is_disjoint_with(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Attempts to re-cover a **pairwise-disjoint** DNF by a strictly
    /// smaller pairwise-disjoint DNF of the same Boolean function, via a
    /// Shannon expansion that at each node branches on the variable the
    /// remaining disjuncts use most one-sidedly (single-polarity first,
    /// then mention count, then smallest id);
    /// a literal shared one-sidedly by many disjuncts — e.g. the fresh
    /// confidence event of a probabilistic deletion — is then split off
    /// once instead of being repeated in every disjunct.
    ///
    /// Returns `None` when the input is not pairwise disjoint, mentions
    /// more than `max_support` events, or no strictly smaller cover (fewer
    /// disjuncts, or equally many with fewer literals) was found. The
    /// returned cover is pairwise disjoint and *count-equivalent* to the
    /// input ([`Dnf::count_equivalent_naive`] is the ground truth the unit
    /// tests check against), so it can substitute the input wherever the
    /// multiset of satisfied disjuncts matters — in particular for the
    /// sibling survivor copies produced by prob-tree deletions.
    pub fn minimized_disjoint_cover(&self, max_support: usize) -> Option<Dnf> {
        if self.disjuncts.len() < 2 || !self.pairwise_disjoint() {
            return None;
        }
        if self.events().len() > max_support {
            return None;
        }
        // Inconsistent disjuncts are never satisfied; dropping them upfront
        // preserves the satisfied-disjunct count everywhere.
        let base: Vec<Condition> = self
            .disjuncts
            .iter()
            .filter(|c| c.is_consistent())
            .cloned()
            .collect();
        let mut cover: Vec<Condition> = Vec::new();
        // A cover larger than the input is not an improvement; `shannon`
        // aborts as soon as it would exceed this budget.
        let budget = self.disjuncts.len();
        if !shannon(base, Condition::always(), &mut cover, budget) {
            return None;
        }
        let old = (self.len(), self.literal_count());
        let new = (cover.len(), cover.iter().map(Condition::len).sum::<usize>());
        if new < old {
            Some(Dnf::from_disjuncts(cover))
        } else {
            None
        }
    }

    /// Renders the DNF using the table's event names; the empty DNF renders
    /// as `⊥`.
    pub fn display<'a>(&'a self, events: &'a EventTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Dnf, &'a EventTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.disjuncts.is_empty() {
                    return write!(f, "⊥");
                }
                for (i, d) in self.0.disjuncts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "({})", d.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, events)
    }
}

/// One node of the Shannon expansion. `disjuncts` is a pairwise-disjoint
/// cover of the current cofactor; `prefix` the conjunction of branching
/// literals taken so far. Emits one disjunct per path whose cofactor is a
/// tautology. Returns `false` when the cover under construction would
/// exceed `budget` disjuncts (no improvement possible).
fn shannon(
    disjuncts: Vec<Condition>,
    prefix: Condition,
    out: &mut Vec<Condition>,
    budget: usize,
) -> bool {
    if disjuncts.is_empty() {
        return true; // the cofactor is `false`: nothing to cover
    }
    if disjoint_tautology(&disjuncts) {
        if out.len() == budget {
            return false;
        }
        out.push(prefix);
        return true;
    }
    let event = pick_branch_event(&disjuncts);
    for value in [false, true] {
        let sub: Vec<Condition> = disjuncts
            .iter()
            .filter_map(|c| c.assign(event, value))
            .collect();
        let literal = if value {
            Literal::pos(event)
        } else {
            Literal::neg(event)
        };
        if !shannon(sub, prefix.and_literal(literal), out, budget) {
            return false;
        }
    }
    true
}

/// The branching heuristic of the Shannon expansion: prefer events every
/// remaining disjunct uses with a **single polarity** (assigning against
/// that polarity kills every mentioning disjunct at once, assigning with
/// it strictly shrinks them — the "peeling" shape of a negation chain),
/// then higher mention counts, then smaller ids (determinism).
fn pick_branch_event(disjuncts: &[Condition]) -> EventId {
    let mut counts: BTreeMap<EventId, (usize, usize)> = BTreeMap::new();
    for condition in disjuncts {
        for literal in condition.literals() {
            let entry = counts.entry(literal.event).or_insert((0, 0));
            if literal.positive {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    let mut best: Option<(bool, usize, EventId)> = None;
    for (&event, &(pos, neg)) in &counts {
        let single = pos == 0 || neg == 0;
        let key = (single, pos + neg, event);
        // Strict comparison on (single, frequency) with the BTreeMap's
        // ascending id order breaking ties toward smaller ids.
        let better = match best {
            None => true,
            Some((s, f, _)) => (single, pos + neg) > (s, f),
        };
        if better {
            best = Some(key);
        }
    }
    best.expect("non-empty, non-tautological disjuncts mention an event")
        .2
}

/// Exact tautology test for a pairwise-disjoint set of consistent
/// conjunctions: over the `k` mentioned events, disjoint disjuncts cover
/// `Σ_i 2^{k − len_i}` of the `2^k` valuations without double counting, so
/// the formula is a tautology iff that sum reaches `2^k`. (Returning
/// `false` for `k ≥ 128` only makes the expansion branch further; it never
/// produces a wrong cover.)
fn disjoint_tautology(disjuncts: &[Condition]) -> bool {
    if disjuncts.iter().any(Condition::is_empty) {
        // An empty conjunction is `true`; disjointness forces it to be the
        // only disjunct.
        return true;
    }
    let mut events: Vec<EventId> = disjuncts
        .iter()
        .flat_map(super::condition::Condition::events)
        .collect();
    events.sort_unstable();
    events.dedup();
    let k = events.len();
    if k >= 128 {
        return false;
    }
    let covered: u128 = disjuncts.iter().map(|c| 1u128 << (k - c.len())).sum();
    covered == 1u128 << k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Literal;

    fn setup() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let a = t.insert("A", 0.5);
        let b = t.insert("B", 0.5);
        let c = t.insert("C", 0.5);
        (t, a, b, c)
    }

    #[test]
    fn papers_count_equivalence_counterexample() {
        // A ∨ (A ∧ B) is equivalent to A but NOT count-equivalent.
        let (t, a, b, _) = setup();
        let lhs = Dnf::from_disjuncts([
            Condition::of(Literal::pos(a)),
            Condition::from_literals([Literal::pos(a), Literal::pos(b)]),
        ]);
        let rhs = Dnf::of(Condition::of(Literal::pos(a)));
        assert!(lhs.equivalent_naive(&rhs, t.len(), 10).unwrap());
        assert!(!lhs.count_equivalent_naive(&rhs, t.len(), 10).unwrap());
    }

    #[test]
    fn count_equivalence_is_preserved_by_disjunct_reordering() {
        let (t, a, b, _) = setup();
        let d1 = Condition::of(Literal::pos(a));
        let d2 = Condition::of(Literal::neg(b));
        let x = Dnf::from_disjuncts([d1.clone(), d2.clone()]);
        let y = Dnf::from_disjuncts([d2, d1]);
        assert!(x.count_equivalent_naive(&y, t.len(), 10).unwrap());
    }

    #[test]
    fn normalization_drops_inconsistent_disjuncts() {
        let (_, a, _, _) = setup();
        let inconsistent = Condition::from_literals([Literal::pos(a), Literal::neg(a)]);
        let dnf = Dnf::from_disjuncts([inconsistent, Condition::of(Literal::pos(a))]);
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf.normalized().len(), 1);
    }

    #[test]
    fn count_satisfied_counts_multiplicities() {
        let (t, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::of(Literal::pos(a)),
            Condition::of(Literal::pos(a)),
            Condition::of(Literal::pos(b)),
        ]);
        let v = Valuation::from_true_events(t.len(), [a]);
        assert_eq!(dnf.count_satisfied(&v), 2);
        assert!(dnf.eval(&v));
        let v0 = Valuation::empty(t.len());
        assert_eq!(dnf.count_satisfied(&v0), 0);
        assert!(!dnf.eval(&v0));
    }

    #[test]
    fn empty_dnf_is_false_everywhere() {
        let (t, _, _, _) = setup();
        let dnf = Dnf::none();
        for v in all_valuations(t.len(), 10).unwrap() {
            assert!(!dnf.eval(&v));
        }
        assert_eq!(dnf.probability_naive(&t, 10).unwrap(), 0.0);
    }

    #[test]
    fn probability_naive_matches_hand_computation() {
        // P(A ∨ B) with independent P(A)=P(B)=0.5 is 0.75.
        let (t, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::of(Literal::pos(a)),
            Condition::of(Literal::pos(b)),
        ]);
        let p = dnf.probability_naive(&t, 10).unwrap();
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn events_are_collected_and_deduplicated() {
        let (_, a, b, c) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
            Condition::from_literals([Literal::pos(b), Literal::pos(c)]),
        ]);
        assert_eq!(dnf.events(), vec![a, b, c]);
        assert_eq!(dnf.literal_count(), 4);
    }

    #[test]
    fn display_renders_disjunction() {
        let (t, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::of(Literal::pos(a)),
            Condition::of(Literal::neg(b)),
        ]);
        assert_eq!(format!("{}", dnf.display(&t)), "(A) ∨ (¬B)");
        assert_eq!(format!("{}", Dnf::none().display(&t)), "⊥");
    }

    #[test]
    fn pairwise_disjoint_detection() {
        let (_, a, b, _) = setup();
        let disjoint = Dnf::from_disjuncts([
            Condition::of(Literal::neg(a)),
            Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
        ]);
        assert!(disjoint.pairwise_disjoint());
        let overlapping = Dnf::from_disjuncts([
            Condition::of(Literal::neg(a)),
            Condition::of(Literal::neg(b)),
        ]);
        assert!(!overlapping.pairwise_disjoint());
        assert!(Dnf::none().pairwise_disjoint());
    }

    #[test]
    fn complementary_pair_merges_into_common_prefix() {
        // (A ∧ B) ∨ (A ∧ ¬B) ≡ A — the smallest mergeable pair.
        let (t, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(a), Literal::pos(b)]),
            Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
        ]);
        let cover = dnf.minimized_disjoint_cover(16).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.disjuncts()[0], Condition::of(Literal::pos(a)));
        assert!(dnf.count_equivalent_naive(&cover, t.len(), 16).unwrap());
    }

    #[test]
    fn shared_literal_is_factored_out_of_a_chain_product() {
        // The 3^2-disjunct survivor expansion of two deletions sharing the
        // confidence event w: ⋀_j ¬(a_j ∧ b_j ∧ w). The frequency-first
        // Shannon cover is {¬w} ∪ {w ∧ (chain product)} — 1 + 2^2 = 5
        // disjuncts instead of 9.
        let mut t = EventTable::new();
        let a1 = t.insert("a1", 0.5);
        let b1 = t.insert("b1", 0.5);
        let a2 = t.insert("a2", 0.5);
        let b2 = t.insert("b2", 0.5);
        let w = t.insert("w", 0.5);
        let chain = |a: EventId, b: EventId| {
            vec![
                Condition::of(Literal::neg(a)),
                Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
                Condition::from_literals([Literal::pos(a), Literal::pos(b), Literal::neg(w)]),
            ]
        };
        let mut disjuncts = Vec::new();
        for x in chain(a1, b1) {
            for y in chain(a2, b2) {
                let combined = x.and(&y);
                if combined.is_consistent() {
                    disjuncts.push(combined);
                }
            }
        }
        let dnf = Dnf::from_disjuncts(disjuncts);
        assert_eq!(dnf.len(), 9);
        assert!(dnf.pairwise_disjoint());
        let cover = dnf.minimized_disjoint_cover(16).unwrap();
        assert_eq!(cover.len(), 5);
        assert!(cover.pairwise_disjoint());
        assert!(cover.literal_count() < dnf.literal_count());
        assert!(dnf.count_equivalent_naive(&cover, t.len(), 16).unwrap());
    }

    #[test]
    fn already_minimal_covers_are_left_alone() {
        // The Theorem 3 chain expansion at confidence 1 is already a
        // minimal disjoint cover: ¬a | a∧¬b.
        let (_, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::of(Literal::neg(a)),
            Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
        ]);
        assert!(dnf.minimized_disjoint_cover(16).is_none());
        // Non-disjoint inputs are refused outright.
        let overlapping = Dnf::from_disjuncts([
            Condition::of(Literal::neg(a)),
            Condition::of(Literal::neg(b)),
        ]);
        assert!(overlapping.minimized_disjoint_cover(16).is_none());
        // As are supports beyond the cap.
        let wide = Dnf::from_disjuncts([
            Condition::from_literals([Literal::pos(a), Literal::pos(b)]),
            Condition::from_literals([Literal::pos(a), Literal::neg(b)]),
        ]);
        assert!(wide.minimized_disjoint_cover(1).is_none());
    }

    #[test]
    fn inconsistent_disjuncts_count_as_removable() {
        let (t, a, b, _) = setup();
        let dnf = Dnf::from_disjuncts([
            Condition::of(Literal::pos(a)),
            Condition::from_literals([Literal::pos(b), Literal::neg(b)]),
        ]);
        // The inconsistent disjunct is dropped, leaving a single-disjunct
        // cover — strictly smaller.
        let cover = dnf.minimized_disjoint_cover(16).unwrap();
        assert_eq!(cover.len(), 1);
        assert!(dnf.count_equivalent_naive(&cover, t.len(), 16).unwrap());
    }

    #[test]
    fn guard_propagates_from_valuation_enumeration() {
        let (_, a, _, _) = setup();
        let dnf = Dnf::of(Condition::of(Literal::pos(a)));
        assert!(dnf.count_equivalent_naive(&dnf, 40, 24).is_err());
    }
}
