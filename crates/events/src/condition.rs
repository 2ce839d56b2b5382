//! Literals and conjunctive conditions.
//!
//! A *condition* over a set of event variables `W` is a (possibly empty)
//! set of atomic conditions of the form `w` or `¬w` (Section 2 of the
//! paper), interpreted as their conjunction. The empty condition is `true`.

use std::fmt;

use crate::event::{EventId, EventTable};
use crate::semiring::{Probability, Semiring};
use crate::valuation::Valuation;

/// An atomic condition: an event variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Literal {
    /// The event variable.
    pub event: EventId,
    /// `true` for the atom `w`, `false` for `¬w`.
    pub positive: bool,
}

impl Literal {
    /// The positive literal `w`.
    pub fn pos(event: EventId) -> Self {
        Literal {
            event,
            positive: true,
        }
    }

    /// The negative literal `¬w`.
    pub fn neg(event: EventId) -> Self {
        Literal {
            event,
            positive: false,
        }
    }

    /// The literal with the opposite polarity.
    pub fn negated(self) -> Self {
        Literal {
            event: self.event,
            positive: !self.positive,
        }
    }

    /// Truth value of the literal under a valuation.
    pub fn eval(self, valuation: &Valuation) -> bool {
        valuation.get(self.event) == self.positive
    }

    /// Probability of the literal under the independent distribution `π`.
    pub fn prob(self, events: &EventTable) -> f64 {
        if self.positive {
            events.prob(self.event)
        } else {
            1.0 - events.prob(self.event)
        }
    }

    /// Renders the literal using the table's event names.
    pub fn display<'a>(&'a self, events: &'a EventTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Literal, &'a EventTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if !self.0.positive {
                    write!(f, "¬")?;
                }
                write!(f, "{}", self.1.name(self.0.event))
            }
        }
        D(self, events)
    }
}

/// A conjunction of literals (a *condition*). Kept sorted and deduplicated,
/// so equality of `Condition` values is syntactic equality of the
/// literal sets.
///
/// A condition may be *inconsistent* (contain both `w` and `¬w`); the
/// paper keeps such conditions representable (they evaluate to probability
/// zero and are pruned by cleaning).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Condition {
    literals: Vec<Literal>,
}

impl Condition {
    /// The empty (always true) condition.
    pub fn always() -> Self {
        Condition::default()
    }

    /// A condition consisting of a single literal.
    pub fn of(literal: Literal) -> Self {
        Condition {
            literals: vec![literal],
        }
    }

    /// Builds a condition from an iterator of literals (sorted,
    /// deduplicated).
    pub fn from_literals<I: IntoIterator<Item = Literal>>(literals: I) -> Self {
        let mut literals: Vec<Literal> = literals.into_iter().collect();
        literals.sort_unstable();
        literals.dedup();
        Condition { literals }
    }

    /// The literals of the condition, sorted.
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// `true` for the empty (always true) condition.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the condition mentions `event` (positively or negatively).
    pub fn mentions(&self, event: EventId) -> bool {
        self.literals.iter().any(|l| l.event == event)
    }

    /// All event variables mentioned.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.literals.iter().map(|l| l.event)
    }

    /// `true` if the condition is intrinsically consistent, i.e. does not
    /// contain both `w` and `¬w` for some event `w`.
    pub fn is_consistent(&self) -> bool {
        self.literals
            .windows(2)
            .all(|w| !(w[0].event == w[1].event && w[0].positive != w[1].positive))
    }

    /// Conjunction of two conditions.
    ///
    /// Both literal lists are already sorted and deduplicated (a class
    /// invariant), so this is a linear merge — no re-sort, which would make
    /// repeated unions quadratic.
    pub fn and(&self, other: &Condition) -> Condition {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (a, b) = (&self.literals, &other.literals);
        let mut literals = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    literals.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    literals.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    literals.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        literals.extend_from_slice(&a[i..]);
        literals.extend_from_slice(&b[j..]);
        Condition { literals }
    }

    /// Conjunction of many conditions at once: a single sorted merge-union
    /// over all their literals.
    ///
    /// Equivalent to folding [`Condition::and`] over the inputs, but the
    /// fold rebuilds its accumulator on every step — `Σ_i (L_1 + … + L_i)`
    /// literal copies, quadratic in the number of inputs — while this
    /// concatenates every literal list once and sorts the concatenation
    /// (`O(L log L)` for `L` total literals; the inputs are already sorted
    /// runs, which the pattern-defeating sort exploits). This is the union
    /// the per-answer `⋃_{n ∈ u} γ(n)` of Definition 8 needs.
    pub fn union_of<'a, I>(conditions: I) -> Condition
    where
        I: IntoIterator<Item = &'a Condition>,
    {
        let mut literals: Vec<Literal> = Vec::new();
        for condition in conditions {
            literals.extend_from_slice(&condition.literals);
        }
        literals.sort_unstable();
        literals.dedup();
        Condition { literals }
    }

    /// Adds a single literal, inserting it at its sorted position (linear in
    /// the condition size; no re-sort).
    pub fn and_literal(&self, literal: Literal) -> Condition {
        match self.literals.binary_search(&literal) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut literals = Vec::with_capacity(self.literals.len() + 1);
                literals.extend_from_slice(&self.literals[..pos]);
                literals.push(literal);
                literals.extend_from_slice(&self.literals[pos..]);
                Condition { literals }
            }
        }
    }

    /// Set-difference of conditions: the literals of `self` that are not in
    /// `other`. Used by the update algorithms of Appendix A
    /// (`cond − (γ(µ(n)) ∪ cond_ancestors)`).
    pub fn minus(&self, other: &Condition) -> Condition {
        Condition {
            literals: self
                .literals
                .iter()
                .filter(|l| !other.literals.contains(l))
                .copied()
                .collect(),
        }
    }

    /// `true` if every literal of `self` appears in `other` (so `other`
    /// logically implies `self`, both being conjunctions).
    pub fn subset_of(&self, other: &Condition) -> bool {
        self.literals.iter().all(|l| other.literals.contains(l))
    }

    /// Whether the condition contains exactly this literal (same event and
    /// polarity).
    pub fn contains(&self, literal: Literal) -> bool {
        self.literals.binary_search(&literal).is_ok()
    }

    /// `true` if the two conjunctions are syntactically mutually exclusive:
    /// one contains a literal whose negation appears in the other, so no
    /// valuation satisfies both. Linear merge walk over the sorted literal
    /// lists.
    pub fn is_disjoint_with(&self, other: &Condition) -> bool {
        let (a, b) = (&self.literals, &other.literals);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].event.cmp(&b[j].event) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i].positive != b[j].positive {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// Cofactor: the condition restricted by the assignment `event := value`.
    /// Returns `None` if the assignment falsifies the condition (it contains
    /// the opposite literal), otherwise the condition with any literal on
    /// `event` removed (it is now satisfied).
    pub fn assign(&self, event: EventId, value: bool) -> Option<Condition> {
        if self
            .literals
            .iter()
            .any(|l| l.event == event && l.positive != value)
        {
            return None;
        }
        if !self.mentions(event) {
            return Some(self.clone());
        }
        Some(Condition {
            literals: self
                .literals
                .iter()
                .filter(|l| l.event != event)
                .copied()
                .collect(),
        })
    }

    /// Truth value under a valuation. The empty condition is true.
    pub fn eval(&self, valuation: &Valuation) -> bool {
        self.literals.iter().all(|l| l.eval(valuation))
    }

    /// The `eval` function of Definition 8, generalized to any
    /// commutative semiring: the semiring's `zero` if the condition is
    /// inconsistent, otherwise the `mul`-fold of the literal
    /// interpretations (in sorted literal order).
    ///
    /// Under [`Probability`] this monomorphizes to exactly the
    /// pre-semiring fold `literals.map(prob).product()` — same operations,
    /// same order, bit-identical results.
    pub fn eval_in<S: Semiring>(&self, semiring: &S, events: &EventTable) -> S::Value {
        if !self.is_consistent() {
            return semiring.zero();
        }
        let mut acc = semiring.one();
        for &literal in &self.literals {
            acc = semiring.mul(acc, semiring.literal(literal, events));
            if semiring.is_zero(&acc) {
                // `0` annihilates the rest of the fold (`mul(0, _) = 0`
                // is a semiring law), so the accumulator can no longer
                // change.
                return acc;
            }
        }
        acc
    }

    /// The `eval` function of Definition 8: `0` if the condition is
    /// inconsistent, otherwise the product of `π(w)` for positive literals
    /// and `1 − π(w)` for negative literals. Equivalent to
    /// [`Condition::eval_in`] under the [`Probability`] semiring (the
    /// specialized fast path).
    pub fn probability(&self, events: &EventTable) -> f64 {
        self.eval_in(&Probability, events)
    }

    /// Renders the condition using the table's event names; the empty
    /// condition renders as `⊤`.
    pub fn display<'a>(&'a self, events: &'a EventTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Condition, &'a EventTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.literals.is_empty() {
                    return write!(f, "⊤");
                }
                for (i, lit) in self.0.literals.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{}", lit.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.insert("w1", 0.8);
        let w2 = t.insert("w2", 0.7);
        let w3 = t.insert("w3", 0.5);
        (t, w1, w2, w3)
    }

    #[test]
    fn literal_eval_and_prob() {
        let (t, w1, _, _) = table();
        let mut v = Valuation::empty(t.len());
        assert!(!Literal::pos(w1).eval(&v));
        assert!(Literal::neg(w1).eval(&v));
        v.set(w1, true);
        assert!(Literal::pos(w1).eval(&v));
        assert!((Literal::pos(w1).prob(&t) - 0.8).abs() < 1e-12);
        assert!((Literal::neg(w1).prob(&t) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn condition_dedups_and_sorts() {
        let (_, w1, w2, _) = table();
        let c = Condition::from_literals([Literal::pos(w2), Literal::pos(w1), Literal::pos(w2)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.literals()[0].event, w1);
    }

    /// The pre-semiring probability fold, kept verbatim as the oracle the
    /// generic [`Condition::eval_in`] path is pinned against.
    fn probability_oracle(c: &Condition, events: &EventTable) -> f64 {
        if !c.is_consistent() {
            return 0.0;
        }
        c.literals.iter().map(|l| l.prob(events)).product()
    }

    #[test]
    fn generic_probability_fold_is_bit_identical_to_the_oracle() {
        let (t, w1, w2, w3) = table();
        let universe = [
            Literal::pos(w1),
            Literal::neg(w1),
            Literal::pos(w2),
            Literal::neg(w2),
            Literal::pos(w3),
            Literal::neg(w3),
        ];
        for mask in 0..64usize {
            let c = Condition::from_literals(
                universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &l)| l),
            );
            assert_eq!(
                c.probability(&t).to_bits(),
                probability_oracle(&c, &t).to_bits(),
                "condition {:?}",
                c.literals()
            );
        }
    }

    #[test]
    fn figure1_condition_probability() {
        // Node B of Figure 1 carries w1 ∧ ¬w2 with π(w1)=0.8, π(w2)=0.7:
        // probability 0.8 · 0.3 = 0.24.
        let (t, w1, w2, _) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        assert!((c.probability(&t) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_condition_has_probability_zero() {
        let (t, w1, _, _) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w1)]);
        assert!(!c.is_consistent());
        assert_eq!(c.probability(&t), 0.0);
    }

    #[test]
    fn empty_condition_is_true_and_certain() {
        let (t, _, _, _) = table();
        let c = Condition::always();
        assert!(c.is_consistent());
        assert_eq!(c.probability(&t), 1.0);
        let v = Valuation::empty(t.len());
        assert!(c.eval(&v));
    }

    #[test]
    fn and_minus_subset() {
        let (_, w1, w2, w3) = table();
        let a = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        let b = Condition::from_literals([Literal::neg(w2), Literal::pos(w3)]);
        let ab = a.and(&b);
        assert_eq!(ab.len(), 3);
        assert!(a.subset_of(&ab));
        assert!(b.subset_of(&ab));
        let diff = ab.minus(&a);
        assert_eq!(diff, Condition::of(Literal::pos(w3)));
    }

    /// The class invariant `and`/`and_literal` rely on: literals stay
    /// sorted and deduplicated after merging, including overlapping and
    /// contradictory (both-polarity) inputs.
    fn assert_sorted_dedup(c: &Condition) {
        assert!(
            c.literals().windows(2).all(|w| w[0] < w[1]),
            "literals not strictly sorted: {:?}",
            c.literals()
        );
    }

    #[test]
    fn and_merge_preserves_sortedness_and_dedup() {
        let (_, w1, w2, w3) = table();
        // Overlapping literals (¬w2 in both) and a contradictory pair
        // (w1 in a, ¬w1 in b — both must survive, conditions may be
        // inconsistent).
        let a = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        let b = Condition::from_literals([Literal::neg(w1), Literal::neg(w2), Literal::pos(w3)]);
        let ab = a.and(&b);
        assert_sorted_dedup(&ab);
        assert_eq!(ab.len(), 4, "shared ¬w2 deduplicated, ¬w1/w1 both kept");
        assert!(!ab.is_consistent());
        // The merge agrees with the re-sorting constructor.
        let reference =
            Condition::from_literals(a.literals().iter().chain(b.literals().iter()).copied());
        assert_eq!(ab, reference);
        // Commutative, and identity on the empty condition.
        assert_eq!(ab, b.and(&a));
        assert_eq!(a.and(&Condition::always()), a);
        assert_eq!(Condition::always().and(&a), a);
    }

    #[test]
    fn and_literal_inserts_in_sorted_position() {
        let (_, w1, w2, w3) = table();
        let base = Condition::from_literals([Literal::pos(w1), Literal::pos(w3)]);
        // Insert in the middle, at the front (¬w1 < w1), and a duplicate.
        let mid = base.and_literal(Literal::neg(w2));
        assert_sorted_dedup(&mid);
        assert_eq!(mid.len(), 3);
        let front = base.and_literal(Literal::neg(w1));
        assert_sorted_dedup(&front);
        assert_eq!(front.literals()[0], Literal::neg(w1));
        assert!(!front.is_consistent());
        let dup = base.and_literal(Literal::pos(w3));
        assert_eq!(dup, base);
    }

    #[test]
    fn and_merge_matches_constructor_on_many_random_pairs() {
        // Cross-check the linear merge against `from_literals` over every
        // subset pair of a small literal universe.
        let (_, w1, w2, w3) = table();
        let universe = [
            Literal::pos(w1),
            Literal::neg(w1),
            Literal::pos(w2),
            Literal::neg(w2),
            Literal::pos(w3),
        ];
        let subsets: Vec<Vec<Literal>> = (0..32usize)
            .map(|mask| {
                universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .collect()
            })
            .collect();
        for xs in &subsets {
            for ys in &subsets {
                let a = Condition::from_literals(xs.iter().copied());
                let b = Condition::from_literals(ys.iter().copied());
                let merged = a.and(&b);
                assert_sorted_dedup(&merged);
                assert_eq!(
                    merged,
                    Condition::from_literals(xs.iter().chain(ys.iter()).copied())
                );
            }
        }
    }

    #[test]
    fn union_of_agrees_with_the_and_fold_on_all_small_triples() {
        // Exhaustive cross-check of the one-shot merge-union against the
        // legacy `Condition::always()` + repeated `and` fold, over every
        // triple of subsets of a 5-literal universe (incl. contradictory
        // and overlapping combinations).
        let (_, w1, w2, w3) = table();
        let universe = [
            Literal::pos(w1),
            Literal::neg(w1),
            Literal::pos(w2),
            Literal::neg(w2),
            Literal::pos(w3),
        ];
        let subsets: Vec<Condition> = (0..32usize)
            .map(|mask| {
                Condition::from_literals(
                    universe
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &l)| l),
                )
            })
            .collect();
        for a in &subsets {
            for b in &subsets {
                for c in &subsets {
                    let fold = Condition::always().and(a).and(b).and(c);
                    let union = Condition::union_of([a, b, c]);
                    assert_eq!(union, fold);
                    assert_sorted_dedup(&union);
                }
            }
        }
        // Degenerate arities.
        assert_eq!(Condition::union_of([]), Condition::always());
        let single = &subsets[7];
        assert_eq!(&Condition::union_of([single]), single);
    }

    #[test]
    fn disjointness_requires_a_complementary_pair() {
        let (_, w1, w2, w3) = table();
        let a = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        let b = Condition::from_literals([Literal::neg(w1), Literal::pos(w3)]);
        assert!(a.is_disjoint_with(&b), "w1 vs ¬w1");
        assert!(b.is_disjoint_with(&a));
        let c = Condition::from_literals([Literal::pos(w1), Literal::pos(w3)]);
        assert!(!a.is_disjoint_with(&c), "compatible overlap");
        assert!(!a.is_disjoint_with(&Condition::always()));
        assert!(!Condition::always().is_disjoint_with(&Condition::always()));
    }

    #[test]
    fn assign_cofactors_conditions() {
        let (_, w1, w2, _) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        // Satisfying assignment removes the literal.
        assert_eq!(c.assign(w1, true), Some(Condition::of(Literal::neg(w2))));
        // Falsifying assignment kills the condition.
        assert_eq!(c.assign(w1, false), None);
        // Unmentioned event leaves the condition unchanged.
        let (_, _, _, w3) = table();
        assert_eq!(c.assign(w3, true), Some(c.clone()));
        assert!(c.contains(Literal::pos(w1)));
        assert!(!c.contains(Literal::neg(w1)));
    }

    #[test]
    fn eval_under_valuations() {
        let (t, w1, w2, _) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        let mut v = Valuation::empty(t.len());
        assert!(!c.eval(&v)); // w1 false
        v.set(w1, true);
        assert!(c.eval(&v)); // w1 true, w2 false
        v.set(w2, true);
        assert!(!c.eval(&v)); // ¬w2 violated
    }

    #[test]
    fn display_uses_event_names() {
        let (t, w1, w2, _) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        assert_eq!(format!("{}", c.display(&t)), "w1 ∧ ¬w2");
        assert_eq!(format!("{}", Condition::always().display(&t)), "⊤");
    }

    #[test]
    fn mentions_and_events() {
        let (_, w1, w2, w3) = table();
        let c = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        assert!(c.mentions(w1));
        assert!(c.mentions(w2));
        assert!(!c.mentions(w3));
        assert_eq!(c.events().count(), 2);
    }
}
