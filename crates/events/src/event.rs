//! Event variables and their probability distribution.

use std::fmt;
use std::sync::Arc;

use pxml_tree::keyindex::{KeyIndex, Probe};
use pxml_tree::Pages;

/// Identifier of an event variable inside one [`EventTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub(crate) u32);

impl EventId {
    /// Raw index of the event variable in its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EventId` from a raw index (for deserialization code that
    /// has validated the index).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EventId(index as u32)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0 + 1)
    }
}

/// Whether a condition's text form can carry the event name `name`: that
/// form (ProXML's `cond` attribute) splits on whitespace and reads a
/// leading `!` as negation, so the name must be non-empty, hold no
/// whitespace and not start with `!`. [`EventTable::insert`] refuses any
/// other name, so every table serializes to a document that reads back.
pub fn is_condition_name(name: &str) -> bool {
    !name.is_empty() && !name.starts_with('!') && !name.contains(char::is_whitespace)
}

/// The finite set of event variables `W` of a prob-tree together with its
/// probability distribution `π : W → (0, 1]`.
///
/// The paper disallows zero probabilities (a convention: a zero-probability
/// update would simply not be performed); [`EventTable::insert`] enforces
/// `0 < p ≤ 1`.
///
/// Names, probabilities and the name index are copy-on-write [`Pages`]: a
/// clone shares them with its source, and declaring an event or changing a
/// probability copies the pages it writes. Each name is an `Arc<str>`, so
/// copying a page of names bumps reference counts and allocates no name.
/// The name index is a [`KeyIndex`] of event ids keyed by the names
/// column, so an insertion writes one bucket (a doubling re-files them
/// all).
#[derive(Clone, Debug, Default)]
pub struct EventTable {
    names: Pages<Arc<str>>,
    probs: Pages<f64>,
    /// Event ids by name.
    index: KeyIndex<u32>,
}

impl EventTable {
    /// Creates an empty event table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new event variable with the given `name` and probability
    /// `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `(0, 1]`, if `name` is already used, or if
    /// a condition's text form cannot carry `name` (it is empty, holds
    /// whitespace or starts with `!`; see [`is_condition_name`]).
    pub fn insert(&mut self, name: impl Into<String>, p: f64) -> EventId {
        let name = name.into();
        assert!(
            p > 0.0 && p <= 1.0,
            "event probability must lie in (0, 1], got {p}"
        );
        assert!(
            is_condition_name(&name),
            "event name {name:?} is empty, holds whitespace or starts with '!'"
        );
        let Probe::Vacant(at) = self
            .index
            .probe(&name, |id| *self.names[id as usize] == *name)
        else {
            panic!("event variable named {name:?} already exists");
        };
        let id = EventId(self.names.len() as u32);
        self.index.fill(at, id.0);
        self.names.push(name.into());
        self.probs.push(p);
        id
    }

    /// Registers a fresh event variable with an auto-generated name
    /// (`w1`, `w2`, ...). Each probabilistic update introduces one such
    /// fresh event (Section 2 / Appendix A).
    pub fn fresh(&mut self, p: f64) -> EventId {
        let mut i = self.names.len() + 1;
        loop {
            let candidate = format!("w{i}");
            if self.by_name(&candidate).is_none() {
                return self.insert(candidate, p);
            }
            i += 1;
        }
    }

    /// Number of event variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table has no event variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The probability `π(w)` of an event.
    #[inline]
    pub fn prob(&self, event: EventId) -> f64 {
        self.probs[event.index()]
    }

    /// Overrides the probability of an existing event (used by the proof of
    /// Proposition 4 style constructions and by tests).
    pub fn set_prob(&mut self, event: EventId, p: f64) {
        assert!(
            p > 0.0 && p <= 1.0,
            "event probability must lie in (0, 1], got {p}"
        );
        *self.probs.make_mut(event.index()) = p;
    }

    /// The name of an event.
    #[inline]
    pub fn name(&self, event: EventId) -> &str {
        &self.names[event.index()]
    }

    /// Looks an event up by name.
    pub fn by_name(&self, name: &str) -> Option<EventId> {
        self.index
            .get(name, |id| *self.names[id as usize] == *name)
            .map(EventId)
    }

    /// Iterates over all events in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.names.len() as u32).map(EventId)
    }

    /// `true` if the two tables declare the same events with the same
    /// probabilities (structural equivalence in the paper requires
    /// "the same event variables and distribution").
    pub fn same_distribution(&self, other: &EventTable) -> bool {
        self.len() == other.len()
            && self.iter().all(|e| {
                self.name(e) == other.name(e) && crate::prob_eq(self.prob(e), other.prob(e))
            })
    }

    /// Pages of names, probabilities and name index that `self` does not
    /// share with `base`; see [`Pages::unshared_pages`].
    pub fn unshared_pages(&self, base: &EventTable) -> usize {
        self.names.unshared_pages(&base.names)
            + self.probs.unshared_pages(&base.probs)
            + self.index.unshared_pages(&base.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut table = EventTable::new();
        let w1 = table.insert("w1", 0.8);
        let w2 = table.insert("w2", 0.7);
        assert_eq!(table.len(), 2);
        assert_eq!(table.prob(w1), 0.8);
        assert_eq!(table.name(w2), "w2");
        assert_eq!(table.by_name("w1"), Some(w1));
        assert_eq!(table.by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn zero_probability_is_rejected() {
        let mut table = EventTable::new();
        table.insert("w", 0.0);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn probability_above_one_is_rejected() {
        let mut table = EventTable::new();
        table.insert("w", 1.5);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_names_are_rejected() {
        let mut table = EventTable::new();
        table.insert("w", 0.5);
        table.insert("w", 0.6);
    }

    #[test]
    #[should_panic(expected = "holds whitespace or starts with '!'")]
    fn names_a_condition_cannot_carry_are_rejected() {
        let mut table = EventTable::new();
        table.insert("a b", 0.5);
    }

    #[test]
    fn condition_names_exclude_only_empty_spaced_and_negated_names() {
        for name in ["", " ", "a b", "a\tb", "a\n", "!x", "!"] {
            assert!(!is_condition_name(name), "{name:?}");
        }
        for name in ["x", "x!", "a!b", "w\"q\"", "<&>", "é", "-"] {
            assert!(is_condition_name(name), "{name:?}");
        }
    }

    #[test]
    fn fresh_generates_unused_names() {
        let mut table = EventTable::new();
        table.insert("w1", 0.5);
        let fresh = table.fresh(0.3);
        assert_ne!(table.name(fresh), "w1");
        assert_eq!(table.prob(fresh), 0.3);
        let fresh2 = table.fresh(0.2);
        assert_ne!(table.name(fresh2), table.name(fresh));
    }

    /// Every name of `table` finds its own event, and a name it lacks
    /// finds none.
    fn assert_index(table: &EventTable) {
        for event in table.iter() {
            assert_eq!(table.by_name(table.name(event)), Some(event));
        }
        assert_eq!(table.by_name("absent"), None);
    }

    /// After the table grew to `len` events: lookups, the duplicate
    /// panic, and `fresh` skipping the `w{n}` name it would pick first.
    fn assert_lookups(table: &EventTable) {
        assert_index(table);
        let first = table.name(EventId(0)).to_owned();
        let duplicate = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.clone().insert(first, 0.5);
        }));
        assert!(duplicate.is_err(), "a duplicate name must panic");
        let mut user = table.clone();
        let taken = format!("w{}", user.len() + 1);
        user.insert(taken.clone(), 0.5);
        let fresh = user.fresh(0.5);
        assert_eq!(user.name(fresh), format!("w{}", user.len()));
        assert_ne!(user.name(fresh), taken);
        assert_index(&user);
    }

    #[test]
    fn name_index_answers_at_every_growth() {
        let mut table = EventTable::new();
        assert_eq!(table.by_name("x0"), None);
        let mut growths = Vec::new();
        for i in 0..2_000 {
            let buckets = table.index.len();
            table.insert(format!("x{i}"), 0.5);
            if table.index.len() != buckets {
                growths.push(table.len());
                assert_lookups(&table);
            }
        }
        assert_eq!(
            growths[..3],
            [1, 5, 9],
            "the first event, then each doubling"
        );
        assert_eq!(table.index.len(), 4_096);
        assert_lookups(&table);
    }

    #[test]
    fn diverging_clones_keep_their_own_names() {
        let mut base = EventTable::new();
        for i in 0..600 {
            base.insert(format!("x{i}"), 0.5);
        }
        let mut left = base.clone();
        let mut right = base.clone();
        let l = left.insert("left", 0.3);
        let r = right.insert("right", 0.4);
        assert_eq!(l, r, "both take the next id");
        right.set_prob(EventId(7), 0.9);
        for i in 0..600 {
            let fresh = left.fresh(0.2);
            assert_eq!(left.name(fresh), format!("w{}", 602 + i));
        }
        assert_eq!(left.by_name("right"), None);
        assert_eq!(right.by_name("left"), None);
        assert_eq!(base.by_name("left"), None);
        assert_eq!(right.by_name("right"), Some(r));
        assert_eq!(right.by_name("w602"), None);
        assert_eq!(base.len(), 600);
        assert_eq!(base.prob(EventId(7)), 0.5);
        assert_eq!(left.prob(EventId(7)), 0.5);
        assert_index(&base);
        assert_index(&left);
        assert_index(&right);
        assert!(right.unshared_pages(&base) >= 1);
    }

    #[test]
    fn probability_one_is_allowed() {
        let mut table = EventTable::new();
        let w = table.insert("certain", 1.0);
        assert_eq!(table.prob(w), 1.0);
    }

    #[test]
    fn same_distribution_checks_names_and_probs() {
        let mut a = EventTable::new();
        a.insert("w1", 0.8);
        a.insert("w2", 0.7);
        let mut b = EventTable::new();
        b.insert("w1", 0.8);
        b.insert("w2", 0.7);
        assert!(a.same_distribution(&b));
        b.set_prob(EventId(1), 0.6);
        assert!(!a.same_distribution(&b));
    }

    #[test]
    fn iter_visits_in_insertion_order() {
        let mut table = EventTable::new();
        let ids: Vec<_> = (0..5).map(|i| table.insert(format!("e{i}"), 0.5)).collect();
        let iterated: Vec<_> = table.iter().collect();
        assert_eq!(ids, iterated);
    }
}
