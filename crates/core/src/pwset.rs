//! Possible-world sets (Section 2 of the paper).
//!
//! A possible-world (PW) set is a finite set of pairs `(t_i, p_i)` of data
//! trees with a common root label and positive probabilities summing to 1.
//! Two PW sets are isomorphic (`∼`) when, for every data tree, the summed
//! probability of its isomorphism class is the same in both. A *strict
//! subset* of a PW set (arising e.g. from threshold restriction or DTD
//! restriction) is compared with `∼sub` (Definition 3), which tops the
//! missing mass up on the root-only tree.

use std::collections::HashMap;

use pxml_events::{prob_eq, PROB_EPS};
use pxml_tree::canon::{canonical_string, Semantics};
use pxml_tree::DataTree;

/// A weighted set of data trees. Probabilities are expected to be positive;
/// whether they must sum to 1 depends on the context (full PW set vs query
/// answer or restriction).
#[derive(Clone, Debug, Default)]
pub struct PossibleWorldSet {
    worlds: Vec<(DataTree, f64)>,
}

impl PossibleWorldSet {
    /// The empty set of worlds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a PW set from `(tree, probability)` pairs.
    pub fn from_worlds<I: IntoIterator<Item = (DataTree, f64)>>(worlds: I) -> Self {
        PossibleWorldSet {
            worlds: worlds.into_iter().collect(),
        }
    }

    /// Adds one world.
    pub fn push(&mut self, tree: DataTree, probability: f64) {
        self.worlds.push((tree, probability));
    }

    /// Number of worlds (with multiplicity — normalize first for the number
    /// of distinct worlds).
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// `true` if there are no worlds.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Iterates over the worlds.
    pub fn iter(&self) -> impl Iterator<Item = &(DataTree, f64)> {
        self.worlds.iter()
    }

    /// Sum of the probabilities (1 for a full PW set, less for subsets).
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|(_, p)| p).sum()
    }

    /// Number of nodes summed over all worlds (a size measure for the
    /// conciseness experiments).
    pub fn total_nodes(&self) -> usize {
        self.worlds.iter().map(|(t, _)| t.len()).sum()
    }

    /// Groups isomorphic worlds together, summing their probabilities
    /// (normalization, Section 2), under the given semantics.
    pub fn normalized_with(&self, semantics: Semantics) -> PossibleWorldSet {
        let mut by_canon: HashMap<String, (DataTree, f64)> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for (tree, p) in &self.worlds {
            let key = canonical_string(tree, semantics);
            match by_canon.get_mut(&key) {
                Some(entry) => entry.1 += p,
                None => {
                    by_canon.insert(key.clone(), (tree.clone(), *p));
                    order.push(key);
                }
            }
        }
        PossibleWorldSet {
            worlds: order
                .into_iter()
                .map(|k| by_canon.remove(&k).expect("key recorded"))
                .collect(),
        }
    }

    /// Normalization under the paper's default multiset semantics.
    pub fn normalized(&self) -> PossibleWorldSet {
        self.normalized_with(Semantics::MultiSet)
    }

    /// PW-set isomorphism `∼` under the given semantics: for every
    /// isomorphism class of data trees, both sets assign the same total
    /// probability (up to [`PROB_EPS`]).
    pub fn isomorphic_with(&self, other: &PossibleWorldSet, semantics: Semantics) -> bool {
        let a = self.class_masses(semantics);
        let b = other.class_masses(semantics);
        if a.len() != b.len() {
            return false;
        }
        a.iter().all(|(k, &p)| match b.get(k) {
            Some(&q) => prob_eq(p, q),
            None => p.abs() <= PROB_EPS,
        })
    }

    /// PW-set isomorphism under multiset semantics.
    pub fn isomorphic(&self, other: &PossibleWorldSet) -> bool {
        self.isomorphic_with(other, Semantics::MultiSet)
    }

    /// The `∼sub` comparison of Definition 3: `self` (a strict subset whose
    /// probabilities sum to `p < 1`) is compared against `other` after
    /// topping up `1 − p` on the root-only tree with label `root_label`.
    pub fn isomorphic_sub(&self, other: &PossibleWorldSet, root_label: &str) -> bool {
        let missing = 1.0 - self.total_probability();
        let mut completed = self.clone();
        if missing > PROB_EPS {
            completed.push(DataTree::new(root_label), missing);
        }
        completed.normalized().isomorphic(&other.normalized())
    }

    fn class_masses(&self, semantics: Semantics) -> HashMap<String, f64> {
        let mut masses: HashMap<String, f64> = HashMap::new();
        for (tree, p) in &self.worlds {
            *masses
                .entry(canonical_string(tree, semantics))
                .or_insert(0.0) += p;
        }
        // Drop classes with negligible mass so that comparing a set
        // containing explicit zero-probability entries works.
        masses.retain(|_, p| p.abs() > PROB_EPS);
        masses
    }

    /// Restricts to the worlds whose probability is at least `threshold`
    /// (the `JT K≥p` operation studied in Theorem 4). Call on a normalized
    /// set, otherwise per-entry probabilities are not world probabilities.
    ///
    /// The comparison is an **exact** `p ≥ threshold` — deliberately no
    /// [`PROB_EPS`] slack. An epsilon here would let worlds strictly below
    /// the threshold survive (the old `p ≥ threshold − PROB_EPS` did
    /// exactly that, and the Theorem-4 witness tests had to compensate with
    /// hand-tuned offsets). `PROB_EPS` remains the right tool where two
    /// *independently computed* probabilities are compared for equality
    /// (`∼`, [`prob_eq`]); a threshold is a caller-chosen constant, so any
    /// float slack belongs in the caller's choice of `threshold`, not
    /// here.
    pub fn restrict_to_threshold(&self, threshold: f64) -> PossibleWorldSet {
        PossibleWorldSet {
            worlds: self
                .worlds
                .iter()
                .filter(|(_, p)| *p >= threshold)
                .cloned()
                .collect(),
        }
    }

    /// Restricts to the worlds satisfying `predicate` (used for DTD
    /// restriction).
    pub fn restrict(&self, predicate: &dyn Fn(&DataTree) -> bool) -> PossibleWorldSet {
        PossibleWorldSet {
            worlds: self
                .worlds
                .iter()
                .filter(|(t, _)| predicate(t))
                .cloned()
                .collect(),
        }
    }

    /// The label shared by the roots of all worlds, if consistent.
    pub fn root_label(&self) -> Option<&str> {
        let first = self.worlds.first().map(|(t, _)| t.label(t.root()))?;
        if self.worlds.iter().all(|(t, _)| t.label(t.root()) == first) {
            Some(first)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::builder::{star, TreeSpec};

    fn figure2() -> PossibleWorldSet {
        // Figure 2: {A→C: 0.06, A→C→D: 0.70, A→(B,C): 0.24}
        let t1 = TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build();
        let t2 = TreeSpec::node("A", vec![TreeSpec::node("C", vec![TreeSpec::leaf("D")])]).build();
        let t3 = TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build();
        PossibleWorldSet::from_worlds([(t1, 0.06), (t2, 0.70), (t3, 0.24)])
    }

    #[test]
    fn figure2_sums_to_one() {
        let pw = figure2();
        assert!(prob_eq(pw.total_probability(), 1.0));
        assert_eq!(pw.len(), 3);
        assert_eq!(pw.root_label(), Some("A"));
    }

    #[test]
    fn normalization_merges_isomorphic_worlds() {
        let mut pw = figure2();
        // Add a duplicate of the first world with extra mass; not a valid PW
        // set any more but normalization only merges.
        pw.push(TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build(), 0.1);
        let normalized = pw.normalized();
        assert_eq!(normalized.len(), 3);
        let mass: f64 = normalized
            .iter()
            .filter(|(t, _)| t.len() == 2)
            .map(|(_, p)| p)
            .sum();
        assert!(prob_eq(mass, 0.16));
    }

    #[test]
    fn isomorphism_ignores_world_order_and_splitting() {
        let a = figure2();
        // The same set with the 0.70 world split in two halves and listed in
        // a different order.
        let t1 = TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build();
        let t2 = TreeSpec::node("A", vec![TreeSpec::node("C", vec![TreeSpec::leaf("D")])]).build();
        let t3 = TreeSpec::node("A", vec![TreeSpec::leaf("C"), TreeSpec::leaf("B")]).build();
        let b =
            PossibleWorldSet::from_worlds([(t3, 0.24), (t2.clone(), 0.35), (t1, 0.06), (t2, 0.35)]);
        assert!(a.isomorphic(&b));
        assert!(b.isomorphic(&a));
    }

    #[test]
    fn isomorphism_detects_probability_differences() {
        let a = figure2();
        let t1 = TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build();
        let t2 = TreeSpec::node("A", vec![TreeSpec::node("C", vec![TreeSpec::leaf("D")])]).build();
        let t3 = TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build();
        let b = PossibleWorldSet::from_worlds([(t1, 0.16), (t2, 0.60), (t3, 0.24)]);
        assert!(!a.isomorphic(&b));
    }

    #[test]
    fn isomorphism_respects_multiset_vs_set_semantics() {
        let two = star("A", "B", 2);
        let one = star("A", "B", 1);
        let a = PossibleWorldSet::from_worlds([(two, 1.0)]);
        let b = PossibleWorldSet::from_worlds([(one, 1.0)]);
        assert!(!a.isomorphic_with(&b, Semantics::MultiSet));
        assert!(a.isomorphic_with(&b, Semantics::Set));
    }

    #[test]
    fn sub_isomorphism_tops_up_on_root_only_tree() {
        // Keep only the 0.24 world; ∼sub should compare it against the set
        // {that world: 0.24, root-only: 0.76}.
        let pw = figure2();
        let restricted = PossibleWorldSet::from_worlds(
            pw.iter()
                .filter(|(t, _)| t.iter().any(|n| t.label(n) == "B"))
                .cloned()
                .collect::<Vec<_>>(),
        );
        let t3 = TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build();
        let expected = PossibleWorldSet::from_worlds([(t3, 0.24), (DataTree::new("A"), 0.76)]);
        assert!(restricted.isomorphic_sub(&expected, "A"));
        // But not to the unrestricted original.
        assert!(!restricted.isomorphic_sub(&pw, "A"));
    }

    #[test]
    fn threshold_restriction_filters_low_probability_worlds() {
        let pw = figure2();
        let restricted = pw.restrict_to_threshold(0.2);
        assert_eq!(restricted.len(), 2);
        assert!(restricted.total_probability() < 1.0);
        let all = pw.restrict_to_threshold(0.0);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn threshold_comparison_is_exact_at_the_boundary() {
        let pw = figure2();
        // Exactly at a world's probability: the world survives.
        assert_eq!(pw.restrict_to_threshold(0.24).len(), 2);
        // A hair below (threshold − PROB_EPS/2): still survives.
        assert_eq!(pw.restrict_to_threshold(0.24 - PROB_EPS / 2.0).len(), 2);
        // A hair above (threshold + PROB_EPS/2): dropped — the old
        // `≥ threshold − PROB_EPS` slack wrongly kept it.
        assert_eq!(pw.restrict_to_threshold(0.24 + PROB_EPS / 2.0).len(), 1);
    }

    #[test]
    fn predicate_restriction() {
        let pw = figure2();
        let no_b = pw.restrict(&|t: &DataTree| !t.iter().any(|n| t.label(n) == "B"));
        assert_eq!(no_b.len(), 2);
    }

    #[test]
    fn root_label_none_when_inconsistent() {
        let pw =
            PossibleWorldSet::from_worlds([(DataTree::new("A"), 0.5), (DataTree::new("B"), 0.5)]);
        assert_eq!(pw.root_label(), None);
    }
}
