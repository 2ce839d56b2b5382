//! Possible-world sets (Section 2 of the paper).
//!
//! A possible-world (PW) set is a finite set of pairs `(t_i, p_i)` of data
//! trees with a common root label and positive probabilities summing to 1.
//! Two PW sets are isomorphic (`∼`) when, for every data tree, the summed
//! probability of its isomorphism class is the same in both. A *strict
//! subset* of a PW set (arising e.g. from threshold restriction or DTD
//! restriction) is compared with `∼sub` (Definition 3), which tops the
//! missing mass up on the root-only tree.
//!
//! By Definition 4, each possible world of a prob-tree is its data tree
//! restricted to the nodes whose conditions hold: a sub-datatree
//! (Definition 5) of one source tree. A set therefore holds each world as a
//! [`World`], a [`SubDataTree`] over a shared source tree. The world fold
//! ([`FactorizedWorlds::normalized_worlds`](crate::FactorizedWorlds::normalized_worlds))
//! shares one source among all its classes and builds no tree; a tree
//! added with [`PossibleWorldSet::from_worlds`] or
//! [`PossibleWorldSet::push`] is its own source. A consumer that needs an
//! owned tree asks for one with [`World::to_tree`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use pxml_events::{prob_eq, PROB_EPS};
use pxml_tree::canon::Semantics;
use pxml_tree::{DataTree, NodeId, SubDataTree};

/// One world of a [`PossibleWorldSet`]: a [`SubDataTree`] of a source
/// tree. Cloning a world clones two `Arc`s.
#[derive(Clone, Debug)]
pub struct World {
    source: Arc<DataTree>,
    nodes: SubDataTree,
}

impl World {
    /// An owned tree as a world: its own source, with every reachable node
    /// kept.
    fn whole(tree: DataTree) -> World {
        World {
            nodes: SubDataTree::full(&tree),
            source: Arc::new(tree),
        }
    }

    /// The world that `nodes`, listed as [`SubDataTree::from_ascending`]
    /// takes them, keep of `source`.
    pub(crate) fn within(source: Arc<DataTree>, nodes: &[NodeId]) -> World {
        World {
            nodes: SubDataTree::from_ascending(&source, nodes),
            source,
        }
    }

    /// Number of nodes of the world, read without a walk.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` never: a world always keeps its root. Present to satisfy the
    /// usual `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The world as an owned [`DataTree`], with the source's child order
    /// ([`SubDataTree::to_tree`]).
    pub fn to_tree(&self) -> DataTree {
        self.nodes.to_tree(&self.source)
    }

    /// The canonical string of the world under `semantics`, written over
    /// the kept ids without building the tree
    /// ([`SubDataTree::canonical_string`]).
    pub fn canonical_string(&self, semantics: Semantics) -> String {
        self.nodes.canonical_string(&self.source, semantics)
    }

    /// The label of the world's root.
    pub fn root_label(&self) -> &str {
        self.source.label(self.source.root())
    }
}

/// A weighted set of worlds. Probabilities are expected to be positive;
/// whether they must sum to 1 depends on the context (full PW set vs query
/// answer or restriction).
#[derive(Clone, Debug, Default)]
pub struct PossibleWorldSet {
    worlds: Vec<(World, f64)>,
}

impl PossibleWorldSet {
    /// The empty set of worlds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a PW set from `(tree, probability)` pairs.
    pub fn from_worlds<I: IntoIterator<Item = (DataTree, f64)>>(worlds: I) -> Self {
        PossibleWorldSet {
            worlds: worlds
                .into_iter()
                .map(|(tree, p)| (World::whole(tree), p))
                .collect(),
        }
    }

    /// A set of worlds already kept as node lists (the world fold's
    /// output).
    pub(crate) fn from_kept(worlds: Vec<(World, f64)>) -> Self {
        PossibleWorldSet { worlds }
    }

    /// Adds one world.
    pub fn push(&mut self, tree: DataTree, probability: f64) {
        self.worlds.push((World::whole(tree), probability));
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
    pub fn iter(&self) -> impl Iterator<Item = &(World, f64)> {
        self.worlds.iter()
    }

    /// Sum of the probabilities (1 for a full PW set, less for subsets).
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|(_, p)| p).sum()
    }

    /// Number of nodes summed over all worlds (a size measure for the
    /// conciseness experiments).
    pub fn total_nodes(&self) -> usize {
        self.worlds.iter().map(|(world, _)| world.len()).sum()
    }

    /// Groups isomorphic worlds together, summing their probabilities
    /// (normalization, Section 2), under the given semantics. Classes keep
    /// their first world, in first-seen order.
    pub fn normalized_with(&self, semantics: Semantics) -> PossibleWorldSet {
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut worlds: Vec<(World, f64)> = Vec::new();
        for (world, p) in &self.worlds {
            match slots.entry(world.canonical_string(semantics)) {
                Entry::Occupied(slot) => worlds[*slot.get()].1 += p,
                Entry::Vacant(slot) => {
                    slot.insert(worlds.len());
                    worlds.push((world.clone(), *p));
                }
            }
        }
        PossibleWorldSet { worlds }
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
        for (world, p) in &self.worlds {
            *masses
                .entry(world.canonical_string(semantics))
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
    /// The kept entries share their worlds with `self`.
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
    /// restriction). The kept entries share their worlds with `self`.
    pub fn restrict(&self, predicate: &dyn Fn(&World) -> bool) -> PossibleWorldSet {
        PossibleWorldSet {
            worlds: self
                .worlds
                .iter()
                .filter(|(world, _)| predicate(world))
                .cloned()
                .collect(),
        }
    }

    /// The label shared by the roots of all worlds, if consistent.
    pub fn root_label(&self) -> Option<&str> {
        let first = self.worlds.first().map(|(world, _)| world.root_label())?;
        if self
            .worlds
            .iter()
            .all(|(world, _)| world.root_label() == first)
        {
            Some(first)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pxml_tree::builder::{star, TreeSpec};
    use pxml_tree::canonical_string;

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
        let restricted = pw.restrict(&|world| {
            let t = world.to_tree();
            t.iter().any(|n| t.label(n) == "B")
        });
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
        let no_b = pw.restrict(&|world| {
            let t = world.to_tree();
            !t.iter().any(|n| t.label(n) == "B")
        });
        assert_eq!(no_b.len(), 2);
    }

    /// A random tree grown one step at a time from a 2-letter alphabet: a
    /// step hangs a node under any earlier node, detached ones included,
    /// or detaches a non-root node.
    fn tree_strategy(max_steps: usize) -> impl Strategy<Value = DataTree> {
        prop::collection::vec((any::<usize>(), any::<bool>(), 0..5u8), 0..=max_steps).prop_map(
            |steps| {
                let mut tree = DataTree::new("A");
                for (pick, b, kind) in steps {
                    let node = NodeId::from_index(pick % tree.arena_len());
                    if kind == 0 {
                        if node != tree.root() {
                            tree.detach(node);
                        }
                    } else {
                        tree.add_child(node, if b { "B" } else { "A" });
                    }
                }
                tree
            },
        )
    }

    /// `normalized_with` as it was when a set held one tree per world.
    fn normalized_by_trees(
        worlds: &[(DataTree, f64)],
        semantics: Semantics,
    ) -> Vec<(DataTree, f64)> {
        let mut by_canon: HashMap<String, (DataTree, f64)> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for (tree, p) in worlds {
            let key = canonical_string(tree, semantics);
            match by_canon.get_mut(&key) {
                Some(entry) => entry.1 += p,
                None => {
                    by_canon.insert(key.clone(), (tree.clone(), *p));
                    order.push(key);
                }
            }
        }
        order
            .into_iter()
            .map(|k| by_canon.remove(&k).expect("key recorded"))
            .collect()
    }

    /// `isomorphic_with` as it was when a set held one tree per world.
    fn isomorphic_by_trees(
        a: &[(DataTree, f64)],
        b: &[(DataTree, f64)],
        semantics: Semantics,
    ) -> bool {
        let masses = |worlds: &[(DataTree, f64)]| {
            let mut masses: HashMap<String, f64> = HashMap::new();
            for (tree, p) in worlds {
                *masses
                    .entry(canonical_string(tree, semantics))
                    .or_insert(0.0) += p;
            }
            masses.retain(|_, p| p.abs() > PROB_EPS);
            masses
        };
        let (a, b) = (masses(a), masses(b));
        a.len() == b.len()
            && a.iter().all(|(k, &p)| match b.get(k) {
                Some(&q) => prob_eq(p, q),
                None => p.abs() <= PROB_EPS,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// On sets of owned trees, `normalized_with` and `isomorphic_with`
        /// equal their tree-keyed versions: the same classes in the same
        /// order, with the same sizes, canonical strings and probability
        /// bits, and the same verdicts. The second set is random, the
        /// first reversed, or the first with one world's mass split.
        #[test]
        fn normalization_and_isomorphism_match_the_tree_keyed_versions(
            a in prop::collection::vec((tree_strategy(8), 1..5u32), 0..8),
            b in prop::collection::vec((tree_strategy(8), 1..5u32), 0..8),
            kind in 0..3u8,
        ) {
            let weigh = |worlds: Vec<(DataTree, u32)>| -> Vec<(DataTree, f64)> {
                worlds.into_iter().map(|(t, k)| (t, f64::from(k) / 16.0)).collect()
            };
            let a = weigh(a);
            let b = match kind {
                0 => weigh(b),
                1 => a.iter().rev().cloned().collect(),
                _ => {
                    let mut split = a.clone();
                    if let Some((tree, p)) = split.first_mut().map(|(t, p)| (t.clone(), p)) {
                        *p /= 2.0;
                        let half = *p;
                        split.push((tree, half));
                    }
                    split
                }
            };
            let set_a = PossibleWorldSet::from_worlds(a.clone());
            let set_b = PossibleWorldSet::from_worlds(b.clone());
            for semantics in [Semantics::MultiSet, Semantics::Set] {
                let fast = set_a.normalized_with(semantics);
                let slow = normalized_by_trees(&a, semantics);
                prop_assert_eq!(fast.len(), slow.len());
                for ((world, p), (tree, q)) in fast.iter().zip(&slow) {
                    prop_assert_eq!(world.len(), tree.len());
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                    prop_assert_eq!(
                        world.canonical_string(semantics),
                        canonical_string(tree, semantics)
                    );
                }
                prop_assert_eq!(
                    set_a.isomorphic_with(&set_b, semantics),
                    isomorphic_by_trees(&a, &b, semantics)
                );
            }
        }
    }

    /// The world-fold cost contract on E11's tree (16 `X` children, one
    /// event each): 2^16 joint states fold into 17 classes, the fold
    /// stores exactly the sum of the class sizes in node ids, and every
    /// class shares one copy of the source tree.
    #[test]
    fn world_fold_stores_each_class_once_over_one_source() {
        use crate::worlds::{WorldEngine, WorldEngineConfig};
        use crate::ProbTree;
        use pxml_events::{Condition, Literal};

        let mut t = ProbTree::new("R");
        let root = t.tree().root();
        for _ in 0..16 {
            let w = t.events_mut().fresh(0.5);
            t.add_child(root, "X", Condition::of(Literal::pos(w)));
        }
        let factorized = WorldEngine::new(&t)
            .sharded(&WorldEngineConfig::default(), 24)
            .unwrap();
        assert_eq!(factorized.num_joint_assignments(), 1 << 16);
        let pw = factorized.normalized_worlds().unwrap();
        assert_eq!(pw.len(), 17);
        let stored: usize = pw.iter().map(|(world, _)| world.nodes.len()).sum();
        let class_sizes: usize = pw.iter().map(|(world, _)| world.to_tree().len()).sum();
        assert_eq!(stored, class_sizes);
        assert_eq!(class_sizes, (1..=17).sum::<usize>());
        let (first, _) = pw.iter().next().unwrap();
        assert!(pw
            .iter()
            .all(|(world, _)| Arc::ptr_eq(&world.source, &first.source)));
        assert_eq!(Arc::strong_count(&first.source), 17, "one source for all");
        assert!(prob_eq(pw.total_probability(), 1.0));
    }

    #[test]
    fn root_label_none_when_inconsistent() {
        let pw =
            PossibleWorldSet::from_worlds([(DataTree::new("A"), 0.5), (DataTree::new("B"), 0.5)]);
        assert_eq!(pw.root_label(), None);
    }
}
