//! Sub-datatrees (Definition 5 of the paper).
//!
//! A *sub-datatree* `t' ≤ t` keeps the root of `t` and is closed under
//! parents: whenever a node is kept, so is its parent. The paper's locally
//! monotone queries return sets of sub-datatrees; representing them as node
//! subsets of the original tree (rather than as freshly-built trees) keeps
//! the correspondence needed to collect node conditions during prob-tree
//! query evaluation (Definition 8) and to anchor updates (Appendix A).

use std::collections::BTreeSet;

use crate::arena::{DataTree, NodeId};
use crate::canon::{canonical_string, Semantics};

/// A sub-datatree of a specific [`DataTree`], represented as the set of
/// kept node ids (always containing the root, closed under parents).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SubDataTree {
    nodes: BTreeSet<NodeId>,
}

impl SubDataTree {
    /// The sub-datatree consisting of the root only.
    pub fn root_only(tree: &DataTree) -> Self {
        let mut nodes = BTreeSet::new();
        nodes.insert(tree.root());
        SubDataTree { nodes }
    }

    /// The full tree, viewed as a sub-datatree of itself.
    pub fn full(tree: &DataTree) -> Self {
        SubDataTree {
            nodes: tree.iter().collect(),
        }
    }

    /// Builds a sub-datatree from an arbitrary set of nodes by closing it
    /// under parents (and adding the root).
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(tree: &DataTree, nodes: I) -> Self {
        let mut set = BTreeSet::new();
        set.insert(tree.root());
        for node in nodes {
            let mut cur = Some(node);
            while let Some(n) = cur {
                if !set.insert(n) {
                    break;
                }
                cur = tree.parent(n);
            }
        }
        SubDataTree { nodes: set }
    }

    /// The kept nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of kept nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A sub-datatree always contains the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` is kept.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Set-union of two sub-datatrees of the same tree (still a
    /// sub-datatree, since parent-closure is preserved by union).
    pub fn union(&self, other: &SubDataTree) -> SubDataTree {
        SubDataTree {
            nodes: self.nodes.union(&other.nodes).copied().collect(),
        }
    }

    /// Set-intersection of two sub-datatrees of the same tree. The
    /// intersection of two parent-closed sets containing the root is again
    /// parent-closed and contains the root.
    pub fn intersection(&self, other: &SubDataTree) -> SubDataTree {
        SubDataTree {
            nodes: self.nodes.intersection(&other.nodes).copied().collect(),
        }
    }

    /// The sub-datatree partial order `self ≤ other` (both over the same
    /// underlying tree).
    pub fn le(&self, other: &SubDataTree) -> bool {
        self.nodes.is_subset(&other.nodes)
    }

    /// Materializes this sub-datatree as an independent [`DataTree`]: the
    /// tree [`DataTree::extract`] keeps for this node set, with the same
    /// child order, built from the set alone in `O(n log n)` for `n` kept
    /// nodes, however large `tree` is.
    ///
    /// The walk visits the set in id order, which meets every parent
    /// before its children and each node's children in their child order
    /// (the id order documented on [`DataTree`]). A kept node whose parent
    /// was not copied, or that was detached, is left out, as a walk from
    /// the root never reaches it.
    ///
    /// # Panics
    /// Panics if the set does not contain `tree`'s root.
    pub fn to_tree(&self, tree: &DataTree) -> DataTree {
        let root = tree.root();
        assert!(self.nodes.contains(&root), "extraction must keep the root");
        let mut out = DataTree::with_capacity(tree.label(root), self.nodes.len());
        // The source of each copy, by copy id; it ascends, because the
        // copies are made in source id order.
        let mut sources = Vec::with_capacity(self.nodes.len());
        sources.push(root);
        for &node in self.nodes.range(root..).skip(1) {
            let Some(parent) = tree.parent(node) else {
                continue;
            };
            if let Ok(copy) = sources.binary_search(&parent) {
                out.add_child(NodeId::from_index(copy), tree.label(node));
                sources.push(node);
            }
        }
        out
    }

    /// Canonical string of the induced tree (used to deduplicate
    /// isomorphic query answers and to break ranking ties).
    pub fn canonical_string(&self, tree: &DataTree, semantics: Semantics) -> String {
        canonical_string(&self.to_tree(tree), semantics)
    }
}

/// Checks whether the *independent* tree `small` is (isomorphic to) a
/// sub-datatree of `big`, i.e. whether `small ≤ big` in the sense of
/// Definition 5 up to isomorphism. Exponential in the worst case; intended
/// for tests on small trees (e.g. verifying local monotonicity).
pub fn is_subdatatree_of(small: &DataTree, big: &DataTree, semantics: Semantics) -> bool {
    enumerate_subdatatrees(big)
        .iter()
        .any(|sub| crate::canon::isomorphic(&sub.to_tree(big), small, semantics))
}

/// Enumerates **all** sub-datatrees of `tree` (the set `Sub(t)` of
/// Definition 5). The number of sub-datatrees is exponential in the tree
/// size; this is a test/verification helper for small trees only.
pub fn enumerate_subdatatrees(tree: &DataTree) -> Vec<SubDataTree> {
    // For each node (in pre-order), we either exclude its entire subtree or
    // include the node and recurse on its children independently.
    fn rec(tree: &DataTree, node: NodeId) -> Vec<BTreeSet<NodeId>> {
        // All ways to pick a parent-closed subset of the subtree rooted at
        // `node` *that contains `node`*.
        let mut options: Vec<BTreeSet<NodeId>> = vec![BTreeSet::from([node])];
        for &child in tree.children(node) {
            let child_options = rec(tree, child);
            let mut next = Vec::new();
            for base in &options {
                // Exclude the child subtree entirely.
                next.push(base.clone());
                // Or include one of the child's own options.
                for co in &child_options {
                    let mut merged = base.clone();
                    merged.extend(co.iter().copied());
                    next.push(merged);
                }
            }
            options = next;
        }
        options
    }
    rec(tree, tree.root())
        .into_iter()
        .map(|nodes| SubDataTree { nodes })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeSpec;
    use crate::render::to_ascii;
    use crate::testing::tree_strategy;
    use proptest::prelude::*;

    fn sample() -> DataTree {
        // A
        // ├── B
        // └── C
        //     └── D
        TreeSpec::node(
            "A",
            vec![
                TreeSpec::leaf("B"),
                TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
            ],
        )
        .build()
    }

    fn node_by_label(tree: &DataTree, label: &str) -> NodeId {
        tree.iter().find(|&n| tree.label(n) == label).unwrap()
    }

    #[test]
    fn from_nodes_closes_under_parents() {
        let tree = sample();
        let d = node_by_label(&tree, "D");
        let sub = SubDataTree::from_nodes(&tree, [d]);
        // D forces C and the root A.
        assert_eq!(sub.len(), 3);
        assert!(sub.contains(node_by_label(&tree, "C")));
        assert!(sub.contains(tree.root()));
        assert!(!sub.contains(node_by_label(&tree, "B")));
    }

    #[test]
    fn root_only_and_full() {
        let tree = sample();
        assert_eq!(SubDataTree::root_only(&tree).len(), 1);
        assert_eq!(SubDataTree::full(&tree).len(), 4);
        assert!(SubDataTree::root_only(&tree).le(&SubDataTree::full(&tree)));
    }

    #[test]
    fn union_and_intersection_preserve_structure() {
        let tree = sample();
        let b = node_by_label(&tree, "B");
        let d = node_by_label(&tree, "D");
        let sb = SubDataTree::from_nodes(&tree, [b]);
        let sd = SubDataTree::from_nodes(&tree, [d]);
        let u = sb.union(&sd);
        assert_eq!(u.len(), 4);
        let i = sb.intersection(&sd);
        assert_eq!(i.len(), 1); // just the root
        assert!(i.contains(tree.root()));
    }

    #[test]
    fn to_tree_extracts_the_induced_tree() {
        let tree = sample();
        let d = node_by_label(&tree, "D");
        let sub = SubDataTree::from_nodes(&tree, [d]);
        let t = sub.to_tree(&tree);
        assert_eq!(t.len(), 3);
        assert_eq!(t.label(t.root()), "A");
    }

    #[test]
    #[should_panic(expected = "extraction must keep the root")]
    fn to_tree_without_the_root_panics() {
        let tree = sample();
        let d = node_by_label(&tree, "D");
        let sub = SubDataTree {
            nodes: BTreeSet::from([d]),
        };
        sub.to_tree(&tree);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `to_tree` builds the tree `extract` keeps for the same
        /// membership test, child order included, on sets with or without
        /// parent closure and holding detached nodes.
        #[test]
        fn to_tree_matches_extract(
            tree in tree_strategy(30),
            picks in prop::collection::vec(any::<usize>(), 0..10),
            closed in any::<bool>(),
        ) {
            let picked = picks
                .iter()
                .map(|pick| NodeId::from_index(pick % tree.arena_len()));
            let sub = if closed {
                SubDataTree::from_nodes(&tree, picked)
            } else {
                let mut nodes: BTreeSet<NodeId> = picked.collect();
                nodes.insert(tree.root());
                SubDataTree { nodes }
            };
            let (extracted, _) = tree.extract(&|n| sub.contains(n));
            let built = sub.to_tree(&tree);
            prop_assert_eq!(built.len(), extracted.len());
            prop_assert_eq!(built.arena_len(), built.len(), "no unreachable copy");
            for semantics in [Semantics::MultiSet, Semantics::Set] {
                prop_assert_eq!(
                    canonical_string(&built, semantics),
                    canonical_string(&extracted, semantics)
                );
            }
            prop_assert_eq!(to_ascii(&built), to_ascii(&extracted));
        }
    }

    #[test]
    fn enumeration_counts_match_hand_computation() {
        // For the sample tree: choices are {include B or not} x {exclude C,
        // include C alone, include C and D} = 2 * 3 = 6 sub-datatrees.
        let tree = sample();
        let subs = enumerate_subdatatrees(&tree);
        assert_eq!(subs.len(), 6);
        // All contain the root and are parent-closed.
        for sub in &subs {
            assert!(sub.contains(tree.root()));
            for n in sub.nodes() {
                if let Some(p) = tree.parent(n) {
                    assert!(sub.contains(p));
                }
            }
        }
    }

    #[test]
    fn subdatatree_relation_between_independent_trees() {
        let big = sample();
        let small = TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build();
        let not_sub = TreeSpec::node("A", vec![TreeSpec::leaf("D")]).build();
        assert!(is_subdatatree_of(&small, &big, Semantics::MultiSet));
        // D is not a child of the root in `big`, so A→D is not a
        // sub-datatree (sub-datatrees never "shortcut" edges).
        assert!(!is_subdatatree_of(&not_sub, &big, Semantics::MultiSet));
    }

    #[test]
    fn le_is_a_partial_order_on_samples() {
        let tree = sample();
        let subs = enumerate_subdatatrees(&tree);
        for a in &subs {
            assert!(a.le(a), "reflexive");
            for b in &subs {
                if a.le(b) && b.le(a) {
                    assert_eq!(a, b, "antisymmetric");
                }
                for c in &subs {
                    if a.le(b) && b.le(c) {
                        assert!(a.le(c), "transitive");
                    }
                }
            }
        }
    }
}
