//! Sub-datatrees (Definition 5 of the paper).
//!
//! A *sub-datatree* `t' ≤ t` keeps the root of `t` and is closed under
//! parents: whenever a node is kept, so is its parent. The paper's locally
//! monotone queries return sets of sub-datatrees, and each possible world
//! of a prob-tree is one (Definitions 4 and 5). Representing them as node
//! subsets of the original tree (rather than as freshly-built trees) keeps
//! the correspondence needed to collect node conditions during prob-tree
//! query evaluation (Definition 8) and to anchor updates (Appendix A), and
//! lets many of them share one source tree.

use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use crate::arena::{DataTree, NodeId};
use crate::canon::{into_string, CanonWriter, Semantics};

/// A sub-datatree of a specific [`DataTree`], represented as its kept node
/// ids in ascending order: the root first, closed under parents. Ascending
/// ids list every parent before its children (the id order documented on
/// [`DataTree`]). The ids sit behind an `Arc`, so a clone is one reference
/// count bump. Sets order and compare lexicographically over their
/// ascending ids, as `BTreeSet<NodeId>` does.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SubDataTree {
    nodes: Arc<[NodeId]>,
}

impl SubDataTree {
    /// The sub-datatree consisting of the root only.
    pub fn root_only(tree: &DataTree) -> Self {
        SubDataTree {
            nodes: Arc::new([tree.root()]),
        }
    }

    /// The full tree, viewed as a sub-datatree of itself.
    pub fn full(tree: &DataTree) -> Self {
        let mut nodes: Vec<NodeId> = tree.iter().collect();
        nodes.sort_unstable();
        SubDataTree {
            nodes: nodes.into(),
        }
    }

    /// Builds a sub-datatree from an arbitrary set of nodes by closing it
    /// under parents (and adding the root).
    ///
    /// The nodes wait in a max-heap, and each one popped is kept and its
    /// parent pushed. A parent's id is below its children's, so the ids pop
    /// in descending order, every copy of a shared ancestor pops right
    /// after the first and is dropped, and the walk up from each node stops
    /// where it joins a path already taken.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(tree: &DataTree, nodes: I) -> Self {
        let mut waiting: BinaryHeap<NodeId> = std::iter::once(tree.root()).chain(nodes).collect();
        let mut ids: Vec<NodeId> = Vec::with_capacity(waiting.len());
        while let Some(node) = waiting.pop() {
            if ids.last() == Some(&node) {
                continue;
            }
            ids.push(node);
            waiting.extend(tree.parent(node));
        }
        ids.reverse();
        SubDataTree { nodes: ids.into() }
    }

    /// The sub-datatree whose ids `ascending` lists already closed: root
    /// first, ascending, and holding the parent of every listed node. The
    /// list is kept as it is; the three properties are checked in debug
    /// builds only. The world fold lists every kept set this way.
    pub fn from_ascending(tree: &DataTree, ascending: &[NodeId]) -> Self {
        debug_assert_eq!(ascending.first(), Some(&tree.root()));
        debug_assert!(ascending.windows(2).all(|pair| pair[0] < pair[1]));
        debug_assert!(ascending.iter().all(|&n| tree
            .parent(n)
            .is_none_or(|p| ascending.binary_search(&p).is_ok())));
        SubDataTree {
            nodes: ascending.into(),
        }
    }

    /// The kept nodes, in ascending id order.
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

    /// Whether `node` is kept: a binary search over the ascending ids.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// The sub-datatree partial order `self ≤ other` (both over the same
    /// underlying tree).
    pub fn le(&self, other: &SubDataTree) -> bool {
        self.nodes().all(|n| other.contains(n))
    }

    /// Materializes this sub-datatree as an independent [`DataTree`]: the
    /// tree [`DataTree::extract`] keeps for this node set, with the same
    /// child order, built from the set alone in `O(n log n)` for `n` kept
    /// nodes, however large `tree` is.
    ///
    /// The walk visits the ids in ascending order, which meets every parent
    /// before its children and each node's children in their child order
    /// (the id order documented on [`DataTree`]), and finds each parent's
    /// copy by binary search in the ascending list of copied sources. A kept
    /// node whose parent was not copied, or that was detached, is left out,
    /// as a walk from the root never reaches it.
    ///
    /// # Panics
    /// Panics if the set does not contain `tree`'s root.
    pub fn to_tree(&self, tree: &DataTree) -> DataTree {
        let root = tree.root();
        assert!(
            self.nodes.first() == Some(&root),
            "extraction must keep the root"
        );
        let mut out = DataTree::with_capacity(tree.label(root), self.nodes.len());
        // The source of each copy, by copy id; it ascends, because the copies
        // are made in source id order.
        let mut sources = Vec::with_capacity(self.nodes.len());
        sources.push(root);
        for &node in &self.nodes[1..] {
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
    /// isomorphic query answers, to break ranking ties and to write a
    /// possible world's), written by the canonical-string kernel over this
    /// set without building the tree: the bytes of
    /// `canonical_string(&self.to_tree(tree), semantics)`.
    pub fn canonical_string(&self, tree: &DataTree, semantics: Semantics) -> String {
        let mut writer = CanonWriter::default();
        into_string(writer.write(tree, semantics, |n| self.contains(n)))
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
        .map(|nodes| SubDataTree {
            nodes: nodes.into_iter().collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeSpec;
    use crate::canon::canonical_string;
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
            nodes: Arc::new([d]),
        };
        sub.to_tree(&tree);
    }

    /// The node set that `picks` name in `tree` (taken modulo its arena,
    /// so detached nodes occur), closed under parents by `from_nodes` or,
    /// unless `closed`, kept as picked beside the root.
    fn picked_set(tree: &DataTree, picks: &[usize], closed: bool) -> SubDataTree {
        let picked = picks
            .iter()
            .map(|pick| NodeId::from_index(pick % tree.arena_len()));
        if closed {
            SubDataTree::from_nodes(tree, picked)
        } else {
            let mut nodes: BTreeSet<NodeId> = picked.collect();
            nodes.insert(tree.root());
            SubDataTree {
                nodes: nodes.into_iter().collect(),
            }
        }
    }

    /// `from_nodes` as it was when a sub-datatree held a `BTreeSet`: the
    /// closure oracle.
    fn closed_by_btreeset(tree: &DataTree, picks: &[usize]) -> BTreeSet<NodeId> {
        let mut set = BTreeSet::from([tree.root()]);
        for pick in picks {
            let mut cur = Some(NodeId::from_index(pick % tree.arena_len()));
            while let Some(n) = cur {
                if !set.insert(n) {
                    break;
                }
                cur = tree.parent(n);
            }
        }
        set
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
            let sub = picked_set(&tree, &picks, closed);
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

        /// `canonical_string` over the node set writes the bytes of the
        /// canonical string of the tree `to_tree` builds, on the same sets
        /// as `to_tree_matches_extract`.
        #[test]
        fn canonical_string_matches_the_built_tree(
            tree in tree_strategy(30),
            picks in prop::collection::vec(any::<usize>(), 0..10),
            closed in any::<bool>(),
        ) {
            let sub = picked_set(&tree, &picks, closed);
            let built = sub.to_tree(&tree);
            for semantics in [Semantics::MultiSet, Semantics::Set] {
                prop_assert_eq!(
                    sub.canonical_string(&tree, semantics),
                    canonical_string(&built, semantics)
                );
            }
        }

        /// The ascending id list keeps the meaning the `BTreeSet` gave a
        /// sub-datatree: on small trees, where two random sets often
        /// share a prefix or coincide, `cmp` and `==` agree with those of
        /// the same sets as `BTreeSet`s; `from_nodes` lists the `BTreeSet`
        /// closure's ids in its order, whatever the order of the picks and
        /// however often one repeats; and `from_ascending` on a closed list
        /// equals `from_nodes` on it.
        #[test]
        fn ascending_ids_behave_as_the_btreeset(
            tree in tree_strategy(10),
            a in prop::collection::vec(any::<usize>(), 0..5),
            b in prop::collection::vec(any::<usize>(), 0..5),
            closed_a in any::<bool>(),
            closed_b in any::<bool>(),
        ) {
            let (sa, sb) = (picked_set(&tree, &a, closed_a), picked_set(&tree, &b, closed_b));
            let as_set = |sub: &SubDataTree| sub.nodes().collect::<BTreeSet<NodeId>>();
            prop_assert_eq!(sa.cmp(&sb), as_set(&sa).cmp(&as_set(&sb)));
            prop_assert_eq!(sa == sb, as_set(&sa) == as_set(&sb));
            let closed = picked_set(&tree, &a, true);
            prop_assert_eq!(
                closed.nodes().collect::<Vec<_>>(),
                closed_by_btreeset(&tree, &a).into_iter().collect::<Vec<_>>()
            );
            let shuffled: Vec<usize> = a.iter().rev().chain(&a).copied().collect();
            prop_assert_eq!(&picked_set(&tree, &shuffled, true), &closed);
            let list: Vec<NodeId> = picked_set(&tree, &a, true).nodes().collect();
            prop_assert_eq!(
                SubDataTree::from_ascending(&tree, &list),
                SubDataTree::from_nodes(&tree, list.iter().copied())
            );
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
