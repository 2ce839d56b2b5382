//! Arena-backed rooted unordered labeled trees.
//!
//! Nodes live in copy-on-write [`Pages`] and are addressed by [`NodeId`].
//! Cloning a tree shares its pages, and a write copies only the page it
//! lands on. Structural mutation is limited to adding children and
//! detaching whole subtrees, which is exactly what prob-tree updates need.
//! Detached nodes stay in the arena (their storage is reclaimed only by
//! [`DataTree::compact`]) but are never reached by root-based traversals,
//! so all semantic operations see a consistent tree. A tree may also carry
//! label postings, which list the slots of each label for the pattern
//! matcher.

use std::collections::HashMap;
use std::fmt;

use crate::keyindex::{KeyIndex, Probe};
use crate::pages::Pages;

/// Identifier of a node inside one [`DataTree`] arena.
///
/// A `NodeId` is only meaningful for the tree that produced it; using it
/// with another tree yields unspecified (but memory-safe) results.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index. Intended for (de)serialization
    /// code that has validated the index against the arena length.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node record. A detached subtree's root has no parent, so a node is
/// attached exactly when its parent chain ends at the tree's root.
#[derive(Clone, Debug)]
struct NodeData {
    label: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An unordered labeled rooted tree (Definition 1 of the paper).
///
/// The tree always has at least one node, the root. Children are stored in
/// insertion order but no operation in this workspace gives that order any
/// semantic meaning: isomorphism, queries, updates and DTD validation all
/// treat children as a multiset.
///
/// **Id order.** Every node but the root is created by
/// [`DataTree::add_child`], which appends it to the arena, so a node's id
/// exceeds its parent's and every children list ascends.
/// [`DataTree::detach`] only takes an entry out of a list, and
/// [`DataTree::graft`], [`DataTree::extract`], [`DataTree::compact`] and
/// [`DataTree::subtree_to_tree`] build their trees with `add_child`. A walk
/// over a node set in id order therefore meets every parent before its
/// children and each node's children in their child order, which
/// [`SubDataTree::to_tree`](crate::subtree::SubDataTree::to_tree) relies
/// on.
///
/// **Sharing.** The arena is [`Pages`] of node records. A clone shares
/// every page with its source and copies no record, so cloning and
/// dropping a tree cost O(pages); adding a child or detaching a subtree
/// copies the pages of the records it writes, when another clone still
/// holds them.
///
/// **Label postings.** A tree may carry postings, built by
/// [`DataTree::index_labels`]: per label, every arena slot that carries it,
/// read newest first with [`DataTree::label_postings`]. They are a
/// [`KeyIndex`] from each label to its newest slot and its slot count, and
/// a column linking each slot to the previous slot with its label, both
/// copy-on-write pages that a clone shares. [`DataTree::add_child`] links
/// every node it adds, so grafts and copies keep the postings current.
/// Detached slots stay linked: a reader skips them with
/// [`DataTree::is_attached`]. Trees made by [`DataTree::new`],
/// [`DataTree::extract`], [`DataTree::compact`] and
/// [`DataTree::subtree_to_tree`] start without postings.
#[derive(Clone, Debug)]
pub struct DataTree {
    nodes: Pages<NodeData>,
    root: NodeId,
    /// Boxed, so a tree without postings stays small.
    postings: Option<Box<Postings>>,
}

/// The `prev` link of a slot whose label no older slot carries.
const NO_SLOT: u32 = u32::MAX;

/// A label's entry in the postings head table.
#[derive(Clone, Copy, Debug, Default)]
struct Head {
    /// The newest arena slot with the label.
    newest: u32,
    /// Arena slots with the label, detached ones included.
    count: u32,
}

/// The label postings of a [`DataTree`]; see its docs.
#[derive(Clone, Debug)]
struct Postings {
    /// Label to its newest slot, keyed by that slot's label in the arena.
    heads: KeyIndex<Head>,
    /// Per arena slot, the previous slot with its label, or [`NO_SLOT`].
    prev: Pages<u32>,
}

impl Postings {
    /// Links `slot`, the arena's newest, to its label's postings.
    fn link(&mut self, nodes: &Pages<NodeData>, slot: usize) {
        let label = nodes[slot].label.as_str();
        let is_label = |head: Head| nodes[head.newest as usize].label == label;
        let slot = slot as u32;
        match self.heads.probe(label, is_label) {
            Probe::Found(bucket) => {
                let head = self.heads.value(bucket);
                self.prev.push(head.newest);
                let head = Head {
                    newest: slot,
                    count: head.count + 1,
                };
                self.heads.set(bucket, head);
            }
            Probe::Vacant(at) => {
                self.prev.push(NO_SLOT);
                self.heads.fill(
                    at,
                    Head {
                        newest: slot,
                        count: 1,
                    },
                );
            }
        }
    }
}

/// The arena slots carrying one label, newest first; see
/// [`DataTree::label_postings`].
#[derive(Clone, Debug)]
pub struct LabelPostings<'a> {
    prev: &'a Pages<u32>,
    next: u32,
    remaining: usize,
}

impl Iterator for LabelPostings<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let slot = self.next;
        self.next = self.prev[slot as usize];
        Some(NodeId(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for LabelPostings<'_> {}

impl DataTree {
    /// Creates a tree consisting of a single root node with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_capacity(label, 1)
    }

    /// [`DataTree::new`] with room for the arena's page pointers of
    /// `capacity` nodes.
    pub(crate) fn with_capacity(label: impl Into<String>, capacity: usize) -> Self {
        let mut nodes = Pages::with_capacity(capacity.max(1));
        nodes.push(NodeData {
            label: label.into(),
            parent: None,
            children: Vec::new(),
        });
        DataTree {
            nodes,
            root: NodeId(0),
            postings: None,
        }
    }

    /// The root node of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].label
    }

    /// The parent of `node`, or `None` for the root (and for detached
    /// subtree roots).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// The children of `node`, in insertion order (no semantic order).
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Whether `node` is still reachable from the root: whether its parent
    /// chain ends at the root rather than at a detached subtree's root.
    /// O(depth).
    pub fn is_attached(&self, node: NodeId) -> bool {
        let mut cur = node;
        while let Some(parent) = self.nodes[cur.index()].parent {
            cur = parent;
        }
        cur == self.root
    }

    /// Adds a new child with `label` under `parent` and returns its id.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes.make_mut(parent.index()).children.push(id);
        if let Some(postings) = &mut self.postings {
            postings.link(&self.nodes, id.index());
        }
        id
    }

    /// Grafts a copy of `other` (the whole tree) as a new child of
    /// `parent` and returns the id of the copied root.
    pub fn graft(&mut self, parent: NodeId, other: &DataTree) -> NodeId {
        let copy = self.add_child(parent, other.label(other.root()));
        self.copy_below(copy, other, other.root());
        copy
    }

    /// Copies the strict descendants of `node` in `source` below `copy`.
    /// The walk is depth-first: it adds a node's children before it visits
    /// them, each carried on the stack with its copy's id, so every copy's
    /// id exceeds its parent's.
    fn copy_below(&mut self, copy: NodeId, source: &DataTree, node: NodeId) {
        let mut stack = vec![(node, copy)];
        while let Some((node, copy)) = stack.pop() {
            for &child in source.children(node) {
                let child_copy = self.add_child(copy, source.label(child));
                stack.push((child, child_copy));
            }
        }
    }

    /// Detaches the subtree rooted at `node` from the tree. The root cannot
    /// be detached. The detached nodes remain in the arena but are excluded
    /// from all root-based traversals.
    ///
    /// # Panics
    /// Panics if `node` is the root.
    pub fn detach(&mut self, node: NodeId) {
        assert!(node != self.root, "cannot detach the root of a data tree");
        if let Some(parent) = self.nodes.make_mut(node.index()).parent.take() {
            self.nodes
                .make_mut(parent.index())
                .children
                .retain(|&c| c != node);
        }
    }

    /// Number of nodes reachable from the root. It walks the tree, so it
    /// costs O(reachable nodes); [`DataTree::arena_len`] is O(1).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` never: a data tree always contains at least the root. Present
    /// to satisfy the usual `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total arena capacity, including detached nodes. Useful to decide when
    /// [`DataTree::compact`] is worthwhile.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Arena and postings pages of `self` that `base` does not hold; see
    /// [`Pages::unshared_pages`]. Postings `base` lacks count whole.
    pub fn unshared_pages(&self, base: &DataTree) -> usize {
        let postings = match (&self.postings, &base.postings) {
            (Some(own), Some(base)) => {
                own.heads.unshared_pages(&base.heads) + own.prev.unshared_pages(&base.prev)
            }
            (Some(own), None) => {
                own.heads.unshared_pages(&KeyIndex::new()) + own.prev.unshared_pages(&Pages::new())
            }
            (None, _) => 0,
        };
        self.nodes.unshared_pages(&base.nodes) + postings
    }

    /// Builds label postings over every arena slot, detached ones
    /// included, replacing any the tree had; see the type docs. It costs
    /// one head-table lookup per slot, about 30–90 ns a node, several
    /// times a scan that only compares labels.
    pub fn index_labels(&mut self) {
        let slots = self.nodes.len();
        let mut postings = Postings {
            heads: KeyIndex::new(),
            prev: Pages::with_capacity(slots),
        };
        for slot in 0..slots {
            postings.link(&self.nodes, slot);
        }
        self.postings = Some(Box::new(postings));
    }

    /// Whether the tree carries label postings.
    pub fn has_postings(&self) -> bool {
        self.postings.is_some()
    }

    /// The arena slots labelled `label`, newest first, detached ones
    /// included; `None` when the tree carries no postings. Its `len` is
    /// read from the head table, before any slot is walked.
    pub fn label_postings(&self, label: &str) -> Option<LabelPostings<'_>> {
        let postings = self.postings.as_ref()?;
        let head = postings
            .heads
            .get(label, |head| self.label(NodeId(head.newest)) == label)
            .unwrap_or_default();
        Some(LabelPostings {
            prev: &postings.prev,
            next: head.newest,
            remaining: head.count as usize,
        })
    }

    /// Pre-order iterator over the nodes reachable from the root.
    pub fn iter(&self) -> PreOrder<'_> {
        PreOrder {
            tree: self,
            stack: vec![self.root],
        }
    }

    /// Pre-order iterator over the nodes of the subtree rooted at `node`.
    pub fn iter_subtree(&self, node: NodeId) -> PreOrder<'_> {
        PreOrder {
            tree: self,
            stack: vec![node],
        }
    }

    /// The nodes of the subtree rooted at `node`, collected in pre-order.
    pub fn descendants(&self, node: NodeId) -> Vec<NodeId> {
        self.iter_subtree(node).collect()
    }

    /// All strict ancestors of `node`, from its parent up to the root.
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Depth of `node` (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        std::iter::successors(self.parent(node), |&p| self.parent(p)).count()
    }

    /// Height of the tree: length of the longest root-to-leaf path, counted
    /// in edges. A root-only tree has height 0.
    pub fn height(&self) -> usize {
        self.iter().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// `true` if `anc` is `node` or a (strict) ancestor of `node`.
    pub fn is_ancestor_or_self(&self, anc: NodeId, node: NodeId) -> bool {
        let mut cur = Some(node);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Returns a new tree containing only the nodes in `keep` (which must
    /// include the root and be closed under parents — see
    /// [`crate::subtree::SubDataTree`]), together with the mapping from old
    /// to new node ids.
    pub fn extract(&self, keep: &dyn Fn(NodeId) -> bool) -> (DataTree, HashMap<NodeId, NodeId>) {
        self.extract_sized(keep, 0)
    }

    /// [`DataTree::extract`] with room reserved for `capacity` kept nodes.
    fn extract_sized(
        &self,
        keep: &dyn Fn(NodeId) -> bool,
        capacity: usize,
    ) -> (DataTree, HashMap<NodeId, NodeId>) {
        assert!(keep(self.root), "extraction must keep the root");
        let mut out = DataTree::with_capacity(self.label(self.root), capacity);
        let mut mapping = HashMap::with_capacity(capacity);
        mapping.insert(self.root, out.root());
        // Each entry carries its copy's id, so no mapping lookup is needed.
        let mut stack = vec![(self.root, out.root())];
        while let Some((node, copy)) = stack.pop() {
            for &child in self.children(node) {
                if keep(child) {
                    let child_copy = out.add_child(copy, self.label(child));
                    mapping.insert(child, child_copy);
                    stack.push((child, child_copy));
                }
            }
        }
        (out, mapping)
    }

    /// Rebuilds the arena keeping only reachable nodes. Returns the new tree
    /// and the old-id → new-id mapping.
    pub fn compact(&self) -> (DataTree, HashMap<NodeId, NodeId>) {
        self.extract_sized(&|_| true, self.nodes.len())
    }

    /// Deep structural clone of the subtree rooted at `node`, as an
    /// independent tree.
    pub fn subtree_to_tree(&self, node: NodeId) -> DataTree {
        let mut out = DataTree::new(self.label(node));
        out.copy_below(out.root(), self, node);
        out
    }

    /// Collects, for every reachable node, the multiset of child labels.
    /// Used by DTD validation.
    pub fn child_label_counts(&self, node: NodeId) -> HashMap<&str, usize> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for &c in self.children(node) {
            *counts.entry(self.label(c)).or_insert(0) += 1;
        }
        counts
    }
}

/// Pre-order iterator over reachable nodes of a [`DataTree`].
pub struct PreOrder<'a> {
    tree: &'a DataTree,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for PreOrder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.stack.pop()?;
        // Reversed push so siblings pop left-to-right: the traversal is a
        // true pre-order, and consumers that rebuild trees from it (e.g.
        // deep subtree copies) preserve child order.
        for &child in self.tree.children(node).iter().rev() {
            self.stack.push(child);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;
    use crate::testing::tree_strategy;

    fn sample() -> (DataTree, NodeId, NodeId, NodeId) {
        let mut t = DataTree::new("A");
        let root = t.root();
        let b = t.add_child(root, "B");
        let c = t.add_child(root, "C");
        let d = t.add_child(c, "D");
        (t, b, c, d)
    }

    #[test]
    fn new_tree_has_single_root() {
        let t = DataTree::new("A");
        assert_eq!(t.len(), 1);
        assert_eq!(t.label(t.root()), "A");
        assert!(t.parent(t.root()).is_none());
    }

    #[test]
    fn add_child_links_parent_and_children() {
        let (t, b, c, d) = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(b), Some(t.root()));
        assert_eq!(t.parent(d), Some(c));
        assert_eq!(t.children(t.root()), &[b, c]);
        assert_eq!(t.label(d), "D");
    }

    #[test]
    fn detach_removes_whole_subtree() {
        let (mut t, b, c, d) = sample();
        t.detach(c);
        assert_eq!(t.len(), 2);
        assert!(t.is_attached(b));
        assert!(!t.is_attached(c));
        assert!(
            !t.is_attached(d),
            "descendants of a detached node are detached"
        );
        let reachable: Vec<_> = t.iter().collect();
        assert!(!reachable.contains(&c));
        assert!(!reachable.contains(&d));
    }

    #[test]
    #[should_panic(expected = "cannot detach the root")]
    fn detach_root_panics() {
        let (mut t, _, _, _) = sample();
        let root = t.root();
        t.detach(root);
    }

    #[test]
    fn graft_copies_other_tree() {
        let (mut t, _, c, _) = sample();
        let mut other = DataTree::new("X");
        let xr = other.root();
        other.add_child(xr, "Y");
        let new_root = t.graft(c, &other);
        assert_eq!(t.label(new_root), "X");
        assert_eq!(t.parent(new_root), Some(c));
        assert_eq!(t.len(), 6);
        let [y] = t.children(new_root) else {
            panic!("the copy of X has one child")
        };
        assert_eq!(t.label(*y), "Y");
        assert_eq!(t.parent(*y), Some(new_root));
        assert!(t.children(*y).is_empty());
    }

    #[test]
    fn ancestors_and_depth() {
        let (t, _, c, d) = sample();
        assert_eq!(t.ancestors(d), vec![c, t.root()]);
        assert_eq!(t.depth(d), 2);
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn is_ancestor_or_self_relation() {
        let (t, b, c, d) = sample();
        assert!(t.is_ancestor_or_self(t.root(), d));
        assert!(t.is_ancestor_or_self(c, d));
        assert!(t.is_ancestor_or_self(d, d));
        assert!(!t.is_ancestor_or_self(b, d));
        assert!(!t.is_ancestor_or_self(d, c));
    }

    #[test]
    fn extract_keeps_parent_closed_subset() {
        let (t, b, c, d) = sample();
        let keep = move |n: NodeId| n != b;
        let (sub, mapping) = t.extract(&keep);
        assert_eq!(sub.len(), 3);
        assert!(mapping.contains_key(&c));
        assert!(mapping.contains_key(&d));
        assert!(!mapping.contains_key(&b));
    }

    #[test]
    fn compact_after_detach_shrinks_arena() {
        let (mut t, _, c, _) = sample();
        t.detach(c);
        assert_eq!(t.arena_len(), 4);
        let (compacted, _) = t.compact();
        assert_eq!(compacted.arena_len(), 2);
        assert_eq!(compacted.len(), 2);
    }

    #[test]
    fn subtree_to_tree_is_independent() {
        let (t, _, c, _) = sample();
        let sub = t.subtree_to_tree(c);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.label(sub.root()), "C");
    }

    #[test]
    fn child_label_counts_multiset() {
        let mut t = DataTree::new("A");
        let r = t.root();
        t.add_child(r, "B");
        t.add_child(r, "B");
        t.add_child(r, "C");
        let counts = t.child_label_counts(r);
        assert_eq!(counts.get("B"), Some(&2));
        assert_eq!(counts.get("C"), Some(&1));
        assert_eq!(counts.get("D"), None);
    }

    /// Checks the id order of every arena slot, detached ones included: a
    /// parent's id is below its child's and each children list ascends.
    fn assert_id_order(t: &DataTree) {
        for node in (0..t.arena_len()).map(NodeId::from_index) {
            if let Some(parent) = t.parent(node) {
                assert!(parent < node, "{parent} is the parent of {node}");
            }
            let children = t.children(node);
            assert!(
                children.first().is_none_or(|&first| first > node),
                "{node}'s children start below it: {children:?}"
            );
            assert!(
                children.windows(2).all(|pair| pair[0] < pair[1]),
                "{node}'s children do not ascend: {children:?}"
            );
        }
    }

    #[test]
    fn every_constructor_keeps_ids_ascending_from_parent_to_child() {
        let (mut t, b, c, _) = sample();
        assert_id_order(&t);
        let mut other = DataTree::new("X");
        let x = other.root();
        let y = other.add_child(x, "Y");
        other.add_child(x, "Z");
        other.add_child(y, "W");
        t.graft(b, &other);
        t.graft(t.root(), &other);
        assert_id_order(&t);
        t.detach(c);
        let e = t.add_child(b, "E");
        assert_id_order(&t);
        assert_id_order(&t.compact().0);
        assert_id_order(&t.extract(&|n| n != e).0);
        assert_id_order(&t.subtree_to_tree(b));
    }

    #[test]
    fn preorder_visits_every_reachable_node_once() {
        let (t, _, _, _) = sample();
        let visited: Vec<_> = t.iter().collect();
        assert_eq!(visited.len(), 4);
        let mut dedup = visited.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_node_record_is_56_bytes() {
        // Label and children (24 bytes each) and the parent (8).
        assert_eq!(std::mem::size_of::<NodeData>(), 56);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The parent-chain walk agrees with the traversal from the root on
        /// trees that detach nodes and grow under detached ones.
        #[test]
        fn a_node_is_attached_exactly_when_the_root_reaches_it(tree in tree_strategy(40)) {
            let reached: HashSet<NodeId> = tree.iter().collect();
            for node in (0..tree.arena_len()).map(NodeId::from_index) {
                prop_assert_eq!(tree.is_attached(node), reached.contains(&node), "{}", node);
            }
        }
    }
}
