//! Arena-backed rooted unordered labeled trees.
//!
//! Nodes live in a `Vec` and are addressed by [`NodeId`]. Structural
//! mutation is limited to adding children and detaching whole subtrees,
//! which is exactly what prob-tree updates need. Detached nodes stay in the
//! arena (their storage is reclaimed only by [`DataTree::compact`]) but are
//! never reached by root-based traversals, so all semantic operations see a
//! consistent tree.

use std::collections::HashMap;
use std::fmt;

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

#[derive(Clone, Debug)]
struct NodeData {
    label: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// `false` once the node has been detached from the tree.
    attached: bool,
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
/// [`SubDataTree::to_tree`](crate::SubDataTree::to_tree) relies on.
#[derive(Clone, Debug)]
pub struct DataTree {
    nodes: Vec<NodeData>,
    root: NodeId,
}

impl DataTree {
    /// Creates a tree consisting of a single root node with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_capacity(label, 1)
    }

    /// [`DataTree::new`] with arena room for `capacity` nodes.
    pub(crate) fn with_capacity(label: impl Into<String>, capacity: usize) -> Self {
        let mut nodes = Vec::with_capacity(capacity.max(1));
        nodes.push(NodeData {
            label: label.into(),
            parent: None,
            children: Vec::new(),
            attached: true,
        });
        DataTree {
            nodes,
            root: NodeId(0),
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

    /// Whether `node` is still reachable from the root.
    pub fn is_attached(&self, node: NodeId) -> bool {
        if !self.nodes[node.index()].attached {
            return false;
        }
        // Walk up: a node is attached iff every ancestor is attached and the
        // walk terminates at the root.
        let mut cur = node;
        loop {
            if cur == self.root {
                return true;
            }
            match self.nodes[cur.index()].parent {
                Some(p) if self.nodes[p.index()].attached => cur = p,
                _ => return false,
            }
        }
    }

    /// Adds a new child with `label` under `parent` and returns its id.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
            attached: true,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Grafts a copy of `other` (the whole tree) as a new child of
    /// `parent`. Returns the id of the copied root and a mapping from
    /// `other`'s node ids to the new ids in `self`.
    pub fn graft(&mut self, parent: NodeId, other: &DataTree) -> (NodeId, HashMap<NodeId, NodeId>) {
        let mut mapping = HashMap::new();
        let new_root = self.add_child(parent, other.label(other.root()));
        mapping.insert(other.root(), new_root);
        // Breadth-first copy preserves parent-before-child ordering.
        let mut queue = vec![other.root()];
        while let Some(src) = queue.pop() {
            let dst = mapping[&src];
            for &child in other.children(src) {
                let new_child = self.add_child(dst, other.label(child));
                mapping.insert(child, new_child);
                queue.push(child);
            }
        }
        (new_root, mapping)
    }

    /// Detaches the subtree rooted at `node` from the tree. The root cannot
    /// be detached. The detached nodes remain in the arena but are excluded
    /// from all root-based traversals.
    ///
    /// # Panics
    /// Panics if `node` is the root.
    pub fn detach(&mut self, node: NodeId) {
        assert!(node != self.root, "cannot detach the root of a data tree");
        if let Some(parent) = self.nodes[node.index()].parent {
            self.nodes[parent.index()].children.retain(|&c| c != node);
        }
        self.nodes[node.index()].parent = None;
        self.nodes[node.index()].attached = false;
    }

    /// Number of nodes reachable from the root.
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
        self.ancestors(node).len()
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
        let mut mapping = HashMap::new();
        mapping.insert(node, out.root());
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let new_parent = mapping[&n];
            for &child in self.children(n) {
                let new_child = out.add_child(new_parent, self.label(child));
                mapping.insert(child, new_child);
                stack.push(child);
            }
        }
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
    use super::*;

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
        let (new_root, mapping) = t.graft(c, &other);
        assert_eq!(t.label(new_root), "X");
        assert_eq!(mapping.len(), 2);
        assert_eq!(t.len(), 6);
        assert_eq!(t.parent(new_root), Some(c));
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
}
