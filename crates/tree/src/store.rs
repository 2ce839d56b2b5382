//! Hash-consed storage of annotated subtree shapes.
//!
//! A [`NodeStore`] interns immutable *shapes*: a shape is a label, an
//! optional annotation (generic `A` — prob-trees use node conditions), and
//! an ordered list of child shapes. Interning is **syntactic**: two shapes
//! receive the same [`ShapeId`] iff they have equal labels, equal
//! annotations and identical child-id lists (child order preserved, so a
//! shape expands back to exactly the tree it was built from). On top of
//! the syntactic ids the store maintains order-insensitive **canonical
//! codes** (the Aho–Hopcroft–Ullman scheme of [`crate::canon`], extended
//! with annotations): two shapes share a canonical code iff their
//! expansions are isomorphic as annotated unordered trees.
//!
//! Shapes form a DAG by construction — a child id is always strictly
//! smaller than its parent's id — so equal subtrees are stored once no
//! matter how many trees or occurrences reference them. Reference counts
//! track both internal references (each stored parent retains its
//! children once per occurrence) and external handles
//! ([`NodeStore::retain`] / [`NodeStore::release`]); releasing the last
//! reference removes the shape from the interner so its storage can be
//! reclaimed by a compacting rebuild (`ProbTree::compact` upstream).
//!
//! The root of a stored shape conventionally carries **no** annotation
//! (`ann = None`): occurrence-specific data (a copy's root condition)
//! lives on the external handle, which is what lets many occurrences with
//! different root annotations share one stored subtree.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::arena::{DataTree, NodeId};
use crate::canon::AnnotatedCanonInterner;

/// Identifier of a shape inside one [`NodeStore`].
///
/// Like [`NodeId`], a `ShapeId` is only meaningful for the store that
/// produced it. Child ids are always strictly smaller than their parent's
/// id, so the stored graph is acyclic by construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShapeId(u32);

impl ShapeId {
    /// Raw index of the shape in the store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShapeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct StoredNode<A> {
    label: String,
    ann: Option<A>,
    children: Vec<ShapeId>,
    /// Logical nodes of the expansion, including this node.
    size: usize,
    /// Annotation weight of this node alone (as supplied at intern time).
    own_weight: usize,
    /// Total annotation weight of the expansion, including this node.
    weight: usize,
    /// Order-insensitive canonical code (shared with isomorphic shapes).
    canon: u32,
    /// Internal (parent-shape) plus external (handle) references.
    refcount: u32,
    /// `false` once released; dead shapes are interner-unreachable.
    live: bool,
}

/// A hash-consing store of annotated subtree shapes; see the module docs.
#[derive(Clone, Debug)]
pub struct NodeStore<A> {
    nodes: Vec<StoredNode<A>>,
    interner: HashMap<(String, Option<A>, Vec<ShapeId>), ShapeId>,
    canon: AnnotatedCanonInterner<A>,
    live: usize,
}

impl<A: Clone + Eq + Hash> Default for NodeStore<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Clone + Eq + Hash> NodeStore<A> {
    /// Creates an empty store.
    pub fn new() -> Self {
        NodeStore {
            nodes: Vec::new(),
            interner: HashMap::new(),
            canon: AnnotatedCanonInterner::new(),
            live: 0,
        }
    }

    /// Re-interns `shape` with a different root annotation, reusing its
    /// label and children. Converts between *bare* shapes (`ann = None`,
    /// occurrence data on the handle) and *full* shapes (`ann = Some(..)`).
    pub fn with_ann(&mut self, shape: ShapeId, ann: Option<A>, ann_weight: usize) -> ShapeId {
        let label = self.nodes[shape.index()].label.clone();
        let children = self.nodes[shape.index()].children.clone();
        self.intern(&label, ann, ann_weight, &children)
    }

    /// Interns the subtree of `tree` rooted at `node`, bottom-up. The
    /// annotation of every copied node (the root included) is produced by
    /// `ann_of`, which returns the annotation and its weight.
    pub fn intern_tree(
        &mut self,
        tree: &DataTree,
        node: NodeId,
        ann_of: &mut dyn FnMut(NodeId) -> (Option<A>, usize),
    ) -> ShapeId {
        // Post-order via an explicit stack: the second visit of a node pops
        // its children's shape ids off the result stack.
        let mut stack = vec![(node, false)];
        let mut results: Vec<ShapeId> = Vec::new();
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                let arity = tree.children(n).len();
                let children: Vec<ShapeId> = results.split_off(results.len() - arity);
                let (ann, weight) = ann_of(n);
                let id = self.intern(tree.label(n), ann, weight, &children);
                results.push(id);
            } else {
                stack.push((n, true));
                // Push children in reverse so they are *interned* in
                // original order (stored child order is significant for
                // syntactic ids, even though canon codes ignore it).
                for &child in tree.children(n).iter().rev() {
                    stack.push((child, false));
                }
            }
        }
        results
            .pop()
            .expect("intern_tree always produces a root shape")
    }

    /// Interns a shape, returning the id shared by every equal shape.
    ///
    /// `ann_weight` is the annotation's contribution to the shape's
    /// [`NodeStore::weight`] (prob-trees pass the literal count); it must
    /// be the same every time an equal annotation is interned. New shapes
    /// retain each child once per occurrence; an interner hit retains
    /// nothing.
    ///
    /// # Panics
    /// Panics if a child id is dead or out of bounds.
    pub fn intern(
        &mut self,
        label: &str,
        ann: Option<A>,
        ann_weight: usize,
        children: &[ShapeId],
    ) -> ShapeId {
        let key = (label.to_string(), ann, children.to_vec());
        if let Some(&id) = self.interner.get(&key) {
            return id;
        }
        let mut size = 1usize;
        let mut weight = ann_weight;
        let mut child_canons = Vec::with_capacity(children.len());
        for &child in children {
            let node = &self.nodes[child.index()];
            assert!(node.live, "interning a shape over a released child");
            size += node.size;
            weight += node.weight;
            child_canons.push(node.canon);
        }
        let canon = self.canon.intern(label, key.1.as_ref(), child_canons);
        for &child in children {
            self.nodes[child.index()].refcount += 1;
        }
        let id = ShapeId(self.nodes.len() as u32);
        self.nodes.push(StoredNode {
            label: key.0.clone(),
            ann: key.1.clone(),
            children: key.2.clone(),
            size,
            own_weight: ann_weight,
            weight,
            canon,
            refcount: 0,
            live: true,
        });
        self.interner.insert(key, id);
        self.live += 1;
        id
    }

    /// Registers one external reference to `shape`.
    pub fn retain(&mut self, shape: ShapeId) {
        let node = &mut self.nodes[shape.index()];
        assert!(node.live, "retaining a released shape");
        node.refcount += 1;
    }

    /// Drops one reference to `shape`. When the last reference goes, the
    /// shape dies: it leaves the interner (a later equal intern builds a
    /// fresh shape) and recursively releases its children.
    pub fn release(&mut self, shape: ShapeId) {
        let mut stack = vec![shape];
        while let Some(id) = stack.pop() {
            let node = &mut self.nodes[id.index()];
            assert!(node.live, "releasing a dead shape");
            assert!(node.refcount > 0, "releasing an unreferenced shape");
            node.refcount -= 1;
            if node.refcount == 0 {
                node.live = false;
                self.live -= 1;
                let key = (node.label.clone(), node.ann.clone(), node.children.clone());
                stack.extend(node.children.iter().copied());
                self.interner.remove(&key);
            }
        }
    }

    /// The label of a shape's root.
    #[inline]
    pub fn label(&self, shape: ShapeId) -> &str {
        &self.nodes[shape.index()].label
    }

    /// The annotation of a shape's root (`None` for bare roots, whose
    /// occurrence data lives on the external handle).
    #[inline]
    pub fn ann(&self, shape: ShapeId) -> Option<&A> {
        self.nodes[shape.index()].ann.as_ref()
    }

    /// The child shapes, in stored (expansion) order.
    #[inline]
    pub fn children(&self, shape: ShapeId) -> &[ShapeId] {
        &self.nodes[shape.index()].children
    }

    /// Logical nodes of the shape's expansion, including the root.
    #[inline]
    pub fn size(&self, shape: ShapeId) -> usize {
        self.nodes[shape.index()].size
    }

    /// Total annotation weight of the shape's expansion.
    #[inline]
    pub fn weight(&self, shape: ShapeId) -> usize {
        self.nodes[shape.index()].weight
    }

    /// Order-insensitive canonical code: equal iff the expansions are
    /// isomorphic as annotated unordered trees (within this store).
    #[inline]
    pub fn canon_code(&self, shape: ShapeId) -> u32 {
        self.nodes[shape.index()].canon
    }

    /// Current reference count (internal + external).
    #[inline]
    pub fn refcount(&self, shape: ShapeId) -> u32 {
        self.nodes[shape.index()].refcount
    }

    /// Whether the shape is still referenced (or was interned and never
    /// referenced — scratch shapes stay live at refcount 0).
    #[inline]
    pub fn is_live(&self, shape: ShapeId) -> bool {
        self.nodes[shape.index()].live
    }

    /// Number of live shapes (each a distinct stored node).
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Collects the set of shapes reachable from `roots` (inclusive),
    /// each counted once — the *distinct stored nodes* backing those
    /// expansions.
    pub fn reachable_from<I: IntoIterator<Item = ShapeId>>(
        &self,
        roots: I,
    ) -> std::collections::BTreeSet<ShapeId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack: Vec<ShapeId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(self.children(id).iter().copied());
            }
        }
        seen
    }

    /// Expands a shape into an independent [`DataTree`] (labels only; use
    /// [`DataTree::graft_shape`] to expand into an existing tree with
    /// annotation delivery).
    pub fn shape_to_tree(&self, shape: ShapeId) -> DataTree {
        let mut out = DataTree::new(self.label(shape));
        let root = out.root();
        out.graft_shape_children(self, shape, root, &mut |_, _| {});
        out
    }

    /// Validates the store's representation invariants, given the
    /// external reference count per shape (handles held by callers):
    ///
    /// * **acyclicity** — every child id is strictly smaller than its
    ///   parent's;
    /// * **liveness** — live shapes only reference live children;
    /// * **cached aggregates** — `size` and `weight` match a recomputation
    ///   over the children;
    /// * **interner agreement** — the interner maps exactly the live
    ///   shapes, each under its own key;
    /// * **canonical-form agreement** — re-canonizing every live shape
    ///   from scratch partitions them exactly as the cached codes do;
    /// * **refcount consistency** — every live shape's count equals its
    ///   occurrences as a child of live shapes plus its external count.
    pub fn validate(&self, external: &HashMap<ShapeId, usize>) -> Result<(), String> {
        let mut expected: HashMap<ShapeId, usize> = external.clone();
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.live {
                continue;
            }
            let id = ShapeId(i as u32);
            let mut size = 1usize;
            let mut weight = node.own_weight;
            for &child in &node.children {
                if child.index() >= i {
                    return Err(format!("store cycle: {id} references {child}"));
                }
                let c = &self.nodes[child.index()];
                if !c.live {
                    return Err(format!("live shape {id} references dead child {child}"));
                }
                size += c.size;
                weight += c.weight;
                *expected.entry(child).or_insert(0) += 1;
            }
            if size != node.size || weight != node.weight {
                return Err(format!(
                    "stale aggregates on {id}: cached ({}, {}) vs recomputed ({size}, {weight})",
                    node.size, node.weight
                ));
            }
            let key = (node.label.clone(), node.ann.clone(), node.children.clone());
            if self.interner.get(&key) != Some(&id) {
                return Err(format!("interner does not map {id}'s key back to it"));
            }
        }
        if self.interner.len() != self.live {
            return Err(format!(
                "interner holds {} entries for {} live shapes",
                self.interner.len(),
                self.live
            ));
        }
        // Canonical agreement: recompute codes bottom-up (ascending ids
        // visit children first) and demand the same partition.
        let mut fresh = AnnotatedCanonInterner::new();
        let mut recomputed: HashMap<ShapeId, u32> = HashMap::new();
        let mut old_to_new: HashMap<u32, u32> = HashMap::new();
        let mut new_to_old: HashMap<u32, u32> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.live {
                continue;
            }
            let id = ShapeId(i as u32);
            let child_codes: Vec<u32> = node.children.iter().map(|c| recomputed[c]).collect();
            let code = fresh.intern(&node.label, node.ann.as_ref(), child_codes);
            recomputed.insert(id, code);
            let forward = *old_to_new.entry(node.canon).or_insert(code);
            let backward = *new_to_old.entry(code).or_insert(node.canon);
            if forward != code || backward != node.canon {
                return Err(format!(
                    "canonical codes disagree with a fresh canonization at {id}"
                ));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.live {
                continue;
            }
            let id = ShapeId(i as u32);
            let want = expected.get(&id).copied().unwrap_or(0);
            if node.refcount as usize != want {
                return Err(format!(
                    "refcount of {id} is {} but {} references exist",
                    node.refcount, want
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonical_string, Semantics};

    fn no_refs() -> HashMap<ShapeId, usize> {
        HashMap::new()
    }

    #[test]
    fn equal_shapes_intern_once() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let leaf2 = store.intern("B", Some(1), 1, &[]);
        assert_eq!(leaf, leaf2);
        let parent = store.intern("A", None, 0, &[leaf, leaf]);
        assert_eq!(store.size(parent), 3);
        assert_eq!(store.weight(parent), 2);
        assert_eq!(store.num_live(), 2);
        assert_eq!(store.refcount(leaf), 2, "retained once per occurrence");
        store.validate(&no_refs()).unwrap();
    }

    #[test]
    fn annotations_distinguish_shapes_but_not_bare_roots() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let a = store.intern("B", Some(1), 1, &[]);
        let b = store.intern("B", Some(2), 1, &[]);
        let bare = store.intern("B", None, 0, &[]);
        assert_ne!(a, b);
        assert_ne!(a, bare);
        store.validate(&no_refs()).unwrap();
    }

    #[test]
    fn canon_codes_ignore_child_order() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let b = store.intern("B", Some(1), 1, &[]);
        let c = store.intern("C", Some(2), 1, &[]);
        let bc = store.intern("A", None, 0, &[b, c]);
        let cb = store.intern("A", None, 0, &[c, b]);
        assert_ne!(bc, cb, "syntactic ids preserve order");
        assert_eq!(store.canon_code(bc), store.canon_code(cb));
        assert_eq!(
            canonical_string(&store.shape_to_tree(bc), Semantics::MultiSet),
            canonical_string(&store.shape_to_tree(cb), Semantics::MultiSet)
        );
        store.validate(&no_refs()).unwrap();
    }

    #[test]
    fn release_cascades_and_reclaims_interner_entries() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let parent = store.intern("A", None, 0, &[leaf]);
        store.retain(parent);
        assert_eq!(store.num_live(), 2);
        store.release(parent);
        assert_eq!(store.num_live(), 0);
        assert!(!store.is_live(parent));
        assert!(!store.is_live(leaf));
        // A fresh intern of the same key builds a new, larger id.
        let again = store.intern("B", Some(1), 1, &[]);
        assert!(again > leaf);
        store.validate(&no_refs()).unwrap();
    }

    #[test]
    fn shared_children_survive_a_sibling_release() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let p1 = store.intern("A", None, 0, &[leaf]);
        let p2 = store.intern("A", Some(9), 2, &[leaf]);
        store.retain(p1);
        store.retain(p2);
        store.release(p1);
        assert!(!store.is_live(p1));
        assert!(store.is_live(leaf), "still referenced by p2");
        let mut external = HashMap::new();
        external.insert(p2, 1usize);
        store.validate(&external).unwrap();
    }

    #[test]
    fn reachable_counts_distinct_nodes_once() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let mid = store.intern("M", Some(2), 1, &[leaf, leaf]);
        let top = store.intern("A", None, 0, &[mid, mid]);
        let reachable = store.reachable_from([top]);
        assert_eq!(reachable.len(), 3, "leaf, mid, top — each once");
        assert_eq!(store.size(top), 7, "logical expansion: 1 + 2·(1 + 2)");
    }

    #[test]
    fn validate_reports_refcount_drift() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let mut external = HashMap::new();
        external.insert(leaf, 3usize); // claim refs that were never taken
        let err = store.validate(&external).unwrap_err();
        assert!(err.contains("refcount"), "{err}");
    }
}
