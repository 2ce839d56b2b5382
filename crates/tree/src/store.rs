//! Hash-consed storage of annotated subtree shapes.
//!
//! A [`NodeStore`] interns immutable *shapes*: a shape is a label, an
//! optional annotation (generic `A` — prob-trees use node conditions), and
//! an ordered list of child shapes. Interning is **syntactic**: two shapes
//! receive the same [`ShapeId`] iff they have equal labels, equal
//! annotations and identical child-id lists (child order preserved, so a
//! shape expands back to exactly the tree it was built from).
//!
//! Shapes form a DAG by construction — a child id is always strictly
//! smaller than its parent's id — so equal subtrees are stored once no
//! matter how many trees or occurrences reference them.
//!
//! The store is **append-only**: a shape, once interned, keeps its id and
//! its interner entry for the store's lifetime, and nothing is released
//! alone. Callers collect garbage by rebuilding a fresh store from the
//! shapes they still reach (`SharedProbTree::compact` upstream).
//!
//! The root of a stored shape conventionally carries **no** annotation
//! (`ann = None`): occurrence-specific data (a copy's root condition)
//! lives on the external handle, which is what lets many occurrences with
//! different root annotations share one stored subtree.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Identifier of a shape inside one [`NodeStore`].
///
/// Like [`NodeId`](crate::NodeId), a `ShapeId` is only meaningful for the
/// store that produced it. Child ids are always strictly smaller than
/// their parent's id, so the stored graph is acyclic by construction.
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
}

/// A hash-consing store of annotated subtree shapes; see the module docs.
#[derive(Clone, Debug)]
pub struct NodeStore<A> {
    nodes: Vec<StoredNode<A>>,
    interner: HashMap<(String, Option<A>, Vec<ShapeId>), ShapeId>,
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

    /// Interns a shape, returning the id shared by every equal shape.
    ///
    /// `ann_weight` is the annotation's contribution to the shape's
    /// [`NodeStore::weight`] (prob-trees pass the literal count); it must
    /// be the same every time an equal annotation is interned.
    ///
    /// # Panics
    /// Panics if a child id is out of bounds.
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
        for &child in children {
            let node = &self.nodes[child.index()];
            size += node.size;
            weight += node.weight;
        }
        let id = ShapeId(self.nodes.len() as u32);
        self.nodes.push(StoredNode {
            label: key.0.clone(),
            ann: key.1.clone(),
            children: key.2.clone(),
            size,
            own_weight: ann_weight,
            weight,
        });
        self.interner.insert(key, id);
        id
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

    /// Number of stored shapes (each a distinct stored node), reachable
    /// or not.
    pub fn num_shapes(&self) -> usize {
        self.nodes.len()
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

    /// Validates the store's representation invariants:
    ///
    /// * **acyclicity** — every child id is strictly smaller than its
    ///   parent's;
    /// * **cached aggregates** — `size` and `weight` match a recomputation
    ///   over the children;
    /// * **interner agreement** — the interner maps exactly the stored
    ///   shapes, each under its own key.
    pub fn validate(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = ShapeId(i as u32);
            let mut size = 1usize;
            let mut weight = node.own_weight;
            for &child in &node.children {
                if child.index() >= i {
                    return Err(format!("store cycle: {id} references {child}"));
                }
                let c = &self.nodes[child.index()];
                size += c.size;
                weight += c.weight;
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
        if self.interner.len() != self.nodes.len() {
            return Err(format!(
                "interner holds {} entries for {} shapes",
                self.interner.len(),
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonical_string, Semantics};
    use crate::DataTree;

    #[test]
    fn equal_shapes_intern_once() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let leaf = store.intern("B", Some(1), 1, &[]);
        let leaf2 = store.intern("B", Some(1), 1, &[]);
        assert_eq!(leaf, leaf2);
        let parent = store.intern("A", None, 0, &[leaf, leaf]);
        assert_eq!(store.size(parent), 3);
        assert_eq!(store.weight(parent), 2);
        assert_eq!(store.num_shapes(), 2);
        store.validate().unwrap();
    }

    #[test]
    fn annotations_distinguish_shapes_but_not_bare_roots() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let a = store.intern("B", Some(1), 1, &[]);
        let b = store.intern("B", Some(2), 1, &[]);
        let bare = store.intern("B", None, 0, &[]);
        assert_ne!(a, b);
        assert_ne!(a, bare);
        store.validate().unwrap();
    }

    #[test]
    fn child_order_is_syntactic_but_expansions_are_isomorphic() {
        let mut store: NodeStore<u8> = NodeStore::new();
        let b = store.intern("B", Some(1), 1, &[]);
        let c = store.intern("C", Some(2), 1, &[]);
        let bc = store.intern("A", None, 0, &[b, c]);
        let cb = store.intern("A", None, 0, &[c, b]);
        assert_ne!(bc, cb, "syntactic ids preserve order");
        let expand = |shape| {
            let mut out = DataTree::new(store.label(shape));
            let mut stack = vec![(shape, out.root())];
            while let Some((s, node)) = stack.pop() {
                for &c in store.children(s) {
                    let child = out.add_child(node, store.label(c));
                    stack.push((c, child));
                }
            }
            out
        };
        assert_eq!(
            canonical_string(&expand(bc), Semantics::MultiSet),
            canonical_string(&expand(cb), Semantics::MultiSet)
        );
        store.validate().unwrap();
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
}
