//! Prob-trees with shared children: a hash-consed DAG representation.
//!
//! Logically a [`SharedProbTree`] is a prob-tree, but its
//! *representation* is a DAG: a [`ProbTree`] *spine* plus a hash-consed
//! [`NodeStore`] of subtree shapes, and a node's logical children are its
//! arena children **followed by** its [`SharedChild`] handles — O(1)
//! occurrences of stored shapes. [`SharedProbTree::duplicate_subtree_n`]
//! interns a source subtree once and pushes a handle per copy, so `k`
//! copies of an `m`-node subtree cost `O(m + k)` — `m` distinct stored
//! nodes plus `k` handles, each carrying its own root condition — instead
//! of `O(k·m)` arena nodes.
//! [`UpdateEngine::apply_shared`](crate::update::UpdateEngine::apply_shared)
//! grafts the `1 + 2^n` survivor copies of the paper's Appendix-A family
//! this way: `n + 2` distinct nodes, but `1 + 2^n` conditioned handles,
//! so Theorem 3's exponential output size holds here too.
//!
//! Invariants of the shared representation:
//!
//! * handle shapes are **bare** — the stored root carries no annotation
//!   (`ann = None`); the occurrence's root condition lives on the handle,
//!   which is what lets copies with different root conditions share one
//!   shape. Inner stored nodes carry `Some(γ)` (with `Some(always)` for
//!   the empty condition, keeping bare and empty distinguishable);
//! * mutation is copy-on-write: shapes are immutable, and any operation
//!   that needs arena access below a handle first *faults it in*
//!   ([`SharedProbTree::fault_in`]), expanding the shape back into arena
//!   nodes;
//! * grafting under a node with handles faults the handles in first, so
//!   the logical child order (arena then shared) always equals the
//!   temporal insertion order — expansions render byte-identically to
//!   deep copies;
//! * the store is append-only: faulting a handle in or detaching its
//!   node releases nothing, so a subtree interned again gets its old id
//!   back. [`SharedProbTree::compact`] is the one collector — it
//!   re-interns the shapes the handles still reach into a fresh store.
//!
//! Everything else — queries, world folds, simplification, documents —
//! takes a plain [`ProbTree`]; [`SharedProbTree::expand`] produces one.

use std::collections::HashMap;

use pxml_events::Condition;
use pxml_tree::{DataTree, NodeId, NodeStore, ShapeId};

use crate::probtree::{MemoryStats, ProbTree};

/// One shared occurrence of a stored subtree: a copy-on-write child
/// handle. The shape is *bare* (its stored root has no annotation); the
/// occurrence's root condition is carried here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedChild {
    /// The stored shape this occurrence expands to.
    pub shape: ShapeId,
    /// Condition `γ` of the occurrence's root.
    pub condition: Condition,
}

/// A prob-tree whose nodes may hold shared children; see the module docs.
#[derive(Clone, Debug)]
pub struct SharedProbTree {
    /// The arena nodes, their conditions and the event table.
    spine: ProbTree,
    /// Hash-consed shapes backing the shared children.
    store: NodeStore<Condition>,
    /// Shared children per arena node, in insertion order; a node's
    /// logical children are its arena children followed by these.
    handles: HashMap<NodeId, Vec<SharedChild>>,
}

impl From<ProbTree> for SharedProbTree {
    /// A shared representation of `spine` that shares nothing yet.
    fn from(spine: ProbTree) -> Self {
        SharedProbTree {
            spine,
            store: NodeStore::new(),
            handles: HashMap::new(),
        }
    }
}

impl SharedProbTree {
    /// The arena part: every node that is not inside a shared child.
    pub fn spine(&self) -> &ProbTree {
        &self.spine
    }

    /// Mutable access to the spine for the update engine, which declares
    /// events and detaches nodes through it. Arena children must not be
    /// added under a node that holds handles this way:
    /// [`SharedProbTree::graft_data_tree`] faults them in first.
    pub(crate) fn spine_mut(&mut self) -> &mut ProbTree {
        &mut self.spine
    }

    /// The logical prob-tree: a copy of the spine with every reachable
    /// handle expanded into arena nodes, in logical child order. Node ids
    /// of the spine are kept.
    pub fn expand(&self) -> ProbTree {
        let mut tree = self.spine.clone();
        for node in self.spine.tree().iter() {
            for handle in self.shared_children(node) {
                graft_handle(&mut tree, &self.store, node, handle);
            }
        }
        tree
    }

    /// Duplicates the subtree rooted at `node` (which must belong to this
    /// tree and be reachable) as `k` new logical children of `parent`, one
    /// per condition in `root_conditions`, each with the copy's root
    /// condition replaced by that condition.
    ///
    /// This is **copy-on-write**: the subtree is interned into the node
    /// store once (hash-consing dedupes it against everything already
    /// stored) and each copy is an O(1) [`SharedChild`] handle, so the
    /// `1 + 2^n` survivor copies of an Appendix-A deletion cost one shape
    /// chain plus `1 + 2^n` handles. Update deletions replace a target
    /// with survivor copies taken from the **evolving** tree (so that
    /// splits already applied to nested targets are preserved); the handle
    /// snapshot has the same effect, since shapes are immutable.
    pub fn duplicate_subtree_n(
        &mut self,
        parent: NodeId,
        node: NodeId,
        root_conditions: &[Condition],
    ) {
        if root_conditions.is_empty() {
            return;
        }
        let shape = intern_subtree(&self.spine, &self.handles, node, &mut self.store);
        self.handles
            .entry(parent)
            .or_default()
            .extend(root_conditions.iter().map(|condition| SharedChild {
                shape,
                condition: condition.clone(),
            }));
    }

    /// Grafts a copy of a plain data tree under `parent`, as
    /// [`ProbTree::graft_data_tree`] does. Shared children of `parent`
    /// are faulted in first, so the logical child order stays the
    /// temporal insertion order.
    pub fn graft_data_tree(
        &mut self,
        parent: NodeId,
        subtree: &DataTree,
        root_condition: Condition,
    ) -> NodeId {
        self.fault_in(parent);
        self.spine.graft_data_tree(parent, subtree, root_condition)
    }

    /// Materializes the shared children of `node` as arena nodes (in
    /// handle order, after the existing arena children). Their shapes stay
    /// in the store. No-op for nodes without handles.
    pub fn fault_in(&mut self, node: NodeId) {
        for handle in self.handles.remove(&node).unwrap_or_default() {
            graft_handle(&mut self.spine, &self.store, node, &handle);
        }
    }

    /// Shared children of `node`, in insertion order (after its arena
    /// children in the logical child order). Empty for fully materialized
    /// nodes.
    pub fn shared_children(&self, node: NodeId) -> &[SharedChild] {
        self.handles.get(&node).map_or(&[], Vec::as_slice)
    }

    /// The hash-consed shape store backing the shared children.
    pub fn store(&self) -> &NodeStore<Condition> {
        &self.store
    }

    /// Whether any reachable node has shared children. O(1) on a tree
    /// without handle entries; otherwise a walk of the spine.
    pub fn has_shared(&self) -> bool {
        !self.handles.is_empty()
            && self
                .spine
                .tree()
                .iter()
                .any(|n| !self.shared_children(n).is_empty())
    }

    /// Number of **logical** nodes: reachable arena nodes plus the full
    /// expansion of every shared child.
    pub fn num_nodes(&self) -> usize {
        self.memory_stats().logical_nodes
    }

    /// Total number of literals over all logical nodes: arena conditions,
    /// handle root conditions and the stored annotations each handle
    /// expands to.
    pub fn num_literals(&self) -> usize {
        self.memory_stats().logical_literals
    }

    /// The size `|T|` of the logical prob-tree: nodes + literals.
    pub fn size(&self) -> usize {
        let stats = self.memory_stats();
        stats.logical_nodes + stats.logical_literals
    }

    /// Memory accounting of the shared representation: logical size
    /// versus physically stored nodes, and the resulting dedup ratio.
    /// One walk over the spine.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut arena_nodes = 0usize;
        let mut logical_nodes = 0usize;
        let mut logical_literals = 0usize;
        let mut shared_occurrences = 0usize;
        let mut roots: Vec<ShapeId> = Vec::new();
        for n in self.spine.tree().iter() {
            arena_nodes += 1;
            logical_nodes += 1;
            logical_literals += self.spine.condition_ref(n).map_or(0, Condition::len);
            let entries = self.shared_children(n);
            shared_occurrences += entries.len();
            for h in entries {
                logical_nodes += self.store.size(h.shape);
                logical_literals += h.condition.len() + self.store.weight(h.shape);
                roots.push(h.shape);
            }
        }
        let distinct_shapes = self.store.reachable_from(roots).len();
        MemoryStats {
            logical_nodes,
            distinct_nodes: arena_nodes + distinct_shapes,
            logical_literals,
            shared_occurrences,
        }
    }

    /// Rebuilds the tree with a compact spine (see [`ProbTree::compact`])
    /// and a garbage-collected node store: the shapes the surviving
    /// handles reach are re-interned into a fresh store, the rest are
    /// dropped.
    pub fn compact(&self) -> SharedProbTree {
        let (spine, mapping) = self.spine.compact();
        let mut store = NodeStore::new();
        let mut memo: HashMap<ShapeId, ShapeId> = HashMap::new();
        let mut handles: HashMap<NodeId, Vec<SharedChild>> = HashMap::new();
        for (old, entries) in &self.handles {
            if let Some(new) = mapping.get(old) {
                let moved: Vec<SharedChild> = entries
                    .iter()
                    .map(|h| SharedChild {
                        shape: reintern_shape(&self.store, &mut store, &mut memo, h.shape),
                        condition: h.condition.clone(),
                    })
                    .collect();
                handles.insert(*new, moved);
            }
        }
        SharedProbTree {
            spine,
            store,
            handles,
        }
    }

    /// Validates the spine ([`ProbTree::validate_invariants`]) and the
    /// DAG store: every handle references a **bare** shape of the store
    /// whose conditions reference declared events, and the store itself
    /// passes [`NodeStore::validate`] (acyclicity, cached sizes and
    /// weights, interner agreement). Handles under detached nodes linger
    /// until [`SharedProbTree::compact`], so every handle entry is
    /// checked.
    pub fn validate_invariants(&self) -> Result<(), String> {
        self.spine.validate_invariants()?;
        let events = self.spine.events();
        for h in self.handles.values().flatten() {
            if h.shape.index() >= self.store.num_shapes() {
                return Err(format!("handle references {} outside the store", h.shape));
            }
            if self.store.ann(h.shape).is_some() {
                return Err(format!(
                    "handle shape {} is not bare (stored root carries a condition)",
                    h.shape
                ));
            }
            for shape in self.store.reachable_from([h.shape]) {
                if let Some(c) = self.store.ann(shape) {
                    for event in c.events() {
                        if event.index() >= events.len() {
                            return Err(format!(
                                "stored shape {shape} references undeclared event index {}",
                                event.index()
                            ));
                        }
                    }
                }
            }
        }
        self.store
            .validate()
            .map_err(|e| format!("node store: {e}"))
    }

    /// ASCII rendering of the expansion ([`ProbTree::to_ascii`]):
    /// byte-identical to the deep-copy representation.
    pub fn to_ascii(&self) -> String {
        self.expand().to_ascii()
    }
}

/// Expands `handle` as a new last child of `parent` in `tree`, creating
/// its nodes in pre-order: the handle's condition goes on the copy's
/// root, each stored annotation on its node. Returns the copy's root.
fn graft_handle(
    tree: &mut ProbTree,
    store: &NodeStore<Condition>,
    parent: NodeId,
    handle: &SharedChild,
) -> NodeId {
    let root = tree.add_child(parent, store.label(handle.shape), handle.condition.clone());
    // Children of one node are pushed in reverse so they are created in
    // stored order.
    let below =
        |shape: ShapeId, node: NodeId| store.children(shape).iter().rev().map(move |&c| (c, node));
    let mut stack: Vec<(ShapeId, NodeId)> = below(handle.shape, root).collect();
    while let Some((shape, parent)) = stack.pop() {
        let condition = store.ann(shape).cloned().unwrap_or_default();
        let node = tree.add_child(parent, store.label(shape), condition);
        stack.extend(below(shape, node));
    }
    root
}

/// Interns the subtree rooted at `node` of `spine`, with the shared
/// children `handles` give it, into `store` as a *bare* shape: inner
/// nodes carry `Some(γ)` (`Some(always)` when empty), the root carries
/// `None` so occurrences can attach their own condition. Handle shapes
/// must already live in `store`.
fn intern_subtree(
    spine: &ProbTree,
    handles: &HashMap<NodeId, Vec<SharedChild>>,
    node: NodeId,
    store: &mut NodeStore<Condition>,
) -> ShapeId {
    let tree = spine.tree();
    let mut stack = vec![(node, false)];
    let mut results: Vec<ShapeId> = Vec::new();
    while let Some((n, expanded)) = stack.pop() {
        if expanded {
            let arity = tree.children(n).len();
            let mut children: Vec<ShapeId> = results.split_off(results.len() - arity);
            // Shared children follow the arena children, converted to
            // full shapes by pushing the handle condition down onto the
            // stored root.
            for h in handles.get(&n).into_iter().flatten() {
                let weight = h.condition.len();
                children.push(store.with_ann(h.shape, Some(h.condition.clone()), weight));
            }
            let (ann, weight) = if n == node {
                (None, 0)
            } else {
                let c = spine.condition(n);
                let weight = c.len();
                (Some(c), weight)
            };
            results.push(store.intern(tree.label(n), ann, weight, &children));
        } else {
            stack.push((n, true));
            for &child in tree.children(n).iter().rev() {
                stack.push((child, false));
            }
        }
    }
    results
        .pop()
        .expect("subtree interning produces a root shape")
}

/// Translates a shape from `src` into `dst`, memoized, preserving labels,
/// annotations and stored child order. [`SharedProbTree::compact`]
/// collects garbage this way.
fn reintern_shape(
    src: &NodeStore<Condition>,
    dst: &mut NodeStore<Condition>,
    memo: &mut HashMap<ShapeId, ShapeId>,
    shape: ShapeId,
) -> ShapeId {
    if let Some(&done) = memo.get(&shape) {
        return done;
    }
    let mut stack = vec![(shape, false)];
    while let Some((s, expanded)) = stack.pop() {
        if memo.contains_key(&s) {
            continue;
        }
        if expanded {
            let children: Vec<ShapeId> = src.children(s).iter().map(|c| memo[c]).collect();
            let ann = src.ann(s).cloned();
            let weight = ann.as_ref().map_or(0, Condition::len);
            let new = dst.intern(src.label(s), ann, weight, &children);
            memo.insert(s, new);
        } else {
            stack.push((s, true));
            for &c in src.children(s).iter().rev() {
                stack.push((c, false));
            }
        }
    }
    memo[&shape]
}

/// Cross-document dedup accounting: interns every document into one fresh
/// shared [`NodeStore`] and reports the corpus' logical size against the
/// distinct nodes that store ends up holding. Equal subtrees *across*
/// documents (e.g. the unedited regions of warehouse snapshots) collapse
/// to shared shapes, so the ratio measures how much a corpus-wide store
/// would save.
pub fn corpus_memory_stats(docs: &[&ProbTree]) -> MemoryStats {
    let mut store: NodeStore<Condition> = NodeStore::new();
    let no_handles = HashMap::new();
    let mut logical_nodes = 0;
    let mut logical_literals = 0;
    for doc in docs {
        intern_subtree(doc, &no_handles, doc.tree().root(), &mut store);
        let stats = doc.memory_stats();
        logical_nodes += stats.logical_nodes;
        logical_literals += stats.logical_literals;
    }
    MemoryStats {
        logical_nodes,
        distinct_nodes: store.num_shapes(),
        logical_literals,
        shared_occurrences: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use pxml_events::Literal;

    /// The Figure 1 example as a shared tree, with its `C` node.
    fn figure1_with_c() -> (SharedProbTree, NodeId) {
        let t = figure1_example();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        (SharedProbTree::from(t), c)
    }

    #[test]
    fn duplicate_subtree_replaces_root_condition() {
        let (mut t, c_node) = figure1_with_c();
        let w1 = t.spine().events().by_name("w1").unwrap();
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c_node, &[Condition::of(Literal::pos(w1))]);
        let copy = &t.shared_children(root)[0];
        assert_eq!(copy.condition, Condition::of(Literal::pos(w1)));
        assert_eq!(t.num_nodes(), 6, "C and D copied (logically)");
        // A second copy with an empty condition shares the same shape.
        t.duplicate_subtree_n(root, c_node, &[Condition::always()]);
        let shared = t.shared_children(root);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].shape, shared[1].shape, "hash-consed");
        assert_eq!(shared[1].condition, Condition::always());
        assert_eq!(t.num_nodes(), 8, "two copies of the 2-node C subtree");
        t.validate_invariants().unwrap();
    }

    #[test]
    fn duplicate_subtree_copies_conditions_in_place() {
        let (mut t, c) = figure1_with_c();
        let w1 = t.spine().events().by_name("w1").unwrap();
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c, &[Condition::of(Literal::pos(w1))]);
        assert_eq!(t.num_nodes(), 6, "C and D copied");
        // Fault the copy in and check the conditions were carried over.
        t.fault_in(root);
        assert!(t.shared_children(root).is_empty());
        assert_eq!(t.num_nodes(), 6, "logical size unchanged by fault-in");
        let spine = t.spine();
        let copy = *spine.tree().children(root).last().unwrap();
        assert_eq!(spine.tree().label(copy), "C");
        assert_eq!(spine.condition(copy), Condition::of(Literal::pos(w1)));
        let copied_d = spine.tree().children(copy)[0];
        assert_eq!(spine.tree().label(copied_d), "D");
        assert_eq!(
            spine.condition(copied_d).len(),
            1,
            "D keeps its w2 condition"
        );
        // The original subtree is untouched.
        assert_eq!(spine.condition(c), Condition::always());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn shared_and_deep_copies_render_identically() {
        let (mut shared, c) = figure1_with_c();
        let mut deep = figure1_example();
        let w1 = deep.events().by_name("w1").unwrap();
        let root = deep.tree().root();
        shared.duplicate_subtree_n(root, c, &[Condition::of(Literal::pos(w1))]);
        shared.duplicate_subtree_n(root, c, &[Condition::of(Literal::neg(w1))]);
        deep.duplicate_subtree_deep(root, c, Condition::of(Literal::pos(w1)));
        deep.duplicate_subtree_deep(root, c, Condition::of(Literal::neg(w1)));
        assert_eq!(shared.to_ascii(), deep.to_ascii());
        assert_eq!(shared.num_nodes(), deep.num_nodes());
        assert_eq!(shared.num_literals(), deep.num_literals());
        shared.validate_invariants().unwrap();
        deep.validate_invariants().unwrap();
    }

    #[test]
    fn duplicating_a_subtree_containing_handles_stays_consistent() {
        let (mut t, c) = figure1_with_c();
        let w1 = t.spine().events().by_name("w1").unwrap();
        // Put a shared copy of D under C, then duplicate C itself: the
        // interned C shape must absorb the handle.
        let d = t.spine().tree().children(c)[0];
        t.duplicate_subtree_n(c, d, &[Condition::of(Literal::neg(w1))]);
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c, &[Condition::of(Literal::pos(w1))]);
        assert_eq!(t.num_nodes(), 4 + 1 + 3, "D copy + 3-node C copy");
        t.validate_invariants().unwrap();
        let expanded = t.expand();
        assert_eq!(expanded.to_ascii(), t.to_ascii());
        assert_eq!(expanded.num_nodes(), t.num_nodes());
        expanded.validate_invariants().unwrap();
    }

    #[test]
    fn graft_data_tree_faults_in_existing_handles_first() {
        let (mut t, c) = figure1_with_c();
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c, &[Condition::always()]);
        assert!(t.has_shared());
        let e = t.graft_data_tree(root, &DataTree::new("E"), Condition::always());
        assert!(!t.has_shared(), "handles expanded before the new child");
        let kids = t.spine().tree().children(root);
        assert_eq!(*kids.last().unwrap(), e, "E comes after the expansion");
        t.validate_invariants().unwrap();
    }

    #[test]
    fn memory_stats_count_logical_vs_distinct() {
        let (mut t, c) = figure1_with_c();
        let root = t.spine().tree().root();
        let conds: Vec<Condition> = vec![Condition::always(); 5];
        t.duplicate_subtree_n(root, c, &conds);
        let stats = t.memory_stats();
        assert_eq!(stats.logical_nodes, 4 + 5 * 2);
        // 4 arena nodes + 2 distinct shapes (bare C, full D).
        assert_eq!(stats.distinct_nodes, 4 + 2);
        assert_eq!(stats.shared_occurrences, 5);
        assert!(stats.dedup_ratio() > 2.0);
        t.validate_invariants().unwrap();
    }

    #[test]
    fn compact_garbage_collects_the_store() {
        let (mut t, c) = figure1_with_c();
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c, &[Condition::always()]);
        // Detach the original C; its nodes die, the shared copy lives.
        t.spine_mut().detach(c);
        let compacted = t.compact();
        compacted.validate_invariants().unwrap();
        assert_eq!(compacted.num_nodes(), 4, "A, B and the shared C copy");
        assert!(compacted.has_shared());
        assert_eq!(compacted.store().num_shapes(), 2, "bare C and full D only");
    }

    #[test]
    fn interning_after_a_fault_in_reuses_stored_shapes() {
        let (mut t, c) = figure1_with_c();
        let root = t.spine().tree().root();
        t.duplicate_subtree_n(root, c, &[Condition::always()]);
        let shape = t.shared_children(root)[0].shape;
        t.fault_in(root);
        assert!(!t.has_shared());
        t.duplicate_subtree_n(root, c, &[Condition::always()]);
        assert_eq!(t.shared_children(root)[0].shape, shape);
        t.validate_invariants().unwrap();
    }
}
