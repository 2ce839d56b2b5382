//! Probabilistic trees (Definition 2 of the paper).
//!
//! A prob-tree `T = (t, W, π, γ)` is a data tree `t` together with a finite
//! set of event variables `W`, a probability distribution `π` over `W`, and
//! a function `γ` assigning a condition (conjunction of literals over `W`)
//! to every non-root node. The root carries no condition.
//!
//! # Representation: hash-consed DAG with copy-on-write duplication
//!
//! Logically a prob-tree is a tree, but its *representation* is a DAG:
//! alongside the arena ([`DataTree`]) every prob-tree owns a hash-consed
//! [`NodeStore`] of subtree shapes, and a node's logical children are its
//! arena children **followed by** its [`SharedChild`] handles — O(1)
//! occurrences of stored shapes. [`ProbTree::duplicate_subtree`] (the
//! workhorse of update deletions, which materialize `1 + 2^n` survivor
//! copies on the paper's Appendix-A family) interns the source subtree
//! once and pushes a handle per copy, so `k` copies of an `m`-node subtree
//! cost `O(m + k)` distinct stored nodes instead of `O(k·m)`.
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
//!   ([`ProbTree::fault_in`]), expanding the shape back into arena nodes;
//! * adding an arena child under a node with handles faults the handles
//!   in first, so the logical child order (arena then shared) always
//!   equals the temporal insertion order — expansions render byte-
//!   identically to deep copies;
//! * the store's refcounts count one reference per handle plus one per
//!   stored parent occurrence; [`ProbTree::compact`] garbage-collects
//!   dead shapes by re-interning the reachable ones into a fresh store.

use std::borrow::Cow;
use std::collections::HashMap;

use pxml_events::{Condition, EventTable, Valuation};
use pxml_tree::render::to_ascii_annotated;
use pxml_tree::{DataTree, NodeId, NodeStore, ShapeId};

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

/// Memory accounting of the DAG representation; see
/// [`ProbTree::memory_stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryStats {
    /// Nodes of the logical tree (what [`ProbTree::num_nodes`] reports).
    pub logical_nodes: usize,
    /// Physically stored nodes: attached arena nodes plus distinct live
    /// shapes reachable from the handles.
    pub distinct_nodes: usize,
    /// Literals of the logical tree ([`ProbTree::num_literals`]).
    pub logical_literals: usize,
    /// Shared occurrences (total handle count under reachable nodes).
    pub shared_occurrences: usize,
    /// Live shapes in the node store (reachable handles' shapes plus any
    /// garbage awaiting [`ProbTree::compact`]).
    pub store_live_shapes: usize,
}

impl MemoryStats {
    /// Logical over distinct nodes — `1.0` when nothing is shared, large
    /// on blow-up families (e.g. ~`2^n / n` on the Appendix-A family).
    pub fn dedup_ratio(&self) -> f64 {
        self.logical_nodes as f64 / self.distinct_nodes.max(1) as f64
    }
}

/// A probabilistic tree (prob-tree).
#[derive(Clone, Debug)]
pub struct ProbTree {
    tree: DataTree,
    events: EventTable,
    /// Condition of every non-root node; nodes absent from the map carry
    /// the empty (always-true) condition.
    conditions: HashMap<NodeId, Condition>,
    /// Hash-consed shapes backing the shared (copy-on-write) children.
    store: NodeStore<Condition>,
    /// Shared children per arena node, in insertion order; a node's
    /// logical children are its arena children followed by these.
    handles: HashMap<NodeId, Vec<SharedChild>>,
}

impl ProbTree {
    /// Creates a prob-tree consisting of a single root node with `label`
    /// and no event variables.
    pub fn new(label: impl Into<String>) -> Self {
        ProbTree {
            tree: DataTree::new(label),
            events: EventTable::new(),
            conditions: HashMap::new(),
            store: NodeStore::new(),
            handles: HashMap::new(),
        }
    }

    /// Wraps an existing data tree as a prob-tree with no conditions (every
    /// node certain) and the given event table.
    pub fn from_data_tree(tree: DataTree, events: EventTable) -> Self {
        ProbTree {
            tree,
            events,
            conditions: HashMap::new(),
            store: NodeStore::new(),
            handles: HashMap::new(),
        }
    }

    /// The underlying data tree `t`.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The event table `(W, π)`.
    pub fn events(&self) -> &EventTable {
        &self.events
    }

    /// Mutable access to the event table (used to declare event variables).
    pub fn events_mut(&mut self) -> &mut EventTable {
        &mut self.events
    }

    /// The condition `γ(node)`; the root and unannotated nodes carry the
    /// empty condition.
    pub fn condition(&self, node: NodeId) -> Condition {
        self.conditions.get(&node).cloned().unwrap_or_default()
    }

    /// Borrowing variant of [`ProbTree::condition`]: `None` for the root
    /// and unannotated nodes (which carry the empty condition). Lets bulk
    /// consumers — e.g. the per-answer condition unions of the query
    /// engine — walk `γ` without cloning a literal vector per node.
    pub fn condition_ref(&self, node: NodeId) -> Option<&Condition> {
        self.conditions.get(&node)
    }

    /// Sets the condition of a non-root node.
    ///
    /// # Panics
    /// Panics if `node` is the root (the root carries no condition,
    /// Definition 2).
    pub fn set_condition(&mut self, node: NodeId, condition: Condition) {
        assert!(
            node != self.tree.root(),
            "the root of a prob-tree carries no condition"
        );
        if condition.is_empty() {
            self.conditions.remove(&node);
        } else {
            self.conditions.insert(node, condition);
        }
    }

    /// Adds a child node with the given label and condition; returns its id.
    ///
    /// If `parent` has shared children they are faulted in first, so the
    /// logical child order stays the temporal insertion order.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        condition: Condition,
    ) -> NodeId {
        self.fault_in(parent);
        let id = self.tree.add_child(parent, label);
        if !condition.is_empty() {
            self.conditions.insert(id, condition);
        }
        id
    }

    /// Grafts a copy of a plain data tree under `parent`, assigning
    /// `root_condition` to the copied root (inner nodes get the empty
    /// condition). Returns the id of the copied root.
    pub fn graft_data_tree(
        &mut self,
        parent: NodeId,
        subtree: &DataTree,
        root_condition: Condition,
    ) -> NodeId {
        self.fault_in(parent);
        let (new_root, _) = self.tree.graft(parent, subtree);
        if !root_condition.is_empty() {
            self.conditions.insert(new_root, root_condition);
        }
        new_root
    }

    /// Duplicates the subtree rooted at `node` (which must belong to this
    /// tree and be reachable) as a new logical child of `parent`, with the
    /// copy's root condition replaced by `root_condition`.
    ///
    /// This is **copy-on-write**: the subtree is interned into the node
    /// store once (hash-consing dedupes it against everything already
    /// stored) and the copy is an O(1) [`SharedChild`] handle. Update
    /// deletions replace a target with survivor copies taken from the
    /// **evolving** tree (so that splits already applied to nested targets
    /// are preserved); the handle snapshot has the same effect, since
    /// shapes are immutable.
    pub fn duplicate_subtree(&mut self, parent: NodeId, node: NodeId, root_condition: Condition) {
        self.duplicate_subtree_n(parent, node, std::slice::from_ref(&root_condition));
    }

    /// [`ProbTree::duplicate_subtree`] amortized over `k` copies: interns
    /// the source subtree once and pushes one handle per condition, so the
    /// `1 + 2^n` survivor copies of an Appendix-A deletion cost one shape
    /// chain plus `1 + 2^n` O(1) handles.
    pub fn duplicate_subtree_n(
        &mut self,
        parent: NodeId,
        node: NodeId,
        root_conditions: &[Condition],
    ) {
        let shape = self.intern_subtree_shape(node);
        let entries = self.handles.entry(parent).or_default();
        for condition in root_conditions {
            self.store.retain(shape);
            entries.push(SharedChild {
                shape,
                condition: condition.clone(),
            });
        }
    }

    /// The deep-copy variant of [`ProbTree::duplicate_subtree`], kept as
    /// the property-tested oracle for the shared representation: the copy
    /// is materialized as fresh arena nodes and its root id is returned.
    /// Shared children inside the source subtree are faulted in first.
    pub fn duplicate_subtree_deep(
        &mut self,
        parent: NodeId,
        node: NodeId,
        root_condition: Condition,
    ) -> NodeId {
        self.fault_in_subtree(node);
        self.fault_in(parent);
        // Snapshot the subtree before mutating: `descendants` is a DFS
        // pre-order, so every node appears after its parent.
        let nodes: Vec<NodeId> = self.tree.descendants(node);
        let snapshot: Vec<(NodeId, Option<NodeId>, String, Condition)> = nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    self.tree.parent(n),
                    self.tree.label(n).to_string(),
                    self.condition(n),
                )
            })
            .collect();
        let mut mapping: HashMap<NodeId, NodeId> = HashMap::with_capacity(snapshot.len());
        let mut new_root = parent; // overwritten by the first iteration
        for (old, old_parent, label, condition) in snapshot {
            let (new_parent, condition) = if old == node {
                (parent, root_condition.clone())
            } else {
                let p = old_parent.expect("non-root subtree nodes have a parent");
                (mapping[&p], condition)
            };
            let new = self.tree.add_child(new_parent, label);
            if !condition.is_empty() {
                self.conditions.insert(new, condition);
            }
            mapping.insert(old, new);
            if old == node {
                new_root = new;
            }
        }
        new_root
    }

    /// Interns the (arena + shared) subtree rooted at `node` as a *bare*
    /// shape: inner nodes carry `Some(γ)` (`Some(always)` when empty), the
    /// root carries `None` so occurrences can attach their own condition.
    fn intern_subtree_shape(&mut self, node: NodeId) -> ShapeId {
        let mut stack = vec![(node, false)];
        let mut results: Vec<ShapeId> = Vec::new();
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                let arity = self.tree.children(n).len();
                let mut children: Vec<ShapeId> = results.split_off(results.len() - arity);
                // Shared children follow the arena children, converted to
                // full shapes by pushing the handle condition down onto
                // the stored root.
                if let Some(entries) = self.handles.get(&n) {
                    let converted: Vec<(ShapeId, Condition)> = entries
                        .iter()
                        .map(|h| (h.shape, h.condition.clone()))
                        .collect();
                    for (shape, condition) in converted {
                        let weight = condition.len();
                        children.push(self.store.with_ann(shape, Some(condition), weight));
                    }
                }
                let (ann, weight) = if n == node {
                    (None, 0)
                } else {
                    let c = self.condition(n);
                    let weight = c.len();
                    (Some(c), weight)
                };
                let label = self.tree.label(n).to_string();
                results.push(self.store.intern(&label, ann, weight, &children));
            } else {
                stack.push((n, true));
                for &child in self.tree.children(n).iter().rev() {
                    stack.push((child, false));
                }
            }
        }
        results
            .pop()
            .expect("subtree interning produces a root shape")
    }

    /// Detaches the subtree rooted at `node` (cannot be the root).
    pub fn detach(&mut self, node: NodeId) {
        self.tree.detach(node);
        // Conditions and handles of detached nodes become garbage. The
        // next `expand_all` releases the handles' shapes; the next
        // `compact` drops the rest.
    }

    /// Number of **logical** nodes: reachable arena nodes plus the full
    /// expansion of every shared child.
    pub fn num_nodes(&self) -> usize {
        self.tree
            .iter()
            .map(|n| {
                1 + self.handles.get(&n).map_or(0, |hs| {
                    hs.iter().map(|h| self.store.size(h.shape)).sum::<usize>()
                })
            })
            .sum()
    }

    /// Total number of literals over all logical nodes. Together with
    /// [`ProbTree::num_nodes`], this is the size measure `|T|` used by
    /// Proposition 2 and Theorems 3–5.
    pub fn num_literals(&self) -> usize {
        self.tree
            .iter()
            .map(|n| {
                self.conditions.get(&n).map_or(0, Condition::len)
                    + self.handles.get(&n).map_or(0, |hs| {
                        hs.iter()
                            .map(|h| h.condition.len() + self.store.weight(h.shape))
                            .sum::<usize>()
                    })
            })
            .sum()
    }

    /// The size `|T|` of the prob-tree: nodes + literals.
    pub fn size(&self) -> usize {
        self.num_nodes() + self.num_literals()
    }

    /// Union of the conditions on the strict ancestors of `node`
    /// (`cond_ancestors` in Appendix A).
    pub fn ancestor_condition(&self, node: NodeId) -> Condition {
        let mut acc = Condition::always();
        for anc in self.tree.ancestors(node) {
            acc = acc.and(&self.condition(anc));
        }
        acc
    }

    /// Union of the conditions on `node` and all its strict ancestors — the
    /// condition under which `node` is present in a possible world.
    pub fn path_condition(&self, node: NodeId) -> Condition {
        self.condition(node).and(&self.ancestor_condition(node))
    }

    /// The value `V(T)` of the prob-tree in the world described by
    /// `valuation` (Definition 4): the subtree of `t` where every node whose
    /// condition is violated has been removed together with its
    /// descendants. Works directly on the shared representation — shapes
    /// are filtered without being faulted in.
    pub fn value_in_world(&self, valuation: &Valuation) -> DataTree {
        let root = self.tree.root();
        let mut out = DataTree::new(self.tree.label(root));
        let mut stack: Vec<(NodeId, NodeId)> = vec![(root, out.root())];
        while let Some((src, dst)) = stack.pop() {
            for &child in self.tree.children(src) {
                if self
                    .conditions
                    .get(&child)
                    .is_none_or(|c| c.eval(valuation))
                {
                    let nd = out.add_child(dst, self.tree.label(child));
                    stack.push((child, nd));
                }
            }
            if let Some(entries) = self.handles.get(&src) {
                for h in entries {
                    if h.condition.eval(valuation) {
                        self.shape_value_into(&mut out, dst, h.shape, valuation);
                    }
                }
            }
        }
        out
    }

    /// Expands the world-restricted value of a stored shape under `parent`
    /// (the occurrence's root condition has already been checked).
    fn shape_value_into(
        &self,
        out: &mut DataTree,
        parent: NodeId,
        shape: ShapeId,
        valuation: &Valuation,
    ) {
        let root = out.add_child(parent, self.store.label(shape));
        let mut stack = vec![(shape, root)];
        while let Some((s, nd)) = stack.pop() {
            for &c in self.store.children(s) {
                let kept = self.store.ann(c).is_none_or(|cond| cond.eval(valuation));
                if kept {
                    let cn = out.add_child(nd, self.store.label(c));
                    stack.push((c, cn));
                }
            }
        }
    }

    /// Rebuilds the prob-tree with a compact arena (dropping detached
    /// nodes) and a garbage-collected node store (reachable shapes are
    /// re-interned; dead ones are dropped). Conditions and handles are
    /// carried over. Returns the new prob-tree and the old→new node
    /// mapping.
    pub fn compact(&self) -> (ProbTree, HashMap<NodeId, NodeId>) {
        let (tree, mapping) = self.tree.compact();
        // Conditions and handles are sparse: walk them, not the mapping.
        let mut conditions = HashMap::with_capacity(self.conditions.len());
        for (old, c) in &self.conditions {
            if let Some(new) = mapping.get(old) {
                if !c.is_empty() {
                    conditions.insert(*new, c.clone());
                }
            }
        }
        let mut store = NodeStore::new();
        let mut memo: HashMap<ShapeId, ShapeId> = HashMap::new();
        let mut handles: HashMap<NodeId, Vec<SharedChild>> = HashMap::new();
        for (old, entries) in &self.handles {
            if let Some(new) = mapping.get(old) {
                if entries.is_empty() {
                    continue;
                }
                let moved: Vec<SharedChild> = entries
                    .iter()
                    .map(|h| {
                        let shape = reintern_shape(&self.store, &mut store, &mut memo, h.shape);
                        store.retain(shape);
                        SharedChild {
                            shape,
                            condition: h.condition.clone(),
                        }
                    })
                    .collect();
                handles.insert(*new, moved);
            }
        }
        (
            ProbTree {
                tree,
                events: self.events.clone(),
                conditions,
                store,
                handles,
            },
            mapping,
        )
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
    /// without handle entries, which [`ProbTree::expand_all`] leaves
    /// behind (every document frame); otherwise a walk of the tree.
    pub fn has_shared(&self) -> bool {
        !self.handles.is_empty()
            && self
                .tree
                .iter()
                .any(|n| self.handles.get(&n).is_some_and(|hs| !hs.is_empty()))
    }

    /// Materializes the shared children of `node` as arena nodes (in
    /// handle order, after the existing arena children), releasing their
    /// shapes. No-op for nodes without handles.
    pub fn fault_in(&mut self, node: NodeId) {
        let Some(entries) = self.handles.remove(&node) else {
            return;
        };
        let conditions = &mut self.conditions;
        for h in entries {
            let new_root = self
                .tree
                .graft_shape(node, &self.store, h.shape, &mut |nd, ann| {
                    if let Some(c) = ann {
                        if !c.is_empty() {
                            conditions.insert(nd, c.clone());
                        }
                    }
                });
            if !h.condition.is_empty() {
                conditions.insert(new_root, h.condition);
            }
            self.store.release(h.shape);
        }
    }

    /// Faults in every handle in the subtree rooted at `node` (expanded
    /// nodes never carry handles, so one pass suffices).
    pub fn fault_in_subtree(&mut self, node: NodeId) {
        for n in self.tree.descendants(node) {
            self.fault_in(n);
        }
    }

    /// Fully materializes the tree: faults in every reachable handle, then
    /// releases the handles left under detached nodes, so no handle entry
    /// remains and [`ProbTree::has_shared`] is O(1) afterwards. O(1) on a
    /// tree without handles.
    pub fn expand_all(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        let root = self.tree.root();
        self.fault_in_subtree(root);
        for h in std::mem::take(&mut self.handles).into_values().flatten() {
            self.store.release(h.shape);
        }
    }

    /// A fully materialized view of this prob-tree: borrows `self` when
    /// nothing is shared, otherwise clones and expands. Consumers that
    /// traverse the arena directly go through this.
    pub fn expanded(&self) -> Cow<'_, ProbTree> {
        if self.has_shared() {
            let mut full = self.clone();
            full.expand_all();
            Cow::Owned(full)
        } else {
            Cow::Borrowed(self)
        }
    }

    /// Every condition of the logical tree (arena conditions, handle root
    /// conditions, and the annotations of each handle's reachable shapes),
    /// without materializing anything. Empty conditions are skipped. The
    /// world engines use this to collect relevant events.
    pub fn all_conditions(&self) -> Vec<&Condition> {
        let mut out = Vec::new();
        for n in self.tree.iter() {
            if let Some(c) = self.conditions.get(&n) {
                out.push(c);
            }
            if let Some(entries) = self.handles.get(&n) {
                for h in entries {
                    if !h.condition.is_empty() {
                        out.push(&h.condition);
                    }
                    for s in self.store.reachable_from([h.shape]) {
                        if let Some(c) = self.store.ann(s) {
                            if !c.is_empty() {
                                out.push(c);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Memory accounting of the shared representation: logical size
    /// versus physically stored nodes, and the resulting dedup ratio.
    /// One walk over the arena.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut arena_nodes = 0usize;
        let mut logical_nodes = 0usize;
        let mut logical_literals = 0usize;
        let mut shared_occurrences = 0usize;
        let mut roots: Vec<ShapeId> = Vec::new();
        for n in self.tree.iter() {
            arena_nodes += 1;
            logical_nodes += 1;
            logical_literals += self.conditions.get(&n).map_or(0, Condition::len);
            if let Some(entries) = self.handles.get(&n) {
                shared_occurrences += entries.len();
                for h in entries {
                    logical_nodes += self.store.size(h.shape);
                    logical_literals += h.condition.len() + self.store.weight(h.shape);
                    roots.push(h.shape);
                }
            }
        }
        let distinct_shapes = self.store.reachable_from(roots).len();
        MemoryStats {
            logical_nodes,
            distinct_nodes: arena_nodes + distinct_shapes,
            logical_literals,
            shared_occurrences,
            store_live_shapes: self.store.num_live(),
        }
    }

    /// Interns the **whole** logical tree into an external store as a full
    /// shape (the root is bare, matching its condition-free status), after
    /// translating this tree's own shapes into `store`. Hash-consing in a
    /// store shared by several documents dedupes equal subtrees across
    /// them; see [`corpus_memory_stats`].
    pub fn intern_into(&self, store: &mut NodeStore<Condition>) -> ShapeId {
        let mut memo: HashMap<ShapeId, ShapeId> = HashMap::new();
        let mut stack = vec![(self.tree.root(), false)];
        let mut results: Vec<ShapeId> = Vec::new();
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                let arity = self.tree.children(n).len();
                let mut children: Vec<ShapeId> = results.split_off(results.len() - arity);
                if let Some(entries) = self.handles.get(&n) {
                    for h in entries {
                        let bare = reintern_shape(&self.store, store, &mut memo, h.shape);
                        let weight = h.condition.len();
                        children.push(store.with_ann(bare, Some(h.condition.clone()), weight));
                    }
                }
                let (ann, weight) = if n == self.tree.root() {
                    (None, 0)
                } else {
                    let c = self.condition(n);
                    let weight = c.len();
                    (Some(c), weight)
                };
                results.push(store.intern(self.tree.label(n), ann, weight, &children));
            } else {
                stack.push((n, true));
                for &child in self.tree.children(n).iter().rev() {
                    stack.push((child, false));
                }
            }
        }
        results
            .pop()
            .expect("document interning produces a root shape")
    }

    /// Validates the representation invariants of the prob-tree,
    /// returning a description of the first violation found:
    ///
    /// * arena consistency over the **reachable** nodes — every child
    ///   points back to its parent and every non-root node appears in its
    ///   parent's child list (conditions of detached nodes legitimately
    ///   linger until [`ProbTree::compact`] and are not checked);
    /// * the root carries no condition and stored conditions are
    ///   non-empty (Definition 2 plus the "empty conditions are never
    ///   stored" convention);
    /// * condition support ⊆ declared events — every literal references
    ///   an event the table declares;
    /// * probability mass bounds — `π(w) ∈ (0, 1]` for every event;
    /// * DAG-store consistency — every handle references a live **bare**
    ///   shape whose conditions reference declared events, and the store
    ///   itself passes [`NodeStore::validate`] (acyclicity, refcounts
    ///   matching the handle census, cached sizes, and agreement of the
    ///   cached canonical codes with a from-scratch canonization).
    ///
    /// Intended for `debug_assert!`-style use in tests and property
    /// suites; it walks the whole tree, so hot paths should not call it.
    pub fn validate_invariants(&self) -> Result<(), String> {
        let root = self.tree.root();
        for node in self.tree.iter() {
            for &child in self.tree.children(node) {
                if self.tree.parent(child) != Some(node) {
                    return Err(format!(
                        "arena inconsistency: child {child:?} of {node:?} does not point back"
                    ));
                }
            }
            if node != root {
                let Some(parent) = self.tree.parent(node) else {
                    return Err(format!("reachable non-root node {node:?} has no parent"));
                };
                if !self.tree.children(parent).contains(&node) {
                    return Err(format!(
                        "arena inconsistency: {node:?} missing from the child list of {parent:?}"
                    ));
                }
            }
            if let Some(condition) = self.conditions.get(&node) {
                if node == root {
                    return Err("the root carries a condition".to_string());
                }
                if condition.is_empty() {
                    return Err(format!("empty condition stored for {node:?}"));
                }
                for event in condition.events() {
                    if event.index() >= self.events.len() {
                        return Err(format!(
                            "condition of {node:?} references undeclared event index {}",
                            event.index()
                        ));
                    }
                }
            }
        }
        for event in self.events.iter() {
            let p = self.events.prob(event);
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!(
                    "event {} has probability {p} outside (0, 1]",
                    self.events.name(event)
                ));
            }
        }
        // DAG-store checks. Handles under detached nodes legitimately
        // linger until `expand_all` or `compact`, but they still hold
        // references, so the external census covers *every* handle entry.
        let mut external: HashMap<ShapeId, usize> = HashMap::new();
        for entries in self.handles.values() {
            for h in entries {
                if !self.store.is_live(h.shape) {
                    return Err(format!("handle references dead shape {}", h.shape));
                }
                if self.store.ann(h.shape).is_some() {
                    return Err(format!(
                        "handle shape {} is not bare (stored root carries a condition)",
                        h.shape
                    ));
                }
                *external.entry(h.shape).or_insert(0) += 1;
            }
        }
        for entries in self.handles.values() {
            for h in entries {
                for shape in self.store.reachable_from([h.shape]) {
                    if let Some(c) = self.store.ann(shape) {
                        for event in c.events() {
                            if event.index() >= self.events.len() {
                                return Err(format!(
                                    "stored shape {shape} references undeclared event index {}",
                                    event.index()
                                ));
                            }
                        }
                    }
                }
            }
        }
        self.store
            .validate(&external)
            .map_err(|e| format!("node store: {e}"))?;
        Ok(())
    }

    /// ASCII rendering with conditions shown next to node labels, e.g.
    /// `B  [w1 ∧ ¬w2]`. Shared children render exactly as their expansion
    /// would (byte-identical to the deep-copy representation).
    pub fn to_ascii(&self) -> String {
        let full = self.expanded();
        let full = full.as_ref();
        to_ascii_annotated(&full.tree, &|node| {
            let cond = full.condition(node);
            if cond.is_empty() {
                String::new()
            } else {
                format!("  [{}]", cond.display(&full.events))
            }
        })
    }
}

/// Translates a shape from `src` into `dst`, memoized, preserving labels,
/// annotations and stored child order. Used by [`ProbTree::compact`] (GC
/// into a fresh store) and [`ProbTree::intern_into`] (cross-document
/// dedup into a shared store).
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
    let mut logical_nodes = 0;
    let mut logical_literals = 0;
    let mut shared_occurrences = 0;
    for doc in docs {
        doc.intern_into(&mut store);
        logical_nodes += doc.num_nodes();
        logical_literals += doc.num_literals();
        shared_occurrences += doc
            .tree()
            .iter()
            .map(|n| doc.shared_children(n).len())
            .sum::<usize>();
    }
    MemoryStats {
        logical_nodes,
        distinct_nodes: store.num_live(),
        logical_literals,
        shared_occurrences,
        store_live_shapes: store.num_live(),
    }
}

/// Builds the paper's Figure 1 example prob-tree (used pervasively by
/// tests, examples and the E1 experiment).
pub fn figure1_example() -> ProbTree {
    let mut t = ProbTree::new("A");
    let w1 = t.events_mut().insert("w1", 0.8);
    let w2 = t.events_mut().insert("w2", 0.7);
    let root = t.tree().root();
    t.add_child(
        root,
        "B",
        Condition::from_literals([pxml_events::Literal::pos(w1), pxml_events::Literal::neg(w2)]),
    );
    let c = t.add_child(root, "C", Condition::always());
    t.add_child(c, "D", Condition::of(pxml_events::Literal::pos(w2)));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_events::Literal;
    use pxml_tree::canon::{canonical_string, Semantics};

    #[test]
    fn condition_ref_agrees_with_condition() {
        let t = figure1_example();
        for node in t.tree().iter() {
            match t.condition_ref(node) {
                Some(c) => assert_eq!(c, &t.condition(node)),
                None => assert!(t.condition(node).is_empty()),
            }
        }
        assert!(t.condition_ref(t.tree().root()).is_none());
    }

    #[test]
    fn figure1_structure() {
        let t = figure1_example();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_literals(), 3);
        assert_eq!(t.size(), 7);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn root_condition_is_rejected() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.set_condition(root, Condition::of(Literal::pos(w)));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn value_in_world_matches_figure2() {
        let t = figure1_example();
        let w1 = t.events().by_name("w1").unwrap();
        let w2 = t.events().by_name("w2").unwrap();

        // V = {w1}: B kept (w1 ∧ ¬w2 holds), C kept, D removed.
        let v = Valuation::from_true_events(2, [w1]);
        let world = t.value_in_world(&v);
        assert_eq!(
            canonical_string(&world, Semantics::MultiSet),
            canonical_string(
                &pxml_tree::builder::TreeSpec::node(
                    "A",
                    vec![
                        pxml_tree::builder::TreeSpec::leaf("B"),
                        pxml_tree::builder::TreeSpec::leaf("C")
                    ]
                )
                .build(),
                Semantics::MultiSet
            )
        );

        // V = {w2}: B removed, C and D kept.
        let v = Valuation::from_true_events(2, [w2]);
        let world = t.value_in_world(&v);
        assert_eq!(world.len(), 3);

        // V = {}: only A and C remain.
        let v = Valuation::empty(2);
        let world = t.value_in_world(&v);
        assert_eq!(world.len(), 2);
    }

    #[test]
    fn descendants_of_removed_nodes_are_removed() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        // C has no condition of its own but hangs below B.
        t.add_child(b, "C", Condition::always());
        let world = t.value_in_world(&Valuation::empty(1));
        assert_eq!(world.len(), 1, "B false removes C as well");
    }

    #[test]
    fn path_and_ancestor_conditions() {
        let t = figure1_example();
        let d = t.tree().iter().find(|&n| t.tree().label(n) == "D").unwrap();
        let w2 = t.events().by_name("w2").unwrap();
        assert_eq!(t.ancestor_condition(d), Condition::always());
        assert_eq!(t.path_condition(d), Condition::of(Literal::pos(w2)));
    }

    #[test]
    fn duplicate_subtree_replaces_root_condition() {
        let mut t = figure1_example();
        let w1 = t.events().by_name("w1").unwrap();
        let c_node = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        t.duplicate_subtree(root, c_node, Condition::of(Literal::pos(w1)));
        let copy = &t.shared_children(root)[0];
        assert_eq!(copy.condition, Condition::of(Literal::pos(w1)));
        assert_eq!(t.num_nodes(), 6, "C and D copied (logically)");
        // A second copy with an empty condition shares the same shape.
        t.duplicate_subtree(root, c_node, Condition::always());
        let shared = t.shared_children(root);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].shape, shared[1].shape, "hash-consed");
        assert_eq!(shared[1].condition, Condition::always());
        assert_eq!(t.num_nodes(), 8, "two copies of the 2-node C subtree");
        t.validate_invariants().unwrap();
    }

    #[test]
    fn duplicate_subtree_copies_conditions_in_place() {
        let mut t = figure1_example();
        let w1 = t.events().by_name("w1").unwrap();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        t.duplicate_subtree(root, c, Condition::of(Literal::pos(w1)));
        assert_eq!(t.num_nodes(), 6, "C and D copied");
        // Fault the copy in and check the conditions were carried over.
        t.fault_in(root);
        assert!(t.shared_children(root).is_empty());
        assert_eq!(t.num_nodes(), 6, "logical size unchanged by fault-in");
        let copy = *t.tree().children(root).last().unwrap();
        assert_eq!(t.tree().label(copy), "C");
        assert_eq!(t.condition(copy), Condition::of(Literal::pos(w1)));
        let copied_d = t.tree().children(copy)[0];
        assert_eq!(t.tree().label(copied_d), "D");
        assert_eq!(t.condition(copied_d).len(), 1, "D keeps its w2 condition");
        // The original subtree is untouched.
        assert_eq!(t.condition(c), Condition::always());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn shared_and_deep_copies_render_identically() {
        let mut shared = figure1_example();
        let mut deep = figure1_example();
        let w1 = shared.events().by_name("w1").unwrap();
        let find_c = |t: &ProbTree| t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let (cs, cd) = (find_c(&shared), find_c(&deep));
        let root = shared.tree().root();
        shared.duplicate_subtree(root, cs, Condition::of(Literal::pos(w1)));
        shared.duplicate_subtree(root, cs, Condition::of(Literal::neg(w1)));
        deep.duplicate_subtree_deep(root, cd, Condition::of(Literal::pos(w1)));
        deep.duplicate_subtree_deep(root, cd, Condition::of(Literal::neg(w1)));
        assert_eq!(shared.to_ascii(), deep.to_ascii());
        assert_eq!(shared.num_nodes(), deep.num_nodes());
        assert_eq!(shared.num_literals(), deep.num_literals());
        shared.validate_invariants().unwrap();
        deep.validate_invariants().unwrap();
    }

    #[test]
    fn duplicating_a_subtree_containing_handles_stays_consistent() {
        let mut t = figure1_example();
        let w1 = t.events().by_name("w1").unwrap();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        // Put a shared copy of D under C, then duplicate C itself: the
        // interned C shape must absorb the handle.
        let d = t.tree().children(c)[0];
        t.duplicate_subtree(c, d, Condition::of(Literal::neg(w1)));
        let root = t.tree().root();
        t.duplicate_subtree(root, c, Condition::of(Literal::pos(w1)));
        assert_eq!(t.num_nodes(), 4 + 1 + 3, "D copy + 3-node C copy");
        t.validate_invariants().unwrap();
        let mut expanded = t.clone();
        expanded.expand_all();
        assert_eq!(expanded.to_ascii(), t.to_ascii());
        expanded.validate_invariants().unwrap();
    }

    #[test]
    fn add_child_faults_in_existing_handles_first() {
        let mut t = figure1_example();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        t.duplicate_subtree(root, c, Condition::always());
        assert!(t.has_shared());
        let e = t.add_child(root, "E", Condition::always());
        assert!(!t.has_shared(), "handles expanded before the new child");
        let kids = t.tree().children(root);
        assert_eq!(*kids.last().unwrap(), e, "E comes after the expansion");
        t.validate_invariants().unwrap();
    }

    #[test]
    fn memory_stats_count_logical_vs_distinct() {
        let mut t = figure1_example();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
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
        let mut t = figure1_example();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        t.duplicate_subtree(root, c, Condition::always());
        // Detach the original C; its nodes die, the shared copy lives.
        t.detach(c);
        let (compacted, _) = t.compact();
        compacted.validate_invariants().unwrap();
        assert_eq!(compacted.num_nodes(), 4, "A, B and the shared C copy");
        assert!(compacted.has_shared());
        let stats = compacted.memory_stats();
        assert_eq!(stats.store_live_shapes, 2, "bare C and full D only");
    }

    #[test]
    fn corpus_interning_dedupes_across_documents() {
        let a = figure1_example();
        let b = figure1_example();
        let stats = corpus_memory_stats(&[&a, &b]);
        assert_eq!(stats.logical_nodes, 8);
        // Both documents collapse onto one stored shape chain: bare root
        // A, full B, full C, full D.
        assert_eq!(stats.distinct_nodes, 4);
        assert!((stats.dedup_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn value_in_world_sees_through_handles() {
        let mut t = figure1_example();
        let w2 = t.events().by_name("w2").unwrap();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        t.duplicate_subtree(root, c, Condition::of(Literal::pos(w2)));
        let deep = t.expanded().into_owned();
        for bits in 0u32..4 {
            let v = Valuation::from_true_events(
                2,
                [
                    t.events().by_name("w1").unwrap(),
                    t.events().by_name("w2").unwrap(),
                ]
                .into_iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, e)| e),
            );
            assert_eq!(
                canonical_string(&t.value_in_world(&v), Semantics::MultiSet),
                canonical_string(&deep.value_in_world(&v), Semantics::MultiSet),
                "world {bits} must agree between shared and expanded"
            );
        }
    }

    #[test]
    fn compact_drops_detached_conditions() {
        let mut t = figure1_example();
        let b = t.tree().iter().find(|&n| t.tree().label(n) == "B").unwrap();
        t.detach(b);
        let (compacted, _) = t.compact();
        assert_eq!(compacted.num_nodes(), 3);
        assert_eq!(compacted.num_literals(), 1); // only D's w2 remains
    }

    #[test]
    fn ascii_rendering_shows_conditions() {
        let t = figure1_example();
        let text = t.to_ascii();
        assert!(text.contains("B  [w1 ∧ ¬w2]"));
        assert!(text.contains("D  [w2]"));
        assert!(text.lines().next().unwrap().trim() == "A");
    }

    #[test]
    fn setting_empty_condition_clears_annotation() {
        let mut t = figure1_example();
        let b = t.tree().iter().find(|&n| t.tree().label(n) == "B").unwrap();
        t.set_condition(b, Condition::always());
        assert_eq!(t.num_literals(), 1);
    }

    #[test]
    fn invariants_hold_on_figure1_and_after_edits() {
        let mut t = figure1_example();
        t.validate_invariants().unwrap();
        let b = t.tree().iter().find(|&n| t.tree().label(n) == "B").unwrap();
        t.detach(b);
        // Detached conditions linger until compact — still valid.
        t.validate_invariants().unwrap();
        let (compacted, _) = t.compact();
        compacted.validate_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_dangling_event_references() {
        // A condition over an event id the table never declared.
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::of(Literal::pos(pxml_events::EventId::from_index(3))),
        );
        let err = t.validate_invariants().unwrap_err();
        assert!(err.contains("undeclared event"), "{err}");
    }
}
