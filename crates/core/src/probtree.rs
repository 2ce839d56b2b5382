//! Probabilistic trees (Definition 2 of the paper).
//!
//! A prob-tree `T = (t, W, π, γ)` is a data tree `t` together with a finite
//! set of event variables `W`, a probability distribution `π` over `W`, and
//! a function `γ` assigning a condition (conjunction of literals over `W`)
//! to every non-root node. The root carries no condition.
//!
//! [`ProbTree`] is exactly that: an arena ([`DataTree`]), an event table
//! and one condition per annotated node. Every document frame, query,
//! world fold, update and simplification works on it, and it stores every
//! node, so a deletion's output has the size Theorem 3 proves it can need.
//! [`shape_census`] counts how many of a set of trees' subtrees are equal.
//!
//! All three parts are copy-on-write [`Pages`]: cloning a prob-tree and
//! dropping one cost O(pages), and an update step copies only the pages it
//! writes, so consecutive document frames share the rest.

use std::collections::HashMap;

use pxml_events::{Condition, EventTable, Valuation};
use pxml_tree::render::to_ascii_annotated;
use pxml_tree::{AnnotatedCanonInterner, DataTree, NodeId, Pages};

/// Memory accounting of a prob-tree; see [`ProbTree::memory_stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryStats {
    /// Nodes reachable from the root (what [`ProbTree::num_nodes`]
    /// reports).
    pub logical_nodes: usize,
    /// Stored nodes. A prob-tree stores every reachable node once, so
    /// this equals `logical_nodes`; perfbench's `document.distinct_nodes`
    /// counter still reads it.
    pub distinct_nodes: usize,
    /// Literals of the reachable nodes ([`ProbTree::num_literals`]).
    pub logical_literals: usize,
}

/// Logical nodes against distinct annotated shapes over a set of
/// prob-trees; see [`shape_census`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeCensus {
    /// Nodes reachable from the roots, summed over the trees.
    pub logical_nodes: usize,
    /// Distinct annotated shapes among those nodes: two nodes, in one tree
    /// or in two, count once when they have the same label, the same
    /// condition and the same multiset of child shapes.
    pub distinct_shapes: usize,
}

/// Counts the distinct annotated subtree shapes of `trees` together. Each
/// tree is walked in reverse pre-order, children before their parent, and
/// every node is interned into one [`AnnotatedCanonInterner`]
/// under its label, its condition ([`ProbTree::condition_ref`]) and its
/// children's codes. The count says how much a store that kept equal
/// subtrees once would save; a [`ProbTree`] stores every node.
pub fn shape_census(trees: &[&ProbTree]) -> ShapeCensus {
    let mut interner = AnnotatedCanonInterner::new();
    let mut logical_nodes = 0;
    for tree in trees {
        let data = tree.tree();
        let order: Vec<NodeId> = data.iter().collect();
        let mut codes = vec![0u32; data.arena_len()];
        for &node in order.iter().rev() {
            let label = interner.label(data.label(node));
            let condition = interner.annotation(tree.condition_ref(node));
            let children = data.children(node).iter().map(|c| codes[c.index()]);
            let code = interner.intern(label, condition, children);
            codes[node.index()] = code;
        }
        logical_nodes += order.len();
    }
    ShapeCensus {
        logical_nodes,
        distinct_shapes: interner.distinct_shapes(),
    }
}

/// A probabilistic tree (prob-tree).
#[derive(Clone, Debug)]
pub struct ProbTree {
    tree: DataTree,
    events: EventTable,
    /// Condition of every node, indexed by id: `None` is the empty
    /// (always-true) condition, which is never stored, and ids past the
    /// column's end carry it too.
    conditions: Pages<Option<Condition>>,
}

impl ProbTree {
    /// Creates a prob-tree consisting of a single root node with `label`
    /// and no event variables.
    pub fn new(label: impl Into<String>) -> Self {
        ProbTree::from_data_tree(DataTree::new(label), EventTable::new())
    }

    /// Wraps an existing data tree as a prob-tree with no conditions (every
    /// node certain) and the given event table.
    pub fn from_data_tree(tree: DataTree, events: EventTable) -> Self {
        ProbTree {
            tree,
            events,
            conditions: Pages::new(),
        }
    }

    /// The underlying data tree `t`.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// Builds label postings over the arena; see
    /// [`DataTree::index_labels`].
    pub(crate) fn index_labels(&mut self) {
        self.tree.index_labels();
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
        self.condition_ref(node).cloned().unwrap_or_default()
    }

    /// Borrowing variant of [`ProbTree::condition`]: `None` for the root
    /// and unannotated nodes (which carry the empty condition). Lets bulk
    /// consumers — e.g. the per-answer condition unions of the query
    /// engine — walk `γ` without cloning a literal vector per node.
    #[inline]
    pub fn condition_ref(&self, node: NodeId) -> Option<&Condition> {
        self.conditions.get(node.index()).and_then(Option::as_ref)
    }

    /// Stores the non-empty `condition` of `node`, growing the column
    /// with empty conditions up to it.
    fn store_condition(&mut self, node: NodeId, condition: Condition) {
        debug_assert!(!condition.is_empty());
        let index = node.index();
        if index < self.conditions.len() {
            *self.conditions.make_mut(index) = Some(condition);
            return;
        }
        while self.conditions.len() < index {
            self.conditions.push(None);
        }
        self.conditions.push(Some(condition));
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
        if !condition.is_empty() {
            self.store_condition(node, condition);
        } else if self.condition_ref(node).is_some() {
            *self.conditions.make_mut(node.index()) = None;
        }
    }

    /// Adds a child node with the given label and condition; returns its id.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        condition: Condition,
    ) -> NodeId {
        let id = self.tree.add_child(parent, label);
        if !condition.is_empty() {
            self.store_condition(id, condition);
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
        let new_root = self.tree.graft(parent, subtree);
        if !root_condition.is_empty() {
            self.store_condition(new_root, root_condition);
        }
        new_root
    }

    /// Deep copies of the subtree rooted at `node` under `parent`, one for
    /// each of `root_conditions`, in order: copy `i` carries
    /// `root_conditions[i]` on its root, and its arena nodes follow those of
    /// copy `i - 1`. The subtree is read once, before the first copy, so
    /// every copy replicates it as it was when the call began. The roots
    /// of the copies are returned in order. Update deletions and the
    /// sibling-cover merge copy this way, each once per template.
    pub fn duplicate_subtree_deep(
        &mut self,
        parent: NodeId,
        node: NodeId,
        root_conditions: impl IntoIterator<Item = Condition>,
    ) -> Vec<NodeId> {
        // `descendants` is a DFS pre-order, so every node appears after its
        // parent, whose position in the list each entry records.
        let nodes = self.tree.descendants(node);
        let position: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let template: Vec<(usize, String, Option<Condition>)> = nodes
            .iter()
            .map(|&n| {
                let up = self.tree.parent(n).and_then(|p| position.get(&p).copied());
                (
                    up.unwrap_or(0),
                    self.tree.label(n).to_string(),
                    self.condition_ref(n).cloned(),
                )
            })
            .collect();
        let mut copy: Vec<NodeId> = Vec::with_capacity(template.len());
        root_conditions
            .into_iter()
            .map(|root_condition| {
                copy.clear();
                for (i, (up, label, condition)) in template.iter().enumerate() {
                    let (under, condition) = if i == 0 {
                        (parent, Some(&root_condition))
                    } else {
                        (copy[*up], condition.as_ref())
                    };
                    let id = self.tree.add_child(under, label.as_str());
                    if let Some(condition) = condition.filter(|c| !c.is_empty()) {
                        self.store_condition(id, condition.clone());
                    }
                    copy.push(id);
                }
                copy[0]
            })
            .collect()
    }

    /// Detaches the subtree rooted at `node` (cannot be the root).
    pub fn detach(&mut self, node: NodeId) {
        self.tree.detach(node);
        // Conditions of detached nodes become garbage until the next
        // `compact`.
    }

    /// Number of nodes reachable from the root. It walks the tree
    /// ([`DataTree::len`]), so it costs O(reachable nodes).
    pub fn num_nodes(&self) -> usize {
        self.tree.len()
    }

    /// Total number of literals over all reachable nodes. Together with
    /// [`ProbTree::num_nodes`], this is the size measure `|T|` used by
    /// Proposition 2 and Theorems 3–5.
    pub fn num_literals(&self) -> usize {
        self.tree
            .iter()
            .map(|n| self.condition_ref(n).map_or(0, Condition::len))
            .sum()
    }

    /// The size `|T|` of the prob-tree: nodes + literals.
    pub fn size(&self) -> usize {
        self.num_nodes() + self.num_literals()
    }

    /// Union of the conditions on the strict ancestors of `node`
    /// (`cond_ancestors` in Appendix A).
    pub fn ancestor_condition(&self, node: NodeId) -> Condition {
        let ancestors = self.tree.ancestors(node);
        Condition::union_of(ancestors.iter().filter_map(|&a| self.condition_ref(a)))
    }

    /// The value `V(T)` of the prob-tree in the world described by
    /// `valuation` (Definition 4): the subtree of `t` where every node whose
    /// condition is violated has been removed together with its
    /// descendants.
    pub fn value_in_world(&self, valuation: &Valuation) -> DataTree {
        let root = self.tree.root();
        let mut out = DataTree::new(self.tree.label(root));
        let mut stack: Vec<(NodeId, NodeId)> = vec![(root, out.root())];
        while let Some((src, dst)) = stack.pop() {
            for &child in self.tree.children(src) {
                if self.condition_ref(child).is_none_or(|c| c.eval(valuation)) {
                    let nd = out.add_child(dst, self.tree.label(child));
                    stack.push((child, nd));
                }
            }
        }
        out
    }

    /// Rebuilds the prob-tree with a compact arena, dropping detached
    /// nodes and their conditions. Returns the new prob-tree and the
    /// old→new node mapping.
    pub fn compact(&self) -> (ProbTree, HashMap<NodeId, NodeId>) {
        let (tree, mapping) = self.tree.compact();
        let mut column = vec![None; tree.arena_len()];
        for (old, condition) in self.conditions.iter().enumerate() {
            if let (Some(c), Some(new)) = (condition, mapping.get(&NodeId::from_index(old))) {
                column[new.index()] = Some(c.clone());
            }
        }
        while column.last().is_some_and(Option::is_none) {
            column.pop();
        }
        let conditions = column.into_iter().collect();
        (
            ProbTree {
                tree,
                events: self.events.clone(),
                conditions,
            },
            mapping,
        )
    }

    /// Pages of this frame's arena, condition column and event table that
    /// `base` does not hold (see [`Pages::unshared_pages`]). A frame an
    /// update step derived from `base` shares every page the step did not
    /// write, so a one-fact commit reports a constant whatever the
    /// document's size.
    pub fn unshared_pages(&self, base: &ProbTree) -> usize {
        self.tree.unshared_pages(&base.tree)
            + self.conditions.unshared_pages(&base.conditions)
            + self.events.unshared_pages(&base.events)
    }

    /// Every non-empty condition of a reachable node. The world engines
    /// use this to collect relevant events.
    pub fn all_conditions(&self) -> Vec<&Condition> {
        self.tree
            .iter()
            .filter_map(|n| self.condition_ref(n))
            .collect()
    }

    /// Memory accounting in one walk: every node is stored once, so the
    /// distinct count equals the logical one.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut nodes = 0usize;
        let mut literals = 0usize;
        for n in self.tree.iter() {
            nodes += 1;
            literals += self.condition_ref(n).map_or(0, Condition::len);
        }
        MemoryStats {
            logical_nodes: nodes,
            distinct_nodes: nodes,
            logical_literals: literals,
        }
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
    ///   stored" convention), and the condition column is no longer than
    ///   the arena;
    /// * condition support ⊆ declared events — every literal references
    ///   an event the table declares;
    /// * probability mass bounds — `π(w) ∈ (0, 1]` for every event.
    ///
    /// Intended for `debug_assert!`-style use in tests and property
    /// suites; it walks the whole tree, so hot paths should not call it.
    pub fn validate_invariants(&self) -> Result<(), String> {
        let root = self.tree.root();
        if self.conditions.len() > self.tree.arena_len() {
            return Err(format!(
                "{} conditions stored for an arena of {} nodes",
                self.conditions.len(),
                self.tree.arena_len()
            ));
        }
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
            if let Some(condition) = self.condition_ref(node) {
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
        Ok(())
    }

    /// ASCII rendering with conditions shown next to node labels, e.g.
    /// `B  [w1 ∧ ¬w2]`.
    pub fn to_ascii(&self) -> String {
        to_ascii_annotated(&self.tree, &|node| {
            let cond = self.condition(node);
            if cond.is_empty() {
                String::new()
            } else {
                format!("  [{}]", cond.display(&self.events))
            }
        })
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let mut t = figure1_example();
        let d = t.tree().iter().find(|&n| t.tree().label(n) == "D").unwrap();
        let w1 = t.events().by_name("w1").unwrap();
        let w2 = t.events().by_name("w2").unwrap();
        assert_eq!(t.ancestor_condition(d), Condition::always());
        // Below D the path's conditions unite: D's own and E's.
        let e = t.add_child(d, "E", Condition::of(Literal::neg(w1)));
        let f = t.add_child(e, "F", Condition::always());
        assert_eq!(t.ancestor_condition(e), Condition::of(Literal::pos(w2)));
        assert_eq!(
            t.ancestor_condition(f),
            Condition::from_literals([Literal::neg(w1), Literal::pos(w2)])
        );
    }

    #[test]
    fn corpus_interning_dedupes_across_documents() {
        let a = figure1_example();
        let b = figure1_example();
        // Both documents collapse onto the shapes of one: A, B, C and D.
        assert_eq!(
            shape_census(&[&a, &b]),
            ShapeCensus {
                logical_nodes: 8,
                distinct_shapes: 4
            }
        );
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

    /// Copying a template once per root condition gives the tree, ids and
    /// roots that one copy per call gives, in the same order.
    #[test]
    fn deep_copies_of_one_template_match_one_copy_per_call() {
        let t = figure1_example();
        let c = t.tree().iter().find(|&n| t.tree().label(n) == "C").unwrap();
        let root = t.tree().root();
        let w1 = t.events().by_name("w1").unwrap();
        let conditions = [
            Condition::of(Literal::pos(w1)),
            Condition::always(),
            Condition::of(Literal::neg(w1)),
        ];
        let mut batched = t.clone();
        let roots = batched.duplicate_subtree_deep(root, c, conditions.clone());
        let mut single = t.clone();
        let one_by_one: Vec<NodeId> = conditions
            .into_iter()
            .flat_map(|condition| single.duplicate_subtree_deep(root, c, [condition]))
            .collect();
        assert_eq!(roots, one_by_one);
        assert_eq!(roots.len(), 3);
        assert_eq!(batched.tree().arena_len(), single.tree().arena_len());
        assert_eq!(batched.to_ascii(), single.to_ascii());
        assert_eq!(batched.num_nodes(), 4 + 3 * 2);
        // Figure 1's three literals, the two one-literal root conditions,
        // and D's literal in each copy.
        assert_eq!(batched.num_literals(), 3 + 2 + 3);
        batched.validate_invariants().unwrap();
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

    /// A prob-tree over `events` events whose `nodes` nodes span several
    /// arena pages, with a condition on about half of them.
    fn paged_tree(rng: &mut StdRng, nodes: usize, events: usize) -> ProbTree {
        let mut t = ProbTree::new("R");
        let ids: Vec<_> = (0..events)
            .map(|i| {
                t.events_mut()
                    .insert(format!("e{i}"), rng.gen_range(0.1..1.0))
            })
            .collect();
        for i in 1..nodes {
            let parent = NodeId::from_index(rng.gen_range(0..i));
            let condition = if rng.gen_bool(0.5) {
                let event = ids[rng.gen_range(0..events)];
                Condition::of(if rng.gen_bool(0.5) {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                })
            } else {
                Condition::always()
            };
            t.add_child(parent, format!("L{}", i % 7), condition);
        }
        t
    }

    /// The original's rendering, event names and probability bits.
    fn fingerprint(t: &ProbTree) -> (String, Vec<(String, u64)>) {
        let events = t.events();
        let table = events
            .iter()
            .map(|e| (events.name(e).to_owned(), events.prob(e).to_bits()))
            .collect();
        (t.to_ascii(), table)
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_byte_identical() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for (nodes, events) in [(40, 5), (300, 40), (1_100, 300)] {
            let original = paged_tree(&mut rng, nodes, events);
            let before = fingerprint(&original);
            let mut copy = original.clone();
            for _ in 0..200 {
                let arena = copy.tree().arena_len();
                let node = NodeId::from_index(rng.gen_range(0..arena));
                let parent = NodeId::from_index(rng.gen_range(0..arena));
                let event = pxml_events::EventId::from_index(rng.gen_range(0..copy.events().len()));
                let condition = Condition::of(Literal::pos(event));
                match rng.gen_range(0..7) {
                    0 => {
                        copy.add_child(parent, "new", condition);
                    }
                    1 => {
                        let mut graft = DataTree::new("G");
                        let root = graft.root();
                        graft.add_child(root, "H");
                        copy.graft_data_tree(parent, &graft, condition);
                    }
                    2 => {
                        copy.duplicate_subtree_deep(parent, node, [condition]);
                    }
                    3 if node != copy.tree().root() => copy.detach(node),
                    4 if node != copy.tree().root() => {
                        let condition = if rng.gen_bool(0.3) {
                            Condition::always()
                        } else {
                            condition
                        };
                        copy.set_condition(node, condition);
                    }
                    5 => {
                        copy.events_mut().fresh(0.5);
                    }
                    _ => copy.events_mut().set_prob(event, 0.25),
                }
            }
            copy.validate_invariants().unwrap();
            assert!(copy.unshared_pages(&original) > 0);
            assert_eq!(fingerprint(&original), before, "{nodes} nodes");
            original.validate_invariants().unwrap();
        }
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
