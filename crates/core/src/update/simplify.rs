//! Post-update simplification of prob-trees.
//!
//! Deletions blow prob-trees up (Theorem 3); this pass claws back what is
//! recoverable without changing the (normalized) possible-world semantics,
//! by chaining three reductions until a fixpoint (or `MAX_PASSES`):
//!
//! 1. [`clean`](crate::clean::clean) — drop literals implied by ancestors, prune inconsistent
//!    branches (Section 3; preserves structural equivalence);
//! 2. **certain-event pruning** — drop literals on `π(w) = 1` events and
//!    prune the zero-probability branches they contradict (preserves the
//!    normalized semantics only);
//! 3. **sibling cover merging** — for each group of sibling copies whose
//!    subtrees are structurally identical (labels *and* conditions below
//!    the copy root) and whose root conditions are pairwise mutually
//!    exclusive, re-cover the disjunction of root conditions by a strictly
//!    smaller pairwise-disjoint DNF ([`Dnf::minimized_disjoint_cover`])
//!    and replace the copies. Because the old and new covers are
//!    count-equivalent (Definition 10) and the subtrees identical, every
//!    valuation produces the same multiset of child instances — this step
//!    preserves structural equivalence, which is exactly why the survivor
//!    copies a deletion scatters under one parent are its natural prey.
//!
//! One run visits only what can change. In the *whole* scope the first
//! pass cleans, prunes and merges everywhere; every later pass revisits
//! only the copies the previous pass's merges grafted and the parents
//! whose children those merges changed. The *region* scope applies the
//! same rule from the first pass on: on a tree that was already a
//! fixpoint, an update step changes nothing outside the subtrees it
//! grafted or strengthened in place, their parents, and the parents it
//! detached from. Cleaning a node depends only on its own condition and
//! its ancestors', pruning only on its own, and the merge at a parent
//! only on that parent's children; the merge-group limit
//! (`MAX_MERGE_GROUP`) states the one rule that keeps the merge exact.
//!
//! The passes read and rewrite arena nodes only. A deletion keeps each
//! target in place as its first survivor, under a stronger condition, and
//! copies its other survivors deep, as the merge copies its covers; in the
//! region scope a kept target is fresh, since cleaning below it depends
//! on the literals it gained. A sweep skips a parent whose children hold
//! no complementary pair of literals before it hashes anything: no child
//! of such a parent is a merge candidate.
//!
//! A run never renumbers nodes: dropped and merged-away nodes are detached
//! in place, and merge covers are appended to the arena.
//! [`UpdateEngine::apply`](super::UpdateEngine::apply) compacts its result
//! once; a document commit keeps the ids, so its frame only renumbers at a
//! rebase (see [`crate::document`]).

use std::collections::{BTreeSet, HashMap, HashSet};

use pxml_events::{Condition, Dnf, Literal};
use pxml_tree::{AnnotatedCanonInterner, NodeId};

use crate::clean::{clean_below, has_certain_events, prune_below, prune_condition, Walked};
use crate::probtree::ProbTree;
use crate::update::engine::StepScope;

/// Upper bound on chained passes: merging children can make their parents
/// mergeable in turn.
const MAX_PASSES: usize = 4;

/// Cover merging skips condition supports larger than this: the Shannon
/// expansion is exponential in the support in the worst case.
const MAX_MERGE_SUPPORT: usize = 20;

/// Cover merging skips sibling groups with more merge candidates than
/// this: the pairwise disjointness test is quadratic in the group. A
/// *candidate* is a child with a same-label sibling holding the
/// complement of one of its literals; no other child can join a clique of
/// mutually exclusive conditions, so only candidates are grouped and
/// counted. Children without a condition are never candidates, which is
/// what lets the region scope skip a parent whose only changed children
/// are unconditioned.
const MAX_MERGE_GROUP: usize = 1024;

/// What an update step and the simplify passes changed in the working
/// tree, recorded as they graft, detach and rewrite. Node ids are those
/// of the working tree, which is a clone of the step's base: ids below
/// `base_len` are base nodes.
#[derive(Debug)]
pub(crate) struct Touched {
    /// Arena length of the base frame.
    pub(crate) base_len: usize,
    /// Roots of the grafted subtrees (insertions, survivor copies past a
    /// target's first survivor, merge covers).
    pub(crate) grafted: Vec<NodeId>,
    /// Roots of the detached subtrees, each with its parent.
    pub(crate) detached: Vec<(NodeId, NodeId)>,
    /// Base nodes whose condition a cleaning or pruning walk rewrote,
    /// each with the number of literals it dropped (a node rewritten
    /// twice is listed twice).
    pub(crate) rewritten: Vec<(NodeId, usize)>,
    /// Deletion targets kept in place as their first survivor, each with
    /// its base condition and the number of literals the strengthened
    /// condition added to it.
    pub(crate) strengthened: Vec<(NodeId, Condition, usize)>,
}

impl Touched {
    /// Nothing touched yet on a base of `base_len` arena nodes.
    pub(crate) fn new(base_len: usize) -> Self {
        Touched {
            base_len,
            grafted: Vec::new(),
            detached: Vec::new(),
            rewritten: Vec::new(),
            strengthened: Vec::new(),
        }
    }
}

/// What a step removed from its base frame, inserted into its result and
/// rewrote in place, counted over the touched nodes alone: the one source
/// of a step's sizes and of its [`UpdateDelta`](crate::UpdateDelta).
#[derive(Debug, Default)]
pub(crate) struct Census {
    /// Base nodes no longer reachable.
    pub(crate) removed_nodes: usize,
    /// Literals on those nodes, as they are at the end.
    pub(crate) removed_literals: usize,
    /// Labels of those nodes.
    pub(crate) removed_labels: BTreeSet<String>,
    /// Reachable nodes that are not base nodes.
    pub(crate) inserted_nodes: usize,
    /// Literals on those nodes.
    pub(crate) inserted_literals: usize,
    /// Labels of those nodes.
    pub(crate) inserted_labels: BTreeSet<String>,
    /// Rewritten base nodes that are still reachable: every node a
    /// cleaning or pruning walk rewrote, and every strengthened target
    /// whose condition differs from its base condition at the end.
    pub(crate) rewritten: BTreeSet<NodeId>,
    /// Literals the rewrites of base nodes dropped, whether or not the
    /// node is still reachable.
    pub(crate) rewritten_literals: usize,
    /// Literals the strengthened targets gained, whether or not the node
    /// is still reachable.
    pub(crate) gained_literals: usize,
    /// Nodes the census walked or checked.
    pub(crate) visited: usize,
}

impl Census {
    /// Counts the base nodes below the detached roots, the arena subtrees
    /// below the still-reachable grafted roots, and the rewritten and
    /// strengthened base nodes of `touched`. A strengthened target counts
    /// as rewritten only if its condition still differs from its base
    /// condition: cleaning or pruning may have taken back what it gained.
    pub(crate) fn of(tree: &ProbTree, touched: &Touched) -> Census {
        let mut census = Census::default();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let walk = |root: NodeId, seen: &mut HashSet<NodeId>, visit: &mut dyn FnMut(NodeId)| {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if seen.insert(node) {
                    visit(node);
                    stack.extend_from_slice(tree.tree().children(node));
                }
            }
        };
        for &(_, root) in &touched.detached {
            walk(root, &mut seen, &mut |node| {
                census.visited += 1;
                if node.index() < touched.base_len {
                    census.removed_nodes += 1;
                    census.removed_literals += tree.condition_ref(node).map_or(0, Condition::len);
                    add_label(&mut census.removed_labels, tree.tree().label(node));
                }
            });
        }
        for &root in &touched.grafted {
            if !tree.tree().is_attached(root) {
                continue;
            }
            walk(root, &mut seen, &mut |node| {
                census.visited += 1;
                census.inserted_nodes += 1;
                census.inserted_literals += tree.condition_ref(node).map_or(0, Condition::len);
                add_label(&mut census.inserted_labels, tree.tree().label(node));
            });
        }
        for &(node, dropped) in &touched.rewritten {
            census.visited += 1;
            census.rewritten_literals += dropped;
            if tree.tree().is_attached(node) {
                census.rewritten.insert(node);
            }
        }
        for (node, base, gained) in &touched.strengthened {
            census.visited += 1;
            census.gained_literals += gained;
            let changed = tree.tree().is_attached(*node)
                && tree
                    .condition_ref(*node)
                    .map_or(!base.is_empty(), |condition| condition != base);
            if changed {
                census.rewritten.insert(*node);
            } else {
                census.rewritten.remove(node);
            }
        }
        census
    }

    /// The result's `(nodes, literals)`, given the base frame's.
    pub(crate) fn size_after(&self, nodes: usize, literals: usize) -> (usize, usize) {
        (
            nodes - self.removed_nodes + self.inserted_nodes,
            literals + self.gained_literals + self.inserted_literals
                - self.rewritten_literals
                - self.removed_literals,
        )
    }
}

/// Adds `label` to `labels`, copying it only if the set lacks it.
fn add_label(labels: &mut BTreeSet<String>, label: &str) {
    if !labels.contains(label) {
        labels.insert(label.to_owned());
    }
}

/// The outcome of [`simplify_scoped`].
pub(crate) struct Simplified {
    /// The simplified tree, uncompacted: every node of the input keeps
    /// its id, and what the passes added is appended.
    pub(crate) tree: ProbTree,
    /// Whether the last pass changed nothing within `MAX_PASSES`: the
    /// result is then a simplify fixpoint.
    pub(crate) converged: bool,
    /// Nodes the passes visited: cleaned or pruned, scanned as children
    /// of a parent whose merge ran, or interned for a shape code.
    pub(crate) visited: usize,
    /// What the step and the passes removed, inserted and rewrote.
    pub(crate) census: Census,
}

/// Runs the simplification chain over `work` from `scope`, extending
/// `touched`, the step's record of what it changed in `work`. The
/// region scope starts from that record; the whole scope cleans, prunes
/// and merges everywhere on the first pass. Node ids of `work` stay
/// stable: dropped nodes are detached in place, and the caller decides
/// whether to compact.
pub(crate) fn simplify_scoped(work: ProbTree, scope: StepScope, touched: Touched) -> Simplified {
    let root = work.tree().root();
    let prune = has_certain_events(work.events());
    let mut run = Run {
        work,
        fresh: Vec::new(),
        dirty: HashSet::new(),
        propagated: HashSet::new(),
        sweep_all: false,
        touched,
        visited: 0,
    };
    match scope {
        StepScope::Whole => {
            run.fresh.push(root);
            run.sweep_all = true;
        }
        StepScope::Region => run.start_region(),
    }
    let mut converged = false;
    for _ in 0..MAX_PASSES {
        let fresh = std::mem::take(&mut run.fresh);
        let mut changed = false;
        for &top in &fresh {
            if run.work.tree().is_attached(top) {
                let ancestors = run.work.ancestor_condition(top);
                let walked = clean_below(&mut run.work, top, ancestors);
                changed |= run.settle(walked);
            }
        }
        if prune {
            for &top in &fresh {
                if run.work.tree().is_attached(top) {
                    let walked = prune_below(&mut run.work, top);
                    changed |= run.settle(walked);
                }
            }
        }
        changed |= run.sweep() > 0;
        if !changed {
            converged = true;
            break;
        }
    }
    let census = Census::of(&run.work, &run.touched);
    Simplified {
        tree: run.work,
        converged,
        visited: run.visited,
        census,
    }
}

/// The working state of one [`simplify_scoped`] run.
struct Run {
    work: ProbTree,
    /// Roots of the subtrees the next pass cleans and prunes.
    fresh: Vec<NodeId>,
    /// Parents whose sibling-cover merge the next sweep runs.
    dirty: HashSet<NodeId>,
    /// Nodes whose ancestors are already marked in `dirty`.
    propagated: HashSet<NodeId>,
    /// The next sweep visits every parent, so nothing needs marking.
    sweep_all: bool,
    /// The step's record, extended with what the passes graft, detach
    /// and rewrite.
    touched: Touched,
    visited: usize,
}

impl Run {
    /// Turns an update step's changes into the first pass's work: the
    /// grafted subtrees are fresh, and the parents the step grafted under
    /// or detached from are marked. A strengthened target is fresh too,
    /// because cleaning its descendants depends on the literals it
    /// gained, and its parent is marked, because a conditioned child
    /// changed; the parents inside it keep their children's shapes.
    fn start_region(&mut self) {
        let touched = std::mem::replace(&mut self.touched, Touched::new(0));
        for &(parent, root) in &touched.detached {
            if self.work.tree().is_attached(parent) {
                let conditioned = self.work.condition_ref(root).is_some();
                self.mark_child(parent, conditioned);
            }
        }
        for &(target, ..) in &touched.strengthened {
            if self.work.tree().is_attached(target) {
                self.fresh.push(target);
                let parent = self
                    .work
                    .tree()
                    .parent(target)
                    .expect("a deletion target is not the root");
                self.mark_child(parent, true);
            }
        }
        for &root in &touched.grafted {
            if self.work.tree().is_attached(root) {
                self.note_added(root);
            }
        }
        self.touched = touched;
    }

    /// A new subtree hangs at `root`: clean and prune it on the next pass
    /// that starts, and mark its parent and its own inner parents for the
    /// next sweep.
    fn note_added(&mut self, root: NodeId) {
        self.fresh.push(root);
        if self.sweep_all {
            return;
        }
        let parent = self
            .work
            .tree()
            .parent(root)
            .expect("an added subtree hangs under a parent");
        let conditioned = self.work.condition_ref(root).is_some();
        self.mark_child(parent, conditioned);
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            let children = self.work.tree().children(node);
            self.visited += children.len();
            if children
                .iter()
                .any(|&child| self.work.condition_ref(child).is_some())
            {
                self.dirty.insert(node);
            }
            stack.extend_from_slice(children);
        }
    }

    /// Applies a cleaning or pruning walk's verdicts: records the
    /// rewritten base nodes, marks the parents of rewritten nodes and
    /// detaches the dropped ones. Returns whether anything changed.
    fn settle(&mut self, walked: Walked) -> bool {
        self.visited += walked.visited;
        let changed = !walked.rewritten.is_empty() || !walked.dropped.is_empty();
        for (node, dropped) in walked.rewritten {
            if node.index() < self.touched.base_len {
                self.touched.rewritten.push((node, dropped));
            }
            let parent = self
                .work
                .tree()
                .parent(node)
                .expect("only non-root nodes are rewritten");
            self.mark_child(parent, true);
        }
        for node in walked.dropped {
            let parent = self
                .work
                .tree()
                .parent(node)
                .expect("only non-root nodes are dropped");
            self.detach(parent, node);
        }
        changed
    }

    /// Detaches `node` from `parent`, recording and marking the removal.
    fn detach(&mut self, parent: NodeId, node: NodeId) {
        let conditioned = self.work.condition_ref(node).is_some();
        self.work.detach(node);
        self.touched.detached.push((parent, node));
        self.mark_child(parent, conditioned);
    }

    /// Records that a child of `parent` was added, removed or changed:
    /// `parent`'s merge must run again if that child carries a condition
    /// (an unconditioned child is never a merge candidate), and every
    /// ancestor's must run again if the changed subtree hangs below one
    /// of its conditioned children.
    fn mark_child(&mut self, parent: NodeId, conditioned: bool) {
        if self.sweep_all {
            return;
        }
        if conditioned {
            self.dirty.insert(parent);
        }
        let mut node = parent;
        while self.propagated.insert(node) {
            let Some(up) = self.work.tree().parent(node) else {
                break;
            };
            if self.work.condition_ref(node).is_some() {
                self.dirty.insert(up);
            }
            node = up;
        }
    }

    /// One merging sweep, ancestors before descendants: a merge only
    /// rewrites its parent's child list, so a parent's children still
    /// have the shapes they had when the sweep began. Returns the number
    /// of groups replaced.
    fn sweep(&mut self) -> usize {
        let order: Vec<NodeId> = if self.sweep_all {
            self.work.tree().iter().collect()
        } else {
            let mut marked: Vec<(usize, NodeId)> = self
                .dirty
                .drain()
                .map(|node| (self.work.tree().depth(node), node))
                .collect();
            marked.sort_unstable();
            marked.into_iter().map(|(_, node)| node).collect()
        };
        self.sweep_all = false;
        self.dirty.clear();
        self.propagated.clear();
        let mut codes = ShapeCodes::default();
        let mut merged = 0;
        for parent in order {
            // A merge higher up may have replaced this parent's subtree.
            if self.work.tree().is_attached(parent) {
                merged += self.merge_at(parent, &mut codes);
            }
        }
        merged
    }

    /// The sibling-cover merge at one parent: groups its merge candidates
    /// by the shape of everything except their own root condition, splits
    /// each group into greedy cliques of pairwise mutually exclusive root
    /// conditions, and replaces each clique whose disjunction has a
    /// strictly smaller disjoint cover by deep copies of one member, one
    /// per cover disjunct, fresh for the next pass. Groups are taken in
    /// the order of their first member. Returns the number of cliques
    /// replaced.
    ///
    /// Synthesized cover disjuncts are pruned under certain events up
    /// front — exactly what the next pass's prune-certain would do to
    /// them. After a prune pass this is a no-op (no certain-event literal
    /// survives pruning, and the Shannon expansion only branches on
    /// mentioned events).
    fn merge_at(&mut self, parent: NodeId, codes: &mut ShapeCodes) -> usize {
        let children = self.work.tree().children(parent);
        self.visited += children.len();
        let candidates = merge_candidates(&self.work, children);
        if candidates.len() < 2 {
            return 0;
        }
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut by_code: HashMap<u32, usize> = HashMap::new();
        for child in candidates {
            let code = codes.bare(&self.work, child, &mut self.visited);
            let slot = *by_code.entry(code).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[slot].push(child);
        }
        let mut merged = 0;
        for group in groups {
            if group.len() < 2 || group.len() > MAX_MERGE_GROUP {
                continue;
            }
            // Identical copies — e.g. two equal-condition duplicates — are
            // *not* disjoint and stay untouched, as the multiset semantics
            // requires.
            let conditions: Vec<Condition> =
                group.iter().map(|&c| self.work.condition(c)).collect();
            let mut cliques: Vec<Vec<usize>> = Vec::new();
            for (i, cond) in conditions.iter().enumerate() {
                let home = cliques.iter_mut().find(|clique| {
                    clique
                        .iter()
                        .all(|&j| cond.is_disjoint_with(&conditions[j]))
                });
                match home {
                    Some(clique) => clique.push(i),
                    None => cliques.push(vec![i]),
                }
            }
            for clique in cliques {
                if clique.len() < 2 {
                    continue;
                }
                let dnf = Dnf::from_disjuncts(clique.iter().map(|&i| conditions[i].clone()));
                let Some(cover) = dnf.minimized_disjoint_cover(MAX_MERGE_SUPPORT) else {
                    continue;
                };
                let template = group[clique[0]];
                let disjuncts: Vec<Condition> = cover
                    .disjuncts()
                    .iter()
                    .filter_map(|d| prune_condition(d, self.work.events()))
                    .collect();
                let copies = self
                    .work
                    .duplicate_subtree_deep(parent, template, disjuncts);
                for copy in copies {
                    self.touched.grafted.push(copy);
                    self.note_added(copy);
                }
                for &i in &clique {
                    self.detach(parent, group[i]);
                }
                merged += 1;
            }
        }
        merged
    }
}

/// The children that could join a clique of pairwise mutually exclusive
/// root conditions, in child order: those with a literal whose complement
/// a same-label sibling holds. Two conditions are disjoint only through
/// such a pair, so every other child would form a clique of its own. When
/// no two of the children's literals are complementary, whatever their
/// labels, no child is a candidate, and the children's literals, sorted,
/// show it before anything is hashed.
fn merge_candidates(tree: &ProbTree, children: &[NodeId]) -> Vec<NodeId> {
    let mut literals: Vec<Literal> = children
        .iter()
        .filter_map(|&child| tree.condition_ref(child))
        .flat_map(|condition| condition.literals().iter().copied())
        .collect();
    literals.sort_unstable();
    if !literals.windows(2).any(|pair| pair[1] == pair[0].negated()) {
        return Vec::new();
    }
    let mut holders: HashMap<(&str, Literal), usize> = HashMap::new();
    for &child in children {
        if let Some(condition) = tree.condition_ref(child) {
            let label = tree.tree().label(child);
            for &literal in condition.literals() {
                *holders.entry((label, literal)).or_insert(0) += 1;
            }
        }
    }
    children
        .iter()
        .copied()
        .filter(|&child| {
            tree.condition_ref(child).is_some_and(|condition| {
                let label = tree.tree().label(child);
                condition.literals().iter().any(|&literal| {
                    let complement = literal.negated();
                    let own = usize::from(condition.contains(complement));
                    holders.get(&(label, complement)).copied().unwrap_or(0) > own
                })
            })
        })
        .collect()
}

/// Shape codes of subtrees, interned on demand over the
/// [`AnnotatedCanonInterner`] of `pxml_tree`. A full code interns every
/// node of the subtree under `Some(γ)` (`Some(⊤)` for the empty
/// condition); a *bare* code interns the node itself under `None`, so the
/// two kinds never collide. Two nodes share a full code iff their
/// subtrees are identical including every condition, and share a bare
/// code iff they are identical except for their own root condition —
/// which is what the merge rewrites, so candidates are grouped by bare
/// code. Full codes are memoized for one sweep, during which a node's
/// subtree only changes after its parent's merge ran.
#[derive(Default)]
struct ShapeCodes {
    interner: AnnotatedCanonInterner<Condition>,
    full: HashMap<NodeId, u32>,
    /// The empty condition, which a full code interns for an unannotated
    /// node.
    always: Condition,
}

impl ShapeCodes {
    fn bare(&mut self, tree: &ProbTree, node: NodeId, visited: &mut usize) -> u32 {
        let children = tree.tree().children(node);
        for &child in children {
            self.full(tree, child, visited);
        }
        *visited += 1;
        let label = self.interner.label(tree.tree().label(node));
        let bare = self.interner.annotation(None);
        self.interner
            .intern(label, bare, children.iter().map(|child| self.full[child]))
    }

    fn full(&mut self, tree: &ProbTree, node: NodeId, visited: &mut usize) -> u32 {
        let mut stack = vec![(node, false)];
        while let Some((n, ready)) = stack.pop() {
            if self.full.contains_key(&n) {
                continue;
            }
            let children = tree.tree().children(n);
            if ready {
                *visited += 1;
                let label = self.interner.label(tree.tree().label(n));
                let condition = tree.condition_ref(n).unwrap_or(&self.always);
                let condition = self.interner.annotation(Some(condition));
                let code =
                    self.interner
                        .intern(label, condition, children.iter().map(|c| self.full[c]));
                self.full.insert(n, code);
            } else {
                stack.push((n, true));
                stack.extend(children.iter().map(|&c| (c, false)));
            }
        }
        self.full[&node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::structural_equivalent_exhaustive;
    use crate::semantics::possible_worlds;
    use pxml_events::Literal;

    /// A complementary sibling pair `X∧w` / `X∧¬w` merges into a single
    /// `X` copy.
    #[test]
    fn complementary_sibling_pair_merges() {
        let mut t = ProbTree::new("A");
        let x = t.events_mut().insert("x", 0.6);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(x), Literal::pos(w)]),
        );
        t.add_child(b1, "D", Condition::of(Literal::pos(x)));
        let b2 = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(x), Literal::neg(w)]),
        );
        t.add_child(b2, "D", Condition::of(Literal::pos(x)));
        let simplified = simplify_scoped(
            t.clone(),
            StepScope::Whole,
            Touched::new(t.tree().arena_len()),
        )
        .tree;
        // One B copy left... whose D child then loses the x literal to
        // cleaning on the next pass (x is implied by the merged root).
        let b_count = simplified
            .tree()
            .iter()
            .filter(|&n| simplified.tree().label(n) == "B")
            .count();
        assert_eq!(b_count, 1);
        assert_eq!(simplified.num_nodes(), 3, "A → B[x] → D");
        assert_eq!(simplified.size(), 4, "from 5 nodes and 6 literals");
        assert!(structural_equivalent_exhaustive(&t, &simplified, 20).unwrap());
    }

    /// Identical duplicates are a multiset feature, not a redundancy.
    #[test]
    fn equal_condition_duplicates_are_not_merged() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        let simplified = simplify_scoped(
            t.clone(),
            StepScope::Whole,
            Touched::new(t.tree().arena_len()),
        )
        .tree;
        assert_eq!(simplified.num_nodes(), 3);
        assert_eq!(simplified.size(), t.size());
    }

    /// Children with different subtrees never merge, even when their root
    /// conditions are complementary.
    #[test]
    fn different_subtrees_are_not_merged() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b1, "D", Condition::always());
        t.add_child(root, "B", Condition::of(Literal::neg(w)));
        let simplified = simplify_scoped(
            t.clone(),
            StepScope::Whole,
            Touched::new(t.tree().arena_len()),
        )
        .tree;
        assert_eq!(simplified.num_nodes(), t.num_nodes());
        assert_eq!(simplified.size(), t.size());
    }

    /// Merging children can unlock a parent-level merge on the next pass.
    #[test]
    fn merging_cascades_to_parents_across_passes() {
        let mut t = ProbTree::new("A");
        let u = t.events_mut().insert("u", 0.5);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        // Two S siblings with complementary conditions; their subtrees
        // differ only by a child-level complementary pair that the first
        // pass collapses.
        for s_literal in [Literal::pos(u), Literal::neg(u)] {
            let s = t.add_child(root, "S", Condition::of(s_literal));
            t.add_child(s, "B", Condition::of(Literal::pos(w)));
            t.add_child(s, "B", Condition::of(Literal::neg(w)));
        }
        let simplified = simplify_scoped(
            t.clone(),
            StepScope::Whole,
            Touched::new(t.tree().arena_len()),
        )
        .tree;
        // The S subtrees are already identical, so the pre-order sweep
        // merges the S pair first (into one unconditioned S); pass 2 then
        // merges the B pair inside the surviving copy.
        assert_eq!(simplified.num_nodes(), 3, "A → S → B");
        assert_eq!(simplified.num_literals(), 0);
        assert!(structural_equivalent_exhaustive(&t, &simplified, 20).unwrap());
    }

    /// The full chain preserves the normalized semantics in the presence
    /// of certain events (where structural equivalence is allowed to
    /// change).
    #[test]
    fn chain_preserves_normalized_semantics_with_certain_events() {
        let mut t = ProbTree::new("A");
        let sure = t.events_mut().insert("sure", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(sure), Literal::pos(w)]),
        );
        t.add_child(root, "B", Condition::of(Literal::neg(w)));
        t.add_child(root, "C", Condition::of(Literal::neg(sure)));
        let before = possible_worlds(&t, 20).unwrap().normalized();
        let simplified = simplify_scoped(
            t.clone(),
            StepScope::Whole,
            Touched::new(t.tree().arena_len()),
        )
        .tree;
        let after = possible_worlds(&simplified, 20).unwrap().normalized();
        assert!(before.isomorphic(&after));
        // `sure` dropped from B's condition, then the B pair merges; the
        // ¬sure branch is pruned.
        assert_eq!(simplified.num_nodes(), 2);
        assert_eq!(simplified.num_literals(), 0);
    }
}
