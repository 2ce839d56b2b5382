//! Tree-pattern queries with joins (the query language of the paper's
//! reference \[3\], used throughout Section 2).
//!
//! A pattern is itself a small tree. Every pattern node has an optional
//! label constraint (a `None` constraint is a wildcard) and is connected to
//! its parent by either a *child* or a *descendant* axis. In addition, a
//! query may contain **join constraints**: sets of pattern nodes that must
//! be matched to data nodes carrying the same label (this is what "with
//! joins" means for a data model whose only values are labels).
//!
//! A *match* is a mapping `µ` from pattern nodes to data nodes respecting
//! labels, axes and joins. Following Definition 6, the answer for a match
//! is the sub-datatree induced by the image of `µ` (closed under ancestors
//! so that the path to the root is kept); the query answer `Q(t)` is the
//! set of distinct such sub-datatrees. The mappings themselves are kept
//! (Appendix A's `µ_Q`) because updates anchor insertions and deletions on
//! a designated pattern node.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use pxml_tree::subtree::SubDataTree;
use pxml_tree::{DataTree, LabelPostings, NodeId};

use super::{MonotonicityCertificate, Query};

/// Identifier of a node of the *pattern* tree (the set `N_Q` of
/// Appendix A).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PatternNodeId(pub usize);

/// The axis connecting a pattern node to its pattern parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Axis {
    /// The data node must be a child of the parent's match.
    #[default]
    Child,
    /// The data node must be a strict descendant of the parent's match.
    Descendant,
}

#[derive(Clone, Debug)]
struct PatternNode {
    /// Required label; `None` is a wildcard.
    label: Option<String>,
    /// Parent pattern node and the axis to it (`None` for the pattern
    /// root).
    parent: Option<(PatternNodeId, Axis)>,
}

/// A tree-pattern query with joins.
#[derive(Clone, Debug, Default)]
pub struct PatternQuery {
    nodes: Vec<PatternNode>,
    /// Each join constraint is a set of pattern nodes whose matched data
    /// nodes must all carry the same label.
    joins: Vec<Vec<PatternNodeId>>,
    /// Whether the pattern root must match the data root (anchored) or may
    /// match any node.
    anchored: bool,
}

/// One match of a pattern in a data tree: the mapping `µ_Q` from pattern
/// nodes to data nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternMatch {
    /// `mapping[i]` is the data node matched by pattern node `i`.
    pub mapping: Vec<NodeId>,
}

impl PatternMatch {
    /// The data node matched by `node`.
    pub fn node(&self, node: PatternNodeId) -> NodeId {
        self.mapping[node.0]
    }

    /// The sub-datatree induced by this match (image of the mapping, closed
    /// under ancestors).
    pub fn induced_subtree(&self, tree: &DataTree) -> SubDataTree {
        SubDataTree::from_nodes(tree, self.mapping.iter().copied())
    }
}

impl PatternQuery {
    /// Creates a pattern whose root node has the given label constraint
    /// (`None` = wildcard). The pattern root may match **any** data node.
    pub fn new(root_label: Option<&str>) -> Self {
        PatternQuery {
            nodes: vec![PatternNode {
                label: root_label.map(str::to_string),
                parent: None,
            }],
            joins: Vec::new(),
            anchored: false,
        }
    }

    /// Creates a pattern whose root must match the data-tree root.
    pub fn anchored(root_label: Option<&str>) -> Self {
        let mut q = PatternQuery::new(root_label);
        q.anchored = true;
        q
    }

    /// The pattern root.
    pub fn root(&self) -> PatternNodeId {
        PatternNodeId(0)
    }

    /// Adds a pattern node below `parent` with the given axis and label
    /// constraint, returning its id.
    pub fn add_node(
        &mut self,
        parent: PatternNodeId,
        axis: Axis,
        label: Option<&str>,
    ) -> PatternNodeId {
        assert!(parent.0 < self.nodes.len(), "unknown pattern parent");
        let id = PatternNodeId(self.nodes.len());
        self.nodes.push(PatternNode {
            label: label.map(str::to_string),
            parent: Some((parent, axis)),
        });
        id
    }

    /// Convenience: adds a child-axis node with a label constraint.
    pub fn add_child(&mut self, parent: PatternNodeId, label: &str) -> PatternNodeId {
        self.add_node(parent, Axis::Child, Some(label))
    }

    /// Convenience: adds a descendant-axis node with a label constraint.
    pub fn add_descendant(&mut self, parent: PatternNodeId, label: &str) -> PatternNodeId {
        self.add_node(parent, Axis::Descendant, Some(label))
    }

    /// Adds a join constraint: all the given pattern nodes must match data
    /// nodes with equal labels.
    ///
    /// # Panics
    /// Panics if the join has fewer than two nodes or names a node the
    /// pattern does not have.
    pub fn add_join(&mut self, nodes: Vec<PatternNodeId>) {
        assert!(
            nodes.len() >= 2,
            "a join constraint needs at least two nodes"
        );
        assert!(
            nodes.iter().all(|node| node.0 < self.nodes.len()),
            "unknown pattern node in a join"
        );
        self.joins.push(nodes);
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A pattern always has at least its root node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The label constraint of a pattern node (`None` = wildcard).
    pub fn label(&self, node: PatternNodeId) -> Option<&str> {
        self.nodes[node.0].label.as_deref()
    }

    /// The parent of a pattern node together with the connecting axis
    /// (`None` for the pattern root).
    pub fn parent_of(&self, node: PatternNodeId) -> Option<(PatternNodeId, Axis)> {
        self.nodes[node.0].parent
    }

    /// The join constraints: each entry is a set of pattern nodes whose
    /// matched data nodes must carry equal labels.
    pub fn joins(&self) -> &[Vec<PatternNodeId>] {
        &self.joins
    }

    /// Computes all matches `µ_Q` of the pattern in `tree`, ordered by the
    /// pre-order position of the data node matched to the pattern root,
    /// then by the backtracking order of the other pattern nodes.
    ///
    /// The pattern root's candidates come from the first rule that
    /// applies:
    ///
    /// 1. an anchored pattern tries the data root;
    /// 2. on a tree with label postings ([`DataTree::label_postings`]), the
    ///    pattern nodes joined to the pattern root by child edges only
    ///    bound where the root can match: at their pattern depth above a
    ///    node with their label. The matcher takes the attached postings
    ///    of the rarest such label, climbs each by that depth, and tries
    ///    the distinct results in pre-order. It does so only when at
    ///    most one arena slot in eight carries the label;
    /// 3. otherwise it tries every reachable node in pre-order.
    ///
    /// The three give the same matches in the same order; they differ in
    /// the nodes read. A descendant edge walks the subtree of its parent's
    /// match in pre-order.
    pub fn matches(&self, tree: &DataTree) -> Vec<PatternMatch> {
        self.matches_counted(tree).0
    }

    /// [`PatternQuery::matches`] and the data nodes the matcher read:
    /// postings walked plus candidates tested against a pattern node.
    pub(crate) fn matches_counted(&self, tree: &DataTree) -> (Vec<PatternMatch>, usize) {
        let mut run = MatchRun {
            query: self,
            tree,
            split: None,
            mapping: vec![None; self.nodes.len()],
            results: Vec::new(),
            visited: 0,
        };
        if self.anchored {
            run.step(0, tree.root());
        } else if let Some(roots) = self.seeded_roots(tree, &mut run.visited) {
            roots.into_iter().for_each(|root| run.step(0, root));
        } else {
            tree.iter().for_each(|root| run.step(0, root));
        }
        (run.results, run.visited)
    }

    /// The pattern root's candidates read from label postings, in
    /// pre-order, adding the postings walked to `visited`; `None` when
    /// the tree has no postings, no pattern node qualifies as a seed, or
    /// the rarest seed label is not selective.
    fn seeded_roots(&self, tree: &DataTree, visited: &mut usize) -> Option<Vec<NodeId>> {
        let mut seed: Option<(LabelPostings<'_>, usize)> = None;
        for (node, depth) in self.nodes.iter().zip(self.child_depths()) {
            if let (Some(label), Some(depth)) = (&node.label, depth) {
                let postings = tree.label_postings(label)?;
                if seed
                    .as_ref()
                    .is_none_or(|(rarest, _)| postings.len() < rarest.len())
                {
                    seed = Some((postings, depth));
                }
            }
        }
        let (postings, depth) = seed?;
        if postings.len() * SEED_SELECTIVITY > tree.arena_len() {
            return None;
        }
        *visited += postings.len();
        let mut roots: Vec<NodeId> = postings
            .filter(|&node| tree.is_attached(node))
            .filter_map(|node| (0..depth).try_fold(node, |node, _| tree.parent(node)))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() > 1 {
            // Children lists ascend (`DataTree`'s id order), so ordering
            // by root path is pre-order.
            let mut paths: Vec<(Vec<NodeId>, NodeId)> = roots
                .into_iter()
                .map(|root| {
                    let mut path = tree.ancestors(root);
                    path.reverse();
                    path.push(root);
                    (path, root)
                })
                .collect();
            paths.sort_unstable();
            roots = paths.into_iter().map(|(_, root)| root).collect();
        }
        Some(roots)
    }

    /// Each pattern node's depth below the pattern root along child edges
    /// only; `None` past a descendant edge.
    fn child_depths(&self) -> Vec<Option<usize>> {
        let mut depths: Vec<Option<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let depth = match node.parent {
                None => Some(0),
                Some((parent, Axis::Child)) => depths[parent.0].map(|depth| depth + 1),
                Some((_, Axis::Descendant)) => None,
            };
            depths.push(depth);
        }
        depths
    }

    /// The matches that map some pattern node to an arena slot at `first`
    /// or past it, each once, and the data nodes the search read. Every
    /// node of a match is attached, and a match through such a slot binds
    /// the pattern root at or above it: at the data root for an anchored
    /// pattern, at most the pattern's child-only height above it, or
    /// anywhere up to the data root past a descendant edge.
    ///
    /// Each match is enumerated from its *pivot*, the first pattern node
    /// (in pattern order) it maps to an appended slot. For each pattern
    /// node as the pivot, the backtracking matcher binds the nodes before
    /// it to old slots only, the pivot to appended slots only and the
    /// nodes after it to any slot, from an appended root when the pivot is
    /// the pattern root and from an old candidate root otherwise. A child
    /// list ascends (`DataTree`'s id order), so it splits at one
    /// `partition_point`; a descendant edge walks its parent's subtree and
    /// skips, uncounted, the candidates outside the pivot's slots.
    fn matches_appended(&self, tree: &DataTree, first: usize) -> (Vec<PatternMatch>, usize) {
        // `None` past a descendant edge: climb to the data root.
        let height = self
            .child_depths()
            .into_iter()
            .try_fold(0, |height, depth| depth.map(|depth| height.max(depth)));
        let mut visited = 0;
        let (mut appended, mut old): (Vec<NodeId>, Vec<NodeId>) = (Vec::new(), Vec::new());
        for slot in first..tree.arena_len() {
            let node = NodeId::from_index(slot);
            visited += 1;
            if !tree.is_attached(node) {
                continue;
            }
            if self.anchored {
                let root = tree.root();
                if root.index() >= first {
                    appended.push(root);
                } else {
                    old.push(root);
                }
                break;
            }
            appended.push(node);
            let ancestors = std::iter::successors(tree.parent(node), |&n| tree.parent(n));
            old.extend(
                ancestors
                    .take(height.unwrap_or(usize::MAX))
                    .filter(|ancestor| ancestor.index() < first),
            );
        }
        old.sort_unstable();
        old.dedup();
        let mut run = MatchRun {
            query: self,
            tree,
            split: None,
            mapping: vec![None; self.nodes.len()],
            results: Vec::new(),
            visited,
        };
        for pivot in 0..self.nodes.len() {
            run.split = Some((first, pivot));
            let roots = if pivot == 0 { &appended } else { &old };
            roots.iter().for_each(|&root| run.step(0, root));
        }
        (run.results, run.visited)
    }

    fn label_ok(&self, node: PatternNodeId, tree: &DataTree, data: NodeId) -> bool {
        match &self.nodes[node.0].label {
            Some(required) => tree.label(data) == required,
            None => true,
        }
    }

    fn joins_ok(&self, tree: &DataTree, mapping: &[Option<NodeId>]) -> bool {
        self.joins.iter().all(|group| {
            let labels: Vec<&str> = group
                .iter()
                .filter_map(|p| mapping[p.0].map(|d| tree.label(d)))
                .collect();
            labels.windows(2).all(|w| w[0] == w[1])
        })
    }
}

/// How selective a label must be for the matcher to seed from its
/// postings: it seeds when the label's postings times this factor are at
/// most the tree's arena slots, and scans otherwise. Seeding walks the
/// postings, checks that each is attached and sorts the candidates' root
/// paths; scanning tests one label per reachable node. Measured on a
/// 20 001-node tree of depth 2 whose seed label recurs every `k` slots,
/// the two cost the same at `k = 8` (379 µs seeded against 370 µs
/// scanned); at `k = 4` seeding takes 755 µs against 482 µs, and at
/// `k = 16` 166 µs against 330 µs.
const SEED_SELECTIVITY: usize = 8;

/// The state of one [`PatternQuery::matches_counted`] or
/// [`PatternQuery::matches_appended`] call: the partial mapping, the
/// matches so far and the nodes read.
struct MatchRun<'a> {
    query: &'a PatternQuery,
    tree: &'a DataTree,
    /// In a re-match, the first appended slot and the pivot: the pattern
    /// node that takes the match's first appended slot. `None` binds every
    /// pattern node to any slot.
    split: Option<(usize, usize)>,
    mapping: Vec<Option<NodeId>>,
    results: Vec<PatternMatch>,
    visited: usize,
}

/// The arena slots a pattern node may take; see
/// [`PatternQuery::matches_appended`].
#[derive(Clone, Copy)]
enum Slots {
    /// Any slot.
    Any,
    /// The slots before the first appended one, which it holds.
    Old(usize),
    /// The slots from the first appended one on, which it holds.
    Appended(usize),
}

impl Slots {
    fn admits(self, node: NodeId) -> bool {
        match self {
            Slots::Any => true,
            Slots::Old(first) => node.index() < first,
            Slots::Appended(first) => node.index() >= first,
        }
    }

    /// The admitted part of an ascending child list.
    fn of_children(self, children: &[NodeId]) -> &[NodeId] {
        let cut = |first: usize| children.partition_point(|child| child.index() < first);
        match self {
            Slots::Any => children,
            Slots::Old(first) => &children[..cut(first)],
            Slots::Appended(first) => &children[cut(first)..],
        }
    }
}

impl MatchRun<'_> {
    /// The slots pattern node `node` may take.
    fn slots(&self, node: usize) -> Slots {
        match self.split {
            None => Slots::Any,
            Some((first, pivot)) => match node.cmp(&pivot) {
                Ordering::Less => Slots::Old(first),
                Ordering::Equal => Slots::Appended(first),
                Ordering::Greater => Slots::Any,
            },
        }
    }

    /// Every match that maps pattern node `next` to `candidate`, given the
    /// nodes before it: counts the candidate as read and, if its label
    /// fits and the partial mapping violates no join, extends it.
    fn step(&mut self, next: usize, candidate: NodeId) {
        let (query, tree) = (self.query, self.tree);
        self.visited += 1;
        if query.label_ok(PatternNodeId(next), tree, candidate) {
            self.mapping[next] = Some(candidate);
            if query.joins_ok(tree, &self.mapping) {
                self.extend(next + 1);
            }
            self.mapping[next] = None;
        }
    }

    /// Every completion of the mapping from pattern node `next` on. Each
    /// node before it was bound by [`MatchRun::step`], which checked the
    /// joins.
    fn extend(&mut self, next: usize) {
        let (query, tree) = (self.query, self.tree);
        if next == query.nodes.len() {
            self.results.push(PatternMatch {
                mapping: self
                    .mapping
                    .iter()
                    .map(|m| m.expect("complete mapping"))
                    .collect(),
            });
            return;
        }
        let (parent_pattern, axis) = query.nodes[next]
            .parent
            .expect("non-root pattern nodes have a parent");
        let parent_data = self.mapping[parent_pattern.0].expect("parents are matched first");
        let slots = self.slots(next);
        match axis {
            Axis::Child => {
                for &candidate in slots.of_children(tree.children(parent_data)) {
                    self.step(next, candidate);
                }
            }
            Axis::Descendant => {
                for candidate in tree.iter_subtree(parent_data).skip(1) {
                    if slots.admits(candidate) {
                        self.step(next, candidate);
                    }
                }
            }
        }
    }
}

/// The distinct sub-datatrees `matches` induce, ascending.
fn induced_answers(tree: &DataTree, matches: &[PatternMatch]) -> Vec<SubDataTree> {
    let mut answers: Vec<SubDataTree> = matches.iter().map(|m| m.induced_subtree(tree)).collect();
    answers.sort_unstable();
    answers.dedup();
    answers
}

impl Query for PatternQuery {
    fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree> {
        induced_answers(tree, &self.matches(tree))
    }

    /// The answers through the appended slots, from the matcher's
    /// `matches_appended`, for every pattern: an answer holds a slot from
    /// `first` on exactly when its match maps a pattern node to one,
    /// because a parent's id is below its children's.
    fn evaluate_appended(
        &self,
        tree: &DataTree,
        first: usize,
    ) -> Option<(Vec<SubDataTree>, usize)> {
        let (matches, visited) = self.matches_appended(tree, first);
        Some((induced_answers(tree, &matches), visited))
    }

    fn describe(&self) -> String {
        format!(
            "tree-pattern query ({} nodes, {} joins{})",
            self.nodes.len(),
            self.joins.len(),
            if self.anchored { ", anchored" } else { "" }
        )
    }

    /// A fully labeled pattern's answers bind only nodes carrying the
    /// pattern's labels (plus their ancestors, kept by the parent
    /// closure), so the label set is a sound maintenance footprint. One
    /// wildcard makes the reachable label set unbounded — `None`, and
    /// maintenance then re-matches at the appended nodes of every commit.
    fn label_footprint(&self) -> Option<BTreeSet<String>> {
        self.nodes.iter().map(|n| n.label.clone()).collect()
    }

    /// Positive tree patterns (with joins) are locally monotone: a match
    /// lives entirely inside its induced sub-datatree, so membership of
    /// an answer never depends on nodes outside it. The certificate is an
    /// O(|pattern|) well-formedness walk — the type only admits positive
    /// label/axis/join constraints, so every well-formed pattern is
    /// certified.
    fn monotonicity(&self) -> MonotonicityCertificate {
        for (i, node) in self.nodes.iter().enumerate() {
            match node.parent {
                None if i != 0 => {
                    return MonotonicityCertificate::Rejected {
                        reason: format!("pattern node {i} is a second root"),
                    }
                }
                Some((parent, _)) if parent.0 >= i => {
                    return MonotonicityCertificate::Rejected {
                        reason: format!("pattern node {i} precedes its parent"),
                    }
                }
                _ => {}
            }
        }
        MonotonicityCertificate::Certified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbTree;
    use proptest::prelude::*;
    use pxml_events::{Condition, EventTable};
    use pxml_tree::builder::TreeSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small "warehouse" fixture:
    /// A
    /// ├── B
    /// │   └── D
    /// ├── C
    /// │   └── D
    /// └── C
    fn fixture() -> DataTree {
        TreeSpec::node(
            "A",
            vec![
                TreeSpec::node("B", vec![TreeSpec::leaf("D")]),
                TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
                TreeSpec::leaf("C"),
            ],
        )
        .build()
    }

    #[test]
    fn child_axis_matching() {
        let tree = fixture();
        // //C with a D child.
        let mut q = PatternQuery::new(Some("C"));
        q.add_child(q.root(), "D");
        let matches = q.matches(&tree);
        assert_eq!(matches.len(), 1);
        let results = q.evaluate(&tree);
        assert_eq!(results.len(), 1);
        // The answer keeps the path to the root: A, C, D.
        assert_eq!(results[0].len(), 3);
    }

    #[test]
    fn descendant_axis_matching() {
        let tree = fixture();
        // A anchored at the root with any D descendant.
        let mut q = PatternQuery::anchored(Some("A"));
        q.add_descendant(q.root(), "D");
        let matches = q.matches(&tree);
        assert_eq!(matches.len(), 2, "two D nodes below the root");
        // Two distinct sub-datatrees (through B and through C).
        assert_eq!(q.evaluate(&tree).len(), 2);
    }

    #[test]
    fn wildcard_labels() {
        let tree = fixture();
        // Any node with a D child.
        let mut q = PatternQuery::new(None);
        q.add_child(q.root(), "D");
        assert_eq!(q.matches(&tree).len(), 2);
    }

    #[test]
    fn unanchored_root_matches_everywhere() {
        let tree = fixture();
        let q = PatternQuery::new(Some("C"));
        assert_eq!(q.matches(&tree).len(), 2);
        let anchored = PatternQuery::anchored(Some("C"));
        assert_eq!(anchored.matches(&tree).len(), 0);
    }

    #[test]
    fn join_constraint_requires_equal_labels() {
        // A with two children that must carry the same label.
        let tree = TreeSpec::node(
            "A",
            vec![
                TreeSpec::leaf("X"),
                TreeSpec::leaf("X"),
                TreeSpec::leaf("Y"),
            ],
        )
        .build();
        let mut q = PatternQuery::anchored(Some("A"));
        let c1 = q.add_node(q.root(), Axis::Child, None);
        let c2 = q.add_node(q.root(), Axis::Child, None);
        q.add_join(vec![c1, c2]);
        let matches = q.matches(&tree);
        // Pairs with equal labels: (X1,X1), (X1,X2), (X2,X1), (X2,X2),
        // (Y,Y) = 5 ordered pairs.
        assert_eq!(matches.len(), 5);
        for m in &matches {
            let l1 = tree.label(m.node(c1));
            let l2 = tree.label(m.node(c2));
            assert_eq!(l1, l2);
        }
    }

    #[test]
    fn evaluate_deduplicates_subtrees() {
        // Two matches mapping different pattern nodes to the same data
        // nodes induce the same sub-datatree.
        let tree = TreeSpec::node("A", vec![TreeSpec::leaf("X"), TreeSpec::leaf("X")]).build();
        let mut q = PatternQuery::anchored(Some("A"));
        q.add_node(q.root(), Axis::Child, Some("X"));
        q.add_node(q.root(), Axis::Child, Some("X"));
        // 4 matches (each pattern child can go to either X), but only 3
        // distinct node sets: {X1}, {X2}, {X1, X2}... plus the root, and
        // actually {X1,X1} collapses to {A,X1}.
        let matches = q.matches(&tree);
        assert_eq!(matches.len(), 4);
        let results = q.evaluate(&tree);
        assert_eq!(results.len(), 3);
        // The answers come in the order and number a `BTreeSet` of the
        // induced sub-datatrees gives.
        let by_set: BTreeSet<SubDataTree> =
            matches.iter().map(|m| m.induced_subtree(&tree)).collect();
        assert_eq!(results, by_set.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn no_match_returns_empty_answer() {
        let tree = fixture();
        let mut q = PatternQuery::new(Some("Z"));
        q.add_child(q.root(), "D");
        assert!(q.matches(&tree).is_empty());
        assert!(q.evaluate(&tree).is_empty());
    }

    #[test]
    fn describe_mentions_shape() {
        let mut q = PatternQuery::anchored(Some("A"));
        let c = q.add_child(q.root(), "B");
        let d = q.add_child(q.root(), "C");
        q.add_join(vec![c, d]);
        let text = q.describe();
        assert!(text.contains("3 nodes"));
        assert!(text.contains("1 joins"));
        assert!(text.contains("anchored"));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn join_with_single_node_is_rejected() {
        let mut q = PatternQuery::new(None);
        let root = q.root();
        q.add_join(vec![root]);
    }

    #[test]
    #[should_panic(expected = "unknown pattern node")]
    fn join_over_an_unknown_node_is_rejected() {
        let mut q = PatternQuery::new(Some("A"));
        let root = q.root();
        q.add_join(vec![root, PatternNodeId(1)]);
    }

    /// Reference matcher: identical backtracking, but every reachable node
    /// tried as the pattern root (no postings) and descendant-axis
    /// candidates collected via `tree.descendants` per partial match.
    /// Ground truth for the seeded matcher and its subtree walks.
    fn matches_naive(q: &PatternQuery, tree: &DataTree) -> Vec<PatternMatch> {
        fn extend(
            q: &PatternQuery,
            tree: &DataTree,
            next: usize,
            mapping: &mut Vec<Option<NodeId>>,
            results: &mut Vec<PatternMatch>,
        ) {
            if next == q.nodes.len() {
                if q.joins_ok(tree, mapping) {
                    results.push(PatternMatch {
                        mapping: mapping.iter().map(|m| m.unwrap()).collect(),
                    });
                }
                return;
            }
            let (parent_pattern, axis) = q.nodes[next].parent.unwrap();
            let parent_data = mapping[parent_pattern.0].unwrap();
            let candidates: Vec<NodeId> = match axis {
                Axis::Child => tree.children(parent_data).to_vec(),
                Axis::Descendant => {
                    let mut d = tree.descendants(parent_data);
                    d.retain(|&n| n != parent_data);
                    d
                }
            };
            for candidate in candidates {
                if q.label_ok(PatternNodeId(next), tree, candidate) {
                    mapping[next] = Some(candidate);
                    if q.joins_ok(tree, mapping) {
                        extend(q, tree, next + 1, mapping, results);
                    }
                    mapping[next] = None;
                }
            }
        }
        let mut results = Vec::new();
        let root_candidates: Vec<NodeId> = if q.anchored {
            vec![tree.root()]
        } else {
            tree.iter().collect()
        };
        let mut mapping: Vec<Option<NodeId>> = vec![None; q.nodes.len()];
        for candidate in root_candidates {
            if q.label_ok(PatternNodeId(0), tree, candidate) {
                mapping[0] = Some(candidate);
                extend(q, tree, 1, &mut mapping, &mut results);
                mapping[0] = None;
            }
        }
        results
    }

    /// The descendant walk serves exactly the matches of the naive
    /// per-partial-match `descendants` collection, on a deep path where
    /// every node's subtree holds the rest of the path.
    #[test]
    fn descendant_index_agrees_with_naive_on_deep_paths() {
        let mut tree = DataTree::new("A");
        let mut cur = tree.root();
        for i in 0..200 {
            cur = tree.add_child(cur, if i % 7 == 0 { "M" } else { "A" });
        }
        let mut q = PatternQuery::new(None);
        q.add_descendant(q.root(), "M");
        let fast = q.matches(&tree);
        assert_eq!(fast, matches_naive(&q, &tree));
        // 29 M nodes, each a strict descendant of everything above it.
        assert!(!fast.is_empty());
    }

    #[test]
    fn descendant_index_agrees_with_naive_on_branchy_trees() {
        // A deterministic pseudo-random shape with repeated labels, two
        // descendant axes and a join — exercises slices at every depth.
        let mut tree = DataTree::new("R");
        let mut nodes = vec![tree.root()];
        let mut state = 0x9E37u32;
        for _ in 0..120 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let parent = nodes[(state >> 8) as usize % nodes.len()];
            let label = ["A", "B", "C"][(state >> 3) as usize % 3];
            nodes.push(tree.add_child(parent, label));
        }
        let mut q = PatternQuery::new(Some("A"));
        let x = q.add_node(q.root(), Axis::Descendant, None);
        let y = q.add_node(q.root(), Axis::Descendant, None);
        q.add_join(vec![x, y]);
        assert_eq!(q.matches(&tree), matches_naive(&q, &tree));
    }

    /// A descendant walk must skip detached arena slots (matching runs on
    /// trees that have been updated in place).
    #[test]
    fn matching_after_detach_skips_detached_subtrees() {
        let mut tree = DataTree::new("A");
        let root = tree.root();
        let b = tree.add_child(root, "B");
        tree.add_child(b, "D");
        let c = tree.add_child(root, "C");
        tree.add_child(c, "D");
        tree.detach(b);
        let mut q = PatternQuery::new(None);
        q.add_descendant(q.root(), "D");
        // Only C's D remains reachable: matched from A and from C.
        assert_eq!(q.matches(&tree).len(), 2);
    }

    /// A seeded match reads the needle's postings and tests their roots;
    /// a scan tests every reachable node as the pattern root.
    #[test]
    fn a_seeded_match_reads_postings_not_the_tree() {
        let mut tree = DataTree::new("A");
        let root = tree.root();
        for i in 0..500 {
            let b = tree.add_child(root, "B");
            tree.add_child(b, if i % 250 == 7 { "needle" } else { "C" });
        }
        let mut q = PatternQuery::new(Some("B"));
        q.add_child(q.root(), "needle");
        let (scanned, scan_visited) = q.matches_counted(&tree);
        assert_eq!(scanned.len(), 2);
        assert_eq!(scan_visited, 1_001 + 500, "every node, then each B's child");
        tree.index_labels();
        let (seeded, seed_visited) = q.matches_counted(&tree);
        assert_eq!(seeded, scanned);
        assert_eq!(
            seed_visited,
            2 + 2 + 2,
            "two postings, two roots, their children"
        );
        // A label the tree lacks has no postings: nothing to try.
        let absent = PatternQuery::new(Some("Z"));
        assert_eq!(absent.matches_counted(&tree), (Vec::new(), 0));
        // A common label is scanned for.
        let common = PatternQuery::new(Some("C"));
        assert_eq!(common.matches_counted(&tree).1, 1_001);
    }

    /// The matches through an appended slot, as sorted mappings: what
    /// `matches_appended` must return, each match once.
    fn appended_matches(q: &PatternQuery, tree: &DataTree, first: usize) -> Vec<Vec<NodeId>> {
        let mut all: Vec<Vec<NodeId>> = q
            .matches(tree)
            .into_iter()
            .map(|m| m.mapping)
            .filter(|mapping| mapping.iter().any(|node| node.index() >= first))
            .collect();
        all.sort_unstable();
        all
    }

    /// `A → {B₁ → {C, D → E}, B₂}` grown by `D′ → E′` under `B₁` and by
    /// `C″, D″ → E″` under `B₂`: the match through `D′` holds two appended
    /// slots, and the one under `B₂` holds three. Each is enumerated once,
    /// from its first appended pattern node, for child and descendant
    /// edges and for an anchored root; the old match under `B₁` is not.
    #[test]
    fn a_rematch_enumerates_each_match_through_appended_slots_once() {
        let mut tree = DataTree::new("A");
        let root = tree.root();
        let b1 = tree.add_child(root, "B");
        tree.add_child(b1, "C");
        let d = tree.add_child(b1, "D");
        tree.add_child(d, "E");
        let b2 = tree.add_child(root, "B");
        let first = tree.arena_len();
        let d1 = tree.add_child(b1, "D");
        tree.add_child(d1, "E");
        tree.add_child(b2, "C");
        let d2 = tree.add_child(b2, "D");
        tree.add_child(d2, "E");
        let mut child_edges = PatternQuery::new(Some("B"));
        child_edges.add_child(child_edges.root(), "C");
        let dn = child_edges.add_child(child_edges.root(), "D");
        child_edges.add_child(dn, "E");
        let mut descendant_edges = PatternQuery::anchored(Some("A"));
        let bn = descendant_edges.add_child(descendant_edges.root(), "B");
        descendant_edges.add_descendant(bn, "E");
        descendant_edges.add_node(bn, Axis::Child, Some("C"));
        let mut pivots = PatternQuery::new(Some("B"));
        pivots.add_child(pivots.root(), "D");
        pivots.add_child(pivots.root(), "C");
        for (q, expected) in [(&child_edges, 2), (&descendant_edges, 2), (&pivots, 2)] {
            let (found, _) = q.matches_appended(&tree, first);
            let mut found: Vec<Vec<NodeId>> = found.into_iter().map(|m| m.mapping).collect();
            found.sort_unstable();
            assert_eq!(found, appended_matches(q, &tree, first), "{q:?}");
            assert_eq!(found.len(), expected, "{q:?}");
            let appended =
                |mapping: &Vec<NodeId>| mapping.iter().filter(|node| node.index() >= first).count();
            assert!(found.iter().any(|mapping| appended(mapping) >= 2));
        }
    }

    /// Label alphabet of the random trees: `r` is rare enough for the
    /// matcher to seed from it, and `z` appears only in patterns.
    const LABELS: [&str; 5] = ["a", "a", "b", "c", "r"];

    fn random_label(rng: &mut StdRng) -> &'static str {
        if rng.gen_range(0..12) == 0 {
            "r"
        } else {
            LABELS[rng.gen_range(0..LABELS.len() - 1)]
        }
    }

    fn random_tree(rng: &mut StdRng, nodes: usize) -> DataTree {
        let mut tree = DataTree::new(random_label(rng));
        let mut all = vec![tree.root()];
        for _ in 1..nodes {
            let parent = all[rng.gen_range(0..all.len())];
            all.push(tree.add_child(parent, random_label(rng)));
        }
        tree
    }

    /// A pattern of one to four nodes: child or descendant edges, labels
    /// from the tree's alphabet, `z` or a wildcard, an optional join, and
    /// an anchored or unanchored root.
    fn random_pattern(rng: &mut StdRng) -> PatternQuery {
        let label = |rng: &mut StdRng| match rng.gen_range(0..10) {
            0 | 1 => None,
            2 => Some("z"),
            3 | 4 => Some("r"),
            _ => Some(random_label(rng)),
        };
        let root = label(rng);
        let mut q = if rng.gen_range(0..3) == 0 {
            PatternQuery::anchored(root)
        } else {
            PatternQuery::new(root)
        };
        for _ in 0..rng.gen_range(0..4) {
            let parent = PatternNodeId(rng.gen_range(0..q.len()));
            let axis = if rng.gen_range(0..3) == 0 {
                Axis::Descendant
            } else {
                Axis::Child
            };
            let node_label = label(rng);
            q.add_node(parent, axis, node_label);
        }
        if q.len() >= 2 && rng.gen_range(0..4) == 0 {
            let first = rng.gen_range(0..q.len());
            let second = (first + rng.gen_range(1..q.len())) % q.len();
            q.add_join(vec![PatternNodeId(first), PatternNodeId(second)]);
        }
        q
    }

    /// A random edit of a prob-tree: a leaf, a graft, a detach or a deep
    /// copy, at attached nodes.
    fn random_edit(rng: &mut StdRng, tree: &mut ProbTree) {
        let attached: Vec<NodeId> = tree.tree().iter().collect();
        let at = attached[rng.gen_range(0..attached.len())];
        match rng.gen_range(0..4) {
            0 => {
                let label = random_label(rng);
                tree.add_child(at, label, Condition::always());
            }
            1 => {
                let size = rng.gen_range(1..5);
                let subtree = random_tree(rng, size);
                tree.graft_data_tree(at, &subtree, Condition::always());
            }
            2 if at != tree.tree().root() => tree.detach(at),
            _ => {
                let parent = attached[rng.gen_range(0..attached.len())];
                if !tree.tree().is_ancestor_or_self(at, parent) {
                    tree.duplicate_subtree_deep(parent, at, [Condition::always()]);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `matches` equals the naive matcher as a whole sequence, order
        /// included: on a tree without postings, on indexed clones that
        /// diverge through random edits, and on a compacted tree indexed
        /// again.
        #[test]
        fn matches_equal_the_naive_matcher_in_order(
            seed in any::<u64>(),
            nodes in 1..70usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let patterns: Vec<PatternQuery> = (0..8).map(|_| random_pattern(&mut rng)).collect();
            let check = |tree: &DataTree| {
                for q in &patterns {
                    assert_eq!(q.matches(tree), matches_naive(q, tree), "{q:?}");
                }
            };
            let mut base = ProbTree::from_data_tree(random_tree(&mut rng, nodes), EventTable::new());
            check(base.tree());
            base.index_labels();
            check(base.tree());
            let mut clones = vec![base.clone(), base.clone(), base];
            for step in 0..12 {
                let which = step % clones.len();
                random_edit(&mut rng, &mut clones[which]);
                for clone in &clones {
                    prop_assert!(clone.tree().has_postings());
                    check(clone.tree());
                }
            }
            let (mut compacted, _) = clones[0].compact();
            prop_assert!(!compacted.tree().has_postings());
            check(compacted.tree());
            compacted.index_labels();
            check(compacted.tree());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `evaluate_appended` returns `Some` for every pattern, joins and
        /// wildcards included, with exactly the answers of `evaluate` that
        /// hold a slot from `first` on, in the same order: on a tree grown
        /// by random edits past its indexed base, cut at the base's arena,
        /// at a random slot and at the end. Below it, `matches_appended`
        /// finds each match through such a slot exactly once.
        #[test]
        fn appended_answers_are_the_answers_through_the_appended_slots(
            seed in any::<u64>(),
            nodes in 1..50usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let patterns: Vec<PatternQuery> = (0..8).map(|_| random_pattern(&mut rng)).collect();
            let mut tree =
                ProbTree::from_data_tree(random_tree(&mut rng, nodes), EventTable::new());
            tree.index_labels();
            let base = tree.tree().arena_len();
            for _ in 0..6 {
                random_edit(&mut rng, &mut tree);
            }
            let data = tree.tree();
            let cuts = [base, rng.gen_range(0..=data.arena_len()), data.arena_len()];
            for q in &patterns {
                let all = q.evaluate(data);
                for first in cuts {
                    let through: Vec<SubDataTree> = all
                        .iter()
                        .filter(|answer| answer.nodes().any(|node| node.index() >= first))
                        .cloned()
                        .collect();
                    let found = q.evaluate_appended(data, first).map(|(found, _)| found);
                    prop_assert_eq!(found, Some(through), "{:?} from slot {}", q, first);
                    let (found, _) = q.matches_appended(data, first);
                    let mut found: Vec<Vec<NodeId>> =
                        found.into_iter().map(|m| m.mapping).collect();
                    found.sort_unstable();
                    prop_assert_eq!(found, appended_matches(q, data, first));
                }
            }
        }
    }

    #[test]
    fn results_are_subdatatrees() {
        // Every answer must contain the data root and be closed under
        // parents (Definition 5 / 6).
        let tree = fixture();
        let q = PatternQuery::new(Some("D"));
        let _ = q;
        let q = PatternQuery::new(Some("D"));
        for sub in q.evaluate(&tree) {
            assert!(sub.contains(tree.root()));
            for n in sub.nodes() {
                if let Some(p) = tree.parent(n) {
                    assert!(sub.contains(p));
                }
            }
        }
    }
}
