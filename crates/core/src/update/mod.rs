//! Probabilistic updates (Section 2, Appendix A, Theorem 3).
//!
//! An *update operation* `τ = (Q, v)` couples a locally monotone query `Q`
//! with either an insertion `i(n, t')` (insert the tree `t'` as a child of
//! the node matched by pattern node `n`) or a deletion `d(n)` (delete the
//! node matched by `n` together with its subtree). A *probabilistic update*
//! `(τ, c)` additionally carries a confidence `c ∈ (0, 1]` — the belief the
//! system has in the operation. Each probabilistic update with `c < 1`
//! introduces one fresh event variable with probability `c`.
//!
//! Updates are defined on plain data trees (Definition 15), on
//! possible-world sets (Definition 16) and on prob-trees (the Appendix A
//! algorithms, generalized here to queries with several matches). The key
//! asymmetry studied by the paper (Proposition 2, Theorem 3): insertions
//! grow the prob-tree by `O(|Q(t)| · |T|)`, while deletions may blow it up
//! to `Ω(2^n)` because the negation of a disjunction of conjunctions must
//! be re-expressed as conjunctive node conditions.
//!
//! The prob-tree algorithms live in the [`UpdateEngine`] ([`engine`]):
//! deletion targets are processed **deepest-first against the evolving
//! tree** (so nested targets — one matched `at`-node an ancestor of
//! another — receive their own survival split inside the ancestor's
//! survivor copies), grouping and iteration are `BTreeMap`/sorted
//! everywhere (byte-identical output across runs), and negation chains
//! order shared literals first to curb the Theorem 3 blow-up. Batched
//! sequences are applied through an [`UpdateScript`] ([`script`]) with
//! per-step size/literal telemetry, and each step can run the [`simplify`](mod@simplify)
//! pass (cleaning, certain-event pruning, disjoint sibling-cover merging)
//! to shrink deletion output. The `pxml_integration` property suite
//! cross-checks [`UpdateEngine::apply`] against
//! [`ProbabilisticUpdate::apply_to_pw_set`].

pub mod engine;
pub mod script;
pub mod simplify;

pub use engine::{
    DeletionForecast, StepReport, StepScope, SurvivorBudgetExceeded, UpdateEngine,
    UpdateEngineConfig,
};
pub use script::{ScriptReport, UpdateScript};
pub use simplify::{simplify, SimplifyReport};

use pxml_tree::{DataTree, NodeId};

use crate::pwset::PossibleWorldSet;
use crate::query::pattern::{PatternNodeId, PatternQuery};

/// The action part of an update operation (Definition 14).
#[derive(Clone, Debug)]
pub enum UpdateAction {
    /// `i(n, t')`: insert a copy of `subtree` as a new child of the data
    /// node matched by pattern node `at`.
    Insert {
        /// Pattern node selecting the insertion parent.
        at: PatternNodeId,
        /// The tree to insert.
        subtree: DataTree,
    },
    /// `d(n)`: delete the data node matched by pattern node `at`, together
    /// with its descendants.
    Delete {
        /// Pattern node selecting the node to delete.
        at: PatternNodeId,
    },
}

/// An (elementary) update operation `τ = (Q, v)` (Definition 14).
#[derive(Clone, Debug)]
pub struct UpdateOperation {
    /// The defining query.
    pub query: PatternQuery,
    /// The insertion or deletion to perform at the matched positions.
    pub action: UpdateAction,
}

/// A probabilistic update operation `(τ, c)` (Appendix A).
#[derive(Clone, Debug)]
pub struct ProbabilisticUpdate {
    /// The underlying update operation.
    pub operation: UpdateOperation,
    /// Confidence in the operation, in `(0, 1]`. A confidence of exactly 1
    /// does not introduce a new event variable.
    pub confidence: f64,
}

impl UpdateOperation {
    /// Builds an insertion operation.
    ///
    /// # Panics
    /// Panics if `at` is not a node of `query`.
    pub fn insert(query: PatternQuery, at: PatternNodeId, subtree: DataTree) -> Self {
        assert_target(&query, at);
        UpdateOperation {
            query,
            action: UpdateAction::Insert { at, subtree },
        }
    }

    /// Builds a deletion operation.
    ///
    /// # Panics
    /// Panics if `at` is not a node of `query`.
    pub fn delete(query: PatternQuery, at: PatternNodeId) -> Self {
        assert_target(&query, at);
        UpdateOperation {
            query,
            action: UpdateAction::Delete { at },
        }
    }

    /// Applies the operation to a plain data tree (Definition 15). Worlds
    /// not matched by the query are returned unchanged.
    pub fn apply_to_data_tree(&self, tree: &DataTree) -> DataTree {
        let matches = self.query.matches(tree);
        if matches.is_empty() {
            return tree.clone();
        }
        let mut out = tree.clone();
        match &self.action {
            UpdateAction::Insert { at, subtree } => {
                // Possibly inserting multiple times at the same place, as
                // Definition 15 specifies.
                for m in &matches {
                    out.graft(m.node(*at), subtree);
                }
            }
            UpdateAction::Delete { at } => {
                let mut targets: Vec<NodeId> = matches.iter().map(|m| m.node(*at)).collect();
                targets.sort();
                targets.dedup();
                for target in targets {
                    assert!(
                        target != out.root(),
                        "deleting the root of a data tree is not supported"
                    );
                    // A target nested inside another target's subtree is
                    // already gone once the ancestor is detached; detaching
                    // it again would splice it out of the (detached)
                    // ancestor's child list for nothing.
                    if out.is_attached(target) {
                        out.detach(target);
                    }
                }
            }
        }
        out.compact().0
    }

    /// Whether the operation deletes the root of `tree`, which neither
    /// [`UpdateOperation::apply_to_data_tree`] nor the prob-tree
    /// algorithms support. Only the pattern root can bind the tree root,
    /// so the matcher runs only for a deletion at the pattern root whose
    /// label is the root's label or a wildcard.
    pub fn deletes_root(&self, tree: &DataTree) -> bool {
        let UpdateAction::Delete { at } = self.action else {
            return false;
        };
        let root = tree.root();
        if at != self.query.root()
            || self
                .query
                .label(at)
                .is_some_and(|label| label != tree.label(root))
        {
            return false;
        }
        self.query.matches(tree).iter().any(|m| m.node(at) == root)
    }

    /// Whether the query selects `tree` (has at least one match).
    pub fn selects(&self, tree: &DataTree) -> bool {
        !self.query.matches(tree).is_empty()
    }
}

/// The constructors' check that an update's target is one of its query's
/// nodes, where matching would otherwise index past the match's nodes.
fn assert_target(query: &PatternQuery, at: PatternNodeId) {
    assert!(
        at.0 < query.len(),
        "update target {} is not a node of its {}-node query",
        at.0,
        query.len()
    );
}

impl ProbabilisticUpdate {
    /// Builds a probabilistic update.
    ///
    /// # Panics
    /// Panics if `confidence` is not in `(0, 1]` (the paper's convention:
    /// zero-confidence updates are simply not performed).
    pub fn new(operation: UpdateOperation, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "update confidence must lie in (0, 1], got {confidence}"
        );
        ProbabilisticUpdate {
            operation,
            confidence,
        }
    }

    /// Applies the probabilistic update to a possible-world set
    /// (Definition 16).
    pub fn apply_to_pw_set(&self, pw: &PossibleWorldSet) -> PossibleWorldSet {
        let mut out = PossibleWorldSet::new();
        for (tree, p) in pw.iter() {
            if !self.operation.selects(tree) {
                out.push(tree.clone(), *p);
                continue;
            }
            out.push(self.operation.apply_to_data_tree(tree), p * self.confidence);
            if self.confidence < 1.0 {
                out.push(tree.clone(), p * (1.0 - self.confidence));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::{figure1_example, ProbTree};
    use crate::semantics::possible_worlds;
    use pxml_events::{prob_eq, Condition, Literal};
    use pxml_tree::builder::TreeSpec;

    /// Insertion: add an E child under every C node, with confidence 0.9.
    fn insert_e_under_c(confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some("C"));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new("E")),
            confidence,
        )
    }

    /// Deletion d0 of Theorem 3: "if the root has a C-child, delete all
    /// B-children of the root".
    fn d0(confidence: f64) -> ProbabilisticUpdate {
        let mut q = PatternQuery::anchored(Some("A"));
        let b = q.add_child(q.root(), "B");
        let _c = q.add_child(q.root(), "C");
        ProbabilisticUpdate::new(UpdateOperation::delete(q, b), confidence)
    }

    #[test]
    fn data_tree_insertion_inserts_at_every_match() {
        let tree = TreeSpec::node(
            "A",
            vec![
                TreeSpec::leaf("C"),
                TreeSpec::leaf("C"),
                TreeSpec::leaf("B"),
            ],
        )
        .build();
        let update = insert_e_under_c(1.0);
        let updated = update.operation.apply_to_data_tree(&tree);
        assert_eq!(updated.len(), 6);
        assert_eq!(
            updated.iter().filter(|&n| updated.label(n) == "E").count(),
            2
        );
    }

    #[test]
    fn data_tree_deletion_removes_all_matched_subtrees() {
        let tree = TreeSpec::node(
            "A",
            vec![
                TreeSpec::node("B", vec![TreeSpec::leaf("X")]),
                TreeSpec::leaf("B"),
                TreeSpec::leaf("C"),
            ],
        )
        .build();
        let update = d0(1.0);
        let updated = update.operation.apply_to_data_tree(&tree);
        assert_eq!(updated.len(), 2, "both B subtrees are gone: {updated:?}");
    }

    /// B-under-B: a deletion whose targets nest must delete the outer
    /// subtree once, without trying to detach the inner target from the
    /// already-detached outer one.
    #[test]
    fn data_tree_deletion_with_nested_targets() {
        // A → B → B → X, plus a sibling C so the pattern below matches both
        // B nodes. Delete every B.
        let tree = TreeSpec::node(
            "A",
            vec![
                TreeSpec::node("B", vec![TreeSpec::node("B", vec![TreeSpec::leaf("X")])]),
                TreeSpec::leaf("C"),
            ],
        )
        .build();
        let q = PatternQuery::new(Some("B"));
        let at = q.root();
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, at), 1.0);
        assert_eq!(update.operation.query.matches(&tree).len(), 2);
        let updated = update.operation.apply_to_data_tree(&tree);
        assert_eq!(updated.len(), 2, "only A and C remain: {updated:?}");
        assert!(updated.iter().all(|n| updated.label(n) != "B"));
    }

    #[test]
    fn unmatched_trees_are_left_alone() {
        let tree = TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build();
        // d0 requires a C child; there is none, so nothing happens.
        let update = d0(1.0);
        let updated = update.operation.apply_to_data_tree(&tree);
        assert_eq!(updated.len(), 2);
        assert!(!update.operation.selects(&tree));
    }

    #[test]
    fn pw_set_update_splits_selected_worlds() {
        let t = figure1_example();
        let pw = possible_worlds(&t, 20).unwrap().normalized();
        let update = insert_e_under_c(0.9);
        let updated = update.apply_to_pw_set(&pw);
        assert!(prob_eq(updated.total_probability(), 1.0));
        // Every world contains a C node, so every world splits in two.
        assert_eq!(updated.len(), 2 * pw.len());
    }

    #[test]
    fn probtree_insertion_matches_pw_semantics() {
        let t = figure1_example();
        let update = insert_e_under_c(0.9);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert!(report.new_event.is_some());
        assert_eq!(updated.events().len(), 3);
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(
            direct.isomorphic(&via_pw),
            "J(τ,c)(T)K ≁ (τ,c)(JT K)\nupdated:\n{}",
            updated.to_ascii()
        );
    }

    #[test]
    fn probtree_insertion_with_full_confidence_adds_no_event() {
        let t = figure1_example();
        let update = insert_e_under_c(1.0);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert!(report.new_event.is_none());
        assert_eq!(updated.events().len(), 2);
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(direct.isomorphic(&via_pw));
    }

    #[test]
    fn probtree_deletion_matches_pw_semantics_on_figure1() {
        // Delete D under C whenever present, with confidence 0.6.
        let t = figure1_example();
        let mut q = PatternQuery::new(Some("C"));
        let d = q.add_child(q.root(), "D");
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, d), 0.6);
        let (updated, _) = UpdateEngine::new().apply(&t, &update);
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(
            direct.isomorphic(&via_pw),
            "deletion semantics mismatch\n{}",
            updated.to_ascii()
        );
    }

    #[test]
    fn theorem3_deletion_blowup_shape() {
        // Build the Theorem 3 prob-tree for n = 1..6 and check that the
        // deletion output size doubles with n.
        let mut previous_literals = 0usize;
        for n in 1..=6usize {
            let mut t = ProbTree::new("A");
            let root = t.tree().root();
            t.add_child(root, "B", Condition::always());
            for _ in 0..n {
                let w0 = t.events_mut().fresh(0.5);
                let w1 = t.events_mut().fresh(0.5);
                t.add_child(
                    root,
                    "C",
                    Condition::from_literals([Literal::pos(w0), Literal::pos(w1)]),
                );
            }
            let update = d0(1.0);
            let (updated, _) = UpdateEngine::new().apply(&t, &update);
            // The B node is replaced by 2^n copies.
            let b_copies = updated
                .tree()
                .iter()
                .filter(|&nd| updated.tree().label(nd) == "B")
                .count();
            assert_eq!(b_copies, 1 << n, "n = {n}");
            assert!(updated.num_literals() > previous_literals);
            previous_literals = updated.num_literals();
        }
    }

    #[test]
    fn theorem3_deletion_is_semantically_correct_for_small_n() {
        for n in 1..=3usize {
            let mut t = ProbTree::new("A");
            let root = t.tree().root();
            t.add_child(root, "B", Condition::always());
            for _ in 0..n {
                let w0 = t.events_mut().fresh(0.5);
                let w1 = t.events_mut().fresh(0.5);
                t.add_child(
                    root,
                    "C",
                    Condition::from_literals([Literal::pos(w0), Literal::pos(w1)]),
                );
            }
            let update = d0(1.0);
            let (updated, _) = UpdateEngine::new().apply(&t, &update);
            let direct = possible_worlds(&updated, 20).unwrap().normalized();
            let via_pw = update
                .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
                .normalized();
            assert!(direct.isomorphic(&via_pw), "n = {n}");
        }
    }

    #[test]
    fn deletion_with_confidence_below_one_keeps_survival_branch() {
        let t = figure1_example();
        let q = PatternQuery::new(Some("B"));
        let b = q.root();
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, b), 0.5);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert!(report.new_event.is_some());
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(direct.isomorphic(&via_pw));
    }

    #[test]
    fn insertion_size_bound_of_proposition2() {
        // |iQ(T)| ≤ |T| + O(|Q(t)|·|T|): inserting under every C of a
        // star with k C children grows the tree by exactly k nodes (+1
        // literal each when confidence < 1).
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for _ in 0..10 {
            t.add_child(root, "C", Condition::always());
        }
        let before = t.size();
        let update = insert_e_under_c(0.9);
        let (updated, _) = UpdateEngine::new().apply(&t, &update);
        assert_eq!(updated.num_nodes(), t.num_nodes() + 10);
        assert!(updated.size() <= before + 2 * 10);
    }

    #[test]
    #[should_panic(expected = "update target 1 is not a node of its 1-node query")]
    fn an_insertion_targeting_a_foreign_pattern_node_is_rejected() {
        let mut wider = PatternQuery::new(Some("C"));
        let d = wider.add_child(wider.root(), "D");
        UpdateOperation::insert(PatternQuery::new(Some("C")), d, DataTree::new("E"));
    }

    #[test]
    #[should_panic(expected = "update target 2 is not a node of its 2-node query")]
    fn a_deletion_targeting_a_foreign_pattern_node_is_rejected() {
        let mut wider = PatternQuery::new(Some("A"));
        wider.add_child(wider.root(), "B");
        let c = wider.add_child(wider.root(), "C");
        let mut narrow = PatternQuery::new(Some("A"));
        narrow.add_child(narrow.root(), "B");
        UpdateOperation::delete(narrow, c);
    }

    #[test]
    #[should_panic(expected = "confidence must lie in (0, 1]")]
    fn zero_confidence_updates_are_rejected() {
        let q = PatternQuery::new(Some("C"));
        let at = q.root();
        ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new("E")), 0.0);
    }
}
