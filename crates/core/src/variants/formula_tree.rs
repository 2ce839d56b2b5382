//! Prob-trees with arbitrary propositional formulas as conditions
//! (Section 5, "Arbitrary Propositional Formula").
//!
//! Allowing disjunctions in node conditions flips the complexity trade-off
//! of the base model:
//!
//! * **updates become cheap** — a deletion can simply conjoin `¬(selection
//!   formula)` onto the deleted node, so the output stays linear in the
//!   input even for the Theorem 3 family;
//! * **queries become expensive** — deciding whether a boolean query has a
//!   match with non-zero probability is NP-complete (by reduction from
//!   SAT), and computing answer probabilities requires weighted model
//!   counting instead of a product of independent literals.
//!
//! The paper concludes this variant "is not adapted to the applications
//! that motivated our work"; the E10 experiment measures both sides of the
//! trade-off.

use std::collections::HashMap;

use pxml_events::valuation::{all_valuations, TooManyValuations};
use pxml_events::{EventTable, Valuation};
use pxml_sat::{solve_dpll, Formula, Var};
use pxml_tree::{DataTree, NodeId};

use crate::pwset::PossibleWorldSet;
use crate::query::pattern::{PatternNodeId, PatternQuery};

/// A prob-tree whose non-root nodes carry arbitrary propositional formulas
/// over the event variables.
#[derive(Clone, Debug)]
pub struct FormulaProbTree {
    tree: DataTree,
    events: EventTable,
    /// Formula of every non-root node; absent means `true`. Formula
    /// variables are event indices (`Var(i)` ↔ the `i`-th event).
    formulas: HashMap<NodeId, Formula>,
}

impl FormulaProbTree {
    /// Creates a formula-tree with a single root node.
    pub fn new(label: impl Into<String>) -> Self {
        FormulaProbTree {
            tree: DataTree::new(label),
            events: EventTable::new(),
            formulas: HashMap::new(),
        }
    }

    /// The underlying data tree.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The event table.
    pub fn events(&self) -> &EventTable {
        &self.events
    }

    /// Mutable access to the event table.
    pub fn events_mut(&mut self) -> &mut EventTable {
        &mut self.events
    }

    /// The formula of a node (`true` if unannotated).
    pub fn formula(&self, node: NodeId) -> Formula {
        self.formulas.get(&node).cloned().unwrap_or(Formula::True)
    }

    /// Adds a child with the given formula.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        formula: Formula,
    ) -> NodeId {
        let id = self.tree.add_child(parent, label);
        if formula != Formula::True {
            self.formulas.insert(id, formula);
        }
        id
    }

    /// Total number of formula AST nodes (the size measure used by the E10
    /// experiment).
    pub fn formula_size(&self) -> usize {
        self.tree
            .iter()
            .map(|n| self.formulas.get(&n).map_or(0, Formula::size))
            .sum()
    }

    /// Size of the formula-tree: nodes + formula AST nodes.
    pub fn size(&self) -> usize {
        self.tree.len() + self.formula_size()
    }

    /// The world defined by a valuation (same pruning rule as Definition 4,
    /// with formula evaluation instead of conjunction evaluation).
    pub fn value_in_world(&self, valuation: &Valuation) -> DataTree {
        let assignment: Vec<bool> = (0..self.events.len())
            .map(|i| valuation.get(pxml_events::EventId::from_index(i)))
            .collect();
        let mut keep: HashMap<NodeId, bool> = HashMap::new();
        for node in self.tree.iter() {
            let parent_kept = self.tree.parent(node).is_none_or(|p| keep[&p]);
            let own = self.formula(node).eval(&assignment);
            keep.insert(node, parent_kept && own);
        }
        let (out, _) = self.tree.extract(&|n| keep[&n]);
        out
    }

    /// Exhaustive possible-world semantics (exponential; guarded).
    pub fn possible_worlds(
        &self,
        max_events: usize,
    ) -> Result<PossibleWorldSet, TooManyValuations> {
        let mut out = PossibleWorldSet::new();
        for valuation in all_valuations(self.events.len(), max_events)? {
            let world = self.value_in_world(&valuation);
            out.push(world, valuation.probability(&self.events));
        }
        Ok(out)
    }

    /// **Boolean query evaluation** — "does the query match with non-zero
    /// probability?" — decided with a SAT solver on the disjunction over
    /// matches of the conjunction of the matched nodes' path formulas.
    /// NP-complete in general (Section 5).
    pub fn query_possible(&self, query: &PatternQuery) -> bool {
        let selection = self.selection_formula(query);
        let cnf = selection.to_cnf_tseitin(self.events.len());
        solve_dpll(&cnf).is_some()
    }

    /// The selection formula of a query: the disjunction, over matches, of
    /// the conjunction of the matched nodes' formulas (including ancestor
    /// formulas, so it is exactly "some match survives in this world").
    pub fn selection_formula(&self, query: &PatternQuery) -> Formula {
        let mut disjuncts = Vec::new();
        for m in query.matches(&self.tree) {
            let sub = m.induced_subtree(&self.tree);
            let parts: Vec<Formula> = sub.nodes().map(|n| self.formula(n)).collect();
            disjuncts.push(Formula::And(parts));
        }
        if disjuncts.is_empty() {
            Formula::False
        } else {
            Formula::Or(disjuncts)
        }
    }

    /// Probability that the query has at least one match, computed by
    /// exhaustive weighted model counting (exponential; the hard direction
    /// of the Section 5 trade-off).
    pub fn query_probability_naive(
        &self,
        query: &PatternQuery,
        max_events: usize,
    ) -> Result<f64, TooManyValuations> {
        let selection = self.selection_formula(query);
        let mut total = 0.0;
        for valuation in all_valuations(self.events.len(), max_events)? {
            let assignment: Vec<bool> = (0..self.events.len())
                .map(|i| valuation.get(pxml_events::EventId::from_index(i)))
                .collect();
            if selection.eval(&assignment) {
                total += valuation.probability(&self.events);
            }
        }
        Ok(total)
    }

    /// **Cheap deletion** (the easy direction of the Section 5 trade-off):
    /// delete the nodes selected by `query` at pattern node `at` by
    /// conjoining the negation of the relevant selection formulas onto the
    /// deleted nodes. Output size grows only by the size of the query's
    /// match formulas — polynomial, in contrast with Theorem 3.
    ///
    /// With a confidence `c < 1`, a fresh event of probability `c` is
    /// added, and the node survives when the update event is false or the
    /// selection does not apply.
    pub fn delete(&mut self, query: &PatternQuery, at: PatternNodeId, confidence: f64) {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "update confidence must lie in (0, 1], got {confidence}"
        );
        let matches = query.matches(&self.tree);
        if matches.is_empty() {
            return;
        }
        let update_event = if confidence < 1.0 {
            Some(self.events.fresh(confidence))
        } else {
            None
        };
        // Group selection formulas per target node.
        let mut by_target: HashMap<NodeId, Vec<Formula>> = HashMap::new();
        for m in &matches {
            let target = m.node(at);
            let sub = m.induced_subtree(&self.tree);
            let parts: Vec<Formula> = sub.nodes().map(|n| self.formula(n)).collect();
            by_target
                .entry(target)
                .or_default()
                .push(Formula::And(parts));
        }
        for (target, selections) in by_target {
            let mut selection = Formula::Or(selections);
            if let Some(w) = update_event {
                selection = selection.and(Formula::Var(Var(w.index() as u32)));
            }
            let survives = self.formula(target).and(selection.not());
            self.formulas.insert(target, survives);
        }
    }

    /// Cheap insertion: grafts `subtree` under every node matched at `at`,
    /// guarded by the match's selection formula (and the update event when
    /// `confidence < 1`).
    pub fn insert(
        &mut self,
        query: &PatternQuery,
        at: PatternNodeId,
        subtree: &DataTree,
        confidence: f64,
    ) {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "update confidence must lie in (0, 1], got {confidence}"
        );
        let matches = query.matches(&self.tree);
        if matches.is_empty() {
            return;
        }
        let update_event = if confidence < 1.0 {
            Some(self.events.fresh(confidence))
        } else {
            None
        };
        for m in &matches {
            let target = m.node(at);
            let sub = m.induced_subtree(&self.tree);
            // Formulas of matched nodes that are not on the target's path
            // (the path part is implied by the tree structure).
            let mut parts: Vec<Formula> = sub
                .nodes()
                .filter(|&n| !self.tree.is_ancestor_or_self(n, target))
                .map(|n| self.formula(n))
                .collect();
            if let Some(w) = update_event {
                parts.push(Formula::Var(Var(w.index() as u32)));
            }
            let guard = Formula::And(parts);
            let new_root = self.tree.graft(target, subtree);
            if guard != Formula::And(vec![]) {
                self.formulas.insert(new_root, guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_events::prob_eq;

    /// The Theorem 3 family, expressed as a formula-tree: root A, one B
    /// child, and n C children each guarded by `w_i0 ∧ w_i1`.
    fn theorem3_formula_tree(n: usize) -> FormulaProbTree {
        let mut t = FormulaProbTree::new("A");
        let root = t.tree().root();
        t.add_child(root, "B", Formula::True);
        for _ in 0..n {
            let w0 = t.events_mut().fresh(0.5);
            let w1 = t.events_mut().fresh(0.5);
            t.add_child(
                root,
                "C",
                Formula::Var(Var(w0.index() as u32)).and(Formula::Var(Var(w1.index() as u32))),
            );
        }
        t
    }

    fn d0_query() -> (PatternQuery, PatternNodeId) {
        let mut q = PatternQuery::anchored(Some("A"));
        let b = q.add_child(q.root(), "B");
        let _c = q.add_child(q.root(), "C");
        (q, b)
    }

    #[test]
    fn formula_tree_semantics_matches_conjunctive_special_case() {
        // A formula-tree using only conjunctions agrees with the plain
        // prob-tree on Figure 1.
        let plain = crate::probtree::figure1_example();
        let mut ft = FormulaProbTree::new("A");
        let w1 = ft.events_mut().insert("w1", 0.8);
        let w2 = ft.events_mut().insert("w2", 0.7);
        let root = ft.tree().root();
        ft.add_child(
            root,
            "B",
            Formula::Var(Var(w1.index() as u32)).and(Formula::Var(Var(w2.index() as u32)).not()),
        );
        let c = ft.add_child(root, "C", Formula::True);
        ft.add_child(c, "D", Formula::Var(Var(w2.index() as u32)));
        let a = crate::semantics::possible_worlds(&plain, 20)
            .unwrap()
            .normalized();
        let b = ft.possible_worlds(20).unwrap().normalized();
        assert!(a.isomorphic(&b));
    }

    #[test]
    fn deletion_stays_linear_on_theorem3_family() {
        // The headline of the Section 5 variant: the Theorem 3 deletion
        // leaves the output linear in the input instead of exponential.
        let mut sizes = Vec::new();
        for n in [2usize, 4, 8] {
            let mut t = theorem3_formula_tree(n);
            let before = t.size();
            let (q, b) = d0_query();
            t.delete(&q, b, 1.0);
            let after = t.size();
            assert!(after <= before + 8 * n + 8, "n={n}: {before} -> {after}");
            sizes.push(after);
        }
        // Linear growth: doubling n roughly doubles the size, far from 2^n.
        assert!(sizes[2] < 4 * sizes[0]);
    }

    #[test]
    fn deletion_is_semantically_correct_for_small_n() {
        for n in 1..=3usize {
            let mut t = theorem3_formula_tree(n);
            let before = t.possible_worlds(20).unwrap();
            let (q, b) = d0_query();
            // Apply the same deletion to every world directly.
            let op = crate::update::UpdateOperation::delete(q.clone(), b);
            let expected = PossibleWorldSet::from_worlds(
                before
                    .iter()
                    .map(|(w, p)| (op.apply_to_data_tree(&w.to_tree()), *p))
                    .collect::<Vec<_>>(),
            )
            .normalized();
            t.delete(&q, b, 1.0);
            let after = t.possible_worlds(20).unwrap().normalized();
            assert!(after.isomorphic(&expected), "n = {n}");
        }
    }

    #[test]
    fn deletion_with_confidence_splits_worlds() {
        let mut t = theorem3_formula_tree(1);
        let (q, b) = d0_query();
        let before = t.possible_worlds(20).unwrap();
        let op = crate::update::UpdateOperation::delete(q.clone(), b);
        let pu = crate::update::ProbabilisticUpdate::new(op, 0.7);
        let expected = pu.apply_to_pw_set(&before).normalized();
        t.delete(&q, b, 0.7);
        let after = t.possible_worlds(20).unwrap().normalized();
        assert!(after.isomorphic(&expected));
    }

    #[test]
    fn insertion_is_semantically_correct() {
        let mut t = theorem3_formula_tree(2);
        let mut q = PatternQuery::anchored(Some("A"));
        let c = q.add_child(q.root(), "C");
        let before = t.possible_worlds(20).unwrap();
        let op = crate::update::UpdateOperation::insert(q.clone(), c, DataTree::new("E"));
        let pu = crate::update::ProbabilisticUpdate::new(op, 0.9);
        let expected = pu.apply_to_pw_set(&before).normalized();
        t.insert(&q, c, &DataTree::new("E"), 0.9);
        let after = t.possible_worlds(20).unwrap().normalized();
        assert!(after.isomorphic(&expected));
    }

    #[test]
    fn query_possible_uses_sat() {
        let mut t = FormulaProbTree::new("A");
        let w = t.events_mut().fresh(0.5);
        let root = t.tree().root();
        // B exists iff w; C exists iff ¬w. A query requiring both B and C
        // is impossible.
        t.add_child(root, "B", Formula::Var(Var(w.index() as u32)));
        t.add_child(root, "C", Formula::Var(Var(w.index() as u32)).not());
        let mut q_both = PatternQuery::anchored(Some("A"));
        q_both.add_child(q_both.root(), "B");
        q_both.add_child(q_both.root(), "C");
        assert!(!t.query_possible(&q_both));
        assert!(prob_eq(
            t.query_probability_naive(&q_both, 20).unwrap(),
            0.0
        ));

        let mut q_b = PatternQuery::anchored(Some("A"));
        q_b.add_child(q_b.root(), "B");
        assert!(t.query_possible(&q_b));
        assert!(prob_eq(t.query_probability_naive(&q_b, 20).unwrap(), 0.5));
    }

    #[test]
    fn query_probability_after_cheap_deletion() {
        // After deleting B (confidence 1) whenever a C is present, the
        // probability of finding a B drops accordingly.
        let mut t = theorem3_formula_tree(1);
        let mut q_b = PatternQuery::anchored(Some("A"));
        q_b.add_child(q_b.root(), "B");
        assert!(prob_eq(t.query_probability_naive(&q_b, 20).unwrap(), 1.0));
        let (q, b) = d0_query();
        t.delete(&q, b, 1.0);
        // B survives unless the single C (probability 1/4) is present.
        assert!(prob_eq(t.query_probability_naive(&q_b, 20).unwrap(), 0.75));
    }
}
