//! Query evaluation on possible-world sets and prob-trees
//! (Definitions 7–8 and Theorem 1 of the paper).
//!
//! * On a PW set, a query is applied world by world; each answer keeps the
//!   probability of its world (Definition 7, [`query_pw_set`]). The
//!   resulting collection does not sum to 1 — it is a weighted answer
//!   multiset compared with the same `∼` notion as PW sets.
//! * On a prob-tree, a **locally monotone** query is evaluated directly on
//!   the underlying data tree; each answer sub-datatree `u` is weighted by
//!   `eval(⋃_{n ∈ u} γ(n))` — the probability of the conjunction of the
//!   conditions of its nodes (Definition 8). The
//!   [`QueryEngine`](super::engine::QueryEngine) evaluates it into
//!   [`ProbAnswer`]s: each is the answer's node set and its probability,
//!   and builds no tree of its own. Theorem 1 states the two agree:
//!   `Q(T) ∼ Q(JT K)`
//!   ([`PreparedQuery::theorem1_check`](super::engine::PreparedQuery::theorem1_check)).
//!
//! The `eval` in Definition 8 is one instance of a semiring fold: the
//! prepared engine generalizes it to any [`pxml_events::Semiring`]
//! (possibility, lineage) via
//! [`super::engine::PreparedQuery::answers_in`], with the f64 path
//! remaining the bit-identical [`pxml_events::Probability`] instance.

use pxml_tree::subtree::SubDataTree;

use crate::pwset::PossibleWorldSet;

use super::Query;

/// One answer of a query over a prob-tree: its node set and its
/// probability. It copies no tree: the node set shares its ids with the
/// prepared state, so a clone is one reference count bump. A reader who
/// wants the answer as a tree of its own builds it from the tree the
/// answer was selected from, `answer.subtree.to_tree(prepared.tree().tree())`,
/// and pays for it in the answer's size.
#[derive(Clone, Debug)]
pub struct ProbAnswer {
    /// The answer as a node subset of the queried prob-tree.
    pub subtree: SubDataTree,
    /// `eval` of the union of the node conditions (Definition 8).
    pub probability: f64,
}

/// Evaluates a query on a possible-world set (Definition 7). The result is
/// a weighted set of answer trees; probabilities do not sum to 1.
pub fn query_pw_set(query: &dyn Query, pw: &PossibleWorldSet) -> PossibleWorldSet {
    let mut out = PossibleWorldSet::new();
    for (world, p) in pw.iter() {
        let world = world.to_tree();
        for answer in query.evaluate(&world) {
            out.push(answer.to_tree(&world), *p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::{figure1_example, ProbTree};
    use crate::query::engine::QueryEngine;
    use crate::query::pattern::PatternQuery;
    use crate::semantics::{possible_worlds, possible_worlds_normalized};
    use pxml_events::prob_eq;

    /// Theorem 1 through the engine's world budget.
    fn theorem1(query: &dyn Query, tree: &ProbTree) -> bool {
        QueryEngine::new()
            .prepare(tree, query)
            .theorem1_check()
            .unwrap()
    }

    #[test]
    fn query_on_figure1_probtree() {
        let t = figure1_example();
        // //C/D : C nodes with a D child, keeping the path to the root.
        let mut q = PatternQuery::new(Some("C"));
        q.add_child(q.root(), "D");
        let answers: Vec<ProbAnswer> = QueryEngine::new().prepare(&t, &q).answers().collect();
        assert_eq!(answers.len(), 1);
        // The answer is A→C→D with probability π(w2) = 0.7.
        assert_eq!(answers[0].subtree.len(), 3);
        assert!(prob_eq(answers[0].probability, 0.7));
    }

    #[test]
    fn query_answers_keep_path_to_root() {
        let t = figure1_example();
        let q = PatternQuery::new(Some("D"));
        let prepared = QueryEngine::new().prepare(&t, &q);
        let answers: Vec<ProbAnswer> = prepared.answers().collect();
        assert_eq!(answers.len(), 1);
        let answer = answers[0].subtree.to_tree(prepared.tree().tree());
        assert_eq!(answer.label(answer.root()), "A");
    }

    #[test]
    fn theorem1_holds_on_figure1_for_several_queries() {
        let t = figure1_example();
        let queries: Vec<PatternQuery> = vec![
            {
                let mut q = PatternQuery::new(Some("C"));
                q.add_child(q.root(), "D");
                q
            },
            PatternQuery::new(Some("B")),
            PatternQuery::new(Some("D")),
            {
                let mut q = PatternQuery::anchored(Some("A"));
                q.add_descendant(q.root(), "D");
                q
            },
            PatternQuery::new(Some("Z")), // no match
        ];
        for q in &queries {
            assert!(theorem1(q, &t), "Theorem 1 violated for {}", q.describe());
        }
    }

    /// Theorem 1 checked on a tree the exhaustive Definition 4 guard
    /// refuses at this budget (18 events > 16) but the factorized
    /// expansion handles: 6 components of 3 events, 64 joint classes.
    #[test]
    fn theorem1_via_factorized_expansion_beyond_streamed_guard() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..6 {
            let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
            let c = t.add_child(
                root,
                "B",
                pxml_events::Condition::from_literals(
                    w.iter().map(|&e| pxml_events::Literal::pos(e)),
                ),
            );
            t.add_child(c, format!("D{i}"), pxml_events::Condition::always());
        }
        assert_eq!(t.events().len(), 18);
        assert!(possible_worlds(&t, 16).is_err());
        let q = PatternQuery::new(Some("B"));
        assert!(theorem1(&q, &t));
    }

    #[test]
    fn query_pw_set_weights_by_world_probability() {
        let t = figure1_example();
        let pw = possible_worlds_normalized(&t, 20).unwrap();
        let q = PatternQuery::new(Some("B"));
        let answers = query_pw_set(&q, &pw);
        // B is present only in the 0.24 world.
        assert_eq!(answers.len(), 1);
        assert!(prob_eq(answers.total_probability(), 0.24));
    }

    #[test]
    fn inconsistent_answers_are_dropped_from_pw_view() {
        // Build a prob-tree where a B node and a C node carry contradictory
        // conditions; a query matching both yields probability 0.
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            pxml_events::Condition::of(pxml_events::Literal::pos(w)),
        );
        t.add_child(
            root,
            "C",
            pxml_events::Condition::of(pxml_events::Literal::neg(w)),
        );
        let mut q = PatternQuery::anchored(Some("A"));
        q.add_child(q.root(), "B");
        q.add_child(q.root(), "C");
        let prepared = QueryEngine::new().prepare(&t, &q);
        let answers: Vec<ProbAnswer> = prepared.answers().collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].probability, 0.0);
        assert!(prepared.as_pw_set().is_empty());
        assert!(theorem1(&q, &t));
    }

    #[test]
    fn theorem1_holds_with_joins() {
        let t = figure1_example();
        let mut q = PatternQuery::anchored(Some("A"));
        let c1 = q.add_node(q.root(), crate::query::pattern::Axis::Child, None);
        let c2 = q.add_node(q.root(), crate::query::pattern::Axis::Child, None);
        q.add_join(vec![c1, c2]);
        assert!(theorem1(&q, &t));
    }
}
