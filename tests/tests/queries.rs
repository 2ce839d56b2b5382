//! Property-based equivalence suite for the query engine.
//!
//! The `QueryEngine` redesign replaced the legacy free-function
//! constructions — per-answer `Condition::always()` + repeated `and`
//! folds, eager materialization, and full sorts with per-comparison
//! canonicalization — with prepared state, a single merge-union, a
//! bounded heap and cached tie-break keys. This suite pins the redesign
//! to the legacy semantics: the old constructions are re-implemented
//! here verbatim as references and compared against the engine on random
//! trees and random tree-pattern queries.

use proptest::prelude::*;

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::{Axis, PatternQuery};
use pxml_core::query::prob::ProbAnswer;
use pxml_core::query::{Query, QueryEngine};
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::builder::TreeSpec;
use pxml_tree::canon::{canonical_string, Semantics};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop::sample::select(vec!["A", "B", "C", "D"]).prop_map(TreeSpec::leaf);
    leaf.prop_recursive(3, 12, 3, |inner| {
        (
            prop::sample::select(vec!["A", "B", "C", "D"]),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(label, children)| TreeSpec::node(label, children))
    })
}

/// A small prob-tree: a shape plus optional per-node literal lists over
/// `num_events` events (same construction as the `properties.rs` suite).
#[derive(Clone, Debug)]
struct ProbTreeSpec {
    shape: TreeSpec,
    num_events: usize,
    conditions: Vec<Vec<(usize, bool)>>,
}

fn probtree_strategy() -> impl Strategy<Value = ProbTreeSpec> {
    (tree_spec_strategy(), 1usize..=4).prop_flat_map(|(shape, num_events)| {
        let nodes = shape.size();
        prop::collection::vec(
            prop::collection::vec((0..num_events, any::<bool>()), 0..=2),
            nodes,
        )
        .prop_map(move |conditions| ProbTreeSpec {
            shape: shape.clone(),
            num_events,
            conditions,
        })
    })
}

fn build_probtree(spec: &ProbTreeSpec) -> ProbTree {
    let data = spec.shape.build();
    let mut tree = ProbTree::from_data_tree(data, pxml_events::EventTable::new());
    let events: Vec<EventId> = (0..spec.num_events)
        .map(|i| {
            tree.events_mut()
                .insert(format!("e{i}"), 0.4 + 0.05 * i as f64)
        })
        .collect();
    let nodes: Vec<_> = tree.tree().iter().collect();
    for (idx, node) in nodes.into_iter().enumerate() {
        if node == tree.tree().root() {
            continue;
        }
        let literals = spec.conditions[idx % spec.conditions.len()]
            .iter()
            .map(|&(e, positive)| Literal {
                event: events[e % events.len()],
                positive,
            });
        tree.set_condition(node, Condition::from_literals(literals));
    }
    tree.validate_invariants()
        .expect("generated tree violates prob-tree invariants");
    tree
}

/// A random small tree-pattern query: up to three extra nodes hung off
/// earlier pattern nodes, mixed axes, wildcard or concrete labels.
#[derive(Clone, Debug)]
struct PatternSpec {
    anchored: bool,
    root_label: Option<&'static str>,
    nodes: Vec<(usize, bool, Option<&'static str>)>,
}

fn pattern_strategy() -> impl Strategy<Value = PatternSpec> {
    let label = prop::sample::select(vec![None, Some("A"), Some("B"), Some("C"), Some("D")]);
    (
        any::<bool>(),
        label.clone(),
        prop::collection::vec((0usize..4, any::<bool>(), label), 0..3),
    )
        .prop_map(|(anchored, root_label, nodes)| PatternSpec {
            anchored,
            root_label,
            nodes,
        })
}

fn build_pattern(spec: &PatternSpec) -> PatternQuery {
    let mut q = if spec.anchored {
        PatternQuery::anchored(spec.root_label)
    } else {
        PatternQuery::new(spec.root_label)
    };
    let mut ids = vec![q.root()];
    for &(parent, descendant, label) in &spec.nodes {
        let parent = ids[parent % ids.len()];
        let axis = if descendant {
            Axis::Descendant
        } else {
            Axis::Child
        };
        ids.push(q.add_node(parent, axis, label));
    }
    q
}

// ---------------------------------------------------------------------------
// Legacy reference implementations (the pre-engine constructions)
// ---------------------------------------------------------------------------

/// The old `query_probtree`: eager materialization, per-answer
/// `Condition::always()` + repeated `and` fold.
fn legacy_query_probtree(query: &dyn Query, tree: &ProbTree) -> Vec<ProbAnswer> {
    let data = tree.tree();
    query
        .evaluate(data)
        .into_iter()
        .map(|subtree| {
            let mut cond = Condition::always();
            for node in subtree.nodes() {
                cond = cond.and(&tree.condition(node));
            }
            ProbAnswer {
                tree: subtree.to_tree(data),
                probability: cond.probability(tree.events()),
                subtree,
            }
        })
        .collect()
}

/// The old `top_k`: full **stable** sort with the canonical string
/// recomputed inside every comparison, then truncate.
fn legacy_top_k(query: &dyn Query, tree: &ProbTree, k: usize) -> Vec<ProbAnswer> {
    let mut answers: Vec<ProbAnswer> = legacy_query_probtree(query, tree)
        .into_iter()
        .filter(|a| a.probability > 0.0)
        .collect();
    answers.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("probabilities are finite")
            .then_with(|| {
                canonical_string(&a.tree, Semantics::MultiSet)
                    .cmp(&canonical_string(&b.tree, Semantics::MultiSet))
            })
    });
    answers.truncate(k);
    answers
}

/// The old `above`: sort the full answer set, then filter.
fn legacy_above(query: &dyn Query, tree: &ProbTree, threshold: f64) -> Vec<ProbAnswer> {
    let mut answers = legacy_top_k(query, tree, usize::MAX);
    answers.retain(|a| a.probability >= threshold);
    answers
}

fn assert_same_answers(actual: &[ProbAnswer], expected: &[ProbAnswer]) {
    assert_eq!(actual.len(), expected.len());
    for (a, b) in actual.iter().zip(expected) {
        assert_eq!(&a.subtree, &b.subtree);
        assert_eq!(
            a.probability, b.probability,
            "probabilities must be bit-identical"
        );
        assert_eq!(
            canonical_string(&a.tree, Semantics::MultiSet),
            canonical_string(&b.tree, Semantics::MultiSet)
        );
    }
}

// ---------------------------------------------------------------------------
// Engine ≡ legacy free functions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The merge-union of the prepared state equals the legacy repeated
    /// `and` fold on every answer (satellite: single sorted merge-union
    /// vs `Condition::always()` + `and` loop).
    #[test]
    fn condition_union_agrees_with_the_and_fold(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let prepared = QueryEngine::new().prepare(&tree, &query);
        let subtrees = query.evaluate(tree.tree());
        prop_assert_eq!(prepared.len(), subtrees.len());
        for (i, subtree) in subtrees.iter().enumerate() {
            let mut fold = Condition::always();
            for node in subtree.nodes() {
                fold = fold.and(&tree.condition(node));
            }
            prop_assert_eq!(prepared.condition(i), &fold);
        }
    }

    /// The full answer stream equals the legacy eager construction:
    /// same answers, same order, bit-identical probabilities.
    #[test]
    fn engine_stream_matches_legacy_query_probtree(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let legacy = legacy_query_probtree(&query, &tree);
        let engine: Vec<ProbAnswer> =
            QueryEngine::new().prepare(&tree, &query).answers().collect();
        assert_same_answers(&engine, &legacy);
    }

    /// Bounded-heap top-k equals the legacy full-sort-then-truncate
    /// reference for every k, including through tie blocks.
    #[test]
    fn top_k_heap_matches_full_sort_reference(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
        k in 0usize..8,
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let legacy = legacy_top_k(&query, &tree, k);
        let prepared = QueryEngine::new().prepare(&tree, &query);
        assert_same_answers(prepared.top_k(k).as_slice(), &legacy);
        // The full ranking agrees too.
        let all = legacy_top_k(&query, &tree, usize::MAX);
        assert_same_answers(prepared.ranked().as_slice(), &all);
    }

    /// The short-circuit threshold path equals the legacy
    /// sort-everything-then-filter construction.
    #[test]
    fn above_matches_sort_then_filter_reference(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
        threshold in prop::sample::select(vec![0.0f64, 0.2, 0.5, 0.8, 1.0]),
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let legacy = legacy_above(&query, &tree, threshold);
        let prepared = QueryEngine::new().prepare(&tree, &query);
        assert_same_answers(prepared.above(threshold).as_slice(), &legacy);
    }

    /// Aggregates and point lookups served from the prepared state agree
    /// with the legacy constructions.
    #[test]
    fn aggregates_match_legacy(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let legacy = legacy_query_probtree(&query, &tree);
        let prepared = QueryEngine::new().prepare(&tree, &query);
        let expected: f64 = legacy.iter().map(|a| a.probability).sum();
        prop_assert_eq!(prepared.expected_matches(), expected);
        for answer in &legacy {
            prop_assert_eq!(prepared.probability_of(&answer.subtree), Some(answer.probability));
        }
        // Interning never changes the number of answers, only the number
        // of distinct probability evaluations.
        prop_assert!(prepared.num_distinct_conditions() <= prepared.len().max(1));
    }

    /// Theorem 1 routed through the engine: the prepared answers agree
    /// with the world-by-world evaluation on random trees and patterns
    /// (pattern queries are locally monotone, so the check must pass).
    #[test]
    fn theorem1_holds_through_the_engine(
        tree_spec in probtree_strategy(),
        pattern in pattern_strategy(),
    ) {
        let tree = build_probtree(&tree_spec);
        let query = build_pattern(&pattern);
        let engine = QueryEngine::new();
        prop_assert!(engine.prepare(&tree, &query).theorem1_check().unwrap());
    }
}

// ---------------------------------------------------------------------------
// Deterministic regressions
// ---------------------------------------------------------------------------

/// The prepared state must be reusable: repeated calls of every consumer
/// return identical results (ordering included), with the query evaluated
/// once — guarded here end to end through the public API.
#[test]
fn prepared_state_is_stable_across_repeated_consumers() {
    let mut tree = ProbTree::new("A");
    let root = tree.tree().root();
    for i in 0..6 {
        let w = tree.events_mut().insert(format!("w{i}"), 0.5);
        let b = tree.add_child(root, "B", Condition::of(Literal::pos(w)));
        tree.add_child(b, format!("leaf{i}"), Condition::always());
    }
    let query = PatternQuery::new(Some("B"));
    let prepared = QueryEngine::new().prepare(&tree, &query);
    let first: Vec<String> = prepared
        .top_k(4)
        .iter()
        .map(|a| canonical_string(&a.tree, Semantics::MultiSet))
        .collect();
    for _ in 0..3 {
        let again: Vec<String> = prepared
            .top_k(4)
            .iter()
            .map(|a| canonical_string(&a.tree, Semantics::MultiSet))
            .collect();
        assert_eq!(first, again);
    }
    // Equal probabilities: order is the canonical-key order.
    let mut sorted = first.clone();
    sorted.sort();
    assert_eq!(first, sorted);
}

/// The satellite counter assertion at the integration level: on a
/// selective threshold, the streaming `above` does strictly less ranking
/// work than the full sort the legacy implementation paid.
#[test]
fn above_does_less_work_than_the_legacy_full_sort() {
    let mut tree = ProbTree::new("catalog");
    let root = tree.tree().root();
    for i in 0..120 {
        let rank = (i * 61) % 120;
        let w = tree
            .events_mut()
            .insert(format!("w{i}"), 0.05 + 0.9 * rank as f64 / 120.0);
        let item = tree.add_child(root, "item", Condition::of(Literal::pos(w)));
        tree.add_child(item, format!("sku{i}"), Condition::always());
    }
    let query = PatternQuery::new(Some("item"));
    let prepared = QueryEngine::new().prepare(&tree, &query);
    let full = prepared.ranked();
    let selective = prepared.above(0.9);
    assert!(selective.len() < 20, "threshold must be selective");
    assert!(!selective.is_empty());
    assert_eq!(selective.stats().enumerated, full.stats().enumerated);
    assert!(
        selective.stats().comparisons * 4 < full.stats().comparisons,
        "selective threshold sorted {} answers with {} comparisons; the \
         legacy path paid {} comparisons for the full sort",
        selective.len(),
        selective.stats().comparisons,
        full.stats().comparisons
    );
}
