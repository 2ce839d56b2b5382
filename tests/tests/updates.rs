//! Property tests for the update engine: prob-tree updates must commute
//! with the possible-world semantics (`UpdateEngine::apply` ≡
//! `apply_to_pw_set`, the Appendix A consistency statement), including the
//! nested-target and multi-match-same-target cases the pre-engine code got
//! wrong, and the output must be run-to-run deterministic. The Theorem 3
//! deletion keeps every survivor copy, and the shape census finds no two
//! of its subtrees equal.

use proptest::prelude::*;

use pxml_core::probtree::shape_census;
use pxml_core::semantics::possible_worlds;
use pxml_core::update::{
    ProbabilisticUpdate, UpdateEngine, UpdateEngineConfig, UpdateOperation, UpdateScript,
};
use pxml_core::{PatternQuery, ProbTree};
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::builder::TreeSpec;
use pxml_tree::DataTree;
use pxml_workloads::paper::{d0_deletion, theorem3_tree};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Node labels used below the root. The root is always labeled `R`, so a
/// label pattern can never select the root for deletion (unsupported by
/// Definition 15 and the engine alike).
const LABELS: [&str; 3] = ["A", "B", "C"];

/// A random small data tree with repeated labels: label collisions on one
/// path are what makes deletion targets nest.
fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop::sample::select(LABELS.to_vec()).prop_map(TreeSpec::leaf);
    leaf.prop_recursive(3, 16, 3, |inner| {
        (
            prop::sample::select(LABELS.to_vec()),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(label, children)| TreeSpec::node(label, children))
    })
}

/// A random prob-tree over `R`-rooted shapes: every non-root node gets up
/// to two literals over ≤ 3 events.
#[derive(Clone, Debug)]
struct ProbTreeSpec {
    children: Vec<TreeSpec>,
    num_events: usize,
    conditions: Vec<Vec<(usize, bool)>>,
}

fn probtree_strategy() -> impl Strategy<Value = ProbTreeSpec> {
    (
        prop::collection::vec(tree_spec_strategy(), 1..3),
        1usize..=3,
    )
        .prop_flat_map(|(children, num_events)| {
            let nodes: usize = children.iter().map(TreeSpec::size).sum();
            prop::collection::vec(
                prop::collection::vec((0..num_events, any::<bool>()), 0..=2),
                nodes + 1,
            )
            .prop_map(move |conditions| ProbTreeSpec {
                children: children.clone(),
                num_events,
                conditions,
            })
        })
}

fn build_probtree(spec: &ProbTreeSpec) -> ProbTree {
    let mut data = DataTree::new("R");
    let root = data.root();
    for child in &spec.children {
        data.graft(root, &child.build());
    }
    let mut tree = ProbTree::from_data_tree(data, pxml_events::EventTable::new());
    let events: Vec<EventId> = (0..spec.num_events)
        .map(|i| tree.events_mut().insert(format!("e{i}"), 0.5))
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
        .expect("generated tree violates prob-tree/DAG-store invariants");
    tree
}

/// A random update. `shape` picks among: plain label deletion (targets
/// nest whenever the label repeats along a path), deletion of targets with
/// a required child (several matches can share one target), deletion
/// anchored below the root, and insertion (with its own multi-match
/// query).
fn update_strategy() -> impl Strategy<Value = ProbabilisticUpdate> {
    (
        0usize..4,
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(vec![0.5f64, 0.8, 1.0]),
    )
        .prop_map(|(shape, l1, l2, confidence)| {
            let operation = match shape {
                0 => {
                    // Delete every node labeled l1.
                    let q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    UpdateOperation::delete(q, at)
                }
                1 => {
                    // Delete every l1 node having an l2 child: one match
                    // per (l1, l2 child) pair — multi-match-same-target —
                    // and nested targets when l1 repeats along a path.
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    UpdateOperation::delete(q, at)
                }
                2 => {
                    // Delete every l2 descendant of an l1 node.
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.add_descendant(q.root(), l2);
                    UpdateOperation::delete(q, at)
                }
                _ => {
                    // Insert a fresh subtree under every l1 node with an
                    // l2 child.
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    let mut sub = DataTree::new("new");
                    let sub_root = sub.root();
                    sub.add_child(sub_root, "leaf");
                    UpdateOperation::insert(q, at, sub)
                }
            };
            ProbabilisticUpdate::new(operation, confidence)
        })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Appendix A consistency statement, on random trees and random
    /// insert/delete queries — including nested-target and
    /// multi-match-same-target deletions.
    #[test]
    fn probtree_updates_commute_with_pw_semantics(
        spec in probtree_strategy(),
        update in update_strategy(),
    ) {
        let tree = build_probtree(&spec);
        let (updated, _) = UpdateEngine::new().apply(&tree, &update);
        prop_assert!(updated.validate_invariants().is_ok());
        let direct = possible_worlds(&updated, 16).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&tree, 16).unwrap())
            .normalized();
        prop_assert!(
            direct.isomorphic(&via_pw),
            "update diverges from PW semantics on\n{}\nafter:\n{}",
            tree.to_ascii(),
            updated.to_ascii()
        );
    }

    /// The raw engine (no simplification, naive chains) and the default
    /// engine agree with each other semantically — simplification must
    /// never change the normalized semantics.
    #[test]
    fn simplification_preserves_update_semantics(
        spec in probtree_strategy(),
        update in update_strategy(),
    ) {
        let tree = build_probtree(&spec);
        let (raw, _) = UpdateEngine::with_config(UpdateEngineConfig::raw())
            .apply(&tree, &update);
        let (simplified, _) = UpdateEngine::new().apply(&tree, &update);
        prop_assert!(simplified.size() <= raw.size());
        let raw_pw = possible_worlds(&raw, 16).unwrap().normalized();
        let simplified_pw = possible_worlds(&simplified, 16).unwrap().normalized();
        prop_assert!(raw_pw.isomorphic(&simplified_pw));
    }

    /// Determinism: applying the same update to two fresh builds of the
    /// same tree renders byte-identically.
    #[test]
    fn update_output_is_deterministic(
        spec in probtree_strategy(),
        update in update_strategy(),
    ) {
        let (first, _) = UpdateEngine::new().apply(&build_probtree(&spec), &update);
        let (second, _) = UpdateEngine::new().apply(&build_probtree(&spec), &update);
        prop_assert_eq!(first.to_ascii(), second.to_ascii());
    }

    /// Batched scripts: `UpdateEngine::apply_script` agrees with folding
    /// Definition 16 over the possible-world set step by step.
    #[test]
    fn scripts_commute_with_pw_semantics(
        spec in probtree_strategy(),
        updates in prop::collection::vec(update_strategy(), 1..3),
    ) {
        let tree = build_probtree(&spec);
        let script = UpdateScript::from_steps(updates);
        let (updated, report) = UpdateEngine::new().apply_script(&tree, &script);
        prop_assert!(updated.validate_invariants().is_ok());
        prop_assert_eq!(report.steps.len(), script.len());
        let direct = possible_worlds(&updated, 16).unwrap().normalized();
        let via_pw = script
            .apply_to_pw_set(&possible_worlds(&tree, 16).unwrap())
            .normalized();
        prop_assert!(direct.isomorphic(&via_pw));
    }
}

// ---------------------------------------------------------------------------
// Deterministic nested-target regressions (fail on the pre-engine code)
// ---------------------------------------------------------------------------

/// The minimal nested counterexample: deleting every `B` with a `C` child
/// on `A → B(C[x], B(C[y]))`. In the world `x=0, y=1` the inner `B` must
/// disappear while the outer survives — which requires the inner target's
/// survival split to be embedded in the outer target's survivor copy.
#[test]
fn nested_deletion_counterexample_is_fixed() {
    let mut t = ProbTree::new("A");
    let x = t.events_mut().insert("x", 0.5);
    let y = t.events_mut().insert("y", 0.5);
    let root = t.tree().root();
    let b1 = t.add_child(root, "B", Condition::always());
    t.add_child(b1, "C", Condition::of(Literal::pos(x)));
    let b2 = t.add_child(b1, "B", Condition::always());
    t.add_child(b2, "C", Condition::of(Literal::pos(y)));

    let mut q = PatternQuery::new(Some("B"));
    let at = q.root();
    q.add_child(at, "C");
    for confidence in [1.0, 0.6] {
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q.clone(), at), confidence);
        let (updated, _) = UpdateEngine::new().apply(&t, &update);
        let direct = possible_worlds(&updated, 16).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 16).unwrap())
            .normalized();
        assert!(
            direct.isomorphic(&via_pw),
            "confidence {confidence}:\n{}",
            updated.to_ascii()
        );
    }
}

/// A target matched twice (two C children) nested above another target.
#[test]
fn multi_match_nested_target_regression() {
    let mut t = ProbTree::new("A");
    let x = t.events_mut().insert("x", 0.5);
    let y = t.events_mut().insert("y", 0.5);
    let z = t.events_mut().insert("z", 0.5);
    let root = t.tree().root();
    let b1 = t.add_child(root, "B", Condition::always());
    t.add_child(b1, "C", Condition::of(Literal::pos(x)));
    t.add_child(b1, "C", Condition::of(Literal::neg(y)));
    let b2 = t.add_child(b1, "B", Condition::of(Literal::pos(y)));
    t.add_child(b2, "C", Condition::of(Literal::pos(z)));

    let mut q = PatternQuery::new(Some("B"));
    let at = q.root();
    q.add_child(at, "C");
    let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, at), 0.75);
    let (updated, _) = UpdateEngine::new().apply(&t, &update);
    let direct = possible_worlds(&updated, 16).unwrap().normalized();
    let via_pw = update
        .apply_to_pw_set(&possible_worlds(&t, 16).unwrap())
        .normalized();
    assert!(direct.isomorphic(&via_pw), "\n{}", updated.to_ascii());
}

// ---------------------------------------------------------------------------
// Theorem 3 on the deep path, and the shape census
// ---------------------------------------------------------------------------

/// An engine that does not simplify but orders its chains shared-first,
/// so a confidence-0.8 `d0` deletion grafts `1 + 2^n` survivor copies.
fn raw_step() -> UpdateEngine {
    UpdateEngine::with_config(UpdateEngineConfig {
        simplify: false,
        ..UpdateEngineConfig::default()
    })
}

/// Counts the `B` nodes of `tree`: the survivor copies of the deleted leaf.
fn b_copies(tree: &ProbTree) -> usize {
    tree.tree()
        .iter()
        .filter(|&node| tree.tree().label(node) == "B")
        .count()
}

/// `d0` at confidence 0.8 on the Theorem 3 family copies the deleted `B`
/// leaf `1 + 2^n` times, each copy deep: every logical node is a stored
/// node, so the output stores the root, the `n` `C` children and every
/// copy — the `O(2^n)` space the complexity table quotes.
#[test]
fn theorem3_deletion_copies_every_survivor_deep() {
    let n = 8;
    let (out, report) = raw_step().apply(&theorem3_tree(n), &d0_deletion(0.8));
    let stats = out.memory_stats();
    assert_eq!(stats.logical_nodes, stats.distinct_nodes);
    assert_eq!(stats.distinct_nodes, 1 + n + 1 + (1usize << n));
    assert_eq!(report.nodes_after, out.num_nodes());
    assert_eq!(b_copies(&out), 1 + (1usize << n));
}

/// At `n = 12` the deletion's output spells out all `1 + 2^n` survivor
/// copies of `B`: 4 110 nodes, each counted by the step report.
#[test]
fn theorem3_deletion_at_n_12_spells_out_every_survivor() {
    let n = 12;
    let (out, report) = raw_step().apply(&theorem3_tree(n), &d0_deletion(0.8));
    let copies = 1 + (1usize << n);
    assert_eq!(report.survivor_copies, copies);
    assert_eq!(b_copies(&out), copies);
    assert_eq!(out.num_nodes(), 1 + n + copies);
    assert_eq!(out.num_nodes(), 4_110);
}

/// Across `n`, the deletion's output doubles its survivor copies with
/// every further `C` child.
#[test]
fn theorem3_survivor_copies_double_with_n() {
    let mut previous: Option<usize> = None;
    for n in 1..=12 {
        let (out, report) = raw_step().apply(&theorem3_tree(n), &d0_deletion(0.8));
        let copies = 1 + (1usize << n);
        assert_eq!(report.survivor_copies, copies, "n = {n}");
        assert_eq!(out.num_nodes(), 1 + n + copies, "n = {n}");
        if let Some(previous) = previous {
            assert_eq!(
                out.num_nodes() - (n + 2),
                2 * (previous - (n + 1)),
                "survivor copies must double with n"
            );
        }
        previous = Some(out.num_nodes());
    }
}

/// Before it simplifies, a deletion's tree is its input without the
/// target plus every survivor node the forecast predicts: 22 = 5 + 17 at
/// `n = 4` on the default engine.
#[test]
fn raw_size_is_the_input_plus_the_forecast_survivor_nodes() {
    let tree = theorem3_tree(4);
    let update = d0_deletion(0.8);
    let engine = UpdateEngine::new();
    let (_, report) = engine.apply(&tree, &update);
    let forecast = engine.forecast(&tree, &update);
    assert_eq!(forecast.logical_survivor_nodes(), 17);
    assert_eq!(report.nodes_raw, 22);
    assert_eq!(
        report.nodes_raw,
        tree.num_nodes() - 1 + forecast.logical_survivor_nodes()
    );
}

/// The Theorem 3 deletion's output has no two equal subtrees: every
/// survivor copy carries its own root condition, so the shape census
/// finds as many distinct shapes as nodes.
#[test]
fn shape_census_of_the_theorem3_deletion_counts_every_node() {
    for n in 1..=12 {
        let (out, _) = raw_step().apply(&theorem3_tree(n), &d0_deletion(0.8));
        let nodes = 1 + n + 1 + (1usize << n);
        let census = shape_census(&[&out]);
        assert_eq!(census.logical_nodes, nodes, "n = {n}");
        assert_eq!(census.distinct_shapes, nodes, "n = {n}");
    }
}
