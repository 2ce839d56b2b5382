//! Property tests for the hash-consed DAG representation: a step that
//! does not simplify, applied to a `SharedProbTree` with `apply_shared`,
//! must be indistinguishable from the same step applied to a `ProbTree`
//! with `apply`, which copies deep — byte-identical rendering and
//! isomorphic possible-world sets over random trees and update scripts —
//! while the Appendix-A deletion family stores only `O(n)` distinct
//! nodes for its `1 + 2^n` logical survivor copies. A simplifying engine
//! copies every survivor.

use proptest::prelude::*;

use pxml_core::semantics::possible_worlds;
use pxml_core::update::{
    ProbabilisticUpdate, StepReport, UpdateEngine, UpdateEngineConfig, UpdateOperation,
    UpdateScript,
};
use pxml_core::{PatternQuery, ProbTree, SharedProbTree};
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::builder::TreeSpec;
use pxml_tree::DataTree;
use pxml_workloads::paper::{d0_deletion, theorem3_tree};

// ---------------------------------------------------------------------------
// Strategies (same shape family as the update property suite)
// ---------------------------------------------------------------------------

const LABELS: [&str; 3] = ["A", "B", "C"];

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
        .expect("generated tree violates prob-tree invariants");
    tree
}

/// Deletions only: those are the operations that graft survivor copies,
/// i.e. the only place where the shared and deep representations can
/// diverge. Mixed confidences exercise both the certain path (no
/// survivors) and the split path.
fn deletion_strategy() -> impl Strategy<Value = ProbabilisticUpdate> {
    (
        0usize..3,
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(vec![0.5f64, 0.8, 1.0]),
    )
        .prop_map(|(shape, l1, l2, confidence)| {
            let operation = match shape {
                0 => {
                    let q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    UpdateOperation::delete(q, at)
                }
                1 => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    UpdateOperation::delete(q, at)
                }
                _ => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.add_descendant(q.root(), l2);
                    UpdateOperation::delete(q, at)
                }
            };
            ProbabilisticUpdate::new(operation, confidence)
        })
}

/// An engine that does not simplify, so the output is the raw grafted
/// tree and the shared and deep paths can be compared byte for byte.
fn raw_step() -> UpdateEngine {
    UpdateEngine::with_config(UpdateEngineConfig {
        simplify: false,
        ..UpdateEngineConfig::default()
    })
}

/// One step on the shared representation of `tree`.
fn apply_shared(tree: &ProbTree, update: &ProbabilisticUpdate) -> (SharedProbTree, StepReport) {
    raw_step().apply_shared(&SharedProbTree::from(tree.clone()), update)
}

// ---------------------------------------------------------------------------
// Properties: shared ≡ deep-copy
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One deletion: the shared output must render byte-identically to
    /// the deep-copy output (handles fault in at the logical positions
    /// the deep copy materializes), have an isomorphic possible-world
    /// set, and satisfy the DAG-store invariants. Node/literal counts
    /// are logical, so they agree too — only `distinct_nodes` may drop.
    #[test]
    fn shared_deletion_matches_deep_copy_oracle(
        spec in probtree_strategy(),
        update in deletion_strategy(),
    ) {
        let tree = build_probtree(&spec);
        let (shared, _) = apply_shared(&tree, &update);
        let (deep, _) = raw_step().apply(&tree, &update);
        prop_assert!(shared.validate_invariants().is_ok());
        prop_assert!(deep.validate_invariants().is_ok());
        prop_assert_eq!(shared.to_ascii(), deep.to_ascii());
        prop_assert_eq!(shared.num_nodes(), deep.num_nodes());
        prop_assert_eq!(shared.num_literals(), deep.num_literals());
        let deep_stats = deep.memory_stats();
        prop_assert_eq!(deep_stats.logical_nodes, deep_stats.distinct_nodes);
        let shared_stats = shared.memory_stats();
        prop_assert!(shared_stats.distinct_nodes <= shared_stats.logical_nodes);
        let shared_pw = possible_worlds(&shared.expand(), 16).unwrap().normalized();
        let deep_pw = possible_worlds(&deep, 16).unwrap().normalized();
        prop_assert!(
            shared_pw.isomorphic(&deep_pw),
            "shared and deep worlds diverge on\n{}",
            tree.to_ascii()
        );
    }

    /// Update scripts: the equivalence holds across multi-step scripts,
    /// where later steps consume (and re-expand) the earlier steps'
    /// shared survivors.
    #[test]
    fn shared_scripts_match_deep_copy_oracle(
        spec in probtree_strategy(),
        updates in prop::collection::vec(deletion_strategy(), 1..3),
    ) {
        let tree = build_probtree(&spec);
        let script = UpdateScript::from_steps(updates);
        let mut shared = SharedProbTree::from(tree.clone());
        for update in script.steps() {
            shared = raw_step().apply_shared(&shared, update).0;
        }
        let (deep, _) = raw_step().apply_script(&tree, &script);
        prop_assert!(shared.validate_invariants().is_ok());
        prop_assert_eq!(shared.to_ascii(), deep.to_ascii());
        let shared_pw = possible_worlds(&shared.expand(), 16).unwrap().normalized();
        let deep_pw = possible_worlds(&deep, 16).unwrap().normalized();
        prop_assert!(shared_pw.isomorphic(&deep_pw));
    }

    /// O(1) duplication is observationally a deep copy: duplicating a
    /// random subtree under the root via the handle path and via the
    /// deep path renders identically and keeps the invariants.
    #[test]
    fn duplicate_subtree_handle_matches_deep_copy(
        spec in probtree_strategy(),
        pick in 0usize..8,
    ) {
        let tree = build_probtree(&spec);
        let root = tree.tree().root();
        let children = tree.tree().children(root).to_vec();
        let node = children[pick % children.len()];
        let condition = tree.condition(node);

        let mut via_handle = SharedProbTree::from(tree.clone());
        via_handle.duplicate_subtree_n(root, node, std::slice::from_ref(&condition));
        let mut via_deep = tree.clone();
        via_deep.duplicate_subtree_deep(root, node, condition);

        prop_assert!(via_handle.validate_invariants().is_ok());
        prop_assert!(via_deep.validate_invariants().is_ok());
        prop_assert_eq!(via_handle.to_ascii(), via_deep.to_ascii());
        prop_assert_eq!(via_handle.num_nodes(), via_deep.num_nodes());
    }
}

// ---------------------------------------------------------------------------
// Appendix-A space: linear distinct nodes for exponential logical copies
// ---------------------------------------------------------------------------

/// Only a step that does not simplify shares: on the default engine,
/// `apply_shared` copies the `1 + 2^n` survivors into the arena, so its
/// step report counts as many distinct nodes as logical ones — every
/// logical survivor node the forecast predicts — and its result holds no
/// handle.
#[test]
fn a_simplifying_step_copies_its_survivors_deep() {
    let tree = theorem3_tree(4);
    let update = d0_deletion(0.8);
    let engine = UpdateEngine::new();
    let (out, report) = engine.apply_shared(&SharedProbTree::from(tree.clone()), &update);
    assert_eq!(report.nodes_raw, 22);
    assert_eq!(report.distinct_nodes_raw, report.nodes_raw);
    assert_eq!(report.distinct_nodes_after, report.nodes_after);
    assert!(!out.has_shared());
    let forecast = engine.forecast(&tree, &update);
    assert_eq!(forecast.logical_survivor_nodes(), 17);
    assert_eq!(
        report.distinct_nodes_raw,
        tree.num_nodes() - 1 + forecast.logical_survivor_nodes()
    );
}

/// The acceptance counter for the DAG representation: on the Theorem 3
/// family at `n = 12`, a confidence-0.8 `d0` deletion produces
/// `1 + 2^n` logical survivor copies of the `B` leaf but only `n + 2`
/// distinct stored nodes — exponential-to-linear space.
#[test]
fn theorem3_survivors_store_linearly_at_n_12() {
    let n = 12;
    let tree = theorem3_tree(n);
    let (updated, report) = apply_shared(&tree, &d0_deletion(0.8));
    updated.validate_invariants().expect("invariants after d0");

    let stats = updated.memory_stats();
    assert_eq!(stats.logical_nodes, 1 + n + 1 + (1usize << n));
    assert_eq!(stats.distinct_nodes, n + 2);
    assert_eq!(report.distinct_nodes_after, stats.distinct_nodes);
    assert!(stats.dedup_ratio() > 100.0);

    // The logical view still spells out every survivor copy.
    let expanded = updated.expand();
    let b_copies = expanded
        .tree()
        .iter()
        .filter(|&node| expanded.tree().label(node) == "B")
        .count();
    assert_eq!(b_copies, 1 + (1usize << n));
}

/// Across `n`, distinct storage grows by exactly one node per `n` while
/// the logical size doubles — the linear-vs-exponential separation the
/// representation exists for.
#[test]
fn theorem3_distinct_nodes_grow_linearly_in_n() {
    let mut previous: Option<pxml_core::probtree::MemoryStats> = None;
    for n in 1..=12 {
        let (updated, _) = apply_shared(&theorem3_tree(n), &d0_deletion(0.8));
        let stats = updated.memory_stats();
        assert_eq!(stats.distinct_nodes, n + 2, "n = {n}");
        if let Some(prev) = previous {
            assert_eq!(stats.distinct_nodes, prev.distinct_nodes + 1);
            assert_eq!(
                stats.logical_nodes - (n + 2),
                2 * (prev.logical_nodes - (n + 1)),
                "survivor copies must double with n"
            );
        }
        previous = Some(stats);
    }
}

/// Deep copies (`apply`) on the same family store every logical copy —
/// this is the `O(2^n)` baseline the complexity table quotes. Kept at a
/// small `n` so the test stays fast.
#[test]
fn deep_oracle_stores_exponentially_on_theorem3() {
    let n = 8;
    let (shared, _) = apply_shared(&theorem3_tree(n), &d0_deletion(0.8));
    let (deep, _) = raw_step().apply(&theorem3_tree(n), &d0_deletion(0.8));
    assert_eq!(shared.to_ascii(), deep.to_ascii());
    let deep_stats = deep.memory_stats();
    assert_eq!(deep_stats.logical_nodes, deep_stats.distinct_nodes);
    assert_eq!(deep_stats.distinct_nodes, 1 + n + 1 + (1usize << n));
    assert_eq!(shared.memory_stats().distinct_nodes, n + 2);
}

/// Inserts a `leaf` under every node the anchored path `A/label` matches,
/// or under the root `A` itself when `label` is `None`.
fn insert_leaf_under(label: Option<&str>, leaf: &str) -> ProbabilisticUpdate {
    let mut q = PatternQuery::anchored(Some("A"));
    let at = match label {
        Some(label) => q.add_child(q.root(), label),
        None => q.root(),
    };
    ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new(leaf)), 0.9)
}

/// A raw script keeps its sharing across steps: a step whose query labels
/// occur in no stored shape matches on the spine and keeps the handles;
/// one whose labels do, or which grafts under a node holding handles,
/// expands them. Every step renders as the deep path does.
#[test]
fn a_raw_script_keeps_its_sharing_across_steps() {
    // One step on both paths; checks (skipped, logical, distinct nodes).
    let step = |shared: &SharedProbTree,
                deep: &ProbTree,
                update: &ProbabilisticUpdate,
                want: (bool, usize, usize)| {
        let (shared, report) = raw_step().apply_shared(shared, update);
        let (deep, _) = raw_step().apply(deep, update);
        let got = (
            report.entry_expansion_skipped,
            report.nodes_after,
            report.distinct_nodes_after,
        );
        assert_eq!(got, want);
        assert_eq!(shared.to_ascii(), deep.to_ascii());
        (shared, deep, report)
    };
    let tree = theorem3_tree(6);
    let (shared, deep, report) = step(
        &SharedProbTree::from(tree.clone()),
        &tree,
        &d0_deletion(0.8),
        (false, 72, 8),
    );
    assert_eq!(report.survivor_copies, 65);
    // `A` and `C` occur in no stored shape: the handles survive.
    let (shared, deep, _) = step(
        &shared,
        &deep,
        &insert_leaf_under(Some("C"), "E"),
        (true, 78, 14),
    );
    // `B` is stored: the step expands first.
    step(
        &shared,
        &deep,
        &insert_leaf_under(Some("B"), "E"),
        (false, 143, 143),
    );
    // Grafting under the node that holds the handles faults them in.
    step(
        &shared,
        &deep,
        &insert_leaf_under(None, "F"),
        (true, 79, 79),
    );
}
