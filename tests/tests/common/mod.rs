//! Tree and script generators shared by the maintenance and region
//! property suites (the same small-world construction as the
//! queries/updates suites).

use proptest::prelude::*;

use pxml_core::probtree::ProbTree;
use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
use pxml_core::PatternQuery;
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::builder::TreeSpec;
use pxml_tree::DataTree;

/// Node labels used below the root. The root is always labeled `R`, so a
/// label pattern can never select the root for deletion (unsupported by
/// Definition 15 and the engine alike).
const LABELS: [&str; 4] = ["A", "B", "C", "D"];

fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop::sample::select(LABELS.to_vec()).prop_map(TreeSpec::leaf);
    leaf.prop_recursive(3, 12, 3, |inner| {
        (
            prop::sample::select(LABELS.to_vec()),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(label, children)| TreeSpec::node(label, children))
    })
}

#[derive(Clone, Debug)]
pub(crate) struct ProbTreeSpec {
    pub(crate) children: Vec<TreeSpec>,
    pub(crate) num_events: usize,
    pub(crate) conditions: Vec<Vec<(usize, bool)>>,
}

pub(crate) fn probtree_strategy() -> impl Strategy<Value = ProbTreeSpec> {
    (
        prop::collection::vec(tree_spec_strategy(), 1..3),
        1usize..=4,
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

pub(crate) fn build_probtree(spec: &ProbTreeSpec) -> ProbTree {
    let mut data = DataTree::new("R");
    let root = data.root();
    for child in &spec.children {
        data.graft(root, &child.build());
    }
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

/// A random update: label deletions (plain, child-qualified, descendant)
/// and insertions, at mixed confidences including certain ones. One
/// insertion grafts `new`/`leaf` nodes, which no pattern label names; the
/// other grafts an `l2` node with an `l1` child, so it can add answers to
/// a pattern over `LABELS`.
pub(crate) fn update_strategy() -> impl Strategy<Value = ProbabilisticUpdate> {
    (
        0usize..5,
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
                2 => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.add_descendant(q.root(), l2);
                    UpdateOperation::delete(q, at)
                }
                3 => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    let mut sub = DataTree::new("new");
                    let sub_root = sub.root();
                    sub.add_child(sub_root, "leaf");
                    UpdateOperation::insert(q, at, sub)
                }
                _ => {
                    let q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    let mut sub = DataTree::new(l2);
                    let sub_root = sub.root();
                    sub.add_child(sub_root, l1);
                    UpdateOperation::insert(q, at, sub)
                }
            };
            ProbabilisticUpdate::new(operation, confidence)
        })
}
