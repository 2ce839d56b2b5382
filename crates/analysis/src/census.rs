//! Static analysis of a prob-tree's event/condition structure: the
//! co-occurrence component census, the tractability verdict against an
//! event budget, and condition lints.
//!
//! The census never enumerates a single valuation — it is computed from
//! the conditions' co-occurrence graph via [`WorldEngine::shard_plan`],
//! and its [`predicted states`](WorldsAnalysis::predicted_states) equal
//! the executor's `states_enumerated` counter by construction.

use pxml_core::worlds::{ShardPlan, WorldEngine};
use pxml_core::ProbTree;
use pxml_events::{EventId, Possibility, Semiring};
use pxml_tree::NodeId;

/// A condition-level lint: something statically suspicious about how the
/// tree uses its event variables.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldsLint {
    /// The event has probability 1: it is always true, so weighted
    /// enumeration pins it instead of branching on it.
    PinnableEvent {
        /// The certain event.
        event: EventId,
        /// Its name in the event table.
        name: String,
    },
    /// A node's condition is impossible — its value under the
    /// [`Possibility`] semiring is `false`, i.e. it holds in no
    /// positive-probability world. This covers the intrinsic
    /// contradiction `w ∧ ¬w` *and* a negative literal on a `π(w) = 1`
    /// event, which the old syntactic `is_consistent` check missed.
    ContradictoryCondition {
        /// The node that can never exist.
        node: NodeId,
        /// Its label.
        label: String,
    },
}

/// The static analysis of one prob-tree's world structure.
#[derive(Clone, Debug)]
pub struct WorldsAnalysis {
    /// Total number of declared events.
    pub num_events: usize,
    /// Events actually mentioned by some condition.
    pub num_relevant: usize,
    /// The shard plan when certain (π = 1) events are pinned — the plan
    /// the weighted executor follows.
    pub weighted_plan: ShardPlan,
    /// The shard plan when every relevant event branches.
    pub unweighted_plan: ShardPlan,
    /// The event budget the verdict was computed against.
    pub max_events: usize,
    /// `true` if the weighted plan fits the budget, i.e. the factorized
    /// enumeration is tractable.
    pub tractable: bool,
    /// Static lints over events and conditions.
    pub lints: Vec<WorldsLint>,
}

impl WorldsAnalysis {
    /// Predicted `Σ_c 2^{free(C_i)}` shard states of the weighted plan —
    /// exactly what `FactorizedWorlds::states_enumerated` will report.
    pub fn predicted_states(&self) -> u128 {
        self.weighted_plan.predicted_states()
    }
}

/// Computes the census of `tree` against an event budget of `max_events`.
///
/// Trees with shared (stored) children are analyzed through the expanded
/// view, so per-node lints can name every logical occurrence; the shard
/// plans are unaffected (sharing never changes the distinct condition
/// set, so the co-occurrence components agree).
pub fn analyze_worlds(tree: &ProbTree, max_events: usize) -> WorldsAnalysis {
    let tree = tree.expanded();
    let tree = tree.as_ref();
    let engine = WorldEngine::new(tree);
    let weighted_plan = engine.shard_plan(true);
    let unweighted_plan = engine.shard_plan(false);
    let tractable = weighted_plan.check_budget(max_events).is_ok();
    let mut lints = Vec::new();
    for event in tree.events().iter() {
        if tree.events().prob(event) >= 1.0 {
            lints.push(WorldsLint::PinnableEvent {
                event,
                name: tree.events().name(event).to_owned(),
            });
        }
    }
    // Impossibility is a semiring-zero test, not an ad-hoc syntactic
    // check: a condition is dead iff its Possibility value is `false`
    // (inconsistent, or negating a certain event).
    let possibility = Possibility;
    for node in tree.tree().iter() {
        if let Some(condition) = tree.condition_ref(node) {
            if possibility.is_zero(&condition.eval_in(&possibility, tree.events())) {
                lints.push(WorldsLint::ContradictoryCondition {
                    node,
                    label: tree.tree().label(node).to_owned(),
                });
            }
        }
    }
    WorldsAnalysis {
        num_events: tree.events().len(),
        num_relevant: engine.num_relevant(),
        weighted_plan,
        unweighted_plan,
        max_events,
        tractable,
        lints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::worlds::WorldEngineConfig;
    use pxml_events::{Condition, Literal};
    use pxml_workloads::random::many_components_probtree;

    #[test]
    fn census_predicts_the_executor_counter() {
        let tree = many_components_probtree(4, 3);
        let analysis = analyze_worlds(&tree, 16);
        assert!(analysis.tractable);
        assert_eq!(analysis.weighted_plan.num_components(), 4);
        let engine = WorldEngine::new(&tree);
        let worlds = engine.sharded(&WorldEngineConfig::default(), 16).unwrap();
        assert_eq!(
            analysis.predicted_states(),
            u128::from(worlds.states_enumerated())
        );
    }

    #[test]
    fn census_flags_intractable_trees_without_enumerating() {
        let tree = many_components_probtree(1, 10);
        let analysis = analyze_worlds(&tree, 6);
        assert!(!analysis.tractable);
        assert_eq!(analysis.weighted_plan.largest_free_component(), 10);
    }

    #[test]
    fn lints_catch_certain_events_and_contradictions() {
        let mut tree = ProbTree::new("A");
        let sure = tree.events_mut().insert("sure", 1.0);
        let maybe = tree.events_mut().insert("maybe", 0.5);
        let root = tree.tree().root();
        tree.add_child(root, "B", Condition::of(Literal::pos(sure)));
        tree.add_child(
            root,
            "C",
            Condition::from_literals([Literal::pos(maybe), Literal::neg(maybe)]),
        );
        let analysis = analyze_worlds(&tree, 16);
        assert!(analysis
            .lints
            .iter()
            .any(|l| matches!(l, WorldsLint::PinnableEvent { name, .. } if name == "sure")));
        assert!(analysis.lints.iter().any(
            |l| matches!(l, WorldsLint::ContradictoryCondition { label, .. } if label == "C")
        ));
        // Pinning shrinks the weighted plan relative to the unweighted one.
        assert!(
            analysis.weighted_plan.num_free_events() < analysis.unweighted_plan.num_free_events()
        );
    }

    #[test]
    fn possibility_lint_catches_negated_certain_events() {
        // `¬sure` with π(sure) = 1 is syntactically consistent but holds in
        // no world — the Possibility semiring sees through it.
        let mut tree = ProbTree::new("A");
        let sure = tree.events_mut().insert("sure", 1.0);
        let maybe = tree.events_mut().insert("maybe", 0.5);
        let root = tree.tree().root();
        tree.add_child(root, "B", Condition::of(Literal::neg(sure)));
        tree.add_child(root, "C", Condition::of(Literal::pos(maybe)));
        let analysis = analyze_worlds(&tree, 16);
        assert!(analysis.lints.iter().any(
            |l| matches!(l, WorldsLint::ContradictoryCondition { label, .. } if label == "B")
        ));
        assert!(!analysis.lints.iter().any(
            |l| matches!(l, WorldsLint::ContradictoryCondition { label, .. } if label == "C")
        ));
    }
}
