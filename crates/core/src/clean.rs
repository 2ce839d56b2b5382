//! Cleaning of prob-trees (Section 3 of the paper).
//!
//! A prob-tree can be *cleaned* in linear time by
//!
//! 1. removing **superfluous** atomic conditions — literals already implied
//!    by a condition on an ancestor (a node is only present when all its
//!    ancestors are, so repeating an ancestor's literal is redundant); and
//! 2. pruning nodes with **inconsistent** conditions — conditions that are
//!    intrinsically contradictory (`w ∧ ¬w`) or that contradict a literal
//!    imposed by an ancestor.
//!
//! Cleaning preserves structural equivalence and is the first step of the
//! Figure 3 randomized equivalence algorithm.

use pxml_events::{Condition, EventId, EventTable, Literal};
use pxml_tree::NodeId;

use crate::probtree::ProbTree;

/// Returns a cleaned, compacted copy of `tree`.
pub fn clean(tree: &ProbTree) -> ProbTree {
    let mut work = tree.clone();
    let root = work.tree().root();
    let walked = clean_below(&mut work, root, Condition::always());
    for node in walked.dropped {
        work.detach(node);
    }
    work.compact().0
}

/// What one top-down cleaning or pruning walk did. Conditions are
/// rewritten in place; dropped nodes are left attached for the caller to
/// detach, and their subtrees are not walked.
#[derive(Debug, Default)]
pub(crate) struct Walked {
    /// Nodes the walk examined.
    pub(crate) visited: usize,
    /// Nodes whose condition lost literals, each with the number it
    /// lost: the condition is rewritten in place, so the caller cannot
    /// count them afterwards.
    pub(crate) rewritten: Vec<(NodeId, usize)>,
    /// Nodes that can never be present, to be detached with their
    /// subtrees.
    pub(crate) dropped: Vec<NodeId>,
}

/// Cleans the subtree rooted at `top`, whose strict ancestors' conditions
/// union to `ancestors`. Each node's cleaning depends only on its own
/// condition and that union, and cleaning keeps every path's union
/// unchanged, so the walk carries the union down and visits each node
/// once. The tree root, which carries no condition, is walked through.
pub(crate) fn clean_below(tree: &mut ProbTree, top: NodeId, ancestors: Condition) -> Walked {
    let mut walked = Walked::default();
    let root = tree.tree().root();
    let mut stack = vec![(top, ancestors)];
    while let Some((node, ancestors)) = stack.pop() {
        let own = if node == root {
            Condition::always()
        } else {
            walked.visited += 1;
            let own = tree.condition(node);
            if !ancestors.is_consistent() || !own.is_consistent() {
                walked.dropped.push(node);
                continue;
            }
            let mut kept: Vec<Literal> = Vec::with_capacity(own.len());
            let mut contradicts = false;
            for &literal in own.literals() {
                if ancestors.literals().contains(&literal.negated()) {
                    contradicts = true;
                    break;
                }
                if !ancestors.literals().contains(&literal) {
                    kept.push(literal);
                }
            }
            if contradicts {
                walked.dropped.push(node);
                continue;
            }
            if kept.len() != own.len() {
                walked.rewritten.push((node, own.len() - kept.len()));
                tree.set_condition(node, Condition::from_literals(kept));
            }
            own
        };
        let below = ancestors.and(&own);
        for &child in tree.tree().children(node).iter().rev() {
            stack.push((child, below.clone()));
        }
    }
    walked
}

/// Whether `event` is certain: `π(w) = 1`, so `w` holds in every world and
/// `¬w` in none.
fn is_certain(events: &EventTable, event: EventId) -> bool {
    events.prob(event) == 1.0
}

/// Whether any event has `π(w) = 1`. Fresh confidence events are always
/// < 1, so most trees have none and pruning has nothing to do.
pub(crate) fn has_certain_events(events: &EventTable) -> bool {
    events.iter().any(|e| is_certain(events, e))
}

/// Prunes the branches a **certain** event makes impossible and drops the
/// literals it makes redundant, in the subtree rooted at `top`, with the
/// contract of [`clean_below`]: a positive literal on a `π(w) = 1` event
/// holds in every positive-probability world (removed from its
/// condition), while a negative literal on such an event can never hold
/// there (the node is dropped). `π(w) = 0` cannot occur — the event table
/// enforces `π ∈ (0, 1]`. Each node's pruning depends only on its own
/// literals. The tree root is walked through.
///
/// Unlike [`clean`], which preserves structural equivalence (Definition 9
/// quantifies over *all* valuations, including zero-probability ones),
/// this pass only preserves the **normalized possible-world semantics**:
/// it is part of the update step's simplification, whose contract is
/// agreement with `apply_to_pw_set` up to normalization.
pub(crate) fn prune_below(tree: &mut ProbTree, top: NodeId) -> Walked {
    let mut walked = Walked::default();
    let root = tree.tree().root();
    let mut stack = vec![top];
    while let Some(node) = stack.pop() {
        if node != root {
            walked.visited += 1;
            let own = tree.condition(node);
            match prune_condition(&own, tree.events()) {
                None => {
                    walked.dropped.push(node);
                    continue;
                }
                Some(kept) if kept.len() != own.len() => {
                    walked.rewritten.push((node, own.len() - kept.len()));
                    tree.set_condition(node, kept);
                }
                Some(_) => {}
            }
        }
        stack.extend(tree.tree().children(node).iter().rev());
    }
    walked
}

/// Drops the literals a certain event makes superfluous (`w`), or returns
/// `None` when the condition can never hold (`¬w`).
pub(crate) fn prune_condition(condition: &Condition, events: &EventTable) -> Option<Condition> {
    let mut kept: Vec<Literal> = Vec::with_capacity(condition.len());
    for &literal in condition.literals() {
        if !is_certain(events, literal.event) {
            kept.push(literal);
        } else if !literal.positive {
            return None;
        }
    }
    Some(Condition::from_literals(kept))
}

/// `true` if `tree` is already clean: no node condition repeats or
/// contradicts an ancestor literal, and every condition is consistent.
pub fn is_clean(tree: &ProbTree) -> bool {
    for node in tree.tree().iter() {
        if node == tree.tree().root() {
            continue;
        }
        let own = tree.condition(node);
        if !own.is_consistent() {
            return false;
        }
        let ancestor = tree.ancestor_condition(node);
        for &literal in own.literals() {
            if ancestor.literals().contains(&literal)
                || ancestor.literals().contains(&literal.negated())
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::possible_worlds;
    use pxml_events::{Condition, Literal};

    #[test]
    fn figure1_is_already_clean() {
        let t = figure1_example();
        assert!(is_clean(&t));
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), t.num_nodes());
        assert_eq!(cleaned.num_literals(), t.num_literals());
    }

    #[test]
    fn superfluous_ancestor_literals_are_removed() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        // C repeats the ancestor's literal.
        t.add_child(b, "C", Condition::of(Literal::pos(w)));
        assert!(!is_clean(&t));
        let cleaned = clean(&t);
        assert!(is_clean(&cleaned));
        assert_eq!(cleaned.num_nodes(), 3);
        assert_eq!(cleaned.num_literals(), 1, "only B keeps its literal");
    }

    #[test]
    fn intrinsically_inconsistent_nodes_are_pruned() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w), Literal::neg(w)]),
        );
        t.add_child(b, "C", Condition::always());
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), 1, "B and its descendant C are gone");
    }

    #[test]
    fn nodes_contradicting_ancestors_are_pruned() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b, "C", Condition::of(Literal::neg(w)));
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), 2);
        assert!(is_clean(&cleaned));
    }

    #[test]
    fn cleaning_preserves_possible_world_semantics() {
        let mut t = ProbTree::new("A");
        let w1 = t.events_mut().insert("w1", 0.6);
        let w2 = t.events_mut().insert("w2", 0.3);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w1)));
        // Superfluous w1 plus a real w2 condition.
        t.add_child(
            b,
            "C",
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2)]),
        );
        // An impossible node.
        t.add_child(
            root,
            "D",
            Condition::from_literals([Literal::pos(w2), Literal::neg(w2)]),
        );
        let before = possible_worlds(&t, 20).unwrap().normalized();
        let cleaned = clean(&t);
        let after = possible_worlds(&cleaned, 20).unwrap().normalized();
        assert!(before.isomorphic(&after));
        assert!(is_clean(&cleaned));
        assert!(cleaned.num_literals() < t.num_literals());
    }

    #[test]
    fn prune_certain_drops_certain_literals_and_dead_branches() {
        let mut t = ProbTree::new("A");
        let sure = t.events_mut().insert("sure", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        // `sure ∧ w` simplifies to `w`.
        let b = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(sure), Literal::pos(w)]),
        );
        t.add_child(b, "C", Condition::always());
        // `¬sure` can never hold in a positive-probability world.
        let d = t.add_child(root, "D", Condition::of(Literal::neg(sure)));
        t.add_child(d, "E", Condition::always());
        let before = possible_worlds(&t, 20).unwrap().normalized();
        let walked = prune_below(&mut t, root);
        assert_eq!(walked.visited, 3, "B, C and D; E lies below a drop");
        assert_eq!(walked.rewritten, [(b, 1)]);
        assert_eq!(walked.dropped, [d]);
        assert_eq!(t.condition(b), Condition::of(Literal::pos(w)));
        for node in walked.dropped {
            t.detach(node);
        }
        assert_eq!(t.num_nodes(), 3, "D and E are dead branches");
        assert_eq!(t.num_literals(), 1, "only B's w literal remains");
        let after = possible_worlds(&t, 20).unwrap().normalized();
        assert!(before.isomorphic(&after));
    }

    #[test]
    fn prune_certain_is_identity_without_certain_events() {
        let mut t = figure1_example();
        let before = t.to_ascii();
        let root = t.tree().root();
        let walked = prune_below(&mut t, root);
        assert_eq!(walked.visited, t.num_nodes() - 1, "every node but the root");
        assert!(walked.rewritten.is_empty());
        assert!(walked.dropped.is_empty());
        assert_eq!(t.to_ascii(), before);
    }

    #[test]
    fn cleaning_is_idempotent() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b, "C", Condition::of(Literal::pos(w)));
        let once = clean(&t);
        let twice = clean(&once);
        assert_eq!(once.num_nodes(), twice.num_nodes());
        assert_eq!(once.num_literals(), twice.num_literals());
    }
}
