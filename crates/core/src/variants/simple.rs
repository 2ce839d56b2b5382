//! The simple probabilistic model (reference \[3\] of the paper).
//!
//! Every non-root node carries an independent existence probability; a node
//! is present when its parent is present and its own coin toss succeeds.
//! This model has a polynomial-size bound (probabilities of bounded
//! precision, trees of bounded size ⇒ bounded representation) but, as the
//! paper recalls, it is strictly less expressive than the possible-world
//! model: it cannot express correlations such as mutually exclusive
//! siblings. [`SimpleProbTree::to_probtree`] embeds it into the full
//! prob-tree model with one fresh event per annotated node.

use std::collections::HashMap;

use pxml_events::{Condition, Literal};
use pxml_tree::{DataTree, NodeId};

use crate::probtree::ProbTree;
use crate::pwset::PossibleWorldSet;

/// A data tree with independent per-node existence probabilities.
#[derive(Clone, Debug)]
pub struct SimpleProbTree {
    tree: DataTree,
    /// Existence probability of each non-root node; missing entries mean 1.
    probabilities: HashMap<NodeId, f64>,
}

impl SimpleProbTree {
    /// Creates a simple probabilistic tree with a single root node.
    pub fn new(label: impl Into<String>) -> Self {
        SimpleProbTree {
            tree: DataTree::new(label),
            probabilities: HashMap::new(),
        }
    }

    /// The underlying data tree.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// Adds a child existing with probability `p ∈ (0, 1]`.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<String>, p: f64) -> NodeId {
        assert!(
            p > 0.0 && p <= 1.0,
            "probability must lie in (0, 1], got {p}"
        );
        let id = self.tree.add_child(parent, label);
        if p < 1.0 {
            self.probabilities.insert(id, p);
        }
        id
    }

    /// The existence probability of a node (1 for the root and certain
    /// nodes).
    pub fn probability(&self, node: NodeId) -> f64 {
        self.probabilities.get(&node).copied().unwrap_or(1.0)
    }

    /// Embeds the simple model into the prob-tree model: every uncertain
    /// node gets a fresh event variable with its probability, used as a
    /// positive single-literal condition.
    pub fn to_probtree(&self) -> ProbTree {
        let mut out = ProbTree::from_data_tree(self.tree.clone(), pxml_events::EventTable::new());
        let nodes: Vec<NodeId> = self.tree.iter().collect();
        for node in nodes {
            if node == self.tree.root() {
                continue;
            }
            let p = self.probability(node);
            if p < 1.0 {
                let w = out.events_mut().fresh(p);
                out.set_condition(node, Condition::of(Literal::pos(w)));
            }
        }
        out
    }
}

/// Decides whether a (normalized) PW set is expressible in the simple
/// model **over the same underlying tree shape**, by brute-force search
/// over the per-node probabilities implied by the worlds. This is a
/// semi-decision helper used to demonstrate the expressiveness gap: it
/// checks whether world probabilities factor into independent per-node
/// probabilities.
///
/// Returns `Some(simple_tree)` if an equivalent simple probabilistic tree
/// over the union tree exists, `None` otherwise. Only supports PW sets
/// whose worlds are all sub-datatrees of a common "union" tree of height 1
/// (which is the shape used in the paper's discussion and in our tests).
pub fn expressible_in_simple_model(pw: &PossibleWorldSet) -> Option<SimpleProbTree> {
    // Build the union of root-child labels with multiplicity 1: the helper
    // only handles height-1 worlds with distinct child labels.
    let root_label = pw.root_label()?;
    let mut child_labels: Vec<String> = Vec::new();
    for (world, _) in pw.iter() {
        if world.height() > 1 {
            return None;
        }
        for &c in world.children(world.root()) {
            let label = world.label(c).to_string();
            if world
                .children(world.root())
                .iter()
                .filter(|&&other| world.label(other) == label)
                .count()
                > 1
            {
                return None; // duplicate labels not supported by the helper
            }
            if !child_labels.contains(&label) {
                child_labels.push(label);
            }
        }
    }
    // Marginal probability of each child label.
    let mut marginals: HashMap<String, f64> = HashMap::new();
    for label in &child_labels {
        let mass: f64 = pw
            .iter()
            .filter(|(world, _)| {
                world
                    .children(world.root())
                    .iter()
                    .any(|&c| world.label(c) == *label)
            })
            .map(|(_, p)| p)
            .sum();
        marginals.insert(label.clone(), mass);
    }
    // The simple model forces world probabilities to be the product of the
    // marginals (presence) and complements (absence). Verify.
    let normalized = pw.normalized();
    let mut total_checked = 0.0;
    for (world, p) in normalized.iter() {
        let mut expected = 1.0;
        for label in &child_labels {
            let present = world
                .children(world.root())
                .iter()
                .any(|&c| world.label(c) == *label);
            let m = marginals[label];
            expected *= if present { m } else { 1.0 - m };
        }
        if (expected - p).abs() > 1e-9 {
            return None;
        }
        total_checked += p;
    }
    if (total_checked - 1.0).abs() > 1e-6 {
        return None;
    }
    // Build the witness.
    let mut out = SimpleProbTree::new(root_label);
    let root = out.tree().root();
    for label in &child_labels {
        let m = marginals[label];
        if m > 0.0 {
            out.add_child(root, label.clone(), m.min(1.0));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::possible_worlds;
    use pxml_events::prob_eq;
    use pxml_tree::builder::TreeSpec;

    #[test]
    fn simple_tree_semantics_via_embedding() {
        let mut s = SimpleProbTree::new("A");
        let root = s.tree().root();
        s.add_child(root, "B", 0.5);
        s.add_child(root, "C", 1.0);
        let probtree = s.to_probtree();
        assert_eq!(probtree.events().len(), 1);
        let pw = possible_worlds(&probtree, 20).unwrap().normalized();
        assert_eq!(pw.len(), 2);
        assert!(prob_eq(pw.total_probability(), 1.0));
    }

    #[test]
    fn independent_products_are_expressible() {
        // Independent children B (0.3) and C (0.6).
        let b = 0.3f64;
        let c = 0.6f64;
        let worlds = PossibleWorldSet::from_worlds([
            (TreeSpec::node("A", vec![]).build(), (1.0 - b) * (1.0 - c)),
            (
                TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build(),
                b * (1.0 - c),
            ),
            (
                TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build(),
                (1.0 - b) * c,
            ),
            (
                TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build(),
                b * c,
            ),
        ]);
        let simple = expressible_in_simple_model(&worlds).expect("expressible");
        let back = possible_worlds(&simple.to_probtree(), 20)
            .unwrap()
            .normalized();
        assert!(back.isomorphic(&worlds.normalized()));
    }

    #[test]
    fn mutually_exclusive_siblings_are_not_expressible() {
        // The expressiveness gap: either B or C, never both, never neither.
        let worlds = PossibleWorldSet::from_worlds([
            (TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build(), 0.5),
            (TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build(), 0.5),
        ]);
        assert!(expressible_in_simple_model(&worlds).is_none());
        // ... while the full prob-tree model expresses it exactly.
        let probtree = crate::semantics::pw_set_to_probtree(&worlds).unwrap();
        let back = possible_worlds(&probtree, 20).unwrap().normalized();
        assert!(back.isomorphic(&worlds.normalized()));
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn invalid_probability_is_rejected() {
        let mut s = SimpleProbTree::new("A");
        let root = s.tree().root();
        s.add_child(root, "B", 0.0);
    }

    #[test]
    fn helper_bails_out_on_deep_worlds() {
        let worlds = PossibleWorldSet::from_worlds([(
            TreeSpec::node("A", vec![TreeSpec::node("B", vec![TreeSpec::leaf("C")])]).build(),
            1.0,
        )]);
        assert!(expressible_in_simple_model(&worlds).is_none());
    }
}
