//! DTD restriction (Theorem 5 (3)).
//!
//! Given a prob-tree `T` and a DTD `D`, the restriction keeps only the
//! possible worlds that satisfy `D`, and asks for a prob-tree `T'` with
//! `{(t, p) ∈ JT K | t ⊨ D} ∼sub JT'K`. The paper shows the answer may be
//! exponentially larger than the input (the witness family constrains the
//! number of `C` children to at most `n` out of `2n` optional ones); the E9
//! experiment measures that growth.

use pxml_core::probtree::ProbTree;
use pxml_core::pwset::PossibleWorldSet;
use pxml_core::semantics::{possible_worlds_normalized, pw_set_to_probtree, PwSetError};
use pxml_events::valuation::TooManyValuations;

use crate::dtd::Dtd;
use crate::validate::validates;

/// Outcome of a DTD restriction.
#[derive(Clone, Debug)]
pub struct DtdRestriction {
    /// The valid worlds (probabilities do not sum to 1 in general).
    pub worlds: PossibleWorldSet,
    /// Number of distinct worlds before restriction.
    pub total_worlds: usize,
    /// Probability mass of the valid worlds.
    pub retained_mass: f64,
}

/// Computes the set of valid worlds `{(t, p) ∈ JT K | t ⊨ D}`. Exponential
/// in the worst case (guarded by `max_events`), but the expansion runs on
/// the factorized shard executor: `Σ_c 2^{|C_i|}` per-component states,
/// with only the condition-distinct classes crossed into joint worlds, so
/// trees with many small co-occurrence components restrict far beyond the
/// old `2^{|relevant|}` guard.
pub fn restrict_to_dtd(
    tree: &ProbTree,
    dtd: &Dtd,
    max_events: usize,
) -> Result<DtdRestriction, TooManyValuations> {
    let normalized = possible_worlds_normalized(tree, max_events)?;
    let total_worlds = normalized.len();
    let worlds = normalized.restrict(&|world| validates(&world.to_tree(), dtd));
    let retained_mass = worlds.total_probability();
    Ok(DtdRestriction {
        worlds,
        total_worlds,
        retained_mass,
    })
}

/// Represents the restriction as a prob-tree `T'` with
/// `{(t, p) ∈ JT K | t ⊨ D} ∼sub JT'K` (the lost mass goes to the root-only
/// world, Definition 3). Goes through the generic PW-set → prob-tree
/// construction; Theorem 5 (3) shows the exponential size is unavoidable in
/// general.
pub fn restriction_as_probtree(
    tree: &ProbTree,
    dtd: &Dtd,
    max_events: usize,
) -> Result<Result<ProbTree, PwSetError>, TooManyValuations> {
    let restriction = restrict_to_dtd(tree, dtd, max_events)?;
    let root_label = tree.tree().label(tree.tree().root()).to_string();
    let missing = 1.0 - restriction.retained_mass;
    let mut completed = restriction.worlds.clone();
    if missing > pxml_events::PROB_EPS {
        completed.push(pxml_tree::DataTree::new(root_label), missing);
    }
    Ok(pw_set_to_probtree(&completed.normalized()))
}

/// The Theorem 5 (3) witness family: a root `A` with `2n` optional children
/// `C` (each carrying its own event of probability ½ and a distinguishing
/// `D_i` grandchild), together with the DTD allowing at most `n` `C`
/// children.
pub fn theorem5_restriction_family(n: usize) -> (ProbTree, Dtd) {
    let mut tree = ProbTree::new("A");
    let root = tree.tree().root();
    for i in 0..2 * n {
        let w = tree.events_mut().fresh(0.5);
        let c = tree.add_child(
            root,
            "C",
            pxml_events::Condition::of(pxml_events::Literal::pos(w)),
        );
        // Distinguishing child, as in the paper's proof sketch ("C nodes
        // with a D_i child in order to give them the same label while
        // keeping them distinguishable").
        tree.add_child(c, format!("D{i}"), pxml_events::Condition::always());
    }
    let mut dtd = Dtd::new();
    dtd.constrain("A", "C", crate::dtd::ChildConstraint::between(0, n));
    (tree, dtd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::ChildConstraint;
    use pxml_core::probtree::figure1_example;
    use pxml_events::prob_eq;

    #[test]
    fn restriction_on_figure1() {
        // Forbid B children: only the worlds without B survive
        // (0.06 + 0.70 = 0.76).
        let t = figure1_example();
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::forbidden())
            .constrain("A", "C", ChildConstraint::at_least(0));
        let r = restrict_to_dtd(&t, &dtd, 20).unwrap();
        assert_eq!(r.total_worlds, 3);
        assert_eq!(r.worlds.len(), 2);
        assert!(prob_eq(r.retained_mass, 0.76));
    }

    #[test]
    fn restriction_probtree_has_sub_isomorphic_semantics() {
        let t = figure1_example();
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::forbidden())
            .constrain("A", "C", ChildConstraint::at_least(0));
        let restricted = restrict_to_dtd(&t, &dtd, 20).unwrap();
        let rep = restriction_as_probtree(&t, &dtd, 20).unwrap().unwrap();
        let rep_worlds = possible_worlds_normalized(&rep, 20).unwrap();
        assert!(restricted.worlds.isomorphic_sub(&rep_worlds, "A"));
    }

    #[test]
    fn empty_restriction_yields_root_only_probtree() {
        let t = figure1_example();
        // Impossible DTD: at least one Z child.
        let mut dtd = Dtd::new();
        dtd.constrain("A", "Z", ChildConstraint::at_least(1))
            .constrain("A", "B", ChildConstraint::at_least(0))
            .constrain("A", "C", ChildConstraint::at_least(0));
        let r = restrict_to_dtd(&t, &dtd, 20).unwrap();
        assert!(r.worlds.is_empty());
        let rep = restriction_as_probtree(&t, &dtd, 20).unwrap().unwrap();
        assert_eq!(rep.num_nodes(), 1);
    }

    /// DTD restriction on 18 relevant events in 6 components of 3 — more
    /// than a joint enumeration may walk at this budget
    /// (`max_events = 16`): 64 joint classes, of which the DTD keeps the
    /// worlds with at most one C.
    #[test]
    fn factorized_restriction_handles_many_small_components() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..6 {
            let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
            let c = t.add_child(
                root,
                "C",
                pxml_events::Condition::from_literals(
                    w.iter().map(|&e| pxml_events::Literal::pos(e)),
                ),
            );
            t.add_child(c, format!("D{i}"), pxml_events::Condition::always());
        }
        assert_eq!(t.events().len(), 18);
        let mut dtd = Dtd::new();
        dtd.constrain("A", "C", ChildConstraint::between(0, 1))
            .constrain("C", "D0", ChildConstraint::at_least(0));
        for i in 1..6 {
            dtd.constrain("C", format!("D{i}"), ChildConstraint::at_least(0));
        }
        let r = restrict_to_dtd(&t, &dtd, 16).unwrap();
        // 64 distinct worlds (each C_i distinguishable by its D_i child);
        // at most one C: 1 + 6 survive.
        assert_eq!(r.total_worlds, 64);
        assert_eq!(r.worlds.len(), 7);
        let p = 1.0f64 / 8.0;
        let expected = (1.0 - p).powi(6) + 6.0 * p * (1.0 - p).powi(5);
        assert!(prob_eq(r.retained_mass, expected));
    }

    #[test]
    fn theorem5_family_restriction_grows_quickly() {
        let mut sizes = Vec::new();
        for n in 1..=3usize {
            let (tree, dtd) = theorem5_restriction_family(n);
            assert_eq!(tree.events().len(), 2 * n);
            let rep = restriction_as_probtree(&tree, &dtd, 20).unwrap().unwrap();
            sizes.push(rep.size());
            // The number of valid worlds is Σ_{k≤n} C(2n, k) ≥ C(2n, n).
            let r = restrict_to_dtd(&tree, &dtd, 20).unwrap();
            let expected: usize = (0..=n).map(|k| binomial(2 * n, k)).sum();
            assert_eq!(r.worlds.len(), expected);
        }
        assert!(sizes[1] > 2 * sizes[0]);
        assert!(sizes[2] > 2 * sizes[1]);
    }

    fn binomial(n: usize, k: usize) -> usize {
        let mut result = 1usize;
        for i in 0..k {
            result = result * (n - i) / (i + 1);
        }
        result
    }
}
