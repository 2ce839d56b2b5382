//! Threshold restriction of prob-trees (Theorem 4 of the paper).
//!
//! Given a prob-tree `T` and a probability threshold `p`, the restriction
//! `JT K≥p` keeps only the possible worlds whose (normalized) probability
//! reaches the threshold. The result is a *subset* of a PW set (its
//! probabilities no longer sum to 1) and is compared with `∼sub`
//! (Definition 3). Theorem 4 shows that, in general, no prob-tree of
//! polynomial size represents the restriction — the E7 experiment measures
//! that blow-up on the paper's witness family.

use pxml_events::valuation::TooManyValuations;

use crate::probtree::ProbTree;
use crate::pwset::PossibleWorldSet;
use crate::semantics::{possible_worlds_normalized, pw_set_to_probtree, PwSetError};

/// Outcome of a threshold restriction.
#[derive(Clone, Debug)]
pub struct ThresholdRestriction {
    /// The surviving worlds (a subset of the normalized semantics; does not
    /// sum to 1 in general).
    pub worlds: PossibleWorldSet,
    /// Number of worlds of the normalized semantics before restriction.
    pub total_worlds: usize,
    /// Probability mass retained.
    pub retained_mass: f64,
}

/// Computes `JT K≥p`: normalizes the possible-world semantics of `tree` and
/// keeps the worlds with probability at least `threshold` (an exact `≥` —
/// see [`PossibleWorldSet::restrict_to_threshold`]).
///
/// Exponential in the worst case (this is inherent — see Theorem 4), but
/// the normalization runs on the factorized shard executor: each
/// co-occurrence component is enumerated independently (`Σ_c 2^{|C_i|}`
/// states) and only the condition-distinct classes are crossed, so trees
/// whose relevant events split into many small components restrict far
/// beyond the old `2^{|relevant|}` guard. `max_events` bounds the largest
/// component, the total shard work, and the joint combine.
pub fn restrict_to_threshold(
    tree: &ProbTree,
    threshold: f64,
    max_events: usize,
) -> Result<ThresholdRestriction, TooManyValuations> {
    let normalized = possible_worlds_normalized(tree, max_events)?;
    let total_worlds = normalized.len();
    let worlds = normalized.restrict_to_threshold(threshold);
    let retained_mass = worlds.total_probability();
    Ok(ThresholdRestriction {
        worlds,
        total_worlds,
        retained_mass,
    })
}

/// Represents the restriction as a prob-tree `T'` with
/// `JT K≥p ∼sub JT'K`, following Definition 3: the lost probability mass is
/// assigned to the root-only world. The construction goes through the
/// generic PW-set → prob-tree encoding, so its size is essentially the
/// total size of the surviving worlds (which Theorem 4 shows cannot be
/// avoided in general).
pub fn restriction_as_probtree(
    tree: &ProbTree,
    threshold: f64,
    max_events: usize,
) -> Result<Result<ProbTree, PwSetError>, TooManyValuations> {
    let restriction = restrict_to_threshold(tree, threshold, max_events)?;
    let root_label = tree.tree().label(tree.tree().root()).to_string();
    let missing = 1.0 - restriction.retained_mass;
    let mut completed = restriction.worlds.clone();
    if missing > pxml_events::PROB_EPS {
        completed.push(pxml_tree::DataTree::new(root_label), missing);
    }
    Ok(pw_set_to_probtree(&completed.normalized()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use pxml_events::{prob_eq, Condition, Literal};

    #[test]
    fn figure1_threshold_keeps_high_probability_worlds() {
        let t = figure1_example();
        // Worlds: 0.06, 0.70, 0.24. Threshold 0.2 keeps two of them.
        let r = restrict_to_threshold(&t, 0.2, 20).unwrap();
        assert_eq!(r.total_worlds, 3);
        assert_eq!(r.worlds.len(), 2);
        assert!(prob_eq(r.retained_mass, 0.94));
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let t = figure1_example();
        let r = restrict_to_threshold(&t, 0.0, 20).unwrap();
        assert_eq!(r.worlds.len(), 3);
        assert!(prob_eq(r.retained_mass, 1.0));
    }

    #[test]
    fn restriction_as_probtree_satisfies_sub_isomorphism() {
        let t = figure1_example();
        let restricted = restrict_to_threshold(&t, 0.2, 20).unwrap();
        let rep = restriction_as_probtree(&t, 0.2, 20).unwrap().unwrap();
        let rep_worlds = possible_worlds_normalized(&rep, 20).unwrap();
        // JT K≥p ∼sub JT'K  (Definition 3).
        assert!(restricted.worlds.isomorphic_sub(&rep_worlds, "A"));
    }

    #[test]
    fn theorem4_family_restriction_grows_exponentially() {
        // The Theorem 4 witness: root A with 2n children C_i, each with its
        // own event of probability 1/2. All worlds are equiprobable
        // (2^{-2n}); a threshold at that value keeps every world, and the
        // prob-tree produced for the restriction has one selector event per
        // world — exponential in n. Every world's probability is an exact
        // power of two (a product of 0.5 factors, no summation), so the
        // threshold can be the exact common probability — the old
        // `− 1e-12` offset only existed to compensate for the epsilon
        // slack `restrict_to_threshold` used to apply.
        let mut sizes = Vec::new();
        for n in 1..=3usize {
            let mut t = ProbTree::new("A");
            let root = t.tree().root();
            for i in 0..2 * n {
                let w = t.events_mut().fresh(0.5);
                t.add_child(root, format!("C{i}"), Condition::of(Literal::pos(w)));
            }
            let threshold = 0.5f64.powi(2 * n as i32);
            let rep = restriction_as_probtree(&t, threshold, 20).unwrap().unwrap();
            sizes.push(rep.size());
            let r = restrict_to_threshold(&t, threshold, 20).unwrap();
            assert_eq!(r.worlds.len(), 1 << (2 * n));
        }
        assert!(sizes[1] > 2 * sizes[0]);
        assert!(sizes[2] > 2 * sizes[1]);
    }

    #[test]
    fn threshold_boundary_is_exact_not_eps_padded() {
        use pxml_events::PROB_EPS;
        let t = figure1_example();
        // The middle world has probability ≈ 0.24; a threshold half an
        // epsilon below keeps it, half an epsilon above drops it (the old
        // `≥ threshold − PROB_EPS` slack kept it in both cases).
        let keep = restrict_to_threshold(&t, 0.24 - PROB_EPS / 2.0, 20).unwrap();
        assert_eq!(keep.worlds.len(), 2);
        let drop = restrict_to_threshold(&t, 0.24 + PROB_EPS / 2.0, 20).unwrap();
        assert_eq!(drop.worlds.len(), 1);
    }

    #[test]
    fn threshold_restriction_ignores_unused_declared_events() {
        // 30 declared, 2 mentioned: far beyond the legacy 2^24 guard, easy
        // for the relevant-event engine.
        let mut t = figure1_example();
        for _ in 0..28 {
            t.events_mut().fresh(0.5);
        }
        let r = restrict_to_threshold(&t, 0.2, 24).unwrap();
        assert_eq!(r.total_worlds, 3);
        assert_eq!(r.worlds.len(), 2);
        assert!(prob_eq(r.retained_mass, 0.94));
    }

    /// 18 relevant events in 6 components of 3 (one 3-literal condition
    /// each) exceed a `max_events = 16` budget for any joint enumeration,
    /// but factorize into `Σ 2^3 = 48` shard states and 64 joint classes:
    /// the restriction answers, and exactly, at the class probabilities.
    #[test]
    fn factorized_threshold_handles_many_small_components() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..6 {
            let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
            t.add_child(
                root,
                format!("C{i}"),
                Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
            );
        }
        assert_eq!(t.events().len(), 18);
        // Each C_i is present with probability 1/8; world probabilities
        // are (1/8)^k (7/8)^{6-k}. Threshold at the all-absent world's
        // probability keeps exactly that single world.
        let all_absent = (7.0f64 / 8.0).powi(6);
        let r = restrict_to_threshold(&t, all_absent, 16).unwrap();
        assert_eq!(r.total_worlds, 64);
        assert_eq!(r.worlds.len(), 1);
        assert!(prob_eq(r.retained_mass, all_absent));
    }

    #[test]
    fn high_threshold_keeps_nothing() {
        let t = figure1_example();
        let r = restrict_to_threshold(&t, 0.9, 20).unwrap();
        assert!(r.worlds.is_empty());
        assert_eq!(r.retained_mass, 0.0);
        // The prob-tree representation is then the root-only tree.
        let rep = restriction_as_probtree(&t, 0.9, 20).unwrap().unwrap();
        assert_eq!(rep.num_nodes(), 1);
    }
}
