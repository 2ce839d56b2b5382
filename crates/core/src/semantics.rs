//! Possible-world semantics of prob-trees and the expressiveness
//! translation back from PW sets (Section 2 of the paper).
//!
//! * [`possible_worlds`] computes `JT K` (Definition 4) by enumerating all
//!   `2^{|W|}` valuations — exponential, guarded by a caller-supplied bound
//!   on `|W|`. It is the *baseline*: production call sites go through
//!   [`possible_worlds_normalized`], which drives the relevant-event
//!   [`WorldEngine`] and only pays for the
//!   events the tree's conditions actually mention.
//! * [`pw_set_to_probtree`] is the converse construction showing that the
//!   prob-tree model is at least as expressive as the PW model: any PW set
//!   `S` has a prob-tree `T` with `S ∼ JT K` (the construction uses one
//!   event variable per world minus one, so its size is essentially the
//!   size of `S` — which Proposition 1 shows cannot be improved in
//!   general).

use pxml_events::valuation::{all_valuations, TooManyValuations};
use pxml_events::{Condition, Literal};
use pxml_tree::DataTree;

use crate::probtree::ProbTree;
use crate::pwset::PossibleWorldSet;
use crate::worlds::{WorldEngine, WorldEngineConfig};

/// Computes the possible-world semantics `JT K` of a prob-tree
/// (Definition 4) by full enumeration of the **declared** event table. The
/// result is **not** normalized: it contains one entry per valuation of
/// the event variables.
///
/// Fails if the prob-tree has more than `max_events` event variables
/// (exponential-work guard). This is the Definition 4 baseline kept for
/// cross-checks; prefer [`possible_worlds_normalized`], which enumerates
/// only the events the tree actually mentions.
pub fn possible_worlds(
    tree: &ProbTree,
    max_events: usize,
) -> Result<PossibleWorldSet, TooManyValuations> {
    let mut out = PossibleWorldSet::new();
    for valuation in all_valuations(tree.events().len(), max_events)? {
        let world = tree.value_in_world(&valuation);
        let p = valuation.probability(tree.events());
        out.push(world, p);
    }
    Ok(out)
}

/// The **normalized** possible-world semantics `JT K` of a prob-tree,
/// computed by the *factorized* relevant-event [`WorldEngine`]: every
/// co-occurrence component is enumerated independently into a shard
/// (`Σ_c 2^{|C_i|}` states instead of `2^{|relevant|}`, with `π(w) = 1`
/// branches pruned and condition-equivalent assignments merged), and only
/// the deduplicated shard classes are combined into joint worlds, streamed
/// into the canonical-form accumulator.
///
/// `max_events` bounds both the largest single component and (as
/// `2^{max_events}`) the total shard work and the joint combine, so
/// everything the legacy relevant-event guard accepted is still accepted —
/// and trees whose relevant events split into many small components are
/// now tractable far beyond it. The executor runs under
/// [`WorldEngineConfig::for_event_budget`]: a joint cap of exactly the
/// `2^{max_events}` granted here, so the result depends on the tree and
/// `max_events` alone.
pub fn possible_worlds_normalized(
    tree: &ProbTree,
    max_events: usize,
) -> Result<PossibleWorldSet, TooManyValuations> {
    let config = WorldEngineConfig::for_event_budget(max_events);
    let factorized = WorldEngine::new(tree).sharded(&config, max_events)?;
    factorized
        .normalized_worlds()
        .map_err(|_joint| TooManyValuations {
            num_events: factorized.num_free_events(),
            max_events,
        })
}

/// Error raised by [`pw_set_to_probtree`] when the input is not a valid PW
/// set.
#[derive(Clone, Debug, PartialEq)]
pub enum PwSetError {
    /// The set contains no world.
    Empty,
    /// Worlds do not share a common root label.
    MixedRootLabels,
    /// A world has a non-positive probability.
    NonPositiveProbability(f64),
    /// Probabilities do not sum to 1.
    DoesNotSumToOne(f64),
    /// A selector event's probability `p_i / Σ_{j ≥ i} p_j` degenerated to
    /// 0 or 1 in floating point (e.g. a world so light that the suffix mass
    /// absorbs it), so the construction cannot represent every world with
    /// positive probability. The payload is `(world index, degenerate
    /// probability)`.
    DegenerateSelectorMass(usize, f64),
}

impl std::fmt::Display for PwSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PwSetError::Empty => write!(f, "possible-world set is empty"),
            PwSetError::MixedRootLabels => {
                write!(f, "worlds do not share a common root label")
            }
            PwSetError::NonPositiveProbability(p) => {
                write!(f, "world probability {p} is not positive")
            }
            PwSetError::DoesNotSumToOne(total) => {
                write!(f, "world probabilities sum to {total}, expected 1")
            }
            PwSetError::DegenerateSelectorMass(index, p) => {
                write!(
                    f,
                    "selector probability for world {index} degenerates to {p} \
                     (must lie strictly between 0 and 1)"
                )
            }
        }
    }
}

impl std::error::Error for PwSetError {}

/// Builds a prob-tree whose semantics is (isomorphic to) the given PW set.
///
/// The construction follows the paper's expressiveness argument: worlds
/// `t_1 … t_n` with probabilities `p_1 … p_n` are encoded with `n − 1`
/// event variables `w_1 … w_{n−1}` where
/// `π(w_i) = p_i / (1 − p_1 − … − p_{i−1})`, and world `i` is selected by
/// the mutually exclusive condition `¬w_1 ∧ … ∧ ¬w_{i−1} ∧ w_i`
/// (`¬w_1 ∧ … ∧ ¬w_{n−1}` for the last world). The children of each
/// world's root are grafted under the shared root with that condition.
pub fn pw_set_to_probtree(pw: &PossibleWorldSet) -> Result<ProbTree, PwSetError> {
    let worlds: Vec<(DataTree, f64)> = pw.iter().cloned().collect();
    if worlds.is_empty() {
        return Err(PwSetError::Empty);
    }
    let root_label = pw
        .root_label()
        .ok_or(PwSetError::MixedRootLabels)?
        .to_string();
    for (_, p) in &worlds {
        if *p <= 0.0 {
            return Err(PwSetError::NonPositiveProbability(*p));
        }
    }
    let total = pw.total_probability();
    if (total - 1.0).abs() > 1e-6 {
        return Err(PwSetError::DoesNotSumToOne(total));
    }

    let mut out = ProbTree::new(root_label);
    let n = worlds.len();

    // Event variables w_1 .. w_{n-1} with π(w_i) = p_i / Σ_{j ≥ i} p_j.
    //
    // The denominator is an exact suffix sum rather than a running
    // `remaining -= p_i` difference: the sequential subtraction accumulates
    // cancellation error, and near the tail (where `remaining` approaches
    // 0) a drifted or mid-list `p == remaining` silently fabricated
    // selector probabilities — zero-probability tails, or `inf` clamped to
    // 1. With suffix sums each quotient lies strictly in (0, 1) whenever
    // the input masses are representable; a degenerate quotient is a real
    // input pathology and is reported instead of clamped.
    let mut suffix = vec![0.0f64; n + 1];
    for (i, (_, p)) in worlds.iter().enumerate().rev() {
        suffix[i] = suffix[i + 1] + p;
    }
    let mut events = Vec::with_capacity(n.saturating_sub(1));
    for (i, (_, p)) in worlds.iter().enumerate().take(n.saturating_sub(1)) {
        let prob = p / suffix[i];
        if !(prob > 0.0 && prob < 1.0) {
            return Err(PwSetError::DegenerateSelectorMass(i, prob));
        }
        events.push(out.events_mut().insert(format!("sel{}", i + 1), prob));
    }

    let root = out.tree().root();
    for (i, (world, _)) in worlds.iter().enumerate() {
        // Condition selecting world i.
        let mut literals: Vec<Literal> = events[..i.min(events.len())]
            .iter()
            .map(|&e| Literal::neg(e))
            .collect();
        if i < events.len() {
            literals.push(Literal::pos(events[i]));
        }
        let condition = Condition::from_literals(literals);
        // Graft every child subtree of the world's root under the shared
        // root, with the selecting condition on its top node.
        for &child in world.children(world.root()) {
            let subtree = world.subtree_to_tree(child);
            out.graft_data_tree(root, &subtree, condition.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use pxml_events::prob_eq;
    use pxml_tree::builder::TreeSpec;

    #[test]
    fn figure1_semantics_is_figure2() {
        let t = figure1_example();
        let pw = possible_worlds(&t, 20).unwrap();
        // 2 events -> 4 valuations before normalization.
        assert_eq!(pw.len(), 4);
        let normalized = pw.normalized();
        assert_eq!(normalized.len(), 3);

        let expected = PossibleWorldSet::from_worlds([
            (TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build(), 0.06),
            (
                TreeSpec::node("A", vec![TreeSpec::node("C", vec![TreeSpec::leaf("D")])]).build(),
                0.70,
            ),
            (
                TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build(),
                0.24,
            ),
        ]);
        assert!(normalized.isomorphic(&expected));
    }

    #[test]
    fn semantics_total_probability_is_one() {
        let t = figure1_example();
        let pw = possible_worlds(&t, 20).unwrap();
        assert!(prob_eq(pw.total_probability(), 1.0));
    }

    #[test]
    fn guard_rejects_large_event_sets() {
        let mut t = ProbTree::new("A");
        for _ in 0..30 {
            t.events_mut().fresh(0.5);
        }
        assert!(possible_worlds(&t, 24).is_err());
    }

    #[test]
    fn pw_to_probtree_roundtrip_on_figure2() {
        let expected = PossibleWorldSet::from_worlds([
            (TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build(), 0.06),
            (
                TreeSpec::node("A", vec![TreeSpec::node("C", vec![TreeSpec::leaf("D")])]).build(),
                0.70,
            ),
            (
                TreeSpec::node("A", vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")]).build(),
                0.24,
            ),
        ]);
        let probtree = pw_set_to_probtree(&expected).unwrap();
        let back = possible_worlds(&probtree, 20).unwrap().normalized();
        assert!(back.isomorphic(&expected), "\n{}", probtree.to_ascii());
    }

    #[test]
    fn pw_to_probtree_single_world() {
        let world = TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build();
        let pw = PossibleWorldSet::from_worlds([(world.clone(), 1.0)]);
        let probtree = pw_set_to_probtree(&pw).unwrap();
        assert_eq!(probtree.events().len(), 0, "single world needs no events");
        let back = possible_worlds(&probtree, 20).unwrap().normalized();
        assert!(back.isomorphic(&pw));
    }

    #[test]
    fn pw_to_probtree_roundtrip_random_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(1..6usize);
            // Random small worlds with root label R.
            let mut worlds = Vec::new();
            let mut remaining = 1.0;
            for i in 0..n {
                let mut tree = DataTree::new("R");
                let root = tree.root();
                let children = rng.gen_range(0..4usize);
                for c in 0..children {
                    let child = tree.add_child(root, format!("L{}", (c + i) % 3));
                    if rng.gen_bool(0.3) {
                        tree.add_child(child, "X");
                    }
                }
                let p = if i + 1 == n {
                    remaining
                } else {
                    let p = remaining * rng.gen_range(0.1..0.8);
                    remaining -= p;
                    p
                };
                worlds.push((tree, p));
            }
            let pw = PossibleWorldSet::from_worlds(worlds).normalized();
            let probtree = pw_set_to_probtree(&pw).unwrap();
            let back = possible_worlds(&probtree, 20).unwrap().normalized();
            assert!(back.isomorphic(&pw));
        }
    }

    #[test]
    fn pw_to_probtree_rejects_invalid_inputs() {
        assert_eq!(
            pw_set_to_probtree(&PossibleWorldSet::new()).unwrap_err(),
            PwSetError::Empty
        );
        let mixed =
            PossibleWorldSet::from_worlds([(DataTree::new("A"), 0.5), (DataTree::new("B"), 0.5)]);
        assert_eq!(
            pw_set_to_probtree(&mixed).unwrap_err(),
            PwSetError::MixedRootLabels
        );
        let not_one = PossibleWorldSet::from_worlds([(DataTree::new("A"), 0.4)]);
        assert!(matches!(
            pw_set_to_probtree(&not_one).unwrap_err(),
            PwSetError::DoesNotSumToOne(_)
        ));
    }

    #[test]
    fn figure1_normalized_semantics_via_engine() {
        let t = figure1_example();
        let fast = possible_worlds_normalized(&t, 20).unwrap();
        let legacy = possible_worlds(&t, 20).unwrap().normalized();
        assert_eq!(fast.len(), 3);
        assert!(fast.isomorphic(&legacy));
    }

    /// A tree the exhaustive Definition 4 guard refuses (15 events >
    /// `max_events` = 12) but the factorized path handles at the same
    /// budget: 5 components of 3 events, each carrying a single 3-literal
    /// condition, so every shard collapses to 2 signature classes and the
    /// joint walk visits 2^5 = 32 states.
    #[test]
    fn factorization_extends_the_tractable_frontier() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..5 {
            let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
            t.add_child(
                root,
                format!("C{i}"),
                Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
            );
        }
        assert_eq!(WorldEngine::new(&t).num_relevant(), 15);
        // The exhaustive enumeration refuses: 15 > 12.
        assert!(possible_worlds(&t, 12).is_err());
        // The factorized path answers: Σ 2^3 = 40 shard states, 32 joint
        // classes — and matches the exhaustive enumeration given room.
        let fast = possible_worlds_normalized(&t, 12).unwrap();
        let reference = possible_worlds(&t, 15).unwrap().normalized();
        assert!(fast.isomorphic(&reference));
        assert!(prob_eq(fast.total_probability(), 1.0));
        // 2^5 distinct worlds: each component's C_i child present or not.
        assert_eq!(fast.len(), 1 << 5);
    }

    /// Regression test for the selector-probability fabrication bug: 50
    /// near-equal-probability worlds round-trip exactly. The reconstructed
    /// selector conditions `¬sel_1 ∧ … ∧ ¬sel_{i−1} ∧ sel_i` are mutually
    /// exclusive and exhaustive, so their `eval` probabilities *are* the
    /// per-world masses `possible_worlds` would aggregate — checking them
    /// analytically sidesteps the 2^49 valuation blow-up of a literal
    /// enumeration at this size (a full-enumeration round-trip at a
    /// feasible size follows below).
    #[test]
    fn fifty_near_equal_worlds_roundtrip_exactly() {
        let n = 50usize;
        // Near-equal masses with a deterministic jitter, normalized to 1.
        let raw: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-10).collect();
        let total: f64 = raw.iter().sum();
        let mut worlds = Vec::new();
        for (i, r) in raw.iter().enumerate() {
            let mut tree = DataTree::new("A");
            let root = tree.root();
            for _ in 0..i {
                tree.add_child(root, "C");
            }
            worlds.push((tree, r / total));
        }
        let expected: Vec<f64> = worlds.iter().map(|(_, p)| *p).collect();
        let pw = PossibleWorldSet::from_worlds(worlds);
        let probtree = pw_set_to_probtree(&pw).unwrap();
        assert_eq!(probtree.events().len(), n - 1);

        // Reconstruct each world's selection probability analytically.
        let events = probtree.events();
        let ids: Vec<_> = (0..n - 1)
            .map(|i| events.by_name(&format!("sel{}", i + 1)).unwrap())
            .collect();
        let mut mass_total = 0.0;
        for (i, &p_expected) in expected.iter().enumerate() {
            let mut literals: Vec<Literal> = ids[..i.min(ids.len())]
                .iter()
                .map(|&e| Literal::neg(e))
                .collect();
            if i < ids.len() {
                literals.push(Literal::pos(ids[i]));
            }
            let p = Condition::from_literals(literals).probability(events);
            assert!(
                (p - p_expected).abs() < 1e-12,
                "world {i}: reconstructed {p}, expected {p_expected}"
            );
            mass_total += p;
        }
        assert!((mass_total - 1.0).abs() < 1e-9);
    }

    /// Full-enumeration variant of the round-trip at a feasible size: 14
    /// near-equal worlds → 13 selector events → 8192 valuations.
    #[test]
    fn near_equal_worlds_roundtrip_through_possible_worlds() {
        let n = 14usize;
        let raw: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-10).collect();
        let total: f64 = raw.iter().sum();
        let mut worlds = Vec::new();
        for (i, r) in raw.iter().enumerate() {
            let mut tree = DataTree::new("A");
            let root = tree.root();
            for _ in 0..i {
                tree.add_child(root, "C");
            }
            worlds.push((tree, r / total));
        }
        let pw = PossibleWorldSet::from_worlds(worlds);
        let probtree = pw_set_to_probtree(&pw).unwrap();
        let back = possible_worlds(&probtree, 14).unwrap().normalized();
        assert!(back.isomorphic(&pw));
    }

    /// A world so light that the head world swallows the whole suffix mass
    /// used to be silently encoded with selector probability 1 (erasing the
    /// tail world); it must now fail loudly.
    #[test]
    fn degenerate_selector_mass_is_reported_not_fabricated() {
        let heavy = TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build();
        let light = TreeSpec::node("A", vec![TreeSpec::leaf("C")]).build();
        // 1.0 + 5e-324 rounds to 1.0, so the total-probability check
        // passes, but sel1 = 1.0 / 1.0 = 1 would make the second world
        // unreachable.
        let pw = PossibleWorldSet::from_worlds([(heavy, 1.0), (light, 5e-324)]);
        assert!(matches!(
            pw_set_to_probtree(&pw).unwrap_err(),
            PwSetError::DegenerateSelectorMass(0, p) if p >= 1.0
        ));
    }

    #[test]
    fn construction_size_grows_with_number_of_worlds() {
        // Proposition 1 context: the construction uses ~1 event per world
        // and copies every world's children, so its size is linear in the
        // size of the PW set, not in the size of a single world.
        let mut worlds = Vec::new();
        let n = 8usize;
        for i in 0..n {
            let mut tree = DataTree::new("A");
            let root = tree.root();
            for j in 0..=i {
                tree.add_child(root, format!("C{j}"));
            }
            worlds.push((tree, 1.0 / n as f64));
        }
        let pw = PossibleWorldSet::from_worlds(worlds);
        let probtree = pw_set_to_probtree(&pw).unwrap();
        assert_eq!(probtree.events().len(), n - 1);
        assert!(probtree.num_nodes() > n);
    }
}
