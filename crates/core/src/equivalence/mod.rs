//! Equivalence of prob-trees (Section 3 and the "Semantic Equivalence"
//! variant of Section 5).
//!
//! * **Structural equivalence** (`≡struct`, Definition 9): two prob-trees
//!   over the same event variables and distribution are structurally
//!   equivalent when every valuation yields isomorphic worlds. Deciding it
//!   is co-NP (Proposition 3) and in co-RP (Theorem 2); this module
//!   provides the exhaustive `2^{|W|}` baseline and the Figure 3 randomized
//!   polynomial-time algorithm.
//! * **Semantic equivalence** (`≡sem`, Section 5): `JT K ∼ JT'K`, defined
//!   for prob-trees over possibly different event sets; decided here by
//!   (exponential) expansion of both possible-world sets.

pub mod randomized;

use pxml_events::valuation::TooManyValuations;
use pxml_tree::canon::{canonical_string, Semantics};

use crate::probtree::ProbTree;
use crate::semantics::possible_worlds_normalized;
use crate::worlds::WorldEngine;

pub use randomized::{structural_equivalent_randomized, EquivalenceConfig};

/// Exhaustive decision of structural equivalence (Definition 9):
/// enumerates every valuation `V ⊆ W` — via the relevant-event
/// [`WorldEngine`], which only materializes assignments to the events some
/// condition of either tree mentions (flipping any other event changes
/// neither value) — and compares `V(T)` and `V(T')` up to isomorphism.
/// Exponential in the size of the joint relevant set; guarded by
/// `max_events`.
///
/// Returns `false` immediately if the two prob-trees do not declare the
/// same event variables and distribution (structural equivalence is only
/// defined in that case).
pub fn structural_equivalent_exhaustive(
    a: &ProbTree,
    b: &ProbTree,
    max_events: usize,
) -> Result<bool, TooManyValuations> {
    structural_equivalent_exhaustive_with(a, b, max_events, Semantics::MultiSet)
}

/// Exhaustive structural equivalence under an explicit data-tree semantics
/// (the Section 5 set-semantics variant uses [`Semantics::Set`]).
pub fn structural_equivalent_exhaustive_with(
    a: &ProbTree,
    b: &ProbTree,
    max_events: usize,
    semantics: Semantics,
) -> Result<bool, TooManyValuations> {
    if !a.events().same_distribution(b.events()) {
        return Ok(false);
    }
    // Definition 9 quantifies over *all* valuations, so use the unpruned
    // enumeration (zero-probability branches still count).
    let engine = WorldEngine::for_pair(a, b);
    for valuation in engine.all_valuations(max_events)? {
        let wa = a.value_in_world(&valuation);
        let wb = b.value_in_world(&valuation);
        if canonical_string(&wa, semantics) != canonical_string(&wb, semantics) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Semantic equivalence (`≡sem`): the possible-world semantics of the two
/// prob-trees are isomorphic PW sets. Exponential in the worst case; both
/// expansions run on the factorized shard executor
/// ([`possible_worlds_normalized`]), so each side costs `Σ_c 2^{|C_i|}`
/// shard states plus the joint combine of its condition-distinct classes.
///
/// Unlike structural equivalence, the two prob-trees may use different
/// event variables and probabilities (Proposition 4 discusses the
/// relationship between the two notions). And unlike the structural check
/// below, the PW semantics only observes valuations through each tree's
/// *own* conditions, which is exactly the granularity the factorized
/// shard classes preserve — whereas [`structural_equivalent_exhaustive`]
/// compares worlds valuation-by-valuation *across* two trees, so it must
/// keep the exact, un-deduplicated [`WorldEngine::all_valuations`]
/// enumeration (a shard class of one tree may split under the other
/// tree's conditions).
pub fn semantic_equivalent(
    a: &ProbTree,
    b: &ProbTree,
    max_events: usize,
) -> Result<bool, TooManyValuations> {
    let pa = possible_worlds_normalized(a, max_events)?;
    let pb = possible_worlds_normalized(b, max_events)?;
    Ok(pa.isomorphic(&pb))
}

/// Decides whether the prob-tree is independent of `event`, i.e. whether
/// flipping the value of `event` never changes the produced world. The
/// paper observes this is computationally equivalent to structural
/// equivalence (it can be used to encode an equivalence check and vice
/// versa). Exhaustive over the relevant events (plus `event` itself, so
/// both of its polarities are always probed).
pub fn independent_of_event_exhaustive(
    tree: &ProbTree,
    event: pxml_events::EventId,
    max_events: usize,
) -> Result<bool, TooManyValuations> {
    let engine = WorldEngine::with_extra_events(tree, [event]);
    for valuation in engine.all_valuations(max_events)? {
        if valuation.get(event) {
            continue; // only consider each pair once, from the `false` side
        }
        let mut flipped = valuation.clone();
        flipped.set(event, true);
        let w0 = tree.value_in_world(&valuation);
        let w1 = tree.value_in_world(&flipped);
        if canonical_string(&w0, Semantics::MultiSet) != canonical_string(&w1, Semantics::MultiSet)
        {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use pxml_events::{Condition, Literal};

    #[test]
    fn a_probtree_is_structurally_equivalent_to_itself() {
        let t = figure1_example();
        assert!(structural_equivalent_exhaustive(&t, &t, 20).unwrap());
    }

    #[test]
    fn reordering_children_preserves_structural_equivalence() {
        let t = figure1_example();
        // Rebuild with children declared in the opposite order.
        let mut u = ProbTree::new("A");
        let w1 = u.events_mut().insert("w1", 0.8);
        let w2 = u.events_mut().insert("w2", 0.7);
        let root = u.tree().root();
        let c = u.add_child(root, "C", Condition::always());
        u.add_child(c, "D", Condition::of(Literal::pos(w2)));
        u.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
        );
        assert!(structural_equivalent_exhaustive(&t, &u, 20).unwrap());
    }

    #[test]
    fn changing_a_condition_breaks_structural_equivalence() {
        let t = figure1_example();
        let mut u = figure1_example();
        let b = u.tree().iter().find(|&n| u.tree().label(n) == "B").unwrap();
        let w1 = u.events().by_name("w1").unwrap();
        u.set_condition(b, Condition::of(Literal::pos(w1)));
        assert!(!structural_equivalent_exhaustive(&t, &u, 20).unwrap());
    }

    #[test]
    fn different_distributions_are_never_structurally_equivalent() {
        let t = figure1_example();
        let mut u = figure1_example();
        let w1 = u.events().by_name("w1").unwrap();
        u.events_mut().set_prob(w1, 0.5);
        assert!(!structural_equivalent_exhaustive(&t, &u, 20).unwrap());
        // ... but they can still be compared semantically (and differ).
        assert!(!semantic_equivalent(&t, &u, 20).unwrap());
    }

    #[test]
    fn section5_example_semantically_but_not_structurally_equivalent() {
        // A→B[w1 ∧ w2]  vs  A→B[w3] with π(w3) = π(w1)·π(w2): the paper's
        // example of ≡sem without ≡struct. (Note: these trees do not even
        // share W, so ≡struct is false by definition; the point is that the
        // PW semantics agree.)
        let mut a = ProbTree::new("A");
        let w1 = a.events_mut().insert("w1", 0.8);
        let w2 = a.events_mut().insert("w2", 0.5);
        let root = a.tree().root();
        a.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2)]),
        );

        let mut b = ProbTree::new("A");
        let w3 = b.events_mut().insert("w3", 0.4);
        let root_b = b.tree().root();
        b.add_child(root_b, "B", Condition::of(Literal::pos(w3)));

        assert!(semantic_equivalent(&a, &b, 20).unwrap());
        assert!(!structural_equivalent_exhaustive(&a, &b, 20).unwrap());
    }

    #[test]
    fn structural_equivalence_implies_semantic_equivalence() {
        // Proposition 4 (i) on a concrete instance.
        let t = figure1_example();
        let mut u = figure1_example();
        // Add a node that can never exist; cleaning-insensitive structural
        // equivalence still holds because the node never appears in any
        // world.
        let root = u.tree().root();
        let w1 = u.events().by_name("w1").unwrap();
        u.add_child(
            root,
            "Ghost",
            Condition::from_literals([Literal::pos(w1), Literal::neg(w1)]),
        );
        assert!(structural_equivalent_exhaustive(&t, &u, 20).unwrap());
        assert!(semantic_equivalent(&t, &u, 20).unwrap());
    }

    /// Semantic equivalence through the factorized expansion, on trees
    /// whose 18 events exceed the exhaustive guard at this budget (6
    /// components of 3 events): adding a node guarded by a
    /// contradictory condition changes the syntax but not the semantics,
    /// and a genuinely different tree is still distinguished.
    #[test]
    fn semantic_equivalence_beyond_the_streamed_guard() {
        let build = || {
            let mut t = ProbTree::new("A");
            let root = t.tree().root();
            let mut first = None;
            for i in 0..6 {
                let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
                first.get_or_insert(w[0]);
                t.add_child(
                    root,
                    format!("B{i}"),
                    Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
                );
            }
            (t, first.unwrap())
        };
        let (a, _) = build();
        let (mut b, e) = build();
        let root = b.tree().root();
        // Never-present ghost: syntax differs, semantics doesn't.
        b.add_child(
            root,
            "Ghost",
            Condition::from_literals([Literal::pos(e), Literal::neg(e)]),
        );
        assert_eq!(a.events().len(), 18);
        assert!(crate::semantics::possible_worlds(&a, 16).is_err());
        assert!(semantic_equivalent(&a, &b, 16).unwrap());
        let (mut c, _) = build();
        let root = c.tree().root();
        c.add_child(root, "Extra", Condition::always());
        assert!(!semantic_equivalent(&a, &c, 16).unwrap());
    }

    #[test]
    fn independence_check_detects_dependence() {
        let t = figure1_example();
        let w1 = t.events().by_name("w1").unwrap();
        let w2 = t.events().by_name("w2").unwrap();
        assert!(!independent_of_event_exhaustive(&t, w1, 20).unwrap());
        assert!(!independent_of_event_exhaustive(&t, w2, 20).unwrap());
        // A tree that never mentions w is independent of it.
        let mut u = ProbTree::new("A");
        let w = u.events_mut().insert("w", 0.5);
        let root = u.tree().root();
        u.add_child(root, "B", Condition::always());
        assert!(independent_of_event_exhaustive(&u, w, 20).unwrap());
    }

    #[test]
    fn set_semantics_changes_the_verdict() {
        // Two B children with complementary conditions vs a single
        // unconditioned B child: under multiset semantics the worlds differ
        // (two B's vs one when both conditions hold — impossible here since
        // conditions are complementary, so actually every world has exactly
        // one B on the left)... make them differ: left tree duplicates B
        // unconditionally.
        let mut a = ProbTree::new("A");
        let wa = a.events_mut().insert("w", 0.5);
        let root_a = a.tree().root();
        a.add_child(root_a, "B", Condition::of(Literal::pos(wa)));
        a.add_child(root_a, "B", Condition::of(Literal::pos(wa)));

        let mut b = ProbTree::new("A");
        let wb = b.events_mut().insert("w", 0.5);
        let root_b = b.tree().root();
        b.add_child(root_b, "B", Condition::of(Literal::pos(wb)));

        assert!(!structural_equivalent_exhaustive_with(&a, &b, 20, Semantics::MultiSet).unwrap());
        assert!(structural_equivalent_exhaustive_with(&a, &b, 20, Semantics::Set).unwrap());
    }
}
