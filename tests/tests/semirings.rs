//! Semiring-generic provenance: the algebraic laws every instance must
//! satisfy, the bridge laws tying the instances back to independent
//! oracles (the f64 probability path, and through it `pxml_sat` model
//! counts), and the query-engine lineage cross-check.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pxml_core::QueryEngine;
use pxml_events::{
    Condition, EventId, EventTable, Lineage, Literal, Possibility, Probability, Semiring,
};
use pxml_sat::brute::count_models_brute;
use pxml_sat::{Cnf, Lit, Var};
use pxml_workloads::warehouse::{
    run_scenario, services_with_endpoint_and_contact, WarehouseConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Strategies and fixtures
// ---------------------------------------------------------------------------

const NUM_EVENTS: usize = 4;

/// The law-test event table: mixed probabilities, including a certain
/// (π = 1) event so certainty-sensitive paths are exercised.
fn law_event_table() -> EventTable {
    let mut events = EventTable::new();
    for (i, p) in [0.5, 0.25, 1.0, 0.75].into_iter().enumerate() {
        events.insert(format!("e{i}"), p);
    }
    events
}

fn literal_strategy() -> impl Strategy<Value = (usize, bool)> {
    (0..NUM_EVENTS, any::<bool>())
}

/// A conjunction spec: up to four literals, possibly duplicate or
/// contradictory (both get exercised on purpose).
fn condition_spec() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec(literal_strategy(), 0..4)
}

/// A semiring-value spec: a sum of up to three conjunctions (empty sum
/// exercises the zero).
fn value_spec() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(condition_spec(), 0..3)
}

fn build_condition(spec: &[(usize, bool)]) -> Condition {
    Condition::from_literals(spec.iter().map(|&(e, positive)| Literal {
        event: EventId::from_index(e),
        positive,
    }))
}

/// Realizes a value spec in a semiring: the ⊕-sum of the conjunctions'
/// values — representative elements of each carrier (probabilities in
/// [0, 1], booleans, event sets).
fn build_value<S: Semiring>(semiring: &S, spec: &[Vec<(usize, bool)>]) -> S::Value {
    let events = law_event_table();
    let mut acc = semiring.zero();
    for conjunction in spec {
        let value = build_condition(conjunction).eval_in(semiring, &events);
        acc = semiring.add(acc, value);
    }
    acc
}

/// Asserts the commutative-semiring laws on three concrete values, with
/// a caller-supplied equality (Probability needs an ε for float
/// re-association).
fn check_laws<S: Semiring>(
    semiring: &S,
    a: &S::Value,
    b: &S::Value,
    c: &S::Value,
    eq: impl Fn(&S::Value, &S::Value) -> bool,
) {
    let add = |x: &S::Value, y: &S::Value| semiring.add(x.clone(), y.clone());
    let mul = |x: &S::Value, y: &S::Value| semiring.mul(x.clone(), y.clone());
    let zero = semiring.zero();
    let one = semiring.one();
    assert!(eq(&add(a, b), &add(b, a)), "⊕ must commute: {a:?} {b:?}");
    assert!(eq(&mul(a, b), &mul(b, a)), "⊗ must commute: {a:?} {b:?}");
    assert!(
        eq(&add(&add(a, b), c), &add(a, &add(b, c))),
        "⊕ must associate: {a:?} {b:?} {c:?}"
    );
    assert!(
        eq(&mul(&mul(a, b), c), &mul(a, &mul(b, c))),
        "⊗ must associate: {a:?} {b:?} {c:?}"
    );
    assert!(eq(&add(a, &zero), a), "0 must be the ⊕-identity: {a:?}");
    assert!(eq(&mul(a, &one), a), "1 must be the ⊗-identity: {a:?}");
    assert!(eq(&mul(a, &zero), &zero), "0 must annihilate ⊗: {a:?}");
    assert!(
        eq(&mul(a, &add(b, c)), &add(&mul(a, b), &mul(a, c))),
        "⊗ must distribute over ⊕: {a:?} {b:?} {c:?}"
    );
}

// ---------------------------------------------------------------------------
// Laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three instances satisfy the commutative-semiring laws on
    /// values realized from random condition sums.
    #[test]
    fn all_instances_satisfy_the_semiring_laws(
        a in value_spec(),
        b in value_spec(),
        c in value_spec(),
    ) {
        let s = Probability;
        check_laws(
            &s,
            &build_value(&s, &a),
            &build_value(&s, &b),
            &build_value(&s, &c),
            |x, y| (x - y).abs() < 1e-12,
        );
        let s = Possibility;
        check_laws(&s, &build_value(&s, &a), &build_value(&s, &b), &build_value(&s, &c), PartialEq::eq);
        let s = Lineage;
        check_laws(&s, &build_value(&s, &a), &build_value(&s, &b), &build_value(&s, &c), PartialEq::eq);
    }
}

// ---------------------------------------------------------------------------
// Bridge laws: exotic instances vs independent oracles
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Possibility is the support of Probability: a condition is
    /// possible exactly when its probability is positive (including
    /// conditions killed by a ¬w literal on a π(w) = 1 event).
    #[test]
    fn possibility_is_the_support_of_probability(spec in condition_spec()) {
        let events = law_event_table();
        let condition = build_condition(&spec);
        prop_assert_eq!(
            condition.eval_in(&Possibility, &events),
            condition.probability(&events) > 0.0
        );
    }

    /// With every π = ½, a conjunction's probability times `2^n` is its
    /// model count over the `n`-event universe: it equals the SAT
    /// brute-force count of the CNF made of its unit clauses. Powers of
    /// two are exact in `f64`.
    #[test]
    fn counting_agrees_with_sat_model_counts(spec in condition_spec()) {
        let mut events = EventTable::new();
        for i in 0..NUM_EVENTS {
            events.insert(format!("e{i}"), 0.5);
        }
        let condition = build_condition(&spec);
        let mut cnf = Cnf::new(NUM_EVENTS);
        for &(e, positive) in &spec {
            cnf.add_clause(vec![Lit { var: Var(e as u32), positive }]);
        }
        let worlds = (1u64 << NUM_EVENTS) as f64;
        prop_assert_eq!(
            condition.probability(&events) * worlds,
            count_models_brute(&cnf) as f64
        );
    }

    /// Lineage of a condition is exactly the set of events its literals
    /// mention (when possible), and the zero on impossible conditions.
    #[test]
    fn lineage_is_the_mentioned_event_set(spec in condition_spec()) {
        let events = law_event_table();
        let condition = build_condition(&spec);
        let lineage = condition.eval_in(&Lineage, &events);
        if condition.is_consistent() {
            let mentioned: BTreeSet<EventId> =
                spec.iter().map(|&(e, _)| EventId::from_index(e)).collect();
            prop_assert_eq!(lineage, Some(mentioned));
        } else {
            prop_assert_eq!(lineage, None);
        }
    }
}

// ---------------------------------------------------------------------------
// Query-engine cross-check: lineage answers name exactly the events the
// answer depends on
// ---------------------------------------------------------------------------

#[test]
fn lineage_answers_name_exactly_the_events_that_move_the_answer() {
    let config = WarehouseConfig {
        services: 3,
        extraction_rounds: 10,
        deletion_ratio: 0.2,
    };
    let warehouse = run_scenario(&config, &mut StdRng::seed_from_u64(0x5EED));
    let query = services_with_endpoint_and_contact();
    let engine = QueryEngine::new();
    let prepared = engine.prepare(&warehouse.tree, &query);
    let baseline: Vec<f64> = prepared.answers().map(|a| a.probability).collect();
    let lineages = prepared.answers_in(&Lineage);
    assert_eq!(baseline.len(), lineages.len());
    assert!(!baseline.is_empty(), "the scenario must produce answers");

    for event in warehouse.tree.events().iter() {
        // Perturb exactly this event's probability and re-evaluate: an
        // answer changes iff the event is in its reported lineage (the
        // world-level reading: the event flips the answer in some pair
        // of worlds differing only at this event).
        let mut perturbed = warehouse.tree.clone();
        let original = perturbed.events().prob(event);
        perturbed.events_mut().set_prob(event, original / 2.0);
        let reprepared = engine.prepare(&perturbed, &query);
        let probabilities: Vec<f64> = reprepared.answers().map(|a| a.probability).collect();
        assert_eq!(probabilities.len(), baseline.len());
        for (i, (_, lineage)) in lineages.iter().enumerate() {
            let depends = lineage.as_ref().is_some_and(|l| l.contains(&event));
            if depends && baseline[i] > 0.0 {
                assert_ne!(
                    probabilities[i], baseline[i],
                    "event {event:?} is in answer {i}'s lineage but halving its \
                     probability did not move the answer"
                );
            }
            if !depends {
                assert_eq!(
                    probabilities[i].to_bits(),
                    baseline[i].to_bits(),
                    "event {event:?} is outside answer {i}'s lineage but changed it"
                );
            }
        }
    }
}

/// The same prepared state serves all three semirings without
/// re-matching, and the views agree with each other answer by answer.
#[test]
fn one_prepared_state_serves_all_three_semirings_consistently() {
    let config = WarehouseConfig {
        services: 4,
        extraction_rounds: 12,
        deletion_ratio: 0.15,
    };
    let warehouse = run_scenario(&config, &mut StdRng::seed_from_u64(0xA11));
    let query = services_with_endpoint_and_contact();
    let prepared = QueryEngine::new().prepare(&warehouse.tree, &query);
    let probabilities = prepared.answers_in(&Probability);
    let possibilities = prepared.answers_in(&Possibility);
    let lineages = prepared.answers_in(&Lineage);
    let n = probabilities.len();
    assert_eq!(possibilities.len(), n);
    assert_eq!(lineages.len(), n);
    for i in 0..n {
        let p = probabilities[i].1;
        // The generic Probability drain is the bit-identical fast path.
        assert_eq!(
            p.to_bits(),
            prepared
                .probability_of(probabilities[i].0)
                .expect("answer subtree")
                .to_bits()
        );
        assert_eq!(possibilities[i].1, p > 0.0);
        // A possible answer has a lineage.
        if p > 0.0 {
            assert!(lineages[i].1.is_some());
        }
    }
}
