//! Cross-crate integration tests: the full pipeline from XML ingestion
//! through queries, updates, equivalence, threshold and DTD checks.

use pxml_core::equivalence::{
    structural_equivalent_exhaustive, structural_equivalent_randomized, EquivalenceConfig,
};
use pxml_core::probtree::figure1_example;
use pxml_core::proxml;
use pxml_core::query::Query as _;
use pxml_core::semantics::{possible_worlds, pw_set_to_probtree};
use pxml_core::threshold::restrict_to_threshold;
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
use pxml_core::PatternQuery;
use pxml_core::QueryEngine;
use pxml_dtd::satisfiability::{satisfiable_backtracking, valid_bruteforce};
use pxml_dtd::{ChildConstraint, Dtd};
use pxml_events::prob_eq;
use pxml_integration::bibliography;
use pxml_tree::DataTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn xml_ingestion_query_update_roundtrip() {
    // Ingest a ProXML document, query it, update it, and write it back.
    let source = r#"
        <prob-tree>
          <events>
            <event name="crawler" prob="0.7"/>
            <event name="tagger" prob="0.5"/>
          </events>
          <node label="site">
            <node label="page" cond="crawler">
              <node label="topic" cond="tagger"/>
            </node>
          </node>
        </prob-tree>"#;
    let mut warehouse = proxml::from_xml(source).expect("well-formed ProXML");
    assert_eq!(warehouse.num_nodes(), 3);

    // Query: pages with a topic.
    let mut q = PatternQuery::new(Some("page"));
    q.add_child(q.root(), "topic");
    let answers: Vec<_> = QueryEngine::new()
        .prepare(&warehouse, &q)
        .answers()
        .collect();
    assert_eq!(answers.len(), 1);
    assert!(prob_eq(answers[0].probability, 0.35));

    // Update: a classifier asserts (confidence 0.8) that every page also
    // has a language annotation.
    let iq = PatternQuery::new(Some("page"));
    let at = iq.root();
    let update = ProbabilisticUpdate::new(
        UpdateOperation::insert(iq, at, DataTree::new("language")),
        0.8,
    );
    let (updated, report) = UpdateEngine::new().apply(&warehouse, &update);
    assert!(report.new_event.is_some());
    warehouse = updated;

    // The update is consistent with the possible-world semantics.
    let direct = possible_worlds(&warehouse, 20).unwrap().normalized();
    assert!(prob_eq(direct.total_probability(), 1.0));

    // Round-trip through ProXML preserves structural equivalence.
    let xml = proxml::to_xml(&warehouse);
    let reloaded = proxml::from_xml(&xml).expect("round-trip parses");
    assert!(structural_equivalent_exhaustive(&warehouse, &reloaded, 20).unwrap());
}

#[test]
fn theorem1_holds_on_the_bibliography_for_a_query_battery() {
    let bib = bibliography();
    let queries: Vec<PatternQuery> = vec![
        PatternQuery::new(Some("book")),
        PatternQuery::new(Some("title")),
        {
            let mut q = PatternQuery::new(Some("book"));
            q.add_child(q.root(), "year");
            q
        },
        {
            let mut q = PatternQuery::anchored(Some("bib"));
            q.add_descendant(q.root(), "title");
            q
        },
        {
            let mut q = PatternQuery::anchored(Some("bib"));
            let b = q.add_child(q.root(), "book");
            let a = q.add_child(q.root(), "article");
            q.add_descendant(b, "title");
            q.add_descendant(a, "title");
            q
        },
    ];
    let engine = QueryEngine::new();
    for q in &queries {
        assert!(
            engine.prepare(&bib, q).theorem1_check().unwrap(),
            "Theorem 1 failed for {}",
            q.describe()
        );
    }
}

#[test]
fn update_then_query_probabilities_are_consistent_with_worlds() {
    // Delete the book's year with confidence 0.5, then ask for books with a
    // year: the direct prob-tree answer must match the world-by-world
    // computation.
    let bib = bibliography();
    let mut dq = PatternQuery::new(Some("book"));
    let year = dq.add_child(dq.root(), "year");
    let update = ProbabilisticUpdate::new(UpdateOperation::delete(dq, year), 0.5);
    let (updated, _) = UpdateEngine::new().apply(&bib, &update);

    // One prepared state serves the Theorem 1 check, the expectation and
    // the ranked view.
    let mut q = PatternQuery::new(Some("book"));
    q.add_child(q.root(), "year");
    let prepared = QueryEngine::new().prepare(&updated, &q);
    assert!(prepared.theorem1_check().unwrap());

    // By hand: year present iff confirmed ∧ year_known ∧ ¬delete_event
    // = 0.9 · 0.6 · 0.5 = 0.27.
    assert!(prob_eq(prepared.expected_matches(), 0.27));
    let ranked = prepared.top_k(5);
    assert_eq!(ranked.len(), 1);
    assert!(prob_eq(ranked.best().unwrap().probability, 0.27));
}

#[test]
fn pw_roundtrip_then_equivalence() {
    // Expanding Figure 1 to its PW set and re-encoding it as a prob-tree
    // yields a semantically equivalent (but structurally different,
    // different events) prob-tree.
    let original = figure1_example();
    let pw = possible_worlds(&original, 20).unwrap().normalized();
    let reencoded = pw_set_to_probtree(&pw).unwrap();
    let back = possible_worlds(&reencoded, 20).unwrap().normalized();
    assert!(back.isomorphic(&pw));
    assert!(
        pxml_core::equivalence::semantic_equivalent(&original, &reencoded, 20).unwrap(),
        "PW-set re-encoding must be semantically equivalent"
    );
}

#[test]
fn randomized_equivalence_agrees_with_exhaustive_on_workload_trees() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let config = pxml_workloads::random::ProbTreeConfig {
        tree: pxml_workloads::random::TreeConfig {
            nodes: 12,
            max_fanout: 3,
            labels: 3,
        },
        events: 6,
        annotation_density: 0.5,
        max_literals: 2,
    };
    for _ in 0..15 {
        let a = pxml_workloads::random::random_probtree(&config, &mut rng);
        let b = a.clone();
        assert!(structural_equivalent_exhaustive(&a, &b, 20).unwrap());
        assert!(structural_equivalent_randomized(
            &a,
            &b,
            &EquivalenceConfig::default(),
            &mut rng
        ));
    }
}

#[test]
fn threshold_and_dtd_pipeline_on_the_bibliography() {
    let bib = bibliography();

    // Threshold: keep worlds with probability ≥ 0.1.
    let restriction = restrict_to_threshold(&bib, 0.1, 20).unwrap();
    assert!(restriction.worlds.len() < restriction.total_worlds);
    assert!(restriction.retained_mass > 0.5);

    // DTD: a bib must contain at most one book and at most one article,
    // books need a title.
    let mut dtd = Dtd::new();
    dtd.constrain("bib", "book", ChildConstraint::between(0, 1))
        .constrain("bib", "article", ChildConstraint::between(0, 1))
        .constrain("book", "title", ChildConstraint::between(1, 1))
        .constrain("book", "year", ChildConstraint::between(0, 1));
    let (witness, _) = satisfiable_backtracking(&bib, &dtd);
    assert!(witness.is_some(), "the schema is satisfiable");
    assert!(
        valid_bruteforce(&bib, &dtd, 20).unwrap().is_none(),
        "every world of the bibliography is valid for the permissive schema"
    );

    // A schema demanding a year on every book is satisfiable but invalid.
    let mut strict = dtd.clone();
    strict.constrain("book", "year", ChildConstraint::between(1, 1));
    let (strict_witness, _) = satisfiable_backtracking(&bib, &strict);
    assert!(strict_witness.is_some());
    assert!(valid_bruteforce(&bib, &strict, 20).unwrap().is_some());
}

#[test]
fn warehouse_scenario_stays_semantically_consistent() {
    // Apply the scenario's updates both on the prob-tree and world-by-world
    // and compare (kept small so the exhaustive expansion stays cheap).
    use pxml_workloads::warehouse::{run_scenario, WarehouseConfig};
    let mut rng = StdRng::seed_from_u64(3);
    let config = WarehouseConfig {
        services: 2,
        extraction_rounds: 6,
        deletion_ratio: 0.2,
    };
    let warehouse = run_scenario(&config, &mut rng);
    assert!(warehouse.tree.events().len() <= 6);
    let worlds = possible_worlds(&warehouse.tree, 20).unwrap();
    assert!(prob_eq(worlds.total_probability(), 1.0));
}
