//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure 1 prob-tree, prints its possible-world semantics
//! (Figure 2), runs a tree-pattern query, applies a probabilistic update,
//! and round-trips the result through the ProXML format.
//!
//! Run with: `cargo run --release --example quickstart`

use pxml_core::probtree::ProbTree;
use pxml_core::proxml;
use pxml_core::query::Query as _;
use pxml_core::semantics::possible_worlds_normalized;
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
use pxml_core::PatternQuery;
use pxml_core::QueryEngine;
use pxml_events::{Condition, Literal};
use pxml_tree::DataTree;

fn main() {
    // ----- 1. Build the Figure 1 prob-tree ------------------------------
    let mut warehouse = ProbTree::new("A");
    let w1 = warehouse.events_mut().insert("w1", 0.8);
    let w2 = warehouse.events_mut().insert("w2", 0.7);
    let root = warehouse.tree().root();
    warehouse.add_child(
        root,
        "B",
        Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
    );
    let c = warehouse.add_child(root, "C", Condition::always());
    warehouse.add_child(c, "D", Condition::of(Literal::pos(w2)));

    println!(
        "Figure 1 prob-tree (π(w1)=0.8, π(w2)=0.7):\n{}",
        warehouse.to_ascii()
    );

    // ----- 2. Possible-world semantics (Figure 2) ------------------------
    let worlds = possible_worlds_normalized(&warehouse, 20)
        .expect("two event variables are far below the enumeration guard");
    println!("Possible worlds (Figure 2):");
    for (world, p) in worlds.iter() {
        let world = world.to_tree();
        let labels: Vec<&str> = world.iter().map(|n| world.label(n)).collect();
        println!("  p = {p:.2}  nodes = {labels:?}");
    }

    // ----- 3. Query: C nodes that have a D child -------------------------
    // Prepare once, then stream answers and ask aggregates from the same
    // prepared state.
    let mut query = PatternQuery::new(Some("C"));
    query.add_child(query.root(), "D");
    println!("\nQuery: {}", query.describe());
    let prepared = QueryEngine::new().prepare(&warehouse, &query);
    for answer in prepared.answers() {
        println!(
            "  answer with probability {:.2}:\n{}",
            answer.probability,
            indent(&pxml_tree::render::to_ascii(
                &answer.subtree.to_tree(warehouse.tree())
            ))
        );
    }
    println!(
        "  expected number of matches: {:.2} (Theorem 1 check: {})",
        prepared.expected_matches(),
        prepared
            .theorem1_check()
            .expect("two events fit any budget")
    );

    // ----- 4. A probabilistic update -------------------------------------
    // An extractor is 90% confident every C node also has an E child.
    let insert_query = PatternQuery::new(Some("C"));
    let at = insert_query.root();
    let update = ProbabilisticUpdate::new(
        UpdateOperation::insert(insert_query, at, DataTree::new("E")),
        0.9,
    );
    let (updated, report) = UpdateEngine::new().apply(&warehouse, &update);
    println!(
        "After inserting E under C with confidence 0.9 (new event {}):\n{}",
        report.new_event.map_or_else(
            || "none".to_string(),
            |e| updated.events().name(e).to_string()
        ),
        updated.to_ascii()
    );

    // ----- 5. ProXML round-trip -------------------------------------------
    let xml = proxml::to_xml(&updated);
    println!("ProXML serialization:\n{xml}");
    let reloaded = proxml::from_xml(&xml).expect("generated document parses back");
    assert_eq!(reloaded.num_nodes(), updated.num_nodes());
    println!(
        "Round-tripped {} nodes through ProXML successfully.",
        reloaded.num_nodes()
    );
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
