//! The paper's motivating application: a hidden-web warehouse fed by
//! imprecise extraction tools.
//!
//! Simulates a pipeline of probabilistic insertions and retractions over a
//! warehouse of discovered web services, then answers analysis queries,
//! ranks answers by probability, and prunes improbable worlds with a
//! threshold.
//!
//! Run with: `cargo run --release --example web_warehouse`

use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_core::threshold::restrict_to_threshold;
use pxml_core::{PatternQuery, QueryEngine};
use pxml_workloads::warehouse::{analyze, run_scenario, WarehouseConfig};

fn main() {
    let mut rng = StdRng::seed_from_u64(2007);
    let config = WarehouseConfig {
        services: 4,
        extraction_rounds: 10,
        deletion_ratio: 0.15,
    };
    println!(
        "Simulating {} extraction rounds over {} services...\n",
        config.extraction_rounds, config.services
    );
    let warehouse = run_scenario(&config, &mut rng);

    println!("Update log:");
    for (i, update) in warehouse.log.iter().enumerate() {
        println!(
            "  {:>2}. {} (confidence {:.2}){}",
            i + 1,
            update.description,
            update.confidence,
            if update.is_deletion {
                "  [retraction]"
            } else {
                ""
            }
        );
    }

    println!(
        "\nWarehouse after ingestion: {} nodes, {} literals, {} event variables",
        warehouse.tree.num_nodes(),
        warehouse.tree.num_literals(),
        warehouse.tree.events().len()
    );

    // ----- Analysis query 1: fully described services --------------------
    // One prepared analysis serves the top-3 ranking, the confident slice
    // and the expectation — the warehouse access pattern the query engine
    // is shaped for.
    let analysis = analyze(&warehouse, 3, 0.5);
    println!(
        "\nServices with both an endpoint and a contact (top {} by probability):",
        analysis.top.len()
    );
    for answer in &analysis.top {
        println!(
            "  probability {:.3}  ({} nodes in the answer)",
            answer.probability,
            answer.subtree.len()
        );
    }
    println!(
        "  {} answers at least 50% likely; {:.2} fully-described services expected",
        analysis.confident.len(),
        analysis.expected_services
    );

    // ----- Analysis query 2: any extracted keyword ------------------------
    let mut keyword_query = PatternQuery::new(Some("service"));
    keyword_query.add_child(keyword_query.root(), "keyword");
    let keyword = QueryEngine::new().prepare(&warehouse.tree, &keyword_query);
    let best = keyword.top_k(1);
    println!(
        "\nServices with at least one keyword claim: {} answers, best probability {:.3}",
        keyword.len(),
        best.best().map_or(0.0, |a| a.probability)
    );

    // ----- Threshold pruning ----------------------------------------------
    // With many low-confidence updates the number of possible worlds
    // explodes; keep only the reasonably probable ones (Theorem 4 warns
    // that this cannot always be represented compactly).
    if warehouse.tree.events().len() <= 16 {
        let threshold = 0.01;
        let restriction =
            restrict_to_threshold(&warehouse.tree, threshold, 20).expect("guarded enumeration");
        println!(
            "\nThreshold pruning at p ≥ {threshold}: kept {} of {} worlds ({:.1}% of the probability mass)",
            restriction.worlds.len(),
            restriction.total_worlds,
            100.0 * restriction.retained_mass
        );
    } else {
        println!(
            "\n(Skipping threshold pruning: too many event variables for exhaustive expansion.)"
        );
    }
}
