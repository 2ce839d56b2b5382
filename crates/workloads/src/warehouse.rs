//! A synthetic "hidden-web warehouse" scenario.
//!
//! The paper's motivating application (Section 1) is a warehouse of
//! imprecise knowledge about web resources: crawlers and analysis tools
//! (classifiers, extractors, semantic taggers) repeatedly *update* an XML
//! warehouse with findings they are only partially confident about, and
//! applications *query* the accumulated probabilistic document.
//!
//! This module simulates that pipeline: starting from a skeleton warehouse
//! (`warehouse / service*`), a configurable number of extractor runs insert
//! `keyword`, `endpoint` and `contact` facts under the services they
//! analysed — each with a confidence reflecting the extractor's precision —
//! and occasionally issue low-confidence deletions (retractions of earlier
//! claims). The result is a realistic prob-tree whose event variables are
//! exactly the update confidences.

use std::collections::BTreeSet;

use rand::Rng;

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::PatternQuery;
use pxml_core::query::{AnswerSet, QueryEngine};
use pxml_core::update::{
    ProbabilisticUpdate, ScriptReport, UpdateEngine, UpdateOperation, UpdateScript,
};
use pxml_dtd::{ChildConstraint, Dtd};
use pxml_events::{Condition, EventId, Lineage, Possibility};
use pxml_tree::DataTree;

/// Parameters of the warehouse scenario.
#[derive(Clone, Copy, Debug)]
pub struct WarehouseConfig {
    /// Number of discovered services in the warehouse skeleton.
    pub services: usize,
    /// Number of extractor runs (each produces one probabilistic update).
    pub extraction_rounds: usize,
    /// Probability that an extraction round is a retraction (deletion)
    /// rather than an insertion.
    pub deletion_ratio: f64,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            services: 5,
            extraction_rounds: 12,
            deletion_ratio: 0.1,
        }
    }
}

/// A record of one applied update, for reporting purposes.
#[derive(Clone, Debug)]
pub struct AppliedUpdate {
    /// Human-readable description of the update.
    pub description: String,
    /// Confidence of the update.
    pub confidence: f64,
    /// Whether it was a deletion.
    pub is_deletion: bool,
}

/// The outcome of the scenario: the final warehouse, the update log, and
/// the engine's per-step telemetry.
#[derive(Clone, Debug)]
pub struct Warehouse {
    /// The probabilistic warehouse after all extraction rounds.
    pub tree: ProbTree,
    /// The updates that were applied, in order.
    pub log: Vec<AppliedUpdate>,
    /// Per-step size/literal telemetry from the update engine.
    pub report: ScriptReport,
}

/// The fixed label alphabet of the scenario.
pub const FACT_LABELS: [&str; 3] = ["keyword", "endpoint", "contact"];

/// Builds the deterministic warehouse skeleton: a `warehouse` root with
/// `services` children labeled `service`, each holding a `name` child.
pub fn skeleton(services: usize) -> ProbTree {
    let mut tree = ProbTree::new("warehouse");
    let root = tree.tree().root();
    for _ in 0..services {
        let service = tree.add_child(root, "service", Condition::always());
        tree.add_child(service, "name", Condition::always());
    }
    tree
}

/// The unordered DTD the warehouse is expected to respect (Definition 12):
/// a `warehouse` root holding any number of `service` children, each with
/// exactly one `name` and any number of `keyword`/`endpoint`/`contact`
/// facts. Fact labels are left unconstrained so the per-round `value{n}`
/// payloads below them stay legal.
pub fn warehouse_dtd() -> Dtd {
    let mut dtd = Dtd::new();
    dtd.constrain("warehouse", "service", ChildConstraint::at_least(0));
    dtd.constrain("service", "name", ChildConstraint::between(1, 1));
    for label in FACT_LABELS {
        dtd.constrain("service", label, ChildConstraint::at_least(0));
    }
    dtd
}

/// Builds the extraction pipeline as an [`UpdateScript`] plus its log.
pub fn scenario_script<R: Rng + ?Sized>(
    config: &WarehouseConfig,
    rng: &mut R,
) -> (UpdateScript, Vec<AppliedUpdate>) {
    let mut script = UpdateScript::new();
    let mut log = Vec::new();
    for round in 0..config.extraction_rounds {
        let confidence = rng.gen_range(0.5..0.99);
        let is_deletion = rng.gen_bool(config.deletion_ratio) && round > 0;
        if is_deletion {
            // Retract facts with a given label wherever they were claimed.
            let label = FACT_LABELS[rng.gen_range(0..FACT_LABELS.len())];
            let mut query = PatternQuery::new(Some("service"));
            let fact = query.add_child(query.root(), label);
            script.push(ProbabilisticUpdate::new(
                UpdateOperation::delete(query, fact),
                confidence,
            ));
            log.push(AppliedUpdate {
                description: format!("retract every {label} fact"),
                confidence,
                is_deletion: true,
            });
        } else {
            // Claim a new fact under every service (an extractor typically
            // analyses the whole corpus in one run).
            let label = FACT_LABELS[rng.gen_range(0..FACT_LABELS.len())];
            let mut fact = DataTree::new(label);
            let fact_root = fact.root();
            fact.add_child(fact_root, format!("value{round}"));
            let query = PatternQuery::new(Some("service"));
            let at = query.root();
            script.push(ProbabilisticUpdate::new(
                UpdateOperation::insert(query, at, fact),
                confidence,
            ));
            log.push(AppliedUpdate {
                description: format!("assert a {label} fact under every service"),
                confidence,
                is_deletion: false,
            });
        }
    }
    (script, log)
}

/// Runs the extraction pipeline — one batched [`UpdateScript`] through the
/// [`UpdateEngine`] — and returns the resulting warehouse.
pub fn run_scenario<R: Rng + ?Sized>(config: &WarehouseConfig, rng: &mut R) -> Warehouse {
    let (script, log) = scenario_script(config, rng);
    let (tree, report) = UpdateEngine::new().apply_script(&skeleton(config.services), &script);
    Warehouse { tree, log, report }
}

/// The scenario's canonical analysis query: services for which both an
/// `endpoint` fact and a `contact` fact have been claimed.
pub fn services_with_endpoint_and_contact() -> PatternQuery {
    let mut query = PatternQuery::new(Some("service"));
    query.add_child(query.root(), "endpoint");
    query.add_child(query.root(), "contact");
    query
}

/// The warehouse's ranked analysis report: the `k` most probable answers
/// of the canonical query, the threshold slice of answers at least
/// `min_confidence` likely, the expected number of fully-described
/// services, and the [`Possibility`] and [`Lineage`] provenance views —
/// all served from **one** prepared state (the warehouse is queried
/// repeatedly between update rounds; re-matching per consumer or per
/// semiring is exactly the access pattern the query engine exists to
/// avoid).
pub fn analyze(warehouse: &Warehouse, k: usize, min_confidence: f64) -> WarehouseAnalysis {
    let query = services_with_endpoint_and_contact();
    let prepared = QueryEngine::new().prepare(&warehouse.tree, &query);
    let top = prepared.top_k(k);
    let top_lineage = top
        .iter()
        .map(|answer| {
            prepared
                .probability_of_in(&Lineage, &answer.subtree)
                .flatten()
                .unwrap_or_default()
        })
        .collect();
    let possible_services = prepared
        .answers_in(&Possibility)
        .into_iter()
        .filter(|(_, possible)| *possible)
        .count();
    WarehouseAnalysis {
        expected_services: prepared.expected_matches(),
        confident: prepared.above(min_confidence),
        top,
        top_lineage,
        possible_services,
    }
}

/// The outcome of [`analyze`]: ranked views over one prepared query.
#[derive(Clone, Debug)]
pub struct WarehouseAnalysis {
    /// The `k` most probable fully-described services.
    pub top: AnswerSet,
    /// All answers with probability at least the requested confidence.
    pub confident: AnswerSet,
    /// Expected number of fully-described services over the worlds.
    pub expected_services: f64,
    /// Per-answer provenance of `top`: the update-confidence events each
    /// top answer's presence depends on ([`Lineage`] semiring view).
    pub top_lineage: Vec<BTreeSet<EventId>>,
    /// Number of matched services that are possible at all — present in
    /// some positive-probability world ([`Possibility`] semiring view).
    pub possible_services: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::probtree::shape_census;
    use pxml_core::update::StepReport;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skeleton_shape() {
        let tree = skeleton(3);
        assert_eq!(tree.num_nodes(), 1 + 3 * 2);
        assert_eq!(tree.events().len(), 0);
    }

    #[test]
    fn warehouse_dtd_accepts_the_skeleton_and_scenario_worlds() {
        let dtd = warehouse_dtd();
        assert!(pxml_dtd::validates(skeleton(4).tree(), &dtd));
        // Every possible world of a small scenario run stays valid: the
        // script only inserts facts under services and deletes facts.
        let mut rng = StdRng::seed_from_u64(0xD7D);
        let config = WarehouseConfig {
            services: 2,
            extraction_rounds: 6,
            deletion_ratio: 0.3,
        };
        let warehouse = run_scenario(&config, &mut rng);
        let pw = pxml_core::semantics::possible_worlds(&warehouse.tree, 16).unwrap();
        for (world, _) in pw.iter() {
            assert!(pxml_dtd::validates(world, &dtd));
        }
        // A service without a name is rejected.
        let mut bad = ProbTree::new("warehouse");
        let root = bad.tree().root();
        bad.add_child(root, "service", Condition::always());
        assert!(!pxml_dtd::validates(bad.tree(), &dtd));
    }

    #[test]
    fn scenario_accumulates_events_and_facts() {
        let mut rng = StdRng::seed_from_u64(0x11AB);
        let config = WarehouseConfig {
            services: 3,
            extraction_rounds: 8,
            deletion_ratio: 0.2,
        };
        let warehouse = run_scenario(&config, &mut rng);
        assert_eq!(warehouse.log.len(), 8);
        // Every update has confidence < 1, so each introduced an event.
        assert_eq!(warehouse.tree.events().len(), 8);
        // Insertions added nodes under the services.
        assert!(warehouse.tree.num_nodes() > skeleton(3).num_nodes());
        // The engine report covers every round and chains sizes.
        assert_eq!(warehouse.report.steps.len(), 8);
        let peak = warehouse
            .report
            .steps
            .iter()
            .map(StepReport::size_after)
            .max();
        assert!(peak >= Some(warehouse.tree.size()));
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let config = WarehouseConfig::default();
        let a = run_scenario(&config, &mut StdRng::seed_from_u64(1));
        let b = run_scenario(&config, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.tree.num_nodes(), b.tree.num_nodes());
        assert_eq!(a.tree.num_literals(), b.tree.num_literals());
    }

    #[test]
    fn analysis_query_returns_weighted_answers() {
        let mut rng = StdRng::seed_from_u64(0x77);
        let config = WarehouseConfig {
            services: 2,
            extraction_rounds: 10,
            deletion_ratio: 0.0,
        };
        let warehouse = run_scenario(&config, &mut rng);
        let query = services_with_endpoint_and_contact();
        let prepared = QueryEngine::new().prepare(&warehouse.tree, &query);
        for answer in prepared.answers() {
            assert!(answer.probability >= 0.0 && answer.probability <= 1.0);
        }
    }

    #[test]
    fn analysis_report_views_agree_with_the_full_ranking() {
        let mut rng = StdRng::seed_from_u64(0x77);
        let config = WarehouseConfig {
            services: 3,
            extraction_rounds: 12,
            deletion_ratio: 0.1,
        };
        let warehouse = run_scenario(&config, &mut rng);
        let analysis = analyze(&warehouse, 2, 0.5);
        let query = services_with_endpoint_and_contact();
        // The top-k view is the head of the full-sort ranking, and the
        // expectation sums the streamed answers' probabilities.
        let prepared = QueryEngine::new().prepare(&warehouse.tree, &query);
        let reference = prepared.ranked();
        assert_eq!(analysis.top.len(), reference.len().min(2));
        for (a, b) in analysis.top.iter().zip(reference.iter()) {
            assert_eq!(a.probability, b.probability);
            assert_eq!(a.subtree, b.subtree);
        }
        let expected: f64 = prepared.answers().map(|a| a.probability).sum();
        assert!((analysis.expected_services - expected).abs() < 1e-12);
        // Every confident answer clears the threshold and ranks best-first.
        assert!(analysis.confident.iter().all(|a| a.probability >= 0.5));
        assert!(analysis
            .confident
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability));
    }

    #[test]
    fn provenance_views_ride_the_same_prepared_state() {
        let mut rng = StdRng::seed_from_u64(0x77);
        let config = WarehouseConfig {
            services: 3,
            extraction_rounds: 12,
            deletion_ratio: 0.1,
        };
        let warehouse = run_scenario(&config, &mut rng);
        let analysis = analyze(&warehouse, 3, 0.0);
        assert_eq!(analysis.top_lineage.len(), analysis.top.len());
        for (answer, lineage) in analysis.top.iter().zip(&analysis.top_lineage) {
            // An uncertain answer must depend on at least one update
            // confidence, and every lineage event is a declared one.
            if answer.probability < 1.0 {
                assert!(!lineage.is_empty(), "uncertain answer with no lineage");
            }
            for &event in lineage {
                assert!(event.index() < warehouse.tree.events().len());
            }
        }
        // Possibility counts exactly the answers with positive probability.
        let query = services_with_endpoint_and_contact();
        let prepared = QueryEngine::new().prepare(&warehouse.tree, &query);
        let positive = prepared.answers().filter(|a| a.probability > 0.0).count();
        assert_eq!(analysis.possible_services, positive);
        assert!(analysis.possible_services > 0);
    }

    #[test]
    fn corpus_interning_shares_shapes_across_warehouses() {
        let config = WarehouseConfig {
            services: 3,
            extraction_rounds: 6,
            deletion_ratio: 0.0,
        };
        let corpus = |warehouses: &[Warehouse]| {
            shape_census(&warehouses.iter().map(|w| &w.tree).collect::<Vec<_>>())
        };
        // Three identical pipeline runs: every subtree of each document
        // recurs in the other two, so the corpus adds no shape.
        let warehouses: Vec<Warehouse> = (0..3)
            .map(|_| run_scenario(&config, &mut StdRng::seed_from_u64(42)))
            .collect();
        let single = corpus(&warehouses[..1]);
        let identical = corpus(&warehouses);
        assert_eq!(identical.logical_nodes, 3 * single.logical_nodes);
        assert_eq!(
            identical.distinct_shapes, single.distinct_shapes,
            "identical documents must add no shape"
        );
        // Differently-seeded runs still share the skeleton and any facts
        // drawn alike, so the corpus stays below the logical sum.
        let mixed: Vec<Warehouse> = (0..3)
            .map(|seed| run_scenario(&config, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let mixed = corpus(&mixed);
        assert!(mixed.distinct_shapes < mixed.logical_nodes);
    }

    #[test]
    fn deletions_do_not_grow_the_event_table_beyond_rounds() {
        let mut rng = StdRng::seed_from_u64(0x99);
        let config = WarehouseConfig {
            services: 2,
            extraction_rounds: 15,
            deletion_ratio: 0.5,
        };
        let warehouse = run_scenario(&config, &mut rng);
        assert!(warehouse.tree.events().len() <= 15);
        assert!(warehouse.log.iter().any(|u| u.is_deletion));
    }
}
