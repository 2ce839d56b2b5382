//! Property tests for the static analyzer: every prediction it makes is
//! checked against the engine counter it claims to predict, on random
//! inputs.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pxml_analysis::{census, Satisfiability, StaticAnalyzer};
use pxml_core::query::monotone::{is_locally_monotone_on, NegationQuery};
use pxml_core::update::UpdateEngine;
use pxml_core::worlds::{ShardExecutor, WorldEngine, WorldEngineConfig};
use pxml_core::{MonotonicityCertificate, QueryEngine, Theorem1Error};
use pxml_workloads::random::{
    random_pattern_query, random_probtree, random_tree, ProbTreeConfig, TreeConfig,
};
use pxml_workloads::warehouse::{scenario_script, skeleton, warehouse_dtd, WarehouseConfig};

fn small_probtree(seed: u64) -> pxml_core::ProbTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProbTreeConfig {
        tree: TreeConfig {
            nodes: 1 + (seed % 12) as usize,
            max_fanout: 3,
            labels: 4,
        },
        events: 1 + (seed % 5) as usize,
        annotation_density: 0.5,
        max_literals: 2,
    };
    random_probtree(&config, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The census predicts the factorized executor's `states_enumerated`
    /// counter exactly, in both weighted and unweighted modes.
    #[test]
    fn census_predicts_states_enumerated(seed in any::<u64>()) {
        let tree = small_probtree(seed);
        prop_assert!(tree.validate_invariants().is_ok());
        let analysis = census::analyze_worlds(&tree, 16);
        let engine = WorldEngine::new(&tree);
        let executor = ShardExecutor::new(WorldEngineConfig::sequential());
        if analysis.tractable {
            let weighted = executor.run(&engine, true, 16).unwrap();
            prop_assert_eq!(
                analysis.weighted_plan.predicted_states(),
                u128::from(weighted.states_enumerated())
            );
        }
        if analysis.unweighted_plan.check_budget(16).is_ok() {
            let unweighted = executor.run(&engine, false, 16).unwrap();
            prop_assert_eq!(
                analysis.unweighted_plan.predicted_states(),
                u128::from(unweighted.states_enumerated())
            );
        }
    }

    /// A `Certified` certificate really implies semantic local
    /// monotonicity on random trees (satellite of Definition 6).
    #[test]
    fn certificate_implies_local_monotonicity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = random_pattern_query(4, rng.gen_range(0..4), &mut rng);
        let analysis = StaticAnalyzer::new().analyze_pattern(&query);
        prop_assert_eq!(analysis.certificate, MonotonicityCertificate::Certified);
        let tree = random_tree(
            &TreeConfig { nodes: rng.gen_range(1..8usize), max_fanout: 3, labels: 4 },
            &mut rng,
        );
        prop_assert!(is_locally_monotone_on(&query, &tree));
        // Spines cover every leaf: a pattern with n nodes has at least
        // one and at most n spines, all starting at the root label.
        prop_assert!(!analysis.spines.is_empty());
        prop_assert!(analysis.spines.len() <= query.len());
    }

    /// Negation queries are rejected statically, and the engine's
    /// Theorem 1 check fails fast with the typed error — before any
    /// possible world is enumerated.
    #[test]
    fn negation_is_rejected_before_enumeration(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = NegationQuery { forbidden: format!("L{}", rng.gen_range(0..4)) };
        let analysis = StaticAnalyzer::new().analyze_query(&query);
        prop_assert!(matches!(
            analysis.certificate,
            MonotonicityCertificate::Rejected { .. }
        ));
        let tree = small_probtree(seed);
        let prepared = QueryEngine::new().prepare(&tree, &query);
        match prepared.theorem1_check() {
            Err(Theorem1Error::NotCertifiedMonotone { reason }) => {
                prop_assert!(reason.contains("negation"));
            }
            other => prop_assert!(false, "expected the typed rejection, got {:?}", other),
        }
    }

    /// A statically-empty verdict under the warehouse DTD is confirmed by
    /// the engine on scenario trees: `prepare` finds no answers.
    #[test]
    fn statically_empty_verdict_matches_the_engine(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let analyzer = StaticAnalyzer::new().with_dtd(warehouse_dtd());
        // Random two-level patterns over the warehouse label alphabet.
        let labels = ["warehouse", "service", "name", "keyword", "endpoint", "contact"];
        let parent = labels[rng.gen_range(0..labels.len())];
        let child = labels[rng.gen_range(0..labels.len())];
        let mut query = pxml_core::PatternQuery::new(Some(parent));
        query.add_child(query.root(), child);
        let analysis = analyzer.analyze_pattern(&query);

        let config = WarehouseConfig {
            services: 1 + (seed % 3) as usize,
            extraction_rounds: 4,
            deletion_ratio: 0.2,
        };
        let (script, _) = scenario_script(&config, &mut rng);
        let (tree, _) = UpdateEngine::new().apply_script(&skeleton(config.services), &script);
        prop_assert!(tree.validate_invariants().is_ok());

        let prepared = QueryEngine::new().prepare(&tree, &query);
        if analysis.satisfiability.is_statically_empty() {
            prop_assert!(prepared.is_empty());
        } else {
            prop_assert_eq!(analysis.satisfiability, Satisfiability::Satisfiable);
        }
    }

    /// Script forecasts equal the per-step counters a real
    /// `apply_script` run reports, on random warehouse pipelines.
    #[test]
    fn script_forecasts_match_measured_counters(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = WarehouseConfig {
            services: 1 + (seed % 4) as usize,
            extraction_rounds: 6,
            deletion_ratio: 0.4,
        };
        let (script, _) = scenario_script(&config, &mut rng);
        let tree = skeleton(config.services);
        let analyzer = StaticAnalyzer::new().with_dtd(warehouse_dtd());
        let analysis = analyzer.analyze_script(&tree, &script);
        let (final_tree, measured) = UpdateEngine::new().apply_script(&tree, &script);
        prop_assert!(final_tree.validate_invariants().is_ok());
        prop_assert_eq!(analysis.steps.len(), measured.steps.len());
        for (predicted, step) in analysis.steps.iter().zip(&measured.steps) {
            prop_assert_eq!(predicted.forecast.matches, step.matches);
            prop_assert_eq!(predicted.forecast.targets, step.targets);
            prop_assert_eq!(
                predicted.forecast.total_survivor_copies(),
                step.survivor_copies
            );
            prop_assert_eq!(predicted.dead, step.matches == 0);
        }
    }
}
