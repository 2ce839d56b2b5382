//! `pxml-analyze` — lints the paper/warehouse workload corpus with the
//! static analyzer and, unless `--quick` is given, cross-checks every
//! prediction against the engine counters it claims to predict.
//!
//! Every report is printed on stdout as stable `section.key=value`
//! lines. Exit status 0 means the corpus is clean *and* every checked
//! prediction matched; any mismatch or unexpected verdict is reported on
//! stderr and exits 1.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_analysis::StaticAnalyzer;
use pxml_core::update::{UpdateEngine, UpdateEngineConfig, UpdateScript};
use pxml_core::worlds::{WorldEngine, WorldEngineConfig};
use pxml_core::{MonotonicityCertificate, PatternQuery, QueryEngine};
use pxml_workloads::paper::{d0_deletion, figure1, theorem1_query_battery, theorem3_tree};
use pxml_workloads::warehouse::{
    scenario_script, services_with_endpoint_and_contact, skeleton, warehouse_dtd, WarehouseConfig,
};

struct Lint {
    quick: bool,
    failures: Vec<String>,
}

impl Lint {
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failures.push(what.to_owned());
        }
    }
}

/// Prints `report`'s `section.key=value` lines, each under `heading`.
fn emit(report: &pxml_analysis::AnalysisReport, heading: &str) {
    for line in report.machine_lines() {
        println!("{heading}.{line}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut lint = Lint {
        quick: args.iter().any(|a| a == "--quick"),
        failures: Vec::new(),
    };
    if let Some(unknown) = args.iter().find(|a| *a != "--quick") {
        eprintln!("unknown flag {unknown:?} (expected at most --quick)");
        return ExitCode::FAILURE;
    }

    figure1_battery(&mut lint);
    theorem3_family(&mut lint);
    warehouse_scenario(&mut lint);

    if lint.failures.is_empty() {
        eprintln!("pxml-analyze: corpus is clean");
        ExitCode::SUCCESS
    } else {
        for failure in &lint.failures {
            eprintln!("pxml-analyze: FAILED: {failure}");
        }
        ExitCode::FAILURE
    }
}

/// Figure 1 + the Theorem 1 query battery: every query must be certified
/// locally monotone and the census must be tractable.
fn figure1_battery(lint: &mut Lint) {
    let analyzer = StaticAnalyzer::new();
    let tree = figure1();
    let battery = theorem1_query_battery();
    let refs: Vec<&PatternQuery> = battery.iter().collect();
    let report = analyzer.report(Some(&tree), &refs, None);
    emit(&report, "figure1");
    lint.check("figure1 battery is clean", report.is_clean());
    for analysis in &report.queries {
        lint.check(
            "battery query certified",
            analysis.certificate == MonotonicityCertificate::Certified,
        );
    }
    if !lint.quick {
        // Cross-check: the census predicts the enumeration counter exactly.
        let worlds = report.worlds.as_ref().expect("tree was given");
        let engine = WorldEngine::new(&tree);
        match engine.sharded(&WorldEngineConfig::default(), 16) {
            Ok(factorized) => lint.check(
                "figure1 census == states_enumerated",
                worlds.predicted_states() == u128::from(factorized.states_enumerated()),
            ),
            Err(_) => lint.check("figure1 enumeration fits the budget", false),
        }
        // And Theorem 1 holds for every certified query.
        for query in &battery {
            let prepared = QueryEngine::new().prepare(&tree, query);
            lint.check(
                "theorem 1 holds on figure1",
                prepared.theorem1_check() == Ok(true),
            );
        }
    }
}

/// The Theorem 3 deletion family: the forecast must certify the
/// `1 + 2^n` shared-first vs `3^n` naive survivor-copy counts.
fn theorem3_family(lint: &mut Lint) {
    let analyzer = StaticAnalyzer::new();
    let max_n = if lint.quick { 3 } else { 6 };
    for n in 1..=max_n {
        let tree = theorem3_tree(n);
        let script = UpdateScript::from_steps([d0_deletion(0.8)]);
        let shared = analyzer.analyze_script(&tree, &script);
        lint.check(
            "theorem3 shared-first forecast is 1 + 2^n",
            shared.predicted_survivor_copies() == 1 + (1usize << n),
        );
        let raw = analyzer
            .clone()
            .with_update_config(UpdateEngineConfig::raw())
            .analyze_script(&tree, &script);
        lint.check(
            "theorem3 naive forecast is 3^n",
            raw.predicted_survivor_copies() == 3usize.pow(n as u32),
        );
        if n == max_n {
            emit(
                &pxml_analysis::AnalysisReport {
                    script: Some(shared.clone()),
                    ..Default::default()
                },
                &format!("theorem3 n={n}"),
            );
        }
        if !lint.quick {
            // Cross-check both forecasts against the measured counters.
            let (_, report) = UpdateEngine::new().apply_script(&tree, &script);
            lint.check(
                "theorem3 shared-first forecast == measured",
                shared.predicted_survivor_copies()
                    == report
                        .steps
                        .iter()
                        .map(|s| s.survivor_copies)
                        .sum::<usize>(),
            );
            let (_, raw_report) =
                UpdateEngine::with_config(UpdateEngineConfig::raw()).apply_script(&tree, &script);
            lint.check(
                "theorem3 naive forecast == measured",
                raw.predicted_survivor_copies()
                    == raw_report
                        .steps
                        .iter()
                        .map(|s| s.survivor_copies)
                        .sum::<usize>(),
            );
        }
    }
}

/// The hidden-web warehouse: the full pipeline report under its DTD,
/// with the canonical query certified satisfiable and every script
/// forecast matching the engine when measured.
fn warehouse_scenario(lint: &mut Lint) {
    let analyzer = StaticAnalyzer::new().with_dtd(warehouse_dtd());
    let config = if lint.quick {
        WarehouseConfig {
            services: 2,
            extraction_rounds: 6,
            deletion_ratio: 0.25,
        }
    } else {
        WarehouseConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let (script, _) = scenario_script(&config, &mut rng);
    let tree = skeleton(config.services);
    let query = services_with_endpoint_and_contact();
    let report = analyzer.report(Some(&tree), &[&query], Some(&script));
    emit(&report, "warehouse");
    let analysis = &report.queries[0];
    lint.check(
        "warehouse query certified",
        analysis.certificate == MonotonicityCertificate::Certified,
    );
    lint.check(
        "warehouse query satisfiable under the DTD",
        !analysis.satisfiability.is_statically_empty(),
    );
    if !lint.quick {
        let script_analysis = report.script.as_ref().expect("script was given");
        let (final_tree, measured) = UpdateEngine::new().apply_script(&tree, &script);
        let matched = script_analysis
            .steps
            .iter()
            .zip(&measured.steps)
            .all(|(predicted, step)| {
                predicted.forecast.matches == step.matches
                    && predicted.forecast.total_survivor_copies() == step.survivor_copies
            });
        lint.check("warehouse forecasts == measured per step", matched);
        let census = analyzer.analyze_worlds(&final_tree);
        let engine = WorldEngine::new(&final_tree);
        if census.tractable {
            match engine.sharded(&WorldEngineConfig::default(), census.max_events) {
                Ok(factorized) => lint.check(
                    "warehouse census == states_enumerated",
                    census.predicted_states() == u128::from(factorized.states_enumerated()),
                ),
                Err(_) => lint.check("warehouse enumeration fits the budget", false),
            }
        }
    }
}
