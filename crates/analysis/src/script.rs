//! Static analysis of update scripts: dead steps, predicted
//! survivor-copy counts (Theorem 3's `1 + 2^n` vs `3^n`), and
//! step-independence certificates.
//!
//! The analyzer never enumerates possible worlds. It *does* replay the
//! polynomial per-step tree rewriting to obtain each step's pre-state, so
//! the per-step forecasts are exactly the counters a later
//! [`UpdateEngine::apply_script`] run will report.

use std::collections::BTreeSet;

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::PatternNodeId;
use pxml_core::update::{
    DeletionForecast, ProbabilisticUpdate, UpdateAction, UpdateEngine, UpdateScript,
};
use pxml_dtd::Dtd;

use crate::query::descendant_labels;

/// The static analysis of one script step.
#[derive(Clone, Debug)]
pub struct StepAnalysis {
    /// Position of the step in the script.
    pub index: usize,
    /// The engine's forecast against the step's pre-state: match count,
    /// distinct targets, and per-target survivor-copy counts.
    pub forecast: DeletionForecast,
    /// `true` if the step selects nothing and is a no-op.
    pub dead: bool,
}

/// The label footprint of one step: which labels its query reads and
/// which labels its action can add or remove. `None` components mean the
/// footprint is not statically bounded (wildcards, or deletions whose
/// reach the DTD cannot bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepFootprint {
    /// Concrete labels the defining query matches on.
    pub reads: Option<BTreeSet<String>>,
    /// Labels the action may add to or remove from the document.
    pub writes: Option<BTreeSet<String>>,
}

impl StepFootprint {
    fn is_bounded(&self) -> bool {
        self.reads.is_some() && self.writes.is_some()
    }
}

/// The static analysis of a whole script against one initial tree.
#[derive(Clone, Debug)]
pub struct ScriptAnalysis {
    /// Per-step forecasts, in script order.
    pub steps: Vec<StepAnalysis>,
    /// Per-step label footprints, in script order.
    pub footprints: Vec<StepFootprint>,
    /// Pairs `(i, j)` with `i < j` whose footprints are bounded and
    /// disjoint: adjacent such pairs may be reordered without changing
    /// the possible-world semantics (modulo event renaming).
    pub independent_pairs: Vec<(usize, usize)>,
}

impl ScriptAnalysis {
    /// Indices of the dead (no-op) steps.
    pub fn dead_steps(&self) -> Vec<usize> {
        self.steps
            .iter()
            .filter(|s| s.dead)
            .map(|s| s.index)
            .collect()
    }

    /// Total predicted survivor copies over all steps — the script-level
    /// cost the engine will pay for deletion rewriting.
    pub fn predicted_survivor_copies(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.forecast.total_survivor_copies())
            .sum()
    }

    /// Total predicted survivor nodes over all steps — what
    /// [`UpdateEngine::apply`] materializes, since it copies every
    /// survivor deep (Theorem 3's exponential blow-up lives here).
    pub fn predicted_logical_survivor_nodes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.forecast.logical_survivor_nodes())
            .sum()
    }
}

/// Analyzes `script` as it would run against `tree` under `engine`'s
/// configuration (shared-first chains change the predicted counts).
pub fn analyze_script(
    engine: &UpdateEngine,
    tree: &ProbTree,
    script: &UpdateScript,
    dtd: Option<&Dtd>,
) -> ScriptAnalysis {
    let mut steps = Vec::with_capacity(script.len());
    let mut current = tree.clone();
    for (index, update) in script.steps().iter().enumerate() {
        let forecast = engine.forecast(&current, update);
        let dead = forecast.is_dead();
        steps.push(StepAnalysis {
            index,
            forecast,
            dead,
        });
        let (next, _) = engine.apply(&current, update);
        current = next;
    }
    let footprints: Vec<StepFootprint> = script
        .steps()
        .iter()
        .map(|update| step_footprint(update, dtd))
        .collect();
    let mut independent_pairs = Vec::new();
    for i in 0..footprints.len() {
        for j in (i + 1)..footprints.len() {
            if footprints_independent(&footprints[i], &footprints[j]) {
                independent_pairs.push((i, j));
            }
        }
    }
    ScriptAnalysis {
        steps,
        footprints,
        independent_pairs,
    }
}

/// Computes the label footprint of one update from its syntax (and the
/// DTD, for bounding what a deletion can take down with it).
pub fn step_footprint(update: &ProbabilisticUpdate, dtd: Option<&Dtd>) -> StepFootprint {
    let query = &update.operation.query;
    let mut reads = BTreeSet::new();
    let mut wildcard = false;
    for i in 0..query.len() {
        match query.label(PatternNodeId(i)) {
            Some(label) => {
                reads.insert(label.to_owned());
            }
            None => wildcard = true,
        }
    }
    let writes = match &update.operation.action {
        UpdateAction::Insert { subtree, .. } => Some(
            subtree
                .iter()
                .map(|n| subtree.label(n).to_owned())
                .collect::<BTreeSet<String>>(),
        ),
        UpdateAction::Delete { at } => match (query.label(*at), dtd) {
            // A deletion removes the matched node and everything below
            // it; the DTD bounds what can be below a known label.
            (Some(label), Some(dtd)) => descendant_labels(dtd, label).map(|mut closure| {
                closure.insert(label.to_owned());
                closure
            }),
            _ => None,
        },
    };
    StepFootprint {
        reads: (!wildcard).then_some(reads),
        writes,
    }
}

/// The predicted interaction of one script step with a prepared query
/// kept live by [`pxml_core::PreparedQuery::maintain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintenancePrediction {
    /// The step's write footprint is bounded and disjoint from the
    /// query's maintenance footprint: maintenance is expected to patch
    /// the prepared state in place.
    Patchable,
    /// The step writes a label on the query's spine: maintenance is
    /// expected to fall back to a full re-prepare.
    SpineTouching {
        /// A label witnessing the intersection.
        witness: String,
    },
    /// No bounded verdict: the step's writes or the query's footprint
    /// are not statically bounded.
    Unbounded,
}

/// Predicts, step by step, whether a prepared query with the given
/// analysis can be maintained in place across the script.
///
/// This is a **lint, not a guarantee**: the engine decides from the
/// *runtime* [`pxml_core::UpdateDelta`], which the step derives from the
/// nodes it actually touched. A step predicted [`Patchable`](MaintenancePrediction::Patchable)
/// can still force a fallback at run time — e.g. when the simplification
/// pass merges pre-existing siblings whose labels lie inside the
/// footprint, the delta reports those labels as removed/inserted even
/// though the step's own syntax never mentions them. The prediction
/// errs only in that direction; maintenance itself stays sound either
/// way.
pub fn predict_maintenance(
    query: &crate::query::QueryAnalysis,
    footprints: &[StepFootprint],
) -> Vec<MaintenancePrediction> {
    let Some(query_footprint) = &query.maintenance_footprint else {
        return vec![MaintenancePrediction::Unbounded; footprints.len()];
    };
    footprints
        .iter()
        .map(|step| match &step.writes {
            None => MaintenancePrediction::Unbounded,
            Some(writes) => match writes.intersection(query_footprint).next() {
                Some(witness) => MaintenancePrediction::SpineTouching {
                    witness: witness.clone(),
                },
                None => MaintenancePrediction::Patchable,
            },
        })
        .collect()
}

fn footprints_independent(a: &StepFootprint, b: &StepFootprint) -> bool {
    if !a.is_bounded() || !b.is_bounded() {
        return false;
    }
    let disjoint = |x: &Option<BTreeSet<String>>, y: &Option<BTreeSet<String>>| {
        x.as_ref()
            .is_none_or(|x| y.as_ref().is_none_or(|y| x.is_disjoint(y)))
    };
    disjoint(&a.writes, &b.reads) && disjoint(&b.writes, &a.reads) && disjoint(&a.writes, &b.writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::semantics::possible_worlds;
    use pxml_core::update::UpdateOperation;
    use pxml_core::PatternQuery;
    use pxml_tree::DataTree;
    use pxml_workloads::paper::{d0_deletion, theorem3_tree};
    use pxml_workloads::warehouse::{skeleton, warehouse_dtd};

    fn insert_fact(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let mut fact = DataTree::new(label);
        let root = fact.root();
        fact.add_child(root, "value");
        let query = PatternQuery::new(Some("service"));
        let at = query.root();
        ProbabilisticUpdate::new(UpdateOperation::insert(query, at, fact), confidence)
    }

    fn delete_fact(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let mut query = PatternQuery::new(Some("service"));
        let at = query.add_child(query.root(), label);
        ProbabilisticUpdate::new(UpdateOperation::delete(query, at), confidence)
    }

    #[test]
    fn forecasts_chain_and_match_the_script_report() {
        let tree = skeleton(3);
        let script = UpdateScript::from_steps([
            insert_fact("keyword", 0.9),
            insert_fact("endpoint", 0.8),
            delete_fact("keyword", 0.7),
            delete_fact("contact", 0.6), // dead: nothing to retract
        ]);
        let engine = UpdateEngine::new();
        let analysis = analyze_script(&engine, &tree, &script, Some(&warehouse_dtd()));
        let (_, report) = engine.apply_script(&tree, &script);
        assert_eq!(analysis.steps.len(), report.steps.len());
        for (predicted, measured) in analysis.steps.iter().zip(&report.steps) {
            assert_eq!(predicted.forecast.matches, measured.matches);
            assert_eq!(predicted.forecast.targets, measured.targets);
            assert_eq!(
                predicted.forecast.total_survivor_copies(),
                measured.survivor_copies
            );
        }
        assert_eq!(analysis.dead_steps(), vec![3]);
    }

    #[test]
    fn theorem3_blowup_is_predicted_without_running_the_deletion() {
        for n in 1..=4 {
            let tree = theorem3_tree(n);
            let script = UpdateScript::from_steps([d0_deletion(0.8)]);
            let shared = analyze_script(&UpdateEngine::new(), &tree, &script, None);
            assert_eq!(shared.predicted_survivor_copies(), 1 + (1 << n));
            let raw_engine =
                UpdateEngine::with_config(pxml_core::update::UpdateEngineConfig::raw());
            let raw = analyze_script(&raw_engine, &tree, &script, None);
            assert_eq!(raw.predicted_survivor_copies(), 3usize.pow(n as u32));
        }
    }

    #[test]
    fn logical_node_forecast_matches_the_deep_output() {
        use pxml_core::update::UpdateEngineConfig;
        for n in 1..=4usize {
            let tree = theorem3_tree(n);
            let script = UpdateScript::from_steps([d0_deletion(0.8)]);
            // The step grafts 1 + 2^n copies of the deleted B leaf.
            let engine = UpdateEngine::with_config(UpdateEngineConfig {
                simplify: false,
                ..UpdateEngineConfig::default()
            });
            let analysis = analyze_script(&engine, &tree, &script, None);
            assert_eq!(analysis.predicted_logical_survivor_nodes(), 1 + (1 << n));
            // `apply` materializes every predicted survivor node: the
            // output is the input without the target plus the copies.
            let (out, report) = engine.apply_script(&tree, &script);
            let expected = tree.num_nodes() - 1 + analysis.predicted_logical_survivor_nodes();
            assert_eq!(out.num_nodes(), expected);
            assert_eq!(report.steps[0].nodes_after, expected);
        }
    }

    /// Like [`warehouse_dtd`], but with the fact labels constrained too,
    /// so deletion footprints become statically bounded.
    fn closed_dtd() -> pxml_dtd::Dtd {
        use pxml_dtd::ChildConstraint;
        let mut dtd = warehouse_dtd();
        dtd.constrain("keyword", "kwvalue", ChildConstraint::at_least(0));
        dtd.constrain("endpoint", "epvalue", ChildConstraint::at_least(0));
        dtd.constrain_parent("contact");
        dtd.constrain_parent("kwvalue");
        dtd.constrain_parent("epvalue");
        dtd
    }

    fn insert_valued_fact(label: &str, value: &str, confidence: f64) -> ProbabilisticUpdate {
        let mut fact = DataTree::new(label);
        let root = fact.root();
        fact.add_child(root, value);
        let query = PatternQuery::new(Some("service"));
        let at = query.root();
        ProbabilisticUpdate::new(UpdateOperation::insert(query, at, fact), confidence)
    }

    #[test]
    fn disjoint_footprints_certify_reorderable_steps() {
        let script = UpdateScript::from_steps([
            insert_valued_fact("keyword", "kwvalue", 0.9),
            insert_valued_fact("endpoint", "epvalue", 0.8),
            delete_fact("keyword", 0.7),
        ]);
        let dtd = closed_dtd();
        let tree = skeleton(2);
        let analysis = analyze_script(&UpdateEngine::new(), &tree, &script, Some(&dtd));
        // keyword-insert vs endpoint-insert commute; endpoint-insert vs
        // keyword-delete commute; keyword-insert vs keyword-delete do NOT.
        assert_eq!(analysis.independent_pairs, vec![(0, 1), (1, 2)]);
        // Certified pairs really commute: swapping adjacent independent
        // steps yields the same normalized possible-world set.
        let swapped = UpdateScript::from_steps([
            insert_valued_fact("endpoint", "epvalue", 0.8),
            insert_valued_fact("keyword", "kwvalue", 0.9),
            delete_fact("keyword", 0.7),
        ]);
        let engine = UpdateEngine::new();
        let (a, _) = engine.apply_script(&tree, &script);
        let (b, _) = engine.apply_script(&tree, &swapped);
        let pw_a = possible_worlds(&a, 16).unwrap().normalized();
        let pw_b = possible_worlds(&b, 16).unwrap().normalized();
        assert!(pw_a.isomorphic(&pw_b));
    }

    #[test]
    fn maintenance_predictions_match_the_engine_on_the_warehouse() {
        use pxml_core::{Document, MaintainOutcome, QueryEngine};
        use pxml_workloads::warehouse::services_with_endpoint_and_contact;

        let query = services_with_endpoint_and_contact();
        let query_analysis = crate::query::analyze_pattern(&query, None);
        let script = UpdateScript::from_steps([
            insert_fact("keyword", 0.9),  // off-footprint → patchable
            insert_fact("endpoint", 0.8), // on the spine → fallback
            delete_fact("keyword", 0.7),  // unbounded writes without a DTD
        ]);
        let footprints: Vec<StepFootprint> = script
            .steps()
            .iter()
            .map(|update| step_footprint(update, None))
            .collect();
        let predictions = predict_maintenance(&query_analysis, &footprints);
        assert_eq!(
            predictions,
            vec![
                MaintenancePrediction::Patchable,
                MaintenancePrediction::SpineTouching {
                    witness: "endpoint".into(),
                },
                MaintenancePrediction::Unbounded,
            ]
        );

        // A wildcarded query is never predicted patchable.
        let mut wild = PatternQuery::new(Some("service"));
        wild.add_node(wild.root(), pxml_core::query::pattern::Axis::Child, None);
        let wild_predictions =
            predict_maintenance(&crate::query::analyze_pattern(&wild, None), &footprints);
        assert!(wild_predictions
            .iter()
            .all(|p| *p == MaintenancePrediction::Unbounded));

        // Ground truth: run the script through a Document and maintain a
        // prepared query across it. Bounded predictions agree with the
        // engine; the Unbounded delete is where the lint is conservative —
        // the runtime delta (keyword/value removals, off-footprint) may
        // still patch.
        let mut doc = Document::new(skeleton(2));
        let engine = UpdateEngine::new();
        let query_engine = QueryEngine::new();
        let mut prepared =
            query_engine.prepare_doc_shared(&doc, std::sync::Arc::new(query.clone()));
        let mut outcomes = Vec::new();
        for update in script.steps() {
            engine.apply_doc(&mut doc, update);
            outcomes.push(prepared.maintain(&doc).unwrap());
        }
        assert!(matches!(outcomes[0], MaintainOutcome::Patched { .. }));
        assert!(matches!(outcomes[1], MaintainOutcome::Fallback { .. }));
        // Whatever path step 3 took, the maintained state serves exactly
        // what a fresh prepare serves.
        let fresh = query_engine.prepare(doc.tree(), &query);
        assert_eq!(prepared.len(), fresh.len());
        for index in 0..prepared.len() {
            assert_eq!(prepared.probability(index), fresh.probability(index));
        }
    }

    #[test]
    fn unbounded_footprints_are_never_certified() {
        // Deleting below an unconstrained label: the DTD cannot bound the
        // removed labels, so nothing involving it is certified.
        let script =
            UpdateScript::from_steps([delete_fact("keyword", 0.9), insert_fact("contact", 0.8)]);
        let no_dtd = analyze_script(&UpdateEngine::new(), &skeleton(1), &script, None);
        assert!(no_dtd.independent_pairs.is_empty());
        assert_eq!(no_dtd.footprints[0].writes, None);
    }
}
