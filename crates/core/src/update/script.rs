//! Batched update sequences.
//!
//! An [`UpdateScript`] is an ordered sequence of [`ProbabilisticUpdate`]s
//! applied atomically by [`UpdateEngine::apply_script`]: each step runs
//! against the previous step's output, introduces its own fresh event
//! variable when its confidence is below 1, and contributes one
//! [`StepReport`] to the [`ScriptReport`] — the per-step size/literal
//! telemetry that makes deletion blow-ups observable (Theorem 3 is a
//! statement about representation size, not time).
//!
//! [`UpdateEngine::apply_script`]: super::engine::UpdateEngine::apply_script

use crate::pwset::PossibleWorldSet;

use super::engine::StepReport;
use super::ProbabilisticUpdate;

/// An ordered batch of probabilistic updates.
#[derive(Clone, Debug, Default)]
pub struct UpdateScript {
    steps: Vec<ProbabilisticUpdate>,
}

impl UpdateScript {
    /// The empty script.
    pub fn new() -> Self {
        UpdateScript::default()
    }

    /// Builds a script from a sequence of updates.
    pub fn from_steps<I: IntoIterator<Item = ProbabilisticUpdate>>(steps: I) -> Self {
        UpdateScript {
            steps: steps.into_iter().collect(),
        }
    }

    /// Appends an update to the script.
    pub fn push(&mut self, update: ProbabilisticUpdate) -> &mut Self {
        self.steps.push(update);
        self
    }

    /// The updates, in application order.
    pub fn steps(&self) -> &[ProbabilisticUpdate] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the empty script.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The Definition 16 semantics of the whole script: each step applied
    /// to the possible-world set produced by the previous one. This is the
    /// reference the engine's
    /// [`apply_script`](super::engine::UpdateEngine::apply_script) is
    /// cross-checked against.
    pub fn apply_to_pw_set(&self, pw: &PossibleWorldSet) -> PossibleWorldSet {
        let mut current = pw.clone();
        for step in &self.steps {
            current = step.apply_to_pw_set(&current);
        }
        current
    }
}

/// Telemetry of one [`UpdateScript`] application: one [`StepReport`] per
/// step, in order.
#[derive(Clone, Debug)]
pub struct ScriptReport {
    /// The per-step reports.
    pub steps: Vec<StepReport>,
}

impl ScriptReport {
    /// Total size units saved by the simplification pass across all steps.
    pub fn simplification_savings(&self) -> usize {
        self.steps
            .iter()
            .map(StepReport::simplification_savings)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::possible_worlds;
    use crate::update::{UpdateEngine, UpdateOperation};
    use crate::PatternQuery;
    use pxml_tree::DataTree;

    fn insert_under(label: &str, inserted: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new(inserted)),
            confidence,
        )
    }

    fn delete(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(UpdateOperation::delete(q, at), confidence)
    }

    #[test]
    fn script_application_matches_stepwise_pw_semantics() {
        let t = figure1_example();
        let script = UpdateScript::from_steps([
            insert_under("C", "E", 0.9),
            delete("B", 0.5),
            insert_under("E", "F", 1.0),
        ]);
        let (updated, report) = UpdateEngine::new().apply_script(&t, &script);
        assert_eq!(report.steps.len(), 3);
        let events_introduced = report.steps.iter().filter(|s| s.new_event.is_some());
        assert_eq!(events_introduced.count(), 2, "only c < 1 steps add events");
        assert_eq!(updated.events().len(), 4);
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = script
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(direct.isomorphic(&via_pw), "\n{}", updated.to_ascii());
    }

    #[test]
    fn empty_script_is_identity() {
        let t = figure1_example();
        let script = UpdateScript::new();
        assert!(script.is_empty());
        let (updated, report) = UpdateEngine::new().apply_script(&t, &script);
        assert_eq!(report.steps.len(), 0);
        assert_eq!(updated.num_nodes(), t.num_nodes());
    }

    #[test]
    fn report_tracks_sizes_per_step() {
        let t = figure1_example();
        let mut script = UpdateScript::new();
        script
            .push(insert_under("C", "E", 0.9))
            .push(insert_under("C", "E", 0.8));
        let (updated, report) = UpdateEngine::new().apply_script(&t, &script);
        assert_eq!(report.steps.iter().map(|s| s.matches).sum::<usize>(), 2);
        let peak = report.steps.iter().map(StepReport::size_after).max();
        assert_eq!(peak, Some(updated.size()));
        for pair in report.steps.windows(2) {
            assert_eq!(pair[0].nodes_after, pair[1].nodes_before);
        }
    }
}
