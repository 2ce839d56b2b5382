//! The combined [`AnalysisReport`]: human-readable `Display` plus a
//! stable line-oriented machine format (`section.key=value`), with no
//! external serialization dependency.

use std::fmt;

use pxml_core::MonotonicityCertificate;

use crate::census::{WorldsAnalysis, WorldsLint};
use crate::query::{QueryAnalysis, Satisfiability};
use crate::script::{predict_maintenance, MaintenancePrediction, ScriptAnalysis};
use crate::semiring::{query_semiring_support, SUPPORTED_SEMIRINGS};

/// Everything the static analyzer can say about a workload before any
/// engine runs: the query-side certificates, the script-side forecasts
/// and the world-side census. Sections the caller did not request are
/// `None`.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Query analyses (certificate, satisfiability, spines).
    pub queries: Vec<QueryAnalysis>,
    /// Script analysis (forecasts, dead steps, independence).
    pub script: Option<ScriptAnalysis>,
    /// World census (components, predicted states, tractability, lints).
    pub worlds: Option<WorldsAnalysis>,
}

impl AnalysisReport {
    /// `true` when nothing in the report should stop the engines: every
    /// query certificate is decided (no `Unknown`), nothing is statically
    /// empty or dead, the census is tractable and lint-free.
    pub fn is_clean(&self) -> bool {
        self.queries.iter().all(|q| {
            q.certificate == MonotonicityCertificate::Certified
                && !q.satisfiability.is_statically_empty()
        }) && self
            .script
            .as_ref()
            .is_none_or(|s| s.dead_steps().is_empty())
            && self
                .worlds
                .as_ref()
                .is_none_or(|w| w.tractable && w.lints.is_empty())
    }

    /// The stable machine-readable rendering: one `section.key=value`
    /// line per fact, in deterministic order.
    pub fn machine_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (i, q) in self.queries.iter().enumerate() {
            let cert = match &q.certificate {
                MonotonicityCertificate::Certified => "certified".to_owned(),
                MonotonicityCertificate::Rejected { reason } => format!("rejected:{reason}"),
                MonotonicityCertificate::Unknown => "unknown".to_owned(),
            };
            lines.push(format!("query[{i}].certificate={cert}"));
            let sat = match &q.satisfiability {
                Satisfiability::Satisfiable => "satisfiable".to_owned(),
                Satisfiability::StaticallyEmpty { reason } => format!("empty:{reason}"),
            };
            lines.push(format!("query[{i}].satisfiability={sat}"));
            lines.push(format!("query[{i}].spines={}", q.spines.len()));
            let footprint: Vec<String> = q.footprint().into_iter().collect();
            lines.push(format!("query[{i}].footprint={}", footprint.join(",")));
            let maintenance = match &q.maintenance_footprint {
                Some(labels) => labels.iter().cloned().collect::<Vec<_>>().join(","),
                None => "unbounded".to_owned(),
            };
            lines.push(format!("query[{i}].maintenance_footprint={maintenance}"));
        }
        if let Some(script) = &self.script {
            for step in &script.steps {
                lines.push(format!(
                    "script.step[{}].matches={}",
                    step.index, step.forecast.matches
                ));
                lines.push(format!(
                    "script.step[{}].survivor_copies={}",
                    step.index,
                    step.forecast.total_survivor_copies()
                ));
                lines.push(format!("script.step[{}].dead={}", step.index, step.dead));
            }
            let pairs: Vec<String> = script
                .independent_pairs
                .iter()
                .map(|(i, j)| format!("{i}-{j}"))
                .collect();
            lines.push(format!("script.independent_pairs={}", pairs.join(",")));
            lines.push(format!(
                "script.predicted_survivor_copies={}",
                script.predicted_survivor_copies()
            ));
            for (i, q) in self.queries.iter().enumerate() {
                for (j, prediction) in predict_maintenance(q, &script.footprints)
                    .iter()
                    .enumerate()
                {
                    let verdict = match prediction {
                        MaintenancePrediction::Patchable => "patchable".to_owned(),
                        MaintenancePrediction::SpineTouching { witness } => {
                            format!("touches:{witness}")
                        }
                        MaintenancePrediction::Unbounded => "unbounded".to_owned(),
                    };
                    lines.push(format!("maintenance.query[{i}].step[{j}]={verdict}"));
                }
            }
        }
        for (i, q) in self.queries.iter().enumerate() {
            let support = query_semiring_support(q, self.worlds.as_ref());
            lines.push(format!(
                "semiring.query[{i}].supported={}",
                SUPPORTED_SEMIRINGS.join(",")
            ));
            let width = match support.lineage_width_bound {
                Some(n) => n.to_string(),
                None => "unbounded".to_owned(),
            };
            lines.push(format!("semiring.query[{i}].lineage_width_bound={width}"));
        }
        if let Some(worlds) = &self.worlds {
            lines.push(format!("worlds.events={}", worlds.num_events));
            lines.push(format!("worlds.relevant={}", worlds.num_relevant));
            lines.push(format!(
                "worlds.components={}",
                worlds.weighted_plan.num_components()
            ));
            lines.push(format!(
                "worlds.predicted_states={}",
                worlds.predicted_states()
            ));
            lines.push(format!("worlds.tractable={}", worlds.tractable));
            lines.push(format!("worlds.lints={}", worlds.lints.len()));
        }
        lines
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.queries.iter().enumerate() {
            writeln!(f, "query #{i}: {}", q.description)?;
            match &q.certificate {
                MonotonicityCertificate::Certified => {
                    writeln!(f, "  locally monotone: certified (Theorem 1 applies)")?;
                }
                MonotonicityCertificate::Rejected { reason } => {
                    writeln!(f, "  locally monotone: REJECTED — {reason}")?;
                }
                MonotonicityCertificate::Unknown => {
                    writeln!(f, "  locally monotone: unknown (no static claim)")?;
                }
            }
            match &q.satisfiability {
                Satisfiability::Satisfiable => {
                    writeln!(f, "  satisfiable under the DTD")?;
                }
                Satisfiability::StaticallyEmpty { reason } => {
                    writeln!(f, "  STATICALLY EMPTY — {reason}")?;
                }
            }
            for spine in &q.spines {
                let mut path = match &spine.root_label {
                    Some(label) => label.clone(),
                    None => "*".to_owned(),
                };
                for (axis, label) in &spine.steps {
                    let sep = match axis {
                        pxml_core::query::pattern::Axis::Child => "/",
                        pxml_core::query::pattern::Axis::Descendant => "//",
                    };
                    path.push_str(sep);
                    path.push_str(label.as_deref().unwrap_or("*"));
                }
                writeln!(f, "  spine: {path}")?;
            }
            match &q.maintenance_footprint {
                Some(labels) => {
                    let labels: Vec<String> = labels.iter().cloned().collect();
                    writeln!(f, "  maintenance footprint: {}", labels.join(", "))?;
                }
                None => writeln!(
                    f,
                    "  maintenance footprint: unbounded (every update re-prepares)"
                )?,
            }
            let support = query_semiring_support(q, self.worlds.as_ref());
            let width = match support.lineage_width_bound {
                Some(n) => format!("<= {n}"),
                None => "unbounded".to_owned(),
            };
            writeln!(f, "  semirings: all supported; lineage width {width}")?;
        }
        if let Some(script) = &self.script {
            writeln!(f, "script: {} steps", script.steps.len())?;
            for step in &script.steps {
                write!(
                    f,
                    "  step #{}: {} matches, {} survivor copies",
                    step.index,
                    step.forecast.matches,
                    step.forecast.total_survivor_copies()
                )?;
                if step.dead {
                    write!(f, " [DEAD]")?;
                }
                writeln!(f)?;
            }
            if !script.independent_pairs.is_empty() {
                let pairs: Vec<String> = script
                    .independent_pairs
                    .iter()
                    .map(|(i, j)| format!("({i},{j})"))
                    .collect();
                writeln!(f, "  reorderable pairs: {}", pairs.join(" "))?;
            }
            for (i, q) in self.queries.iter().enumerate() {
                let verdicts: Vec<String> = predict_maintenance(q, &script.footprints)
                    .iter()
                    .map(|p| match p {
                        MaintenancePrediction::Patchable => "patchable".to_owned(),
                        MaintenancePrediction::SpineTouching { witness } => {
                            format!("touches:{witness}")
                        }
                        MaintenancePrediction::Unbounded => "unbounded".to_owned(),
                    })
                    .collect();
                writeln!(f, "  maintenance vs query #{i}: {}", verdicts.join(" "))?;
            }
        }
        if let Some(worlds) = &self.worlds {
            writeln!(
                f,
                "worlds: {} events ({} relevant), {} components, {} predicted shard states",
                worlds.num_events,
                worlds.num_relevant,
                worlds.weighted_plan.num_components(),
                worlds.predicted_states()
            )?;
            writeln!(
                f,
                "  tractability: {} (budget: {} events)",
                if worlds.tractable {
                    "TRACTABLE"
                } else {
                    "INTRACTABLE"
                },
                worlds.max_events
            )?;
            for lint in &worlds.lints {
                match lint {
                    WorldsLint::PinnableEvent { name, .. } => {
                        writeln!(f, "  lint: event {name:?} has pi=1 (pinnable)")?;
                    }
                    WorldsLint::ContradictoryCondition { label, .. } => {
                        writeln!(
                            f,
                            "  lint: node {label:?} carries a contradictory condition"
                        )?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::StaticAnalyzer;
    use pxml_workloads::paper::figure1;
    use pxml_workloads::warehouse::services_with_endpoint_and_contact;

    #[test]
    fn report_renders_both_formats() {
        let tree = figure1();
        let query = services_with_endpoint_and_contact();
        let analyzer = StaticAnalyzer::new();
        let report = analyzer.report(Some(&tree), &[&query], None);
        assert!(report.is_clean());
        let text = report.to_string();
        assert!(text.contains("locally monotone: certified"));
        assert!(text.contains("TRACTABLE"));
        let lines = report.machine_lines();
        assert!(lines.contains(&"query[0].certificate=certified".to_owned()));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("worlds.predicted_states=")));
        assert!(lines.contains(&format!(
            "semiring.query[0].supported={}",
            crate::semiring::SUPPORTED_SEMIRINGS.join(",")
        )));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("semiring.query[0].lineage_width_bound=")));
        assert!(text.contains("semirings: all supported"));
    }
}
