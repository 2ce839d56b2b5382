//! # pxml-analysis — static analysis for probabilistic XML workloads
//!
//! The engines in `pxml-core` pay exponential costs at well-understood
//! places: Theorem 1's possible-world cross-check, Theorem 3's deletion
//! blow-up, and the `Σ_c 2^{|C_i|}` factorized world enumeration. This
//! crate predicts those costs — and certifies the preconditions the
//! engines rely on — **before** anything runs, from syntax alone:
//!
//! - [`query`]: O(|query|) local-monotonicity certificates
//!   ([`pxml_core::MonotonicityCertificate`]), root-to-leaf spine
//!   extraction, and DTD-based satisfiability ("this pattern is
//!   statically empty under the warehouse DTD").
//! - [`script`]: dead-step detection, per-step survivor-copy forecasts
//!   (certifying the `1 + 2^n` shared-first vs `3^n` naive deletion
//!   costs of Theorem 3), and footprint-disjointness certificates for
//!   step reordering.
//! - [`census`]: the co-occurrence component census predicting the
//!   executor's exact `states_enumerated` counter, a tractability
//!   verdict against an event budget, and condition lints (π = 1
//!   pinnable events, Possibility-semiring-zero conditions).
//! - [`semiring`]: per-query provenance-semiring facts — the supported
//!   instances and lineage width bounds.
//!
//! Every prediction is property-tested against the corresponding engine
//! counter; the [`StaticAnalyzer`] is the front door and the
//! `pxml-analyze` binary lints the paper/warehouse workload corpus.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod census;
pub mod query;
pub mod report;
pub mod script;
pub mod semiring;

pub use census::{WorldsAnalysis, WorldsLint};
pub use query::{PatternSpine, QueryAnalysis, Satisfiability};
pub use report::AnalysisReport;
pub use script::{
    predict_maintenance, MaintenancePrediction, ScriptAnalysis, StepAnalysis, StepFootprint,
};
pub use semiring::{query_semiring_support, QuerySemiringSupport, SUPPORTED_SEMIRINGS};

use pxml_core::query::pattern::PatternQuery;
use pxml_core::query::Query;
use pxml_core::update::{UpdateEngine, UpdateEngineConfig, UpdateScript};
use pxml_core::{ProbTree, DEFAULT_MAX_EXHAUSTIVE_EVENTS};
use pxml_dtd::Dtd;

/// The front door: holds the ambient knowledge (DTD, update-engine
/// configuration) and produces [`AnalysisReport`]s. The world census is
/// computed against [`DEFAULT_MAX_EXHAUSTIVE_EVENTS`].
#[derive(Clone, Debug)]
pub struct StaticAnalyzer {
    dtd: Option<Dtd>,
    update_config: UpdateEngineConfig,
}

impl Default for StaticAnalyzer {
    fn default() -> Self {
        StaticAnalyzer::new()
    }
}

impl StaticAnalyzer {
    /// An analyzer with no DTD and the default (shared-first) update
    /// configuration.
    pub fn new() -> Self {
        StaticAnalyzer {
            dtd: None,
            update_config: UpdateEngineConfig::default(),
        }
    }

    /// Registers the DTD the documents are expected to respect;
    /// satisfiability and deletion footprints become available.
    pub fn with_dtd(mut self, dtd: Dtd) -> Self {
        self.dtd = Some(dtd);
        self
    }

    /// Sets the update-engine configuration assumed by script forecasts
    /// (shared-first chains change the predicted survivor counts).
    pub fn with_update_config(mut self, config: UpdateEngineConfig) -> Self {
        self.update_config = config;
        self
    }

    /// The registered DTD, if any.
    pub fn dtd(&self) -> Option<&Dtd> {
        self.dtd.as_ref()
    }

    /// Analyzes one pattern query (certificate + satisfiability +
    /// spines).
    pub fn analyze_pattern(&self, query: &PatternQuery) -> QueryAnalysis {
        query::analyze_pattern(query, self.dtd.as_ref())
    }

    /// Analyzes an arbitrary query (certificate only).
    pub fn analyze_query(&self, query: &dyn Query) -> QueryAnalysis {
        query::analyze_query(query)
    }

    /// Analyzes an update script against its initial tree.
    pub fn analyze_script(&self, tree: &ProbTree, script: &UpdateScript) -> ScriptAnalysis {
        let engine = UpdateEngine::with_config(self.update_config.clone());
        script::analyze_script(&engine, tree, script, self.dtd.as_ref())
    }

    /// Computes the world census of a prob-tree against
    /// [`DEFAULT_MAX_EXHAUSTIVE_EVENTS`].
    pub fn analyze_worlds(&self, tree: &ProbTree) -> WorldsAnalysis {
        census::analyze_worlds(tree, DEFAULT_MAX_EXHAUSTIVE_EVENTS)
    }

    /// Builds the combined report: pattern analyses for `queries`, a
    /// script analysis when `script` is given, and the world census when
    /// `tree` is given.
    pub fn report(
        &self,
        tree: Option<&ProbTree>,
        queries: &[&PatternQuery],
        script: Option<&UpdateScript>,
    ) -> AnalysisReport {
        AnalysisReport {
            queries: queries.iter().map(|q| self.analyze_pattern(q)).collect(),
            script: match (tree, script) {
                (Some(tree), Some(script)) => Some(self.analyze_script(tree, script)),
                _ => None,
            },
            worlds: tree.map(|t| self.analyze_worlds(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::{MonotonicityCertificate, QueryEngine};
    use pxml_workloads::paper::{figure1, theorem1_query_battery};

    #[test]
    fn battery_queries_are_all_certified_and_tractable_on_figure1() {
        let analyzer = StaticAnalyzer::new();
        let tree = figure1();
        let battery = theorem1_query_battery();
        let refs: Vec<&PatternQuery> = battery.iter().collect();
        let report = analyzer.report(Some(&tree), &refs, None);
        assert!(report.is_clean());
        for analysis in &report.queries {
            assert_eq!(analysis.certificate, MonotonicityCertificate::Certified);
        }
        // The census agrees with what the prepared engine will see: two
        // events, both relevant.
        let worlds = report.worlds.as_ref().unwrap();
        assert_eq!(worlds.num_events, 2);
        assert!(worlds.tractable);
    }

    #[test]
    fn statically_empty_verdict_agrees_with_the_engine() {
        let analyzer = StaticAnalyzer::new().with_dtd(pxml_workloads::warehouse::warehouse_dtd());
        // A service below a service is impossible under the DTD.
        let mut query = PatternQuery::new(Some("service"));
        query.add_child(query.root(), "service");
        let analysis = analyzer.analyze_pattern(&query);
        assert!(analysis.satisfiability.is_statically_empty());
        let tree = pxml_workloads::warehouse::skeleton(3);
        assert!(QueryEngine::new().prepare(&tree, &query).is_empty());
    }
}
