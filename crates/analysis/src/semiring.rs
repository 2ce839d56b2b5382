//! Static semiring support facts: what the generic provenance path
//! (`PreparedQuery::answers_in::<S>`) can promise for a workload
//! *before* it runs.
//!
//! The query engine interns each answer's condition as one conjunction
//! of literals, so every semiring in `pxml_events::semiring` is
//! evaluated **exactly** on pattern-query answers — there is no
//! approximation to certify. What remains static and useful is a
//! **lineage width bound**: an answer's [`Lineage`] set only ever
//! mentions events some condition mentions, so the census'
//! `num_relevant` bounds it (and a statically-empty query's answers have
//! width 0).
//!
//! [`Lineage`]: pxml_events::Lineage

use crate::census::WorldsAnalysis;
use crate::query::QueryAnalysis;

/// The semiring instances the generic query path accepts, in the order
/// the machine lines list them.
pub const SUPPORTED_SEMIRINGS: &[&str] = &["probability", "possibility", "lineage"];

/// Per-query semiring facts, derived from the query analysis and (when
/// a tree was supplied) the world census.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySemiringSupport {
    /// Upper bound on any answer's lineage set size. `None` means no
    /// tree was supplied, so no bound is known.
    pub lineage_width_bound: Option<usize>,
}

/// Computes the per-query semiring facts.
pub fn query_semiring_support(
    query: &QueryAnalysis,
    worlds: Option<&WorldsAnalysis>,
) -> QuerySemiringSupport {
    if query.satisfiability.is_statically_empty() {
        return QuerySemiringSupport {
            lineage_width_bound: Some(0),
        };
    }
    QuerySemiringSupport {
        lineage_width_bound: worlds.map(|w| w.num_relevant),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticAnalyzer;
    use pxml_core::query::pattern::PatternQuery;
    use pxml_workloads::paper::figure1;
    use pxml_workloads::warehouse::{services_with_endpoint_and_contact, warehouse_dtd};

    #[test]
    fn satisfiable_query_gets_census_lineage_bound() {
        let tree = figure1();
        let query = services_with_endpoint_and_contact();
        let analyzer = StaticAnalyzer::new();
        let analysis = analyzer.analyze_pattern(&query);
        let worlds = analyzer.analyze_worlds(&tree);
        let support = query_semiring_support(&analysis, Some(&worlds));
        assert_eq!(support.lineage_width_bound, Some(worlds.num_relevant));
    }

    #[test]
    fn statically_empty_query_has_no_lineage() {
        let analyzer = StaticAnalyzer::new().with_dtd(warehouse_dtd());
        let mut query = PatternQuery::new(Some("service"));
        query.add_child(query.root(), "service");
        let analysis = analyzer.analyze_pattern(&query);
        let support = query_semiring_support(&analysis, None);
        assert_eq!(support.lineage_width_bound, Some(0));
    }
}
