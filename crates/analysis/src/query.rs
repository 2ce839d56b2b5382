//! Static analysis of queries: local-monotonicity certificates, pattern
//! spines, and DTD-based satisfiability.
//!
//! Everything here is computed from the *syntax* of the query (and, when
//! available, the warehouse DTD) — no data tree is inspected and no
//! possible world is enumerated.

use std::collections::BTreeSet;

use pxml_core::query::pattern::{Axis, PatternNodeId, PatternQuery};
use pxml_core::query::{MonotonicityCertificate, Query};
use pxml_dtd::Dtd;

/// Whether a pattern query can have answers at all under the DTD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Satisfiability {
    /// No static obstruction was found (the answer set may still be empty
    /// on a particular document).
    Satisfiable,
    /// Every DTD-valid document has an empty answer set.
    StaticallyEmpty {
        /// The pattern edge that can never match.
        reason: String,
    },
}

impl Satisfiability {
    /// `true` for the statically-empty verdict.
    pub fn is_statically_empty(&self) -> bool {
        matches!(self, Satisfiability::StaticallyEmpty { .. })
    }
}

/// One root-to-leaf chain of a pattern query: the root label followed by
/// `(axis, label)` steps. `None` labels are wildcards.
///
/// The union of labels over all spines is the pattern's *footprint*: an
/// update whose touched labels avoid the footprint cannot change the
/// answer set, which is what incremental view maintenance keys on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternSpine {
    /// Label required of the pattern root (`None` = wildcard).
    pub root_label: Option<String>,
    /// The steps from the root down to one leaf, outermost first.
    pub steps: Vec<(Axis, Option<String>)>,
}

/// The static analysis of one query.
#[derive(Clone, Debug)]
pub struct QueryAnalysis {
    /// How the engine describes the query.
    pub description: String,
    /// The O(|query|) syntactic local-monotonicity certificate.
    pub certificate: MonotonicityCertificate,
    /// DTD-based satisfiability (always `Satisfiable` when no DTD is
    /// known or the query is not a pattern).
    pub satisfiability: Satisfiability,
    /// Root-to-leaf spines (empty for non-pattern queries).
    pub spines: Vec<PatternSpine>,
    /// The query's *maintenance footprint*: the engine-side
    /// [`Query::label_footprint`] that incremental view maintenance
    /// ([`pxml_core::PreparedQuery::maintain`]) keys on. `None` when no
    /// bounded set exists — e.g. some pattern node is a label wildcard, in
    /// which case an update to *any* label could create or destroy answers
    /// and maintenance must re-prepare.
    pub maintenance_footprint: Option<BTreeSet<String>>,
}

impl QueryAnalysis {
    /// The set of concrete labels mentioned anywhere on a spine.
    ///
    /// Wildcards are silently skipped, so this set is useful for
    /// diagnostics but **not** sound as a maintenance footprint — use
    /// [`QueryAnalysis::maintenance_footprint`] for that.
    pub fn footprint(&self) -> BTreeSet<String> {
        let mut labels = BTreeSet::new();
        for spine in &self.spines {
            labels.extend(spine.root_label.clone());
            for (_, label) in &spine.steps {
                labels.extend(label.clone());
            }
        }
        labels
    }
}

/// Analyzes an arbitrary query: only the certificate and the footprint
/// are available.
pub fn analyze_query(query: &dyn Query) -> QueryAnalysis {
    QueryAnalysis {
        description: query.describe(),
        certificate: query.monotonicity(),
        satisfiability: Satisfiability::Satisfiable,
        spines: Vec::new(),
        maintenance_footprint: query.label_footprint(),
    }
}

/// Analyzes a pattern query against an optional DTD.
pub fn analyze_pattern(query: &PatternQuery, dtd: Option<&Dtd>) -> QueryAnalysis {
    QueryAnalysis {
        description: query.describe(),
        certificate: query.monotonicity(),
        satisfiability: dtd.map_or(Satisfiability::Satisfiable, |d| {
            pattern_satisfiable(query, d)
        }),
        spines: extract_spines(query),
        maintenance_footprint: query.label_footprint(),
    }
}

/// Extracts every root-to-leaf `(axis, label)` chain of the pattern.
pub fn extract_spines(query: &PatternQuery) -> Vec<PatternSpine> {
    let n = query.len();
    if n == 0 {
        return Vec::new();
    }
    let mut has_children = vec![false; n];
    for i in 0..n {
        if let Some((parent, _)) = query.parent_of(PatternNodeId(i)) {
            has_children[parent.0] = true;
        }
    }
    let mut spines = Vec::new();
    for (leaf, _) in has_children.iter().enumerate().filter(|(_, has)| !**has) {
        let mut steps = Vec::new();
        let mut node = PatternNodeId(leaf);
        while let Some((parent, axis)) = query.parent_of(node) {
            steps.push((axis, query.label(node).map(str::to_owned)));
            node = parent;
        }
        steps.reverse();
        spines.push(PatternSpine {
            root_label: query.label(query.root()).map(str::to_owned),
            steps,
        });
    }
    spines
}

/// Checks every parent-child pattern edge with two concrete labels
/// against the DTD. Sound on DTD-valid documents: a
/// [`Satisfiability::StaticallyEmpty`] verdict means the pattern has no
/// match in *any* document valid against the DTD. Wildcard edges and
/// unconstrained parent labels are conservatively considered satisfiable.
pub fn pattern_satisfiable(query: &PatternQuery, dtd: &Dtd) -> Satisfiability {
    for i in 0..query.len() {
        let node = PatternNodeId(i);
        let Some((parent, axis)) = query.parent_of(node) else {
            continue;
        };
        let (Some(parent_label), Some(child_label)) = (query.label(parent), query.label(node))
        else {
            continue;
        };
        let reachable = match axis {
            Axis::Child => dtd
                .constraint(parent_label, child_label)
                .is_none_or(|c| c.max != Some(0)),
            Axis::Descendant => descendant_labels(dtd, parent_label)
                .is_none_or(|closure| closure.contains(child_label)),
        };
        if !reachable {
            let axis_name = match axis {
                Axis::Child => "child",
                Axis::Descendant => "descendant",
            };
            return Satisfiability::StaticallyEmpty {
                reason: format!(
                    "the DTD never places a {child_label:?} {axis_name} below {parent_label:?}"
                ),
            };
        }
    }
    Satisfiability::Satisfiable
}

/// The labels that can appear strictly below a `label`-labeled node in a
/// DTD-valid document. Returns `None` (meaning "any label") as soon as an
/// unconstrained label is reachable, since anything may appear below it.
pub fn descendant_labels(dtd: &Dtd, label: &str) -> Option<BTreeSet<String>> {
    if !dtd.constrains(label) {
        return None;
    }
    let mut closure = BTreeSet::new();
    let mut frontier = vec![label.to_owned()];
    while let Some(current) = frontier.pop() {
        for (child, constraint) in dtd.child_rules(&current) {
            if constraint.max == Some(0) || closure.contains(child) {
                continue;
            }
            if !dtd.constrains(child) {
                return None;
            }
            closure.insert(child.to_owned());
            frontier.push(child.to_owned());
        }
    }
    Some(closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::query::monotone::NegationQuery;
    use pxml_dtd::ChildConstraint;
    use pxml_workloads::warehouse::warehouse_dtd;

    fn service_fact(label: &str) -> PatternQuery {
        let mut query = PatternQuery::new(Some("service"));
        query.add_child(query.root(), label);
        query
    }

    #[test]
    fn positive_patterns_are_certified_and_negation_is_rejected() {
        let analysis = analyze_pattern(&service_fact("endpoint"), None);
        assert_eq!(analysis.certificate, MonotonicityCertificate::Certified);
        let negated = analyze_query(&NegationQuery {
            forbidden: "spam".into(),
        });
        assert!(matches!(
            negated.certificate,
            MonotonicityCertificate::Rejected { .. }
        ));
    }

    #[test]
    fn spines_cover_every_leaf_and_footprint_collects_labels() {
        let mut query = PatternQuery::new(Some("service"));
        let kw = query.add_child(query.root(), "keyword");
        query.add_descendant(kw, "value");
        query.add_child(query.root(), "endpoint");
        let analysis = analyze_pattern(&query, None);
        assert_eq!(analysis.spines.len(), 2);
        assert!(analysis.spines.iter().any(|s| s.steps
            == vec![
                (Axis::Child, Some("keyword".into())),
                (Axis::Descendant, Some("value".into())),
            ]));
        let footprint = analysis.footprint();
        for label in ["service", "keyword", "value", "endpoint"] {
            assert!(footprint.contains(label));
        }
    }

    #[test]
    fn maintenance_footprint_agrees_with_the_engine_and_rejects_wildcards() {
        // Concrete-label patterns: the static footprint is exactly the
        // engine-side `Query::label_footprint` maintenance keys on.
        let mut query = PatternQuery::new(Some("service"));
        let kw = query.add_child(query.root(), "keyword");
        query.add_descendant(kw, "value");
        query.add_child(query.root(), "endpoint");
        let analysis = analyze_pattern(&query, None);
        assert_eq!(analysis.maintenance_footprint, query.label_footprint());
        assert_eq!(analysis.maintenance_footprint, Some(analysis.footprint()));

        // A wildcard anywhere unbounds the footprint — on both sides.
        let mut wild = PatternQuery::new(Some("service"));
        wild.add_child(wild.root(), "endpoint");
        wild.add_node(wild.root(), Axis::Child, None);
        let wild_analysis = analyze_pattern(&wild, None);
        assert_eq!(wild_analysis.maintenance_footprint, None);
        assert_eq!(wild.label_footprint(), None);
        // …while the diagnostic footprint still lists the concrete labels.
        assert!(wild_analysis.footprint().contains("endpoint"));

        // A query without a label footprint has none in its analysis.
        let negated = analyze_query(&NegationQuery {
            forbidden: "spam".into(),
        });
        assert_eq!(negated.maintenance_footprint, None);
    }

    #[test]
    fn dtd_refutes_impossible_edges() {
        let dtd = warehouse_dtd();
        // Facts can sit under services…
        assert_eq!(
            pattern_satisfiable(&service_fact("endpoint"), &dtd),
            Satisfiability::Satisfiable
        );
        // …but a service can never hold another service.
        let verdict = pattern_satisfiable(&service_fact("service"), &dtd);
        assert!(verdict.is_statically_empty());
        let analysis = analyze_pattern(&service_fact("service"), Some(&dtd));
        assert!(analysis.satisfiability.is_statically_empty());
    }

    #[test]
    fn descendant_closure_stops_at_unconstrained_labels() {
        let dtd = warehouse_dtd();
        // `keyword` is unconstrained, so anything may appear below it and
        // below `warehouse` transitively.
        assert_eq!(descendant_labels(&dtd, "keyword"), None);
        assert_eq!(descendant_labels(&dtd, "warehouse"), None);
        // A fully constrained chain has a finite closure.
        let mut closed = Dtd::new();
        closed.constrain("a", "b", ChildConstraint::at_least(0));
        closed.constrain("b", "c", ChildConstraint::between(0, 2));
        closed.constrain_parent("c");
        let closure = descendant_labels(&closed, "a").unwrap();
        assert_eq!(closure, BTreeSet::from(["b".to_owned(), "c".to_owned()]));
        // Descendant-axis satisfiability uses the closure.
        let mut query = PatternQuery::new(Some("a"));
        query.add_descendant(query.root(), "c");
        assert_eq!(
            pattern_satisfiable(&query, &closed),
            Satisfiability::Satisfiable
        );
        let mut bad = PatternQuery::new(Some("c"));
        bad.add_descendant(bad.root(), "a");
        assert!(pattern_satisfiable(&bad, &closed).is_statically_empty());
    }
}
