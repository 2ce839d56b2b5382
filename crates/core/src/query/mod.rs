//! Queries over data trees, possible-world sets and prob-trees
//! (Definitions 5–8, Theorem 1 and Proposition 2 of the paper).
//!
//! A query maps a data tree `t` to a set of *sub-datatrees* of `t`
//! (Definition 6). The class the paper's algorithms support is the
//! **locally monotone** queries: membership of a sub-datatree `u` in the
//! answer only depends on `u` and not on the rest of the tree
//! (`u ∈ Q(t) ⇔ u ∈ Q(t')` whenever `u ≤ t' ≤ t`). Tree-pattern queries
//! with joins ([`pattern::PatternQuery`]) are locally monotone; queries
//! with negation are not.
//!
//! Evaluation over prob-trees goes through the [`engine::QueryEngine`]:
//! [`engine::QueryEngine::prepare`] computes the match set and per-answer
//! condition unions once, and the returned [`engine::PreparedQuery`]
//! serves streaming, top-k, threshold, aggregate and Theorem 1 consumers
//! from that shared state. [`prob`] holds the answer type and the
//! possible-world side of Theorem 1.

pub mod engine;
pub mod monotone;
pub mod pattern;
pub mod prob;

pub use engine::{
    AnswerSet, FallbackReason, MaintainError, MaintainOutcome, MaintainStats, PreparedQuery,
    QueryEngine, SelectionStats, SemiringCacheStats,
};

use pxml_events::valuation::TooManyValuations;
use pxml_tree::subtree::SubDataTree;
use pxml_tree::DataTree;

/// A *static* local-monotonicity verdict for a query (Definition 6 of the
/// paper): whether membership of a sub-datatree in the answer can be
/// decided from the sub-datatree alone.
///
/// The certificate is syntactic — it is produced in O(|query|) without
/// evaluating the query on any tree — and sound in one direction:
/// [`Certified`](MonotonicityCertificate::Certified) implies semantic
/// local monotonicity (property-tested against
/// [`monotone::is_locally_monotone_on`]), while
/// [`Rejected`](MonotonicityCertificate::Rejected) means the query's
/// syntax puts it outside the locally monotone class, so the Theorem 1
/// construction must not be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonotonicityCertificate {
    /// The query is syntactically certified locally monotone (e.g. a
    /// positive tree-pattern query).
    Certified,
    /// The query is statically known *not* to be locally monotone; the
    /// reason is human-readable.
    Rejected {
        /// Why the certificate was refused (e.g. "negation on label X").
        reason: String,
    },
    /// The implementation makes no static claim (default for foreign
    /// `Query` impls); consumers fall back to runtime checks.
    Unknown,
}

/// Error returned by the engine's Theorem 1 check
/// ([`engine::PreparedQuery::theorem1_check`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Theorem1Error {
    /// The static pass rejected the query's local-monotonicity
    /// certificate, so the Theorem 1 construction does not apply and the
    /// (exponential) cross-check was not attempted.
    NotCertifiedMonotone {
        /// The reason carried by the query's
        /// [`MonotonicityCertificate::Rejected`] certificate.
        reason: String,
    },
    /// The possible-world expansion needed by the cross-check exceeds the
    /// configured event budget.
    TooManyValuations(TooManyValuations),
}

impl std::fmt::Display for Theorem1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Theorem1Error::NotCertifiedMonotone { reason } => {
                write!(f, "query not certified locally monotone: {reason}")
            }
            Theorem1Error::TooManyValuations(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Theorem1Error {}

impl From<TooManyValuations> for Theorem1Error {
    fn from(e: TooManyValuations) -> Self {
        Theorem1Error::TooManyValuations(e)
    }
}

/// A query over data trees (Definition 6): for every data tree `t`,
/// `evaluate(t)` returns a set of sub-datatrees of `t`.
///
/// Implementations must return each sub-datatree at most once (set
/// semantics on node-sets).
///
/// `Send + Sync` is a supertrait: queries are immutable descriptions, and
/// the warehouse server shares `Arc<dyn Query>`-backed prepared state
/// across reader threads ([`engine::QueryEngine::prepare_doc_shared`]).
/// Impls that count calls for tests use atomics, not `Cell`.
pub trait Query: Send + Sync {
    /// Evaluates the query, returning the answer sub-datatrees.
    fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree>;

    /// A short human-readable description (used in benchmark tables).
    fn describe(&self) -> String {
        "query".to_string()
    }

    /// The query's static local-monotonicity certificate. The default
    /// makes no claim; implementations that can decide the property from
    /// their syntax should override it.
    fn monotonicity(&self) -> MonotonicityCertificate {
        MonotonicityCertificate::Unknown
    }

    /// The query's *label footprint*: a finite label set such that every
    /// node any answer can ever contain is either labeled from the set or
    /// an ancestor of such a node. It lets incremental maintenance
    /// ([`engine::PreparedQuery::maintain`]) skip the re-match: an update
    /// delta inserting and removing only labels outside the set provably
    /// preserves the match set. A pattern's footprint is its labels, also
    /// when a wildcard has a labelled pattern node below it, since the
    /// wildcard then binds an ancestor of a labelled node. A delta that
    /// meets the set, and every delta when the footprint is `None` (the
    /// default, and the only sound answer for a pattern with a wildcard
    /// that has no labelled node below it), is patched through
    /// [`Query::evaluate_appended`] where the query provides it, and
    /// re-prepared otherwise.
    fn label_footprint(&self) -> Option<std::collections::BTreeSet<String>> {
        None
    }

    /// The answers of [`Query::evaluate`] on `tree` that hold a node at
    /// arena slot `first` or past it, ascending by node set, with the
    /// number of data nodes the search read; `None` (the default) when the
    /// query cannot find them without evaluating the whole tree.
    ///
    /// Maintenance calls it with the arena length of the state's snapshot.
    /// A commit keeps the id of every node it does not detach and appends
    /// the nodes it adds, so the slots from `first` on are the nodes the
    /// pending deltas inserted, and the answers of the new frame are the
    /// old answers it still reaches plus these, which maintenance merges
    /// into the prepared state's ascending answer order. With `None`, a
    /// delta that meets the [footprint](Query::label_footprint)
    /// re-prepares the state.
    fn evaluate_appended(
        &self,
        _tree: &DataTree,
        _first: usize,
    ) -> Option<(Vec<SubDataTree>, usize)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::builder::TreeSpec;

    /// A trivial query returning the root-only sub-datatree of every tree —
    /// used to exercise the trait object path.
    struct RootQuery;

    impl Query for RootQuery {
        fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree> {
            vec![SubDataTree::root_only(tree)]
        }
    }

    #[test]
    fn trait_objects_work() {
        let q: Box<dyn Query> = Box::new(RootQuery);
        let t = TreeSpec::node("A", vec![TreeSpec::leaf("B")]).build();
        let results = q.evaluate(&t);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].len(), 1);
        assert_eq!(q.describe(), "query");
        assert_eq!(q.monotonicity(), MonotonicityCertificate::Unknown);
        assert_eq!(q.evaluate_appended(&t, 1), None);
    }
}
