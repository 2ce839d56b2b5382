//! The warehouse: a registry of named p-documents behind epoch snapshots,
//! with per-document maintenance hubs and O(1) scenario branches.
//!
//! ## Concurrency discipline
//!
//! Every document lives in a cell with three locks, each held briefly and
//! never nested the other way around:
//!
//! 1. a **writer mutex** serializing committers (so optimistic staging
//!    never loses a race inside one warehouse);
//! 2. a **document `RwLock`**: readers (snapshots, view serves) hold it
//!    shared; a commit holds it shared while *staging* the engine step
//!    (matching, grafting, simplification and the delta) and exclusively
//!    only for [`pxml_core::Document::commit_staged`], which bumps the
//!    epoch, swaps the tree `Arc` and appends the delta to the log. The
//!    replaced tree is freed under that lock, unless a snapshot still
//!    holds it: it owns only the pages its successor copied, so freeing
//!    it costs O(pages), not O(|T|);
//! 3. the hub's per-query `RwLock`s, one per prepared state and shared
//!    by every view name over that query: a current state is served
//!    under the shared lock, a stale one maintained under the exclusive
//!    lock (see [`crate::hub`]).
//!
//! Because every committed epoch is an immutable `Arc<ProbTree>`, a
//! [`Snapshot`] outlives any number of subsequent commits unchanged —
//! readers pin an epoch instead of blocking writers (and vice versa).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, RwLock};

use pxml_core::query::Query;
use pxml_core::update::{ProbabilisticUpdate, UpdateAction};
use pxml_core::{
    AnswerSet, Document, Epoch, ProbTree, QueryEngine, StageConflict, UpdateDelta, UpdateEngine,
    DEFAULT_DELTA_LOG_CAPACITY,
};
use pxml_events::{EventId, Lineage, Possibility};
use pxml_tree::Semantics;

use crate::hub::{HubStats, MaintenanceHub};

/// Why a warehouse operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// No document registered under this name.
    UnknownDocument(String),
    /// A document is already registered under this name.
    DuplicateDocument(String),
    /// The document has no view registered under this name.
    UnknownView(String),
    /// The document already has a view registered under this name.
    DuplicateView(String),
    /// The update would delete the document's root, which prob-tree
    /// updates do not support; the commit was refused before staging.
    RootDeletion,
    /// The update's confidence (carried as text) lies outside `(0, 1]`;
    /// the commit was refused before staging.
    InvalidConfidence(String),
    /// The update's target pattern node (its `at`, carried as the node's
    /// index) is not a node of its query; the commit was refused before
    /// staging.
    UnknownTarget(usize),
    /// A staged step lost a commit race (should not happen through the
    /// warehouse's own serialized write path; surfaced for completeness).
    Conflict(StageConflict),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownDocument(name) => write!(f, "unknown document {name:?}"),
            ServerError::DuplicateDocument(name) => {
                write!(f, "document {name:?} is already registered")
            }
            ServerError::UnknownView(name) => write!(f, "unknown view {name:?}"),
            ServerError::DuplicateView(name) => write!(f, "view {name:?} is already registered"),
            ServerError::RootDeletion => write!(f, "the update would delete the document root"),
            ServerError::InvalidConfidence(confidence) => {
                write!(f, "confidence {confidence} lies outside (0, 1]")
            }
            ServerError::UnknownTarget(node) => {
                write!(
                    f,
                    "the update targets pattern node {node}, which its query lacks"
                )
            }
            ServerError::Conflict(conflict) => write!(f, "commit conflict: {conflict}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// An immutable reader pin: the tree of one committed epoch. Holding a
/// snapshot never blocks writers, and no later commit can change what it
/// sees — commits swap a fresh `Arc`, they never mutate the held tree.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The epoch this snapshot pins.
    pub epoch: Epoch,
    /// The epoch's tree.
    pub tree: Arc<ProbTree>,
}

/// One document's cell: the versioned document, its view hub, and the
/// writer-serialization mutex.
struct DocCell {
    doc: RwLock<Document>,
    hub: MaintenanceHub,
    write: Mutex<()>,
}

/// The difference between two branches' answer sets under one query,
/// keyed by the canonical form of each answer tree (multiset semantics,
/// so node identities — which diverge across branches — never matter).
#[derive(Clone, Debug, Default)]
pub struct BranchDiff {
    /// Canonical answers present only in the left branch.
    pub only_left: Vec<String>,
    /// Canonical answers present only in the right branch.
    pub only_right: Vec<String>,
    /// Canonical answers present in both but with shifted expected
    /// multiplicity: `(canonical, left, right)`.
    pub shifted: Vec<(String, f64, f64)>,
    /// Canonical answers whose expected multiplicity agrees.
    pub unchanged: usize,
}

impl BranchDiff {
    /// `true` when the two branches answer the query identically.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty() && self.shifted.is_empty()
    }
}

/// The concurrent p-document warehouse. See the [module docs](self).
pub struct Warehouse {
    docs: RwLock<BTreeMap<String, Arc<DocCell>>>,
    update_engine: UpdateEngine,
    query_engine: QueryEngine,
    log_capacity: usize,
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::with_log_capacity(DEFAULT_DELTA_LOG_CAPACITY)
    }
}

impl Warehouse {
    /// An empty warehouse with the default per-document delta-log
    /// capacity.
    pub fn new() -> Self {
        Warehouse::default()
    }

    /// An empty warehouse whose documents keep `log_capacity` pending
    /// deltas — how far behind a view may fall before its maintenance
    /// degrades to a full re-prepare.
    pub fn with_log_capacity(log_capacity: usize) -> Self {
        Warehouse {
            docs: RwLock::new(BTreeMap::new()),
            update_engine: UpdateEngine::new(),
            query_engine: QueryEngine::new(),
            log_capacity,
        }
    }

    /// Registers `tree` as a fresh document under `name`.
    pub fn register(&self, name: &str, tree: ProbTree) -> Result<(), ServerError> {
        self.register_document(name, Document::with_log_capacity(tree, self.log_capacity))
    }

    fn register_document(&self, name: &str, doc: Document) -> Result<(), ServerError> {
        let mut docs = self.docs.write().expect("warehouse registry poisoned");
        if docs.contains_key(name) {
            return Err(ServerError::DuplicateDocument(name.to_owned()));
        }
        docs.insert(
            name.to_owned(),
            Arc::new(DocCell {
                doc: RwLock::new(doc),
                hub: MaintenanceHub::new(),
                write: Mutex::new(()),
            }),
        );
        Ok(())
    }

    fn cell(&self, name: &str) -> Result<Arc<DocCell>, ServerError> {
        self.docs
            .read()
            .expect("warehouse registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownDocument(name.to_owned()))
    }

    /// The registered document names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.docs
            .read()
            .expect("warehouse registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// The current epoch of `name`.
    pub fn epoch(&self, name: &str) -> Result<Epoch, ServerError> {
        let cell = self.cell(name)?;
        let doc = cell.doc.read().expect("document lock poisoned");
        Ok(doc.epoch())
    }

    /// Pins the current epoch of `name` as an immutable [`Snapshot`].
    pub fn snapshot(&self, name: &str) -> Result<Snapshot, ServerError> {
        let cell = self.cell(name)?;
        let doc = cell.doc.read().expect("document lock poisoned");
        Ok(Snapshot {
            epoch: doc.epoch(),
            tree: doc.snapshot(),
        })
    }

    /// Commits one probabilistic update to `name` as its next epoch.
    ///
    /// The engine work (matching, grafting, simplification, the delta) is
    /// *staged* while readers proceed; the exclusive document lock is
    /// held only to swap in the staged tree and log its delta. Writers to
    /// the same document are serialized, so staging never loses a race.
    ///
    /// An update whose confidence lies outside `(0, 1]` (NaN included) is
    /// refused with [`ServerError::InvalidConfidence`], one whose target
    /// is not a node of its query with [`ServerError::UnknownTarget`], and
    /// one that would delete the document root with
    /// [`ServerError::RootDeletion`], all before staging: the epoch, the
    /// delta log and the views stay as they were.
    pub fn commit(
        &self,
        name: &str,
        update: &ProbabilisticUpdate,
    ) -> Result<Arc<UpdateDelta>, ServerError> {
        let cell = self.cell(name)?;
        let confidence = update.confidence;
        if !(confidence > 0.0 && confidence <= 1.0) {
            return Err(ServerError::InvalidConfidence(confidence.to_string()));
        }
        let (UpdateAction::Insert { at, .. } | UpdateAction::Delete { at }) =
            update.operation.action;
        if at.0 >= update.operation.query.len() {
            return Err(ServerError::UnknownTarget(at.0));
        }
        let _writer = cell.write.lock().expect("writer lock poisoned");
        let staged = {
            let doc = cell.doc.read().expect("document lock poisoned");
            if update.operation.deletes_root(doc.tree().tree()) {
                return Err(ServerError::RootDeletion);
            }
            self.update_engine.stage_doc(&doc, update)
        };
        let delta = {
            let mut doc = cell.doc.write().expect("document lock poisoned");
            doc.commit_staged(staged).map_err(ServerError::Conflict)?
        };
        cell.hub.observe_commit();
        Ok(delta)
    }

    /// Registers a prepared view of `doc` under `view` in the document's
    /// maintenance hub: commits leave it stale, and the next read brings
    /// it current from the document (see [`MaintenanceHub::serve`]).
    ///
    /// Views registered with the same `Arc<dyn Query>` share one prepared
    /// state (see [`MaintenanceHub::register`]): only the first of them
    /// prepares the query, and one maintenance pass per commit serves
    /// them all.
    pub fn register_view(
        &self,
        doc: &str,
        view: &str,
        query: Arc<dyn Query>,
    ) -> Result<(), ServerError> {
        let cell = self.cell(doc)?;
        let registered = {
            let doc = cell.doc.read().expect("document lock poisoned");
            cell.hub.register_query(view, doc.id(), query.as_ref(), || {
                self.query_engine
                    .prepare_doc_shared(&doc, Arc::clone(&query))
            })
        };
        if registered {
            Ok(())
        } else {
            Err(ServerError::DuplicateView(view.to_owned()))
        }
    }

    /// Serves `view` of `doc`, bringing the view current first (see
    /// [`MaintenanceHub::serve`]). The document's reader lock is held for
    /// the duration of `f`, so the served state is consistent with one
    /// epoch.
    pub fn with_view<T>(
        &self,
        doc: &str,
        view: &str,
        f: impl FnOnce(&pxml_core::PreparedQuery<'static>) -> T,
    ) -> Result<T, ServerError> {
        let cell = self.cell(doc)?;
        let guard = cell.doc.read().expect("document lock poisoned");
        cell.hub
            .serve(&guard, view, f)
            .ok_or_else(|| ServerError::UnknownView(view.to_owned()))
    }

    /// The `k` most probable answers of `view`, best first; zero-probability
    /// answers are dropped. Each answer is a node set of the epoch the view
    /// was served at and its probability: no answer's tree is built.
    ///
    /// To get an answer's tree, select inside [`Warehouse::with_view`] and
    /// build it from the tree the view was served at. A later
    /// [`Warehouse::snapshot`] is the wrong source: a commit in between may
    /// detach the answer's nodes, and a rebase renumbers them.
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use pxml_core::{PatternQuery, ProbTree};
    /// use pxml_events::{Condition, Literal};
    /// use pxml_server::Warehouse;
    ///
    /// let mut tree = ProbTree::new("catalog");
    /// let w = tree.events_mut().insert("w", 0.8);
    /// let root = tree.tree().root();
    /// let item = tree.add_child(root, "item", Condition::of(Literal::pos(w)));
    /// tree.add_child(item, "sku", Condition::always());
    /// let warehouse = Warehouse::new();
    /// warehouse.register("shop", tree).unwrap();
    /// let mut items = PatternQuery::new(Some("item"));
    /// items.add_child(items.root(), "sku");
    /// warehouse.register_view("shop", "items", Arc::new(items)).unwrap();
    ///
    /// let trees = warehouse
    ///     .with_view("shop", "items", |prepared| {
    ///         prepared
    ///             .top_k(1)
    ///             .iter()
    ///             .map(|answer| answer.subtree.to_tree(prepared.tree().tree()))
    ///             .collect::<Vec<_>>()
    ///     })
    ///     .unwrap();
    /// // catalog → item → sku
    /// assert_eq!(trees[0].len(), 3);
    /// ```
    pub fn top_k(&self, doc: &str, view: &str, k: usize) -> Result<AnswerSet, ServerError> {
        self.with_view(doc, view, |prepared| prepared.top_k(k))
    }

    /// The answers of `view` with probability at least `threshold`, best
    /// first. Zero-probability answers are dropped, even at threshold 0.
    /// Like [`Warehouse::top_k`], it builds no answer's tree.
    pub fn above(&self, doc: &str, view: &str, threshold: f64) -> Result<AnswerSet, ServerError> {
        self.with_view(doc, view, |prepared| prepared.above(threshold))
    }

    /// The expected number of matches of `view` (Definition 8 aggregate).
    pub fn expected_matches(&self, doc: &str, view: &str) -> Result<f64, ServerError> {
        self.with_view(doc, view, pxml_core::PreparedQuery::expected_matches)
    }

    /// Per-answer lineage of `view`: the update-confidence events each
    /// answer's presence depends on, via the cached [`Lineage`] semiring
    /// view (repeated serves hit the per-semiring condition cache, and
    /// maintenance carries each unchanged condition's value across
    /// commits, including those that add events).
    pub fn lineage(&self, doc: &str, view: &str) -> Result<Vec<BTreeSet<EventId>>, ServerError> {
        self.with_view(doc, view, |prepared| {
            prepared
                .answers_in_cached(&Lineage)
                .into_iter()
                .map(|(_, lineage)| lineage.unwrap_or_default())
                .collect()
        })
    }

    /// Number of answers of `view` that are possible at all (positive in
    /// the [`Possibility`] semiring), via the cached semiring view.
    pub fn possible_count(&self, doc: &str, view: &str) -> Result<usize, ServerError> {
        self.with_view(doc, view, |prepared| {
            prepared
                .answers_in_cached(&Possibility)
                .into_iter()
                .filter(|(_, possible)| *possible)
                .count()
        })
    }

    /// The maintenance-hub counters of `doc` (plus the aggregated
    /// maintenance telemetry of its views).
    pub fn hub_stats(&self, doc: &str) -> Result<HubStats, ServerError> {
        Ok(self.cell(doc)?.hub.stats())
    }

    /// Forks `from` at its current epoch into a new document `to`: an
    /// O(1) copy-on-write branch (the snapshot `Arc` is shared; the first
    /// commit on either side swaps in its own tree). The branch starts
    /// with an empty view hub — register what-if views explicitly.
    pub fn branch(&self, from: &str, to: &str) -> Result<(), ServerError> {
        let forked = {
            let cell = self.cell(from)?;
            let doc = cell.doc.read().expect("document lock poisoned");
            doc.fork()
        };
        self.register_document(to, forked)
    }

    /// Compares two documents' answers to `query`, keyed by canonical
    /// answer form (multiset semantics — node identities diverge across
    /// branches and must not matter). Expected multiplicity — the sum of
    /// the probabilities of isomorphic answers — is compared per shape,
    /// with agreement up to `1e-12`.
    pub fn diff(
        &self,
        left: &str,
        right: &str,
        query: &dyn Query,
    ) -> Result<BranchDiff, ServerError> {
        let left_answers = self.canonical_answers(left, query)?;
        let right_answers = self.canonical_answers(right, query)?;
        let mut diff = BranchDiff::default();
        for (canonical, &l) in &left_answers {
            match right_answers.get(canonical) {
                None => diff.only_left.push(canonical.clone()),
                Some(&r) if (l - r).abs() > 1e-12 => {
                    diff.shifted.push((canonical.clone(), l, r));
                }
                Some(_) => diff.unchanged += 1,
            }
        }
        for canonical in right_answers.keys() {
            if !left_answers.contains_key(canonical) {
                diff.only_right.push(canonical.clone());
            }
        }
        Ok(diff)
    }

    /// The canonical-form → expected-multiplicity map of one document's
    /// answers to `query`, computed against its pinned snapshot.
    fn canonical_answers(
        &self,
        name: &str,
        query: &dyn Query,
    ) -> Result<BTreeMap<String, f64>, ServerError> {
        let snapshot = self.snapshot(name)?;
        let prepared = self.query_engine.prepare(&snapshot.tree, query);
        let mut answers: BTreeMap<String, f64> = BTreeMap::new();
        for index in 0..prepared.len() {
            let canonical = prepared
                .subtree(index)
                .canonical_string(snapshot.tree.tree(), Semantics::MultiSet);
            *answers.entry(canonical).or_default() += prepared.probability(index);
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::update::UpdateOperation;
    use pxml_core::PatternQuery;
    use pxml_tree::DataTree;
    use pxml_workloads::warehouse::{services_with_endpoint_and_contact, skeleton};

    fn insert_under(label: &str, inserted: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new(inserted)),
            confidence,
        )
    }

    fn delete_at(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(UpdateOperation::delete(q, at), confidence)
    }

    #[test]
    fn registry_rejects_duplicates_and_unknown_names() {
        let warehouse = Warehouse::new();
        warehouse.register("a", skeleton(2)).unwrap();
        assert_eq!(
            warehouse.register("a", skeleton(2)),
            Err(ServerError::DuplicateDocument("a".to_owned()))
        );
        warehouse.register("b", skeleton(1)).unwrap();
        assert_eq!(warehouse.names(), ["a", "b"]);
        assert_eq!(
            warehouse.epoch("missing").unwrap_err(),
            ServerError::UnknownDocument("missing".to_owned())
        );
        assert_eq!(
            warehouse.top_k("a", "missing", 1).unwrap_err(),
            ServerError::UnknownView("missing".to_owned())
        );
    }

    #[test]
    fn snapshots_pin_an_epoch_across_later_commits() {
        let warehouse = Warehouse::new();
        warehouse.register("doc", skeleton(2)).unwrap();
        let pinned = warehouse.snapshot("doc").unwrap();
        assert_eq!(pinned.epoch, 0);

        let delta = warehouse
            .commit("doc", &insert_under("service", "endpoint", 0.8))
            .unwrap();
        assert_eq!(delta.epoch, 1);
        assert_eq!(warehouse.epoch("doc").unwrap(), 1);

        // The pinned snapshot still sees the pre-commit tree: commits swap
        // in a fresh Arc, they never mutate the held one.
        let current = warehouse.snapshot("doc").unwrap();
        assert_eq!(current.epoch, 1);
        assert_eq!(
            pinned.tree.tree().len() + 2,
            current.tree.tree().len(),
            "one endpoint inserted under each of the two services"
        );
    }

    #[test]
    fn views_are_served_lazily_through_the_hub() {
        let warehouse = Warehouse::new();
        warehouse.register("doc", skeleton(2)).unwrap();
        let query = Arc::new(services_with_endpoint_and_contact());
        warehouse.register_view("doc", "q", query.clone()).unwrap();
        assert_eq!(
            warehouse
                .register_view("doc", "q", query.clone())
                .unwrap_err(),
            ServerError::DuplicateView("q".to_owned())
        );

        warehouse
            .commit("doc", &insert_under("service", "endpoint", 0.8))
            .unwrap();
        warehouse
            .commit("doc", &insert_under("service", "contact", 0.7))
            .unwrap();

        // No read yet: all maintenance is still pending.
        let before = warehouse.hub_stats("doc").unwrap();
        assert_eq!(before.deltas_observed, 2);
        assert_eq!(before.flags_fanned, 2);
        assert_eq!(before.view_maintains, 0);

        let expected = warehouse.expected_matches("doc", "q").unwrap();
        let fresh = {
            let snapshot = warehouse.snapshot("doc").unwrap();
            QueryEngine::new()
                .prepare(&snapshot.tree, query.as_ref())
                .expected_matches()
        };
        assert!((expected - fresh).abs() < 1e-12, "{expected} vs {fresh}");
        assert!((expected - 2.0 * 0.8 * 0.7).abs() < 1e-12);

        // Repeated reads of a current view do no further maintenance.
        assert_eq!(warehouse.possible_count("doc", "q").unwrap(), 2);
        assert_eq!(warehouse.top_k("doc", "q", 1).unwrap().len(), 1);
        assert_eq!(warehouse.above("doc", "q", 0.5).unwrap().len(), 2);
        let lineage = warehouse.lineage("doc", "q").unwrap();
        assert_eq!(lineage.len(), 2);
        assert!(lineage.iter().all(|events| events.len() == 2));
        let after = warehouse.hub_stats("doc").unwrap();
        assert_eq!(after.view_maintains, 1, "one pass served both deltas");
        assert_eq!(after.windows_composed, 1);
    }

    #[test]
    fn branches_fork_cheaply_and_diff_reports_divergence() {
        let warehouse = Warehouse::new();
        warehouse.register("main", skeleton(2)).unwrap();
        warehouse
            .commit("main", &insert_under("service", "endpoint", 1.0))
            .unwrap();
        warehouse
            .commit("main", &insert_under("service", "contact", 1.0))
            .unwrap();

        warehouse.branch("main", "what-if").unwrap();
        assert_eq!(warehouse.epoch("what-if").unwrap(), 0);
        assert_eq!(
            warehouse.branch("main", "what-if").unwrap_err(),
            ServerError::DuplicateDocument("what-if".to_owned())
        );

        let query = services_with_endpoint_and_contact();
        let same = warehouse.diff("main", "what-if", &query).unwrap();
        assert!(same.is_empty());
        assert_eq!(same.unchanged, 1, "both services answer isomorphically");

        // A speculative retraction on the branch shifts the answers'
        // expected multiplicity without touching the trunk.
        warehouse
            .commit("what-if", &delete_at("contact", 0.4))
            .unwrap();
        assert_eq!(warehouse.epoch("main").unwrap(), 2);
        let diff = warehouse.diff("main", "what-if", &query).unwrap();
        assert!(!diff.is_empty());
        assert_eq!(diff.shifted.len(), 1);
        let (_, left, right) = &diff.shifted[0];
        assert!((left - 2.0).abs() < 1e-12);
        assert!((right - 2.0 * 0.6).abs() < 1e-12, "right = {right}");
    }
}
