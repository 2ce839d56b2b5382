//! The per-document maintenance hub: the registered views of one
//! document, each brought current by the read that needs it.
//!
//! The hub owns the views of one [`Document`] and keeps **one prepared
//! state per query**: a view registered over the same query allocation
//! as an existing view of the document names that view's state instead
//! of holding its own ([`MaintenanceHub::register`]). Every read kind
//! served from one `Arc<dyn Query>` then shares one state, maintained
//! once per commit. The hub keeps maintenance off the write path:
//!
//! * a **commit** is observed once ([`MaintenanceHub::observe_commit`]):
//!   it only advances the counters — no maintenance work happens on the
//!   write path;
//! * a **read** ([`MaintenanceHub::serve`]) lazily brings just the
//!   requested state current: when its epoch stamp is behind the
//!   document's epoch, [`PreparedQuery::maintain`] reads the pending
//!   deltas from the document's log and patches the state through all of
//!   them in a single pass — a state that is `d` deltas behind pays one
//!   pass, not `d`. Node ids are stable between rebases, so the patch
//!   renumbers no answer: it drops the answers a commit detached and
//!   re-matches the view's query only around the nodes the commits
//!   appended, for every tree pattern, wildcards and joins included. A
//!   state behind a rebase finds its span gone from the log and
//!   re-prepares once: the only re-prepare of a pattern view.
//!
//! Each state sits behind its own `RwLock`: a current state is served
//! under the shared read lock, so fresh reads of one query run side by
//! side, and only maintenance takes the write lock. A reader that panics
//! therefore never poisons a state; only a panicking maintenance pass
//! can, and the next read recovers it.
//!
//! The counters ([`MaintenanceHub::stats`]) make the laziness auditable:
//! `view_maintains` grows per *served read of a stale state*, not per
//! view-delta pair.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use pxml_core::query::Query;
use pxml_core::{Document, DocumentId, FallbackReason, MaintainOutcome, PreparedQuery};

/// Cumulative counters of one document's maintenance hub, plus the summed
/// telemetry of its distinct prepared states — the evidence that
/// maintenance is lazy: one pass per served read of a stale state, not
/// one per view-delta pair. Views that share a query share a state, and
/// every field but `flags_fanned` counts each state once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Commits observed (one per committed epoch).
    pub deltas_observed: u64,
    /// View names a commit left stale (= commits × names registered at
    /// the time), counting every name of a shared state. Kept until the
    /// benchmark harness stops reading it.
    pub flags_fanned: u64,
    /// Maintenance passes whose pending deltas the log still held: every
    /// pass but a [`FallbackReason::LogTrimmed`] re-prepare. Kept until
    /// the benchmark harness stops reading it.
    pub windows_composed: u64,
    /// Maintenance passes performed on the read path. Lazy: grows per
    /// served read of a stale state, **not** per view-delta pair, and
    /// once for all the names that share the state.
    pub view_maintains: u64,
    /// Sum of the states' [`pxml_core::MaintainStats::windows_applied`].
    pub windows_applied: u64,
    /// Sum of the states' [`pxml_core::MaintainStats::steps_patched`].
    pub steps_patched: u64,
    /// Sum of the states' [`pxml_core::MaintainStats::fallbacks`].
    pub fallbacks: u64,
    /// Sum of the states' [`pxml_core::MaintainStats::unions_rebuilt`].
    pub unions_rebuilt: u64,
    /// Sum of the states' [`pxml_core::MaintainStats::unions_carried`].
    pub unions_carried: u64,
    /// Always 0: node ids are stable between rebases, so maintenance
    /// renumbers no answer. Kept until the benchmark harness stops
    /// reading it.
    pub answers_remapped: u64,
    /// Sum of the states' per-semiring cache folds
    /// ([`pxml_core::SemiringCacheStats::computed`]).
    pub semiring_values_computed: u64,
    /// Sum of the states' per-semiring cache hits
    /// ([`pxml_core::SemiringCacheStats::hits`]).
    pub semiring_cache_hits: u64,
    /// Reads that found a state's lock poisoned by a maintenance pass
    /// that panicked, cleared the poison and maintained the state as
    /// usual: once per recovery, however many names share the state.
    pub views_recovered: u64,
}

impl std::ops::AddAssign for HubStats {
    fn add_assign(&mut self, other: HubStats) {
        self.deltas_observed += other.deltas_observed;
        self.flags_fanned += other.flags_fanned;
        self.windows_composed += other.windows_composed;
        self.view_maintains += other.view_maintains;
        self.windows_applied += other.windows_applied;
        self.steps_patched += other.steps_patched;
        self.fallbacks += other.fallbacks;
        self.unions_rebuilt += other.unions_rebuilt;
        self.unions_carried += other.unions_carried;
        self.answers_remapped += other.answers_remapped;
        self.semiring_values_computed += other.semiring_values_computed;
        self.semiring_cache_hits += other.semiring_cache_hits;
        self.views_recovered += other.views_recovered;
    }
}

/// One prepared state, shared by every view name registered over its
/// query.
type State = Arc<RwLock<PreparedQuery<'static>>>;

/// The per-document maintenance hub. See the [module docs](self).
///
/// The hub does not own the [`Document`]; callers pass the document into
/// [`MaintenanceHub::serve`] under whatever locking discipline they use
/// (the warehouse serves it under its per-document reader lock, so the
/// epoch cannot advance mid-serve).
#[derive(Default)]
pub struct MaintenanceHub {
    views: RwLock<BTreeMap<String, State>>,
    deltas_observed: AtomicU64,
    flags_fanned: AtomicU64,
    windows_composed: AtomicU64,
    view_maintains: AtomicU64,
    views_recovered: AtomicU64,
}

impl MaintenanceHub {
    /// An empty hub with no views.
    pub fn new() -> Self {
        MaintenanceHub::default()
    }

    /// Registers a prepared view under `name`. Returns `false` (and drops
    /// the state) if the name is taken.
    ///
    /// When a registered view's state was prepared over the same query
    /// allocation (the same `Arc<dyn Query>`) against the same document,
    /// `name` shares that state and `prepared` is dropped: one state per
    /// query serves every name, and is maintained once per commit.
    ///
    /// # Panics
    ///
    /// If `prepared` is not document-backed (built by
    /// [`pxml_core::QueryEngine::prepare`] rather than
    /// [`pxml_core::QueryEngine::prepare_doc_shared`]): the hub can only
    /// maintain and serve document-backed state.
    pub fn register(&self, name: &str, prepared: PreparedQuery<'static>) -> bool {
        let (doc, _) = prepared
            .document_stamp()
            .expect("hub views are document-backed");
        let query = address(prepared.query());
        self.insert(name, doc, query, || prepared)
    }

    /// Registers `name` over `query` on the document `doc`, calling
    /// `prepare` for the state only when no registered view holds one for
    /// this query: a name over a query the hub already serves prepares
    /// nothing. `prepare` must prepare `query` against `doc`.
    pub(crate) fn register_query(
        &self,
        name: &str,
        doc: DocumentId,
        query: &dyn Query,
        prepare: impl FnOnce() -> PreparedQuery<'static>,
    ) -> bool {
        self.insert(name, doc, address(query), prepare)
    }

    /// The one insert routine behind both registrations. `prepare` runs
    /// without the map lock, so serves of the document's other views do
    /// not wait on it; the name and the query are checked again once the
    /// lock is back, and a state another registration inserted meanwhile
    /// wins over the one `prepare` built.
    fn insert(
        &self,
        name: &str,
        doc: DocumentId,
        query: *const (),
        prepare: impl FnOnce() -> PreparedQuery<'static>,
    ) -> bool {
        let mut views = self.views.write().expect("hub views lock poisoned");
        if views.contains_key(name) {
            return false;
        }
        let state = match state_of(&views, doc, query) {
            Some(state) => state,
            None => {
                drop(views);
                let prepared = Arc::new(RwLock::new(prepare()));
                views = self.views.write().expect("hub views lock poisoned");
                if views.contains_key(name) {
                    return false;
                }
                state_of(&views, doc, query).unwrap_or(prepared)
            }
        };
        views.insert(name.to_owned(), state);
        true
    }

    /// Records one committed delta: the write path only counts — all
    /// maintenance work is deferred to the reads that actually happen.
    pub fn observe_commit(&self) {
        self.deltas_observed.fetch_add(1, Ordering::Relaxed);
        let views = self.views.read().expect("hub views lock poisoned").len();
        self.flags_fanned.fetch_add(views as u64, Ordering::Relaxed);
    }

    /// Serves `view` against `doc`, bringing its state current first with
    /// [`PreparedQuery::maintain`] if the state's epoch stamp is behind
    /// `doc`'s epoch. Returns `None` for an unknown view name.
    ///
    /// `doc` must be the document the view was prepared against, held so
    /// its epoch cannot advance during the call (the warehouse passes it
    /// under its reader lock).
    ///
    /// A current state is served under its read lock, so fresh reads of
    /// one query — through any of the names that share its state — run
    /// side by side. A stale state is maintained under its write lock,
    /// once: a reader that waited on that lock finds the stamp current
    /// and maintains nothing. `f` then runs under the read lock.
    ///
    /// A panic in `f` reaches the caller, but it does not poison the
    /// state: `f` runs under a read guard, and a panic under a read guard
    /// leaves the lock whole, so later reads serve the state. A semiring
    /// that panics inside `f` poisons only the state's semiring cache,
    /// which the prepared state reads through the poison, so later reads,
    /// [`MaintenanceHub::stats`] and maintenance go on working.
    ///
    /// Only a panic inside maintenance poisons the state's lock; the next
    /// read of any name sharing it clears the poison, counts
    /// [`HubStats::views_recovered`] once and maintains as usual.
    /// Maintenance runs foreign code (the view's query) only before it
    /// mutates the state: the patch re-matches at the appended nodes
    /// before it changes anything, and a re-prepare assigns the rebuilt
    /// state once built. So a poisoned state holds its state from before
    /// that pass.
    pub fn serve<T>(
        &self,
        doc: &Document,
        view: &str,
        f: impl FnOnce(&PreparedQuery<'static>) -> T,
    ) -> Option<T> {
        let state = self
            .views
            .read()
            .expect("hub views lock poisoned")
            .get(view)
            .cloned()?;
        let current = |prepared: &PreparedQuery<'static>| {
            let (_, epoch) = prepared
                .document_stamp()
                .expect("hub views are document-backed");
            epoch == doc.epoch()
        };
        loop {
            if let Ok(prepared) = state.read() {
                if current(&prepared) {
                    return Some(f(&prepared));
                }
            }
            let mut prepared = state.write().unwrap_or_else(|poisoned| {
                state.clear_poison();
                self.views_recovered.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            });
            // Another reader may have maintained the state while this one
            // waited for the write lock.
            if !current(&prepared) {
                self.view_maintains.fetch_add(1, Ordering::Relaxed);
                let outcome = prepared
                    .maintain(doc)
                    .expect("view prepared against this document");
                if !matches!(
                    outcome,
                    MaintainOutcome::Fallback {
                        reason: FallbackReason::LogTrimmed
                    }
                ) {
                    self.windows_composed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// A snapshot of the hub counters plus the aggregated maintenance and
    /// semiring-cache telemetry of every distinct prepared state: a state
    /// that several names share is summed once.
    ///
    /// A state whose maintenance panicked is read through its poisoned
    /// lock (the next [`MaintenanceHub::serve`] of it clears the poison):
    /// its counters are plain integers, and a re-prepare that panics
    /// leaves them as they were before that pass.
    pub fn stats(&self) -> HubStats {
        let mut stats = HubStats {
            deltas_observed: self.deltas_observed.load(Ordering::Relaxed),
            flags_fanned: self.flags_fanned.load(Ordering::Relaxed),
            windows_composed: self.windows_composed.load(Ordering::Relaxed),
            view_maintains: self.view_maintains.load(Ordering::Relaxed),
            views_recovered: self.views_recovered.load(Ordering::Relaxed),
            ..HubStats::default()
        };
        let views = self.views.read().expect("hub views lock poisoned");
        let mut summed = BTreeSet::new();
        for state in views.values() {
            if !summed.insert(Arc::as_ptr(state)) {
                continue;
            }
            let prepared = state.read().unwrap_or_else(PoisonError::into_inner);
            let maint = prepared.maintenance_stats();
            stats.windows_applied += maint.windows_applied as u64;
            stats.steps_patched += maint.steps_patched as u64;
            stats.fallbacks += maint.fallbacks as u64;
            stats.unions_rebuilt += maint.unions_rebuilt as u64;
            stats.unions_carried += maint.unions_carried as u64;
            let caches = prepared.semiring_cache_stats();
            stats.semiring_values_computed += caches.computed;
            stats.semiring_cache_hits += caches.hits;
        }
        stats
    }
}

/// The address of `query`'s allocation, vtable dropped: two
/// `Arc<dyn Query>` clones share it, two equal queries do not.
fn address(query: &dyn Query) -> *const () {
    std::ptr::from_ref(query).cast()
}

/// The registered state prepared over the query at `query` against the
/// document `doc`, if any.
fn state_of(views: &BTreeMap<String, State>, doc: DocumentId, query: *const ()) -> Option<State> {
    views
        .values()
        .find(|state| {
            let prepared = state.read().unwrap_or_else(PoisonError::into_inner);
            prepared.document_stamp().is_some_and(|(id, _)| id == doc)
                && std::ptr::addr_eq(prepared.query(), query)
        })
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
    use pxml_core::{PatternQuery, QueryEngine, UpdateEngine};
    use pxml_tree::{DataTree, SubDataTree};
    use pxml_workloads::warehouse::{services_with_endpoint_and_contact, skeleton};

    fn insert_under_services(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some("service"));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new(label)),
            confidence,
        )
    }

    fn ranked(view: &PreparedQuery<'_>) -> Vec<(SubDataTree, u64)> {
        view.ranked()
            .into_iter()
            .map(|answer| (answer.subtree, answer.probability.to_bits()))
            .collect()
    }

    /// The epoch stamp alone decides staleness: a view registered in a hub
    /// that observed none of the document's commits is still brought
    /// current by the next read.
    #[test]
    fn serve_brings_a_view_current_without_observed_commits() {
        let engine = UpdateEngine::new();
        let mut doc = Document::new(skeleton(3));
        engine.apply_doc(&mut doc, &insert_under_services("endpoint", 0.8));
        engine.apply_doc(&mut doc, &insert_under_services("contact", 0.7));
        let query = Arc::new(services_with_endpoint_and_contact());
        let hub = MaintenanceHub::new();
        let prepared = QueryEngine::new().prepare_doc_shared(&doc, query.clone());
        assert!(hub.register("q", prepared));

        // Two commits the hub never hears of: one off the view's
        // footprint, one on it.
        engine.apply_doc(&mut doc, &insert_under_services("keyword", 0.9));
        let served = hub.serve(&doc, "q", ranked).unwrap();
        let fresh = QueryEngine::new().prepare_doc_shared(&doc, query.clone());
        assert_eq!(served, ranked(&fresh));
        assert!(!served.is_empty(), "the view has live answers");
        engine.apply_doc(&mut doc, &insert_under_services("contact", 0.6));
        let served = hub.serve(&doc, "q", ranked).unwrap();
        let fresh = QueryEngine::new().prepare_doc_shared(&doc, query);
        assert_eq!(served, ranked(&fresh));

        let stats = hub.stats();
        assert_eq!(stats.deltas_observed, 0);
        assert_eq!(stats.flags_fanned, 0);
        assert_eq!(stats.view_maintains, 2);
        assert_eq!(stats.windows_composed, 2);
        assert_eq!(
            (stats.windows_applied, stats.fallbacks),
            (2, 0),
            "both commits patch; the contact one re-matches"
        );
        // A current view is served without another pass.
        hub.serve(&doc, "q", ranked).unwrap();
        assert_eq!(hub.stats().view_maintains, 2);
        assert!(hub.serve(&doc, "missing", ranked).is_none());
    }

    /// The path of a caller that prepares its own states: a state
    /// prepared over the same `Arc` as a registered one, against the same
    /// document, joins that state and is dropped, so one pass per commit
    /// serves both names and `stats` sums the state once. An equal query
    /// in another allocation, or the same `Arc` over another document,
    /// keeps a state of its own.
    #[test]
    fn register_shares_the_state_of_the_same_query_and_document() {
        let engine = UpdateEngine::new();
        let mut doc = Document::new(skeleton(3));
        engine.apply_doc(&mut doc, &insert_under_services("endpoint", 0.8));
        let other = Document::new(skeleton(2));
        let query: Arc<dyn Query> = Arc::new(services_with_endpoint_and_contact());
        let own: Arc<dyn Query> = Arc::new(services_with_endpoint_and_contact());
        let queries = QueryEngine::new();
        let hub = MaintenanceHub::new();
        assert!(hub.register("top", queries.prepare_doc_shared(&doc, query.clone())));
        assert!(hub.register("above", queries.prepare_doc_shared(&doc, query.clone())));
        assert!(!hub.register("top", queries.prepare_doc_shared(&doc, query.clone())));
        assert!(hub.register("own", queries.prepare_doc_shared(&doc, own)));
        assert!(hub.register("other", queries.prepare_doc_shared(&other, query.clone())));

        // An on-footprint commit: each stale state patches once.
        engine.apply_doc(&mut doc, &insert_under_services("contact", 0.7));
        hub.observe_commit();
        let fresh = ranked(&queries.prepare_doc_shared(&doc, query.clone()));
        assert!(!fresh.is_empty(), "the view has live answers");
        for name in ["top", "above", "own", "top"] {
            assert_eq!(hub.serve(&doc, name, ranked).unwrap(), fresh, "{name}");
        }
        let served = hub.serve(&other, "other", ranked).unwrap();
        assert_eq!(served, ranked(&queries.prepare_doc_shared(&other, query)));

        let stats = hub.stats();
        assert_eq!(stats.flags_fanned, 4, "one per name");
        assert_eq!(stats.view_maintains, 2, "one per stale state");
        assert_eq!(stats.windows_applied, 2, "the shared state is summed once");
        assert_eq!(stats.fallbacks, 0);
    }
}
