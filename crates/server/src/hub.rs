//! The per-document maintenance hub: the registered views of one
//! document, each brought current by the read that needs it.
//!
//! The hub owns the views of one [`Document`] and keeps maintenance off
//! the write path:
//!
//! * a **commit** is observed once ([`MaintenanceHub::observe_commit`]):
//!   it only advances the counters — no maintenance work happens on the
//!   write path;
//! * a **read** ([`MaintenanceHub::serve`]) lazily brings just the
//!   requested view current: when the view's epoch stamp is behind the
//!   document's epoch, [`PreparedQuery::maintain`] composes the pending
//!   span into one [`pxml_core::DeltaWindow`] and patches the view in a
//!   single pass — a view that is `d` deltas behind pays one pass, not
//!   `d`. Node ids are stable between rebases, so the patch renumbers no
//!   answer; a view behind a rebase finds its span gone from the log and
//!   re-prepares once.
//!
//! The counters ([`MaintenanceHub::stats`]) make the laziness auditable:
//! `view_maintains` grows per *served read of a stale view*, not per
//! view-delta pair.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use pxml_core::{Document, FallbackReason, MaintainOutcome, PreparedQuery};

/// Cumulative counters of one document's maintenance hub, plus the summed
/// telemetry of its views — the evidence that maintenance is lazy: one
/// pass per served read of a stale view, not one per view-delta pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Commits observed (one per committed epoch).
    pub deltas_observed: u64,
    /// Views a commit left stale (= commits × views registered at the
    /// time). Kept until the benchmark harness stops reading it.
    pub flags_fanned: u64,
    /// Maintenance passes that composed a [`pxml_core::DeltaWindow`]:
    /// every pass but a [`FallbackReason::LogTrimmed`] re-prepare. Kept
    /// until the benchmark harness stops reading it.
    pub windows_composed: u64,
    /// View maintenance passes performed on the read path. Lazy: grows
    /// per served read of a stale view, **not** per view-delta pair.
    pub view_maintains: u64,
    /// Sum of the views' [`pxml_core::MaintainStats::windows_applied`].
    pub windows_applied: u64,
    /// Sum of the views' [`pxml_core::MaintainStats::steps_patched`].
    pub steps_patched: u64,
    /// Sum of the views' [`pxml_core::MaintainStats::fallbacks`].
    pub fallbacks: u64,
    /// Sum of the views' [`pxml_core::MaintainStats::unions_rebuilt`].
    pub unions_rebuilt: u64,
    /// Sum of the views' [`pxml_core::MaintainStats::unions_carried`].
    pub unions_carried: u64,
    /// Always 0: node ids are stable between rebases, so maintenance
    /// renumbers no answer. Kept until the benchmark harness stops
    /// reading it.
    pub answers_remapped: u64,
    /// Sum of the views' per-semiring cache folds
    /// ([`pxml_core::SemiringCacheStats::computed`]).
    pub semiring_values_computed: u64,
    /// Sum of the views' per-semiring cache hits
    /// ([`pxml_core::SemiringCacheStats::hits`]).
    pub semiring_cache_hits: u64,
    /// Reads that found a view's lock poisoned by a maintenance pass that
    /// panicked, cleared the poison and maintained the view as usual.
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

/// The per-document maintenance hub. See the [module docs](self).
///
/// The hub does not own the [`Document`]; callers pass the document into
/// [`MaintenanceHub::serve`] under whatever locking discipline they use
/// (the warehouse serves it under its per-document reader lock, so the
/// epoch cannot advance mid-serve).
#[derive(Default)]
pub struct MaintenanceHub {
    views: RwLock<BTreeMap<String, Arc<Mutex<PreparedQuery<'static>>>>>,
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
    pub fn register(&self, name: &str, prepared: PreparedQuery<'static>) -> bool {
        let mut views = self.views.write().expect("hub views lock poisoned");
        if views.contains_key(name) {
            return false;
        }
        views.insert(name.to_owned(), Arc::new(Mutex::new(prepared)));
        true
    }

    /// Records one committed delta: the write path only counts — all
    /// maintenance work is deferred to the reads that actually happen.
    pub fn observe_commit(&self) {
        self.deltas_observed.fetch_add(1, Ordering::Relaxed);
        let views = self.views.read().expect("hub views lock poisoned").len();
        self.flags_fanned.fetch_add(views as u64, Ordering::Relaxed);
    }

    /// Serves `view` against `doc`, bringing it current first with
    /// [`PreparedQuery::maintain`] if its epoch stamp is behind `doc`'s
    /// epoch. Returns `None` for an unknown view name.
    ///
    /// `doc` must be the document the view was prepared against, held so
    /// its epoch cannot advance during the call (the warehouse passes it
    /// under its reader lock).
    ///
    /// A panic in `f` reaches the caller, but it does not poison the view:
    /// maintenance has finished before `f` runs and `f` only reads the
    /// prepared state, so the view stays whole and later reads serve it.
    /// A semiring that panics inside `f` poisons only the view's semiring
    /// cache, which the prepared state reads through the poison, so later
    /// reads, [`MaintenanceHub::stats`] and maintenance go on working.
    ///
    /// A panic inside maintenance poisons the view's lock; the next read
    /// clears the poison, counts [`HubStats::views_recovered`] and
    /// maintains as usual. Maintenance runs foreign code (the view's
    /// query) only inside a re-prepare that assigns the rebuilt state once
    /// built, so a poisoned view holds its state from before that pass.
    pub fn serve<T>(
        &self,
        doc: &Document,
        view: &str,
        f: impl FnOnce(&PreparedQuery<'static>) -> T,
    ) -> Option<T> {
        let view = self
            .views
            .read()
            .expect("hub views lock poisoned")
            .get(view)
            .cloned()?;
        let mut prepared = view.lock().unwrap_or_else(|poisoned| {
            view.clear_poison();
            self.views_recovered.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        });
        let (_, epoch) = prepared
            .document_stamp()
            .expect("hub views are document-backed");
        if epoch != doc.epoch() {
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
        let served = panic::catch_unwind(AssertUnwindSafe(|| f(&prepared)));
        drop(prepared);
        match served {
            Ok(value) => Some(value),
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// A snapshot of the hub counters plus the aggregated maintenance and
    /// semiring-cache telemetry of every registered view.
    ///
    /// A view whose maintenance panicked is read through its poisoned
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
        for view in views.values() {
            let prepared = view.lock().unwrap_or_else(PoisonError::into_inner);
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
        assert_eq!((stats.windows_applied, stats.fallbacks), (1, 1));
        // A current view is served without another pass.
        hub.serve(&doc, "q", ranked).unwrap();
        assert_eq!(hub.stats().view_maintains, 2);
        assert!(hub.serve(&doc, "missing", ranked).is_none());
    }
}
