//! The shared maintenance hub: one delta window per committed span, fanned
//! out to every registered view.
//!
//! Before the hub, N live views over one document each re-threaded the
//! same pending [`pxml_core::UpdateDelta`]s independently — `N × deltas`
//! node-map walks for work that is identical across views. The hub owns
//! the views of one [`Document`] and restores the obvious sharing:
//!
//! * a **commit** is observed once ([`MaintenanceHub::observe_commit`]):
//!   the delta counter advances and a dirty flag is fanned out to every
//!   view — no maintenance work happens on the write path;
//! * a **read** ([`MaintenanceHub::serve`]) lazily brings just the
//!   requested view current. The pending span is composed into one
//!   [`DeltaWindow`] (cached, so concurrent readers of different views
//!   compose it once) and threaded in a single pass via
//!   [`PreparedQuery::maintain_windowed`] — a view that is `d` deltas
//!   behind pays one composed walk, not `d`.
//!
//! The counters ([`MaintenanceHub::stats`]) make the sharing auditable:
//! `view_maintains` grows per *served read batch*, not per view-delta
//! pair, and `windows_composed` stays at one per distinct span.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use pxml_core::{DeltaWindow, Document, Epoch, PreparedQuery};

/// Cumulative counters of one document's maintenance hub — the evidence
/// that N views share one delta thread instead of re-walking it N times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Commits observed (one per committed epoch).
    pub deltas_observed: u64,
    /// Dirty flags fanned out (= commits × views registered at the time).
    pub flags_fanned: u64,
    /// Distinct pending spans composed into a [`DeltaWindow`]. Shared:
    /// views lagging by the same span reuse one composition.
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
    /// Sum of the views' [`pxml_core::MaintainStats::answers_remapped`].
    pub answers_remapped: u64,
    /// Sum of the views' per-semiring cache folds
    /// ([`pxml_core::SemiringCacheStats::computed`]).
    pub semiring_values_computed: u64,
    /// Sum of the views' per-semiring cache hits
    /// ([`pxml_core::SemiringCacheStats::hits`]).
    pub semiring_cache_hits: u64,
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
    }
}

/// One registered view: its prepared state and the commit-side dirty flag.
struct ViewCell {
    prepared: Mutex<PreparedQuery<'static>>,
    dirty: AtomicBool,
}

/// The per-document maintenance hub. See the [module docs](self).
///
/// The hub does not own the [`Document`]; callers pass the document into
/// [`MaintenanceHub::serve`] under whatever locking discipline they use
/// (the warehouse serves it under its per-document reader lock, so the
/// epoch cannot advance mid-serve).
#[derive(Default)]
pub struct MaintenanceHub {
    views: RwLock<BTreeMap<String, Arc<ViewCell>>>,
    /// The last composed window, keyed by its span — concurrent readers
    /// of different views lagging by the same span compose it once.
    window: Mutex<Option<(Epoch, Epoch, Arc<DeltaWindow>)>>,
    deltas_observed: AtomicU64,
    flags_fanned: AtomicU64,
    windows_composed: AtomicU64,
    view_maintains: AtomicU64,
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
        views.insert(
            name.to_owned(),
            Arc::new(ViewCell {
                prepared: Mutex::new(prepared),
                dirty: AtomicBool::new(false),
            }),
        );
        true
    }

    /// The registered view names, sorted.
    pub fn views(&self) -> Vec<String> {
        self.views
            .read()
            .expect("hub views lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Records one committed delta: the write path only counts and fans
    /// out dirty flags — all maintenance work is deferred to the reads
    /// that actually happen.
    pub fn observe_commit(&self) {
        self.deltas_observed.fetch_add(1, Ordering::Relaxed);
        let views = self.views.read().expect("hub views lock poisoned");
        for cell in views.values() {
            cell.dirty.store(true, Ordering::Release);
            self.flags_fanned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serves `view` against `doc`, bringing it current first if any
    /// commit was observed since the view's epoch. Returns `None` for an
    /// unknown view name.
    ///
    /// `doc` must be the document the view was prepared against, held so
    /// its epoch cannot advance during the call (the warehouse passes it
    /// under its reader lock).
    ///
    /// A panic in `f` reaches the caller, but it does not poison the view:
    /// maintenance has finished before `f` runs and `f` only reads the
    /// prepared state, so the view stays whole and later reads serve it.
    /// A panic inside maintenance still poisons the view's lock.
    pub fn serve<T>(
        &self,
        doc: &Document,
        view: &str,
        f: impl FnOnce(&PreparedQuery<'static>) -> T,
    ) -> Option<T> {
        let cell = self
            .views
            .read()
            .expect("hub views lock poisoned")
            .get(view)
            .cloned()?;
        let mut prepared = cell.prepared.lock().expect("view lock poisoned");
        let behind = prepared.document_stamp().map(|(_, e)| e) != Some(doc.epoch());
        if cell.dirty.swap(false, Ordering::AcqRel) || behind {
            self.maintain_view(doc, &mut prepared);
        }
        let served = panic::catch_unwind(AssertUnwindSafe(|| f(&prepared)));
        drop(prepared);
        match served {
            Ok(value) => Some(value),
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Brings one view current through the shared composed window.
    fn maintain_view(&self, doc: &Document, prepared: &mut PreparedQuery<'static>) {
        let (_, from) = prepared
            .document_stamp()
            .expect("hub views are document-backed");
        if from == doc.epoch() {
            return; // flag raced ahead of an identity span — nothing to do
        }
        self.view_maintains.fetch_add(1, Ordering::Relaxed);
        match self.window_for(doc, from) {
            Some(window) => prepared
                .maintain_windowed(doc, &window)
                .expect("view prepared against this document"),
            // The span was trimmed out of the delta log; `maintain`
            // surfaces that as a re-prepare fallback.
            None => prepared
                .maintain(doc)
                .expect("view prepared against this document"),
        };
    }

    /// The composed window covering `from..doc.epoch()`, from the shared
    /// cache when the last reader needed the same span. `None` when the
    /// document's delta log no longer covers `from`.
    fn window_for(&self, doc: &Document, from: Epoch) -> Option<Arc<DeltaWindow>> {
        let mut cache = self.window.lock().expect("hub window lock poisoned");
        if let Some((f, t, window)) = &*cache {
            if *f == from && *t == doc.epoch() {
                return Some(Arc::clone(window));
            }
        }
        let window = Arc::new(doc.window_since(from)?);
        self.windows_composed.fetch_add(1, Ordering::Relaxed);
        *cache = Some((from, doc.epoch(), Arc::clone(&window)));
        Some(window)
    }

    /// A snapshot of the hub counters plus the aggregated maintenance and
    /// semiring-cache telemetry of every registered view.
    pub fn stats(&self) -> HubStats {
        let mut stats = HubStats {
            deltas_observed: self.deltas_observed.load(Ordering::Relaxed),
            flags_fanned: self.flags_fanned.load(Ordering::Relaxed),
            windows_composed: self.windows_composed.load(Ordering::Relaxed),
            view_maintains: self.view_maintains.load(Ordering::Relaxed),
            ..HubStats::default()
        };
        let views = self.views.read().expect("hub views lock poisoned");
        for cell in views.values() {
            let prepared = cell.prepared.lock().expect("view lock poisoned");
            let maint = prepared.maintenance_stats();
            stats.windows_applied += maint.windows_applied as u64;
            stats.steps_patched += maint.steps_patched as u64;
            stats.fallbacks += maint.fallbacks as u64;
            stats.unions_rebuilt += maint.unions_rebuilt as u64;
            stats.unions_carried += maint.unions_carried as u64;
            stats.answers_remapped += maint.answers_remapped as u64;
            let caches = prepared.semiring_cache_stats();
            stats.semiring_values_computed += caches.computed;
            stats.semiring_cache_hits += caches.hits;
        }
        stats
    }
}
