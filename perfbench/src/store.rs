//! The two ways a pass reaches the warehouse layers.
//!
//! [`Public`] calls the entry points users call: `Warehouse::commit` and
//! the warehouse's view reads. The end-to-end metrics come from it.
//! [`Layered`] makes the calls those entry points make, one layer at a
//! time, on its own `Document`s and hubs, with a span around each. Both
//! must produce the same exact counters.

use std::sync::Arc;

use pxml_core::query::Query;
use pxml_core::update::ProbabilisticUpdate;
use pxml_core::{
    AnswerSet, Document, Epoch, PreparedQuery, ProbTree, QueryEngine, UpdateDelta, UpdateEngine,
    DEFAULT_DELTA_LOG_CAPACITY,
};
use pxml_events::Possibility;
use pxml_server::hub::MaintenanceHub;
use pxml_server::{HubStats, Warehouse};

use crate::trace::{Span, Tracer};

/// `k` of the top-k view read.
const TOP_K: usize = 3;
/// Threshold of the above-threshold view read.
const THRESHOLD: f64 = 0.5;

/// The four view reads, one hub view each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    Top,
    Above,
    Expected,
    Possible,
}

pub const READ_KINDS: [ReadKind; 4] = [
    ReadKind::Top,
    ReadKind::Above,
    ReadKind::Expected,
    ReadKind::Possible,
];

impl ReadKind {
    /// The name of the view this read is served from.
    pub fn view(self) -> &'static str {
        match self {
            ReadKind::Top => "top",
            ReadKind::Above => "above",
            ReadKind::Expected => "expected",
            ReadKind::Possible => "possible",
        }
    }
}

/// What one view read returned.
pub enum Served {
    Answers(AnswerSet),
    Expected(f64),
    Possible(usize),
}

/// The selection a view read runs on prepared state: the closures
/// `Warehouse::top_k`, `above`, `expected_matches` and `possible_count`
/// hand to the hub.
pub fn select(prepared: &PreparedQuery<'_>, kind: ReadKind) -> Served {
    match kind {
        ReadKind::Top => Served::Answers(prepared.top_k(TOP_K)),
        ReadKind::Above => Served::Answers(prepared.above(THRESHOLD)),
        ReadKind::Expected => Served::Expected(prepared.expected_matches()),
        ReadKind::Possible => Served::Possible(
            prepared
                .answers_in_cached(&Possibility)
                .into_iter()
                .filter(|(_, possible)| *possible)
                .count(),
        ),
    }
}

/// Documents with hub views, reached one way or the other.
pub trait Store {
    /// Registers `tree` as the next document; returns its index.
    fn register(&mut self, tree: ProbTree) -> usize;
    fn register_view(&mut self, doc: usize, kind: ReadKind, query: Arc<dyn Query>);
    fn commit(
        &mut self,
        doc: usize,
        update: &ProbabilisticUpdate,
    ) -> Result<Arc<UpdateDelta>, String>;
    fn read(&mut self, doc: usize, kind: ReadKind) -> Result<Served, String>;
    /// The document's current epoch and tree.
    fn snapshot(&self, doc: usize) -> (Epoch, Arc<ProbTree>);
    /// Hub counters summed over every document.
    fn hub_stats(&self) -> HubStats;
    /// Starts or stops recording spans; without a tracer, nothing.
    fn set_tracing(&mut self, _on: bool) {}
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

/// The public entry points of one [`Warehouse`].
#[derive(Default)]
pub struct Public {
    warehouse: Warehouse,
    names: Vec<String>,
}

impl Store for Public {
    fn register(&mut self, tree: ProbTree) -> usize {
        let name = format!("doc{}", self.names.len());
        self.warehouse
            .register(&name, tree)
            .expect("document names are fresh");
        self.names.push(name);
        self.names.len() - 1
    }

    fn register_view(&mut self, doc: usize, kind: ReadKind, query: Arc<dyn Query>) {
        self.warehouse
            .register_view(&self.names[doc], kind.view(), query)
            .expect("view names are fresh");
    }

    fn commit(
        &mut self,
        doc: usize,
        update: &ProbabilisticUpdate,
    ) -> Result<Arc<UpdateDelta>, String> {
        self.warehouse
            .commit(&self.names[doc], update)
            .map_err(|error| error.to_string())
    }

    fn read(&mut self, doc: usize, kind: ReadKind) -> Result<Served, String> {
        let (name, view) = (self.names[doc].as_str(), kind.view());
        let served = match kind {
            ReadKind::Top => self.warehouse.top_k(name, view, TOP_K).map(Served::Answers),
            ReadKind::Above => self
                .warehouse
                .above(name, view, THRESHOLD)
                .map(Served::Answers),
            ReadKind::Expected => self
                .warehouse
                .expected_matches(name, view)
                .map(Served::Expected),
            ReadKind::Possible => self
                .warehouse
                .possible_count(name, view)
                .map(Served::Possible),
        };
        served.map_err(|error| error.to_string())
    }

    fn snapshot(&self, doc: usize) -> (Epoch, Arc<ProbTree>) {
        let snapshot = self
            .warehouse
            .snapshot(&self.names[doc])
            .expect("registered document");
        (snapshot.epoch, snapshot.tree)
    }

    fn hub_stats(&self) -> HubStats {
        let mut total = HubStats::default();
        for name in &self.names {
            total += self.warehouse.hub_stats(name).expect("registered document");
        }
        total
    }
}

/// The layers [`Public`]'s entry points call, each called directly with a
/// span around it.
#[derive(Default)]
pub struct Layered {
    docs: Vec<(Document, MaintenanceHub)>,
    updates: UpdateEngine,
    queries: QueryEngine,
    tracer: Tracer,
}

impl Store for Layered {
    fn register(&mut self, tree: ProbTree) -> usize {
        let span = self.tracer.begin("document.new");
        let doc = Document::with_log_capacity(tree, DEFAULT_DELTA_LOG_CAPACITY);
        self.tracer.end(span);
        self.docs.push((doc, MaintenanceHub::new()));
        self.docs.len() - 1
    }

    fn register_view(&mut self, doc: usize, kind: ReadKind, query: Arc<dyn Query>) {
        let (document, hub) = &self.docs[doc];
        let span = self.tracer.begin("query.prepare");
        let prepared = self.queries.prepare_doc_shared(document, query);
        self.tracer.end(span);
        assert!(hub.register(kind.view(), prepared), "view names are fresh");
    }

    /// Staging, the commit the warehouse holds its exclusive lock for, and
    /// the hub's observation: the calls `Warehouse::commit` makes.
    fn commit(
        &mut self,
        doc: usize,
        update: &ProbabilisticUpdate,
    ) -> Result<Arc<UpdateDelta>, String> {
        let (document, hub) = &mut self.docs[doc];
        let tracer = &mut self.tracer;
        let request = tracer.request("commit");
        let span = tracer.begin("update.stage");
        let staged = self.updates.stage_doc(document, update);
        tracer.end(span);
        let span = tracer.begin("document.commit");
        let committed = document.commit_staged(staged);
        tracer.end(span);
        if committed.is_ok() {
            let span = tracer.begin("hub.observe");
            hub.observe_commit();
            tracer.end(span);
        }
        tracer.end(request);
        committed.map_err(|conflict| conflict.to_string())
    }

    /// The hub's serve, with the selection timed inside its closure: the
    /// serve span's self time is the lazy maintenance.
    fn read(&mut self, doc: usize, kind: ReadKind) -> Result<Served, String> {
        let (document, hub) = &self.docs[doc];
        let tracer = &mut self.tracer;
        let request = tracer.request("read");
        let span = tracer.begin("hub.serve");
        let served = hub.serve(document, kind.view(), |prepared| {
            let span = tracer.begin("query.select");
            let served = select(prepared, kind);
            tracer.end(span);
            served
        });
        tracer.end(span);
        tracer.end(request);
        served.ok_or_else(|| format!("unknown view {:?}", kind.view()))
    }

    fn snapshot(&self, doc: usize) -> (Epoch, Arc<ProbTree>) {
        let (document, _) = &self.docs[doc];
        (document.epoch(), document.snapshot())
    }

    fn hub_stats(&self) -> HubStats {
        let mut total = HubStats::default();
        for (_, hub) in &self.docs {
            total += hub.stats();
        }
        total
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.tracer.take()
    }
}
