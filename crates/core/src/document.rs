//! Versioned documents: an epoch-stamped prob-tree plus a structured
//! delta log, the handle both engines speak.
//!
//! A [`Document`] owns the current prob-tree behind an [`Arc`] snapshot
//! and stamps every state with a monotone [`Epoch`]. Each
//! [`UpdateEngine::apply_doc`](crate::UpdateEngine::apply_doc) step
//! commits a new epoch together with an [`UpdateDelta`] — the ground
//! truth of what the step did to the tree:
//!
//! * **removed** — nodes of the old frame that the new frame no longer
//!   reaches (deletion targets, pruned branches, merged sibling copies),
//!   reported as a label set;
//! * **inserted** — nodes the step appended to the arena (grafted
//!   insertion subtrees, survivor copies, merge covers), again as labels;
//! * **rewritten** — surviving nodes whose root condition `γ` changed
//!   (deletion splits, cleaning, certain-event pruning).
//!
//! **Node ids are stable.** A commit keeps the id of every node it does
//! not detach, leaves detached nodes in the arena, and appends the nodes
//! it adds; arena slots are never reused. A frame therefore names the
//! same node by the same id from one epoch to the next, and the deltas,
//! the composed [`DeltaWindow`]s and the view patches need no node map.
//! Ids change only at a *rebase*:
//! [`UpdateEngine::stage_doc`](crate::UpdateEngine::stage_doc) compacts a
//! matched step's output when its base frame holds more detached slots
//! than live nodes. The rebasing delta carries the renumbering in
//! [`UpdateDelta::node_map`], and committing it restarts the delta log,
//! so no window ever spans a renumbering.
//!
//! A document remembers whether its frame is a fixpoint of the update
//! engine's simplification. While it is, a simplifying engine's step runs
//! in [`StepScope::Region`](crate::update::engine::StepScope::Region): the
//! engine simplifies only the subtrees the step touched and derives the
//! delta from those same nodes — removed and inserted subtrees, and no
//! rewrites, since cleaning an untouched node changes nothing. Otherwise
//! (a fresh document's first commit, or after a commit whose simplify did
//! not run or did not converge) the step runs over the whole tree and the
//! delta is diffed from the two frames by node id; the property suites
//! keep that diff as the oracle of the region's delta. Either way the
//! delta is exact no matter which simplification passes fired.
//! [`PreparedQuery::maintain`](crate::PreparedQuery::maintain), the one
//! maintenance entry point, composes the pending log into one
//! [`DeltaWindow`] to patch prepared state in place, falling back to a
//! full re-prepare only when the window's label footprint intersects the
//! query's spine labels or the log no longer covers the prepared epoch.
//!
//! Snapshots are cheap ([`Document::snapshot`] clones an `Arc`), so
//! readers hold on to the exact epoch they prepared against while the
//! document moves on.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pxml_tree::NodeId;

use crate::probtree::ProbTree;
use crate::update::engine::StepReport;
use crate::update::simplify::Census;

/// Monotone version stamp of a [`Document`] state. Epoch 0 is the state
/// the document was created with; every committed update step adds 1.
pub type Epoch = u64;

static NEXT_DOCUMENT_ID: AtomicU64 = AtomicU64::new(0);

/// Process-unique identity of a [`Document`], used to reject maintaining
/// prepared state against the wrong document. Ids are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocumentId(u64);

impl DocumentId {
    fn fresh() -> Self {
        DocumentId(NEXT_DOCUMENT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// The structured difference between two consecutive [`Document`] epochs.
#[derive(Clone, Debug)]
pub struct UpdateDelta {
    /// The epoch this delta produced (its step moved `epoch - 1` to
    /// `epoch`).
    pub epoch: Epoch,
    /// `None` for every step but a rebase: node ids are stable, so a
    /// surviving node keeps its id in the new frame. A rebase renumbers
    /// the frame and maps every surviving node of the old frame to its new
    /// id (ids absent from the map were removed); committing it restarts
    /// the document's delta log.
    pub node_map: Option<HashMap<NodeId, NodeId>>,
    /// Labels of the removed old-frame nodes.
    pub removed_labels: BTreeSet<String>,
    /// Labels of the inserted new-frame nodes.
    pub inserted_labels: BTreeSet<String>,
    /// Surviving nodes whose root condition changed, by new-frame id.
    pub rewritten: BTreeSet<NodeId>,
    /// Number of removed old-frame nodes.
    pub nodes_removed: usize,
    /// Number of inserted new-frame nodes.
    pub nodes_inserted: usize,
    /// The engine telemetry of the committing step (matches, survivor
    /// copies, simplification savings, entry-expansion skip).
    pub report: StepReport,
}

impl UpdateDelta {
    /// `true` if the step changed nothing: no node removed, inserted, or
    /// condition-rewritten.
    pub fn is_identity(&self) -> bool {
        self.nodes_removed == 0 && self.nodes_inserted == 0 && self.rewritten.is_empty()
    }

    /// `true` if any removed or inserted label lies in `footprint` — the
    /// spine-intersection test deciding whether prepared state for a
    /// query with that label footprint can be patched in place.
    pub fn touches(&self, footprint: &BTreeSet<String>) -> bool {
        self.removed_labels
            .iter()
            .chain(self.inserted_labels.iter())
            .any(|label| footprint.contains(label))
    }

    /// Diffs two consecutive frames by node id. Both frames must be fully
    /// expanded (the [`Document`] invariant), so arena iteration covers
    /// every logical node. A node is removed if `old` reaches it and `new`
    /// does not, inserted if `new` reaches it and its id lies past `old`'s
    /// arena, and rewritten if both reach it with different conditions.
    /// The whole-scope delta, and the oracle the region-scope delta is
    /// tested against.
    pub(crate) fn diff(old: &ProbTree, new: &ProbTree, epoch: Epoch, report: StepReport) -> Self {
        let mut delta = UpdateDelta::identity(epoch, report);
        if delta.report.matches == 0 {
            return delta; // the step left the tree untouched
        }
        let old_len = old.tree().arena_len();
        let mut attached = vec![false; new.tree().arena_len()];
        let mut visited = 0;
        for node in new.tree().iter() {
            visited += 1;
            attached[node.index()] = true;
            if node.index() >= old_len {
                delta
                    .inserted_labels
                    .insert(new.tree().label(node).to_owned());
                delta.nodes_inserted += 1;
            }
        }
        for node in old.tree().iter() {
            visited += 1;
            if !attached[node.index()] {
                delta
                    .removed_labels
                    .insert(old.tree().label(node).to_owned());
                delta.nodes_removed += 1;
                continue;
            }
            let changed = match (old.condition_ref(node), new.condition_ref(node)) {
                (Some(before), Some(after)) => before != after,
                (None, None) => false,
                (Some(one), None) | (None, Some(one)) => !one.is_empty(),
            };
            if changed {
                delta.rewritten.insert(node);
            }
        }
        delta.report.delta_visited += visited;
        delta
    }

    /// The region-scope delta: the removed and inserted nodes were counted
    /// over the touched subtrees, and no surviving node's condition
    /// changed (cleaning and pruning only rewrite nodes the step added).
    pub(crate) fn from_census(epoch: Epoch, census: Census, report: StepReport) -> Self {
        UpdateDelta {
            removed_labels: census.removed_labels,
            inserted_labels: census.inserted_labels,
            nodes_removed: census.removed_nodes,
            nodes_inserted: census.inserted_nodes,
            ..UpdateDelta::identity(epoch, report)
        }
    }

    /// A delta that changes nothing.
    fn identity(epoch: Epoch, report: StepReport) -> Self {
        UpdateDelta {
            epoch,
            node_map: None,
            removed_labels: BTreeSet::new(),
            inserted_labels: BTreeSet::new(),
            rewritten: BTreeSet::new(),
            nodes_removed: 0,
            nodes_inserted: 0,
            report,
        }
    }
}

/// A composed view of consecutive [`UpdateDelta`]s: one label footprint
/// and one rewritten set covering the whole `from_epoch → to_epoch` span,
/// so prepared state can be brought to the current epoch in a **single**
/// pass instead of once per delta. Node ids are stable across the span (a
/// rebase restarts the log, so no window contains one), so composing is a
/// union and a `from_epoch` node id names the same node at `to_epoch`.
///
/// Built by [`Document::window_since`], which
/// [`PreparedQuery::maintain`](crate::PreparedQuery::maintain) calls after
/// checking that the state was prepared against that document: node ids
/// are per-document, and no entry point takes a window from its caller.
#[derive(Clone, Debug)]
pub struct DeltaWindow {
    /// The epoch a consumer must currently be at to apply this window.
    pub from_epoch: Epoch,
    /// The epoch the window advances to.
    pub to_epoch: Epoch,
    /// Union of the removed labels across the span.
    pub removed_labels: BTreeSet<String>,
    /// Union of the inserted labels across the span.
    pub inserted_labels: BTreeSet<String>,
    /// Surviving nodes whose condition changed at any step of the span.
    /// A node a later step removed may still be listed.
    pub rewritten: BTreeSet<NodeId>,
    /// Number of deltas composed into the window.
    pub steps: usize,
}

impl DeltaWindow {
    /// Composes consecutive deltas of one document's log (oldest first,
    /// starting right after `from_epoch`) into one window.
    ///
    /// # Panics
    /// Panics if the deltas are not consecutive from `from_epoch`.
    pub(crate) fn compose(from_epoch: Epoch, deltas: &[Arc<UpdateDelta>]) -> DeltaWindow {
        let mut window = DeltaWindow {
            from_epoch,
            to_epoch: from_epoch,
            removed_labels: BTreeSet::new(),
            inserted_labels: BTreeSet::new(),
            rewritten: BTreeSet::new(),
            steps: 0,
        };
        for delta in deltas {
            assert_eq!(
                delta.epoch,
                window.to_epoch + 1,
                "windows compose consecutive deltas"
            );
            debug_assert!(delta.node_map.is_none(), "a rebase restarts the log");
            window.to_epoch = delta.epoch;
            window.steps += 1;
            window
                .removed_labels
                .extend(delta.removed_labels.iter().cloned());
            window
                .inserted_labels
                .extend(delta.inserted_labels.iter().cloned());
            window.rewritten.extend(delta.rewritten.iter().copied());
        }
        window
    }

    /// The spine-intersection test of [`UpdateDelta::touches`], over the
    /// whole span at once.
    pub fn touches(&self, footprint: &BTreeSet<String>) -> bool {
        self.removed_labels
            .iter()
            .chain(self.inserted_labels.iter())
            .any(|label| footprint.contains(label))
    }
}

/// Default number of deltas a [`Document`] retains; older entries are
/// trimmed and maintenance against a pre-trim epoch falls back to a full
/// re-prepare.
pub const DEFAULT_DELTA_LOG_CAPACITY: usize = 256;

/// A fully-applied but not-yet-committed update step: the new tree and
/// the delta it commits with, stamped with the document identity and
/// epoch it was staged against.
///
/// Produced by [`UpdateEngine::stage_doc`](crate::UpdateEngine::stage_doc)
/// — which does all the work (matching, grafting, simplification, the
/// delta) against the current snapshot — and committed by
/// [`Document::commit_staged`], which only checks the stamp, swaps the
/// `Arc` and appends the delta to the log. The split is what lets the
/// warehouse server stage steps under a *read* lock and keep its writer
/// lock to the cheap commit.
#[derive(Debug)]
pub struct StagedStep {
    pub(crate) doc: DocumentId,
    pub(crate) base_epoch: Epoch,
    pub(crate) tree: ProbTree,
    pub(crate) delta: UpdateDelta,
    pub(crate) next: NextFrame,
}

/// A document frame known to be a simplify fixpoint, with its logical
/// size: what a region-scoped step needs to know about its base.
#[derive(Clone, Debug)]
pub(crate) struct Fixpoint {
    /// Logical nodes of the frame.
    pub(crate) nodes: usize,
    /// Literals of the frame.
    pub(crate) literals: usize,
}

/// What committing a [`StagedStep`] tells the document about its next
/// frame.
#[derive(Debug)]
pub(crate) enum NextFrame {
    /// The step matched nothing: the frame is the same tree.
    Unchanged,
    /// The step's simplify converged.
    Fixpoint(Fixpoint),
    /// The step's simplify did not run or did not converge.
    Unknown,
}

impl StagedStep {
    /// The document the step was staged against.
    pub fn document(&self) -> DocumentId {
        self.doc
    }

    /// The epoch the step was staged against — the epoch the document
    /// must still be at for [`Document::commit_staged`] to accept it.
    pub fn base_epoch(&self) -> Epoch {
        self.base_epoch
    }
}

/// Why [`Document::commit_staged`] refused a staged step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageConflict {
    /// The step was staged against a different document.
    DocumentMismatch,
    /// Another step committed in between: the staged base epoch no longer
    /// matches the document. Re-stage against the current snapshot.
    EpochConflict {
        /// The epoch the step was staged against.
        staged: Epoch,
        /// The document's current epoch.
        current: Epoch,
    },
}

impl std::fmt::Display for StageConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageConflict::DocumentMismatch => {
                write!(f, "step was staged against a different document")
            }
            StageConflict::EpochConflict { staged, current } => write!(
                f,
                "step staged against epoch {staged} but the document is at {current}"
            ),
        }
    }
}

impl std::error::Error for StageConflict {}

/// A versioned prob-tree handle: the current tree behind an [`Arc`]
/// snapshot, an [`Epoch`] stamp, and the log of [`UpdateDelta`]s that
/// produced it. Both engines speak it —
/// [`QueryEngine::prepare_doc_shared`](crate::QueryEngine::prepare_doc_shared)
/// stamps prepared state with the document's identity and epoch, and
/// [`UpdateEngine::apply_doc`](crate::UpdateEngine::apply_doc) commits
/// new epochs.
///
/// The held tree is always fully expanded: pattern matching, delta
/// diffing, and prepared-query patching all address arena nodes, and the
/// expansion is done once per commit instead of once per reader.
/// (Keeping update-created sharing alive across steps *inside* a
/// document is a known follow-on — see ROADMAP.)
///
/// Its arena may also hold detached slots: commits keep node ids stable
/// and leave removed nodes in place (see the [module docs](self)). A
/// commit rebases once the base frame holds more detached slots than
/// live nodes, so before a rebase there is at most about one detached
/// slot per live node.
#[derive(Debug)]
pub struct Document {
    id: DocumentId,
    epoch: Epoch,
    tree: Arc<ProbTree>,
    /// `log[i]` moved epoch `base_epoch + i` to `base_epoch + i + 1`.
    log: VecDeque<Arc<UpdateDelta>>,
    base_epoch: Epoch,
    log_capacity: usize,
    /// Set while `tree` is a simplify fixpoint (see the module docs).
    fixpoint: Option<Fixpoint>,
}

impl Document {
    /// Wraps a prob-tree as epoch 0 of a fresh document. Shared children
    /// are materialized once, up front (see the type docs).
    pub fn new(tree: ProbTree) -> Self {
        Document::with_log_capacity(tree, DEFAULT_DELTA_LOG_CAPACITY)
    }

    /// [`Document::new`] with an explicit delta-log capacity (0 keeps no
    /// history: every maintenance call behind by more than zero epochs
    /// falls back).
    pub fn with_log_capacity(tree: ProbTree, log_capacity: usize) -> Self {
        let mut tree = tree;
        tree.expand_all();
        Document {
            id: DocumentId::fresh(),
            epoch: 0,
            tree: Arc::new(tree),
            log: VecDeque::new(),
            base_epoch: 0,
            log_capacity,
            fixpoint: None,
        }
    }

    /// The document's process-unique identity.
    pub fn id(&self) -> DocumentId {
        self.id
    }

    /// The current epoch (0 until the first committed step).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The current tree.
    pub fn tree(&self) -> &ProbTree {
        &self.tree
    }

    /// The current frame's simplify-fixpoint record, if any.
    pub(crate) fn fixpoint(&self) -> Option<&Fixpoint> {
        self.fixpoint.as_ref()
    }

    /// A cheap owning snapshot of the current tree (an `Arc` clone).
    pub fn snapshot(&self) -> Arc<ProbTree> {
        Arc::clone(&self.tree)
    }

    /// Number of deltas currently retained.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The deltas moving `epoch` to the current epoch, composed into one
    /// [`DeltaWindow`] covering `epoch → current`; `None` when the log no
    /// longer covers `epoch` — it was trimmed at capacity or restarted by
    /// a rebase — or `epoch` is from the future.
    pub fn window_since(&self, epoch: Epoch) -> Option<DeltaWindow> {
        if epoch > self.epoch || epoch < self.base_epoch {
            return None;
        }
        let skip = (epoch - self.base_epoch) as usize;
        let deltas: Vec<Arc<UpdateDelta>> = self.log.iter().skip(skip).cloned().collect();
        Some(DeltaWindow::compose(epoch, &deltas))
    }

    /// Forks the current state into a fresh document: new identity, epoch
    /// 0, empty delta log, **sharing** the current snapshot `Arc` — the
    /// tree is never mutated in place (commits swap in a new `Arc`), so a
    /// fork is O(1) and copy-on-write falls out: the branches' trees only
    /// diverge when one of them commits. The fork inherits whether the
    /// frame is a simplify fixpoint.
    pub fn fork(&self) -> Document {
        Document {
            id: DocumentId::fresh(),
            epoch: 0,
            tree: Arc::clone(&self.tree),
            log: VecDeque::new(),
            base_epoch: 0,
            log_capacity: self.log_capacity,
            fixpoint: self.fixpoint.clone(),
        }
    }

    /// Commits a [`StagedStep`] as the next epoch, after checking it was
    /// staged against this document's current state (identity *and*
    /// epoch): the optimistic half of the stage/commit split — a
    /// concurrent commit in between surfaces as
    /// [`StageConflict::EpochConflict`] instead of silently applying a
    /// step computed from a stale snapshot.
    ///
    /// A delta with a [`node_map`](UpdateDelta::node_map) is a rebase:
    /// the log restarts at the new epoch, so state prepared against an
    /// earlier epoch re-prepares instead of patching across the
    /// renumbering.
    pub fn commit_staged(&mut self, staged: StagedStep) -> Result<Arc<UpdateDelta>, StageConflict> {
        if staged.doc != self.id {
            return Err(StageConflict::DocumentMismatch);
        }
        if staged.base_epoch != self.epoch {
            return Err(StageConflict::EpochConflict {
                staged: staged.base_epoch,
                current: self.epoch,
            });
        }
        self.epoch += 1;
        debug_assert_eq!(staged.delta.epoch, self.epoch);
        let delta = Arc::new(staged.delta);
        // The replaced frame is dropped here unless a snapshot still holds
        // it (the warehouse keeps one so the drop happens outside its
        // exclusive lock).
        self.tree = Arc::new(staged.tree);
        if delta.node_map.is_some() {
            self.log.clear();
            self.base_epoch = self.epoch;
        } else {
            self.log.push_back(Arc::clone(&delta));
            while self.log.len() > self.log_capacity {
                self.log.pop_front();
                self.base_epoch += 1;
            }
        }
        match staged.next {
            NextFrame::Unchanged => {}
            NextFrame::Fixpoint(fixpoint) => self.fixpoint = Some(fixpoint),
            NextFrame::Unknown => self.fixpoint = None,
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
    use crate::PatternQuery;
    use pxml_tree::DataTree;

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

    /// Every node of `before` that `after` still reaches keeps its id,
    /// label and (unless `rewritten`) condition; exactly `removed` of them
    /// are detached, at their old ids.
    fn assert_ids_kept(
        before: &ProbTree,
        after: &ProbTree,
        removed: usize,
        rewritten: &BTreeSet<NodeId>,
    ) {
        let mut detached = 0;
        for node in before.tree().iter() {
            if !after.tree().is_attached(node) {
                detached += 1;
                continue;
            }
            assert_eq!(before.tree().label(node), after.tree().label(node));
            if !rewritten.contains(&node) {
                assert_eq!(before.condition(node), after.condition(node));
            }
        }
        assert_eq!(detached, removed);
    }

    #[test]
    fn fresh_documents_have_distinct_ids_and_epoch_zero() {
        let a = Document::new(figure1_example());
        let b = Document::new(figure1_example());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.epoch(), 0);
        assert_eq!(a.log_len(), 0);
        assert_eq!(a.window_since(0).map(|w| w.steps), Some(0));
        assert!(a.window_since(1).is_none(), "future epochs are rejected");
    }

    #[test]
    fn insertion_delta_reports_inserted_labels_only() {
        let mut doc = Document::new(figure1_example());
        let before = doc.snapshot();
        let delta = UpdateEngine::new().apply_doc(&mut doc, &insert_under("C", "E", 0.9));
        assert_eq!(doc.epoch(), 1);
        assert_eq!(delta.epoch, 1);
        assert!(!delta.is_identity());
        assert_eq!(delta.nodes_inserted, 1);
        assert_eq!(delta.nodes_removed, 0);
        assert_eq!(delta.inserted_labels, BTreeSet::from(["E".to_owned()]));
        assert!(delta.removed_labels.is_empty());
        // No survivor node changed its condition.
        assert!(delta.rewritten.is_empty());
        assert!(delta.node_map.is_none(), "ids are stable");
        // Every old node survives at its id with its label and condition.
        assert_ids_kept(&before, doc.tree(), 0, &delta.rewritten);
        // The spine-intersection test sees exactly the inserted label.
        assert!(delta.touches(&BTreeSet::from(["E".to_owned()])));
        assert!(!delta.touches(&BTreeSet::from(["B".to_owned(), "D".to_owned()])));
    }

    #[test]
    fn probabilistic_deletion_replaces_the_target_with_a_survivor_copy() {
        // Deleting B with confidence 0.5 keeps a B in the tree — it
        // survives in the worlds where the deletion event is false — but
        // the engine realizes that survivor as a *fresh copy* carrying the
        // `γ ∧ ¬e` condition, not as an in-place rewrite. The delta must
        // say exactly that: one removal and one insertion, both labeled B,
        // so a query whose footprint contains B correctly falls back.
        let mut doc = Document::new(figure1_example());
        let delta = UpdateEngine::new().apply_doc(&mut doc, &delete_at("B", 0.5));
        assert_eq!(delta.nodes_removed, 1);
        assert_eq!(delta.nodes_inserted, 1);
        assert_eq!(delta.removed_labels, BTreeSet::from(["B".to_owned()]));
        assert_eq!(delta.inserted_labels, BTreeSet::from(["B".to_owned()]));
        assert!(delta.rewritten.is_empty());
        assert!(!delta.is_identity());
        assert!(delta.touches(&BTreeSet::from(["B".to_owned()])));
        // The survivor copy is really there, gated on the deletion event.
        let tree = doc.snapshot();
        let survivor = tree
            .tree()
            .iter()
            .find(|&n| tree.tree().label(n) == "B")
            .expect("B survives probabilistic deletion");
        assert!(
            !tree.condition(survivor).is_empty(),
            "the survivor is conditional on the deletion event"
        );
    }

    #[test]
    fn certain_deletion_removes_the_subtree() {
        // Deleting C with confidence 1 removes C and its child D.
        let mut doc = Document::new(figure1_example());
        let delta = UpdateEngine::new().apply_doc(&mut doc, &delete_at("C", 1.0));
        assert_eq!(delta.nodes_removed, 2);
        assert_eq!(
            delta.removed_labels,
            BTreeSet::from(["C".to_owned(), "D".to_owned()])
        );
        assert!(delta.touches(&BTreeSet::from(["D".to_owned()])));
        assert_eq!(doc.tree().num_nodes(), 2, "A and B remain");
    }

    #[test]
    fn no_match_steps_commit_identity_deltas() {
        let mut doc = Document::new(figure1_example());
        let before = doc.snapshot();
        let delta = UpdateEngine::new().apply_doc(&mut doc, &insert_under("Z", "E", 0.9));
        assert_eq!(doc.epoch(), 1, "identity steps still advance the epoch");
        assert!(delta.is_identity());
        assert!(delta.node_map.is_none());
        assert_eq!(
            before.tree().arena_len(),
            doc.tree().tree().arena_len(),
            "an unmatched step appends nothing"
        );
        assert_ids_kept(&before, doc.tree(), 0, &delta.rewritten);
    }

    #[test]
    fn delta_log_trims_at_capacity() {
        let mut doc = Document::with_log_capacity(figure1_example(), 2);
        let engine = UpdateEngine::new();
        for _ in 0..3 {
            engine.apply_doc(&mut doc, &insert_under("C", "E", 0.9));
        }
        assert_eq!(doc.epoch(), 3);
        assert_eq!(doc.log_len(), 2);
        assert!(doc.window_since(0).is_none(), "epoch 0 was trimmed away");
        let pending = doc.window_since(1).expect("epoch 1 still covered");
        assert_eq!((pending.from_epoch, pending.to_epoch), (1, 3));
        assert_eq!(pending.steps, 2);
        assert_eq!(doc.window_since(3).map(|w| w.steps), Some(0));
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let mut doc = Document::new(figure1_example());
        let before = doc.snapshot();
        UpdateEngine::new().apply_doc(&mut doc, &insert_under("C", "E", 1.0));
        assert_eq!(before.num_nodes() + 1, doc.tree().num_nodes());
    }

    #[test]
    fn forks_share_the_snapshot_and_diverge_independently() {
        let mut doc = Document::new(figure1_example());
        UpdateEngine::new().apply_doc(&mut doc, &insert_under("C", "E", 0.9));
        let mut branch = doc.fork();
        assert_ne!(branch.id(), doc.id(), "a fork is its own document");
        assert_eq!(branch.epoch(), 0, "forks restart their epoch line");
        assert_eq!(branch.log_len(), 0);
        assert!(
            Arc::ptr_eq(&doc.snapshot(), &branch.snapshot()),
            "forking is O(1): the tree Arc is shared, not cloned"
        );
        // Divergence on the branch never leaks back: commits swap in a
        // fresh Arc, they do not mutate the shared snapshot.
        UpdateEngine::new().apply_doc(&mut branch, &insert_under("E", "F", 1.0));
        assert_eq!(branch.tree().num_nodes(), doc.tree().num_nodes() + 1);
        assert_eq!(doc.epoch(), 1, "the origin document is untouched");
    }

    #[test]
    fn windows_compose_consecutive_deltas() {
        let mut doc = Document::new(figure1_example());
        let before = doc.snapshot();
        let engine = UpdateEngine::new();
        let deltas = [
            engine.apply_doc(&mut doc, &insert_under("C", "E", 0.9)),
            engine.apply_doc(&mut doc, &delete_at("B", 0.5)),
        ];
        let window = doc.window_since(0).expect("epoch 0 still covered");
        assert_eq!((window.from_epoch, window.to_epoch), (0, 2));
        assert_eq!(window.steps, 2);
        assert_eq!(
            window.inserted_labels,
            BTreeSet::from(["B".to_owned(), "E".to_owned()])
        );
        assert_eq!(window.removed_labels, BTreeSet::from(["B".to_owned()]));
        assert!(window.touches(&BTreeSet::from(["E".to_owned()])));
        assert!(!window.touches(&BTreeSet::from(["D".to_owned()])));
        // Ids are stable across the span: the deleted B is detached at its
        // old id, and every other node of the epoch-0 frame keeps its id.
        assert!(deltas.iter().all(|d| d.node_map.is_none()));
        let removed: usize = deltas.iter().map(|d| d.nodes_removed).sum();
        assert_ids_kept(&before, doc.tree(), removed, &window.rewritten);
        // The window's rewritten set is the union of the deltas'.
        let rewritten: BTreeSet<NodeId> = deltas
            .iter()
            .flat_map(|d| d.rewritten.iter().copied())
            .collect();
        assert_eq!(window.rewritten, rewritten);
        // A window over an empty span is the identity.
        let idle = doc.window_since(2).unwrap();
        assert_eq!(idle.steps, 0);
        assert!(idle.inserted_labels.is_empty() && idle.rewritten.is_empty());
        assert!(doc.window_since(3).is_none(), "future epochs are rejected");
    }

    #[test]
    fn staged_steps_commit_once_and_conflict_after_racing_commits() {
        let mut doc = Document::new(figure1_example());
        let engine = UpdateEngine::new();
        // Two steps staged against the same epoch: the first commits, the
        // second must surface the lost race instead of silently applying
        // a step built against a stale tree.
        let first = engine.stage_doc(&doc, &insert_under("C", "E", 0.9));
        let second = engine.stage_doc(&doc, &insert_under("C", "F", 0.8));
        assert_eq!(first.base_epoch(), 0);
        let delta = doc.commit_staged(first).expect("first commit wins");
        assert_eq!(delta.epoch, 1);
        assert_eq!(
            doc.commit_staged(second).unwrap_err(),
            StageConflict::EpochConflict {
                staged: 0,
                current: 1
            }
        );
        // Steps staged against one document never land on another.
        let mut other = Document::new(figure1_example());
        let foreign = engine.stage_doc(&doc, &insert_under("C", "G", 0.7));
        assert_eq!(
            other.commit_staged(foreign).unwrap_err(),
            StageConflict::DocumentMismatch
        );
        // The stage/commit split computes the same result as apply_doc.
        let mut reference = Document::new(figure1_example());
        engine.apply_doc(&mut reference, &insert_under("C", "E", 0.9));
        assert_eq!(doc.tree().num_nodes(), reference.tree().num_nodes());
    }

    #[test]
    fn script_application_collects_per_step_reports() {
        use crate::update::UpdateScript;
        let mut doc = Document::new(figure1_example());
        let script = UpdateScript::from_steps([
            insert_under("C", "E", 0.9),
            delete_at("B", 0.5),
            insert_under("E", "F", 1.0),
        ]);
        let engine = UpdateEngine::new();
        let reports: Vec<StepReport> = script
            .steps()
            .iter()
            .map(|update| engine.apply_doc(&mut doc, update).report.clone())
            .collect();
        assert_eq!(reports.len(), 3);
        assert_eq!(doc.epoch(), 3);
        assert_eq!(doc.log_len(), 3);
        // The document path computes the same final tree as the borrowed
        // path.
        let (batch, batch_report) = engine.apply_script(&figure1_example(), &script);
        assert_eq!(doc.tree().num_nodes(), batch.expanded().num_nodes());
        assert_eq!(reports.len(), batch_report.steps.len());
        for (a, b) in reports.iter().zip(&batch_report.steps) {
            assert_eq!(a.matches, b.matches);
        }
    }
}
