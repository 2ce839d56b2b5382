//! The prepared, streaming query engine.
//!
//! [`QueryEngine::prepare`] evaluates the match set and the per-answer
//! condition unions of Definition 8 **exactly once** and returns a
//! [`PreparedQuery`] that serves every consumer from that shared state —
//! the shape ranked retrieval needs, where an application prepares a query
//! once and then asks for the top few answers, a threshold slice, or an
//! aggregate, over and over:
//!
//! * [`PreparedQuery::answers`] — a lazy stream; probabilities are only
//!   computed for the answers actually pulled;
//! * [`PreparedQuery::top_k`] — the `k` best answers via a bounded binary
//!   heap, `O(n log k)` comparisons instead of a full `O(n log n)` sort,
//!   with tie-break keys built at most once per answer and cached, across
//!   [`PreparedQuery::maintain`]'s patches too;
//! * [`PreparedQuery::above`] — a threshold slice that ranks the
//!   qualifying interned condition slots, not the answers, and compares
//!   answers only inside a run of equal probability; non-qualifying
//!   answers never enter a sort;
//! * [`PreparedQuery::expected_matches`], [`PreparedQuery::probability_of`]
//!   — aggregates and point lookups;
//! * [`PreparedQuery::theorem1_check`] — the Theorem 1 cross-check through
//!   the factorized world engine, within the default world budget
//!   ([`DEFAULT_MAX_EXHAUSTIVE_EVENTS`](crate::DEFAULT_MAX_EXHAUSTIVE_EVENTS)).
//!
//! There are two entry points: [`QueryEngine::prepare`] borrows a tree
//! and a query, and [`QueryEngine::prepare_doc_shared`] snapshots a
//! [`Document`] epoch and shares the query, so the state can be kept
//! current with [`PreparedQuery::maintain`] as the document commits.
//!
//! A read returns node sets and probabilities ([`ProbAnswer`]) and copies
//! no tree. Building an answer's tree ([`SubDataTree::to_tree`]), which a
//! caller does on demand, and keying it
//! ([`canonical_string`](pxml_tree::canonical_string)) cost time in the
//! answer's size, whatever the size of the document: a read pays for what
//! it selects.
//!
//! Condition unions are **interned**: distinct answers sharing the same
//! union (common in fan-out-heavy trees where siblings inherit one
//! ancestor condition) share one [`Condition`] and one lazily-computed
//! probability. The union itself is a single sorted merge
//! ([`Condition::union_of`]) instead of the quadratic repeated
//! [`Condition::and`] fold.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pxml_events::{Condition, Semiring};
use pxml_tree::canon::Semantics;
use pxml_tree::subtree::SubDataTree;
use pxml_tree::NodeId;

use crate::document::{Document, DocumentId, Epoch, UpdateDelta};
use crate::probtree::ProbTree;
use crate::pwset::PossibleWorldSet;
use crate::semantics::possible_worlds_normalized;

use super::prob::{query_pw_set, ProbAnswer};
use super::{MonotonicityCertificate, Query, Theorem1Error};

/// The query engine, from which [`PreparedQuery`] states are built
/// through one of two entry points — [`QueryEngine::prepare`] over a
/// borrowed tree, or [`QueryEngine::prepare_doc_shared`] over a
/// [`Document`] snapshot.
#[derive(Clone, Debug, Default)]
pub struct QueryEngine;

impl QueryEngine {
    /// A query engine.
    pub fn new() -> Self {
        QueryEngine
    }

    /// Evaluates the match set and the per-answer condition unions of
    /// Definition 8 — once — and returns the prepared state every
    /// consumer (stream, top-k, threshold, aggregates, Theorem 1 check)
    /// is served from.
    ///
    /// The query runs on the underlying data tree through
    /// [`Query::evaluate`] (for [`crate::PatternQuery`] this is the
    /// seeded matcher); each answer's condition union is a single
    /// sorted merge over its node conditions and is interned so equal
    /// unions share one condition and one lazily-computed probability.
    /// Cost: `time(Q(t)) + O(|Q(t)| · |T|)` (Proposition 2) — with no
    /// probability evaluation or sorting until a consumer asks, and no
    /// answer tree built by any read.
    pub fn prepare<'a>(&self, tree: &'a ProbTree, query: &'a dyn Query) -> PreparedQuery<'a> {
        build_prepared(Source::Borrowed { tree, query })
    }

    /// Prepares against the current epoch of a [`Document`], from a
    /// shared owning query handle. The returned state holds a cheap
    /// owning snapshot of the document's tree and is stamped with the
    /// document's identity and epoch, so it stays servable while the
    /// document moves on — and can be brought back up to date in place
    /// with [`PreparedQuery::maintain`]. It borrows nothing
    /// (`PreparedQuery<'static>`), so it can be stored in long-lived
    /// registries and moved or shared across threads — the shape the
    /// warehouse server keeps per registered view. `Query` is
    /// `Send + Sync` by supertrait, so the state stays shareable.
    pub fn prepare_doc_shared(
        &self,
        doc: &Document,
        query: Arc<dyn Query>,
    ) -> PreparedQuery<'static> {
        build_prepared(Source::document(doc, query))
    }
}

/// The one place prepared state is built — shared by both entry points
/// and by the maintenance fallback, so all three produce byte-identical
/// layouts (answer order, interning order, empty caches). The answers
/// ascend by node set, which point lookups search and maintenance merges
/// in; a query whose answers do not ascend already is sorted once here.
fn build_prepared(source: Source<'_>) -> PreparedQuery<'_> {
    let mut subtrees = source.query().evaluate(source.tree().tree());
    if !subtrees.is_sorted() {
        subtrees.sort_unstable();
    }
    let footprint = source.query().label_footprint();
    let mut prepared = PreparedQuery {
        source,
        footprint,
        maint: MaintainStats::default(),
        answers: Vec::with_capacity(subtrees.len()),
        conditions: Vec::new(),
        interned: HashMap::new(),
        probabilities: Vec::new(),
        tie_keys: std::iter::repeat_with(OnceLock::new)
            .take(subtrees.len())
            .collect(),
        semiring: Mutex::new(SemiringCaches::default()),
    };
    for subtree in subtrees {
        let union = union_over(prepared.tree(), &subtree);
        let condition = prepared.intern(union);
        prepared.answers.push(AnswerState { subtree, condition });
    }
    prepared
}

/// The condition union `⋃_{n ∈ u} γ(n)` of the answer `subtree` in `tree`.
fn union_over(tree: &ProbTree, subtree: &SubDataTree) -> Condition {
    Condition::union_of(subtree.nodes().filter_map(|n| tree.condition_ref(n)))
}

/// What a patch does with one answer it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Survival {
    /// Every node is attached and no delta rewrote one: the answer keeps
    /// its union slot.
    Clean,
    /// A delta rewrote the condition of one of its nodes: its union is
    /// rebuilt.
    Dirty,
    /// The new frame no longer reaches one of its nodes.
    Dropped,
}

/// One answer in the prepared state: its node set and the index of its
/// interned condition union.
#[derive(Clone, Debug)]
struct AnswerState {
    subtree: SubDataTree,
    condition: usize,
}

/// Where a [`PreparedQuery`]'s tree and query come from — one variant per
/// entry point.
enum Source<'a> {
    /// [`QueryEngine::prepare`]: a borrowed query over a borrowed tree.
    Borrowed {
        tree: &'a ProbTree,
        query: &'a dyn Query,
    },
    /// [`QueryEngine::prepare_doc_shared`]: an owning snapshot of one
    /// [`Document`] epoch, which keeps serving after the document commits
    /// further epochs, a shared query, and the document's identity and
    /// epoch the snapshot was taken at.
    Document {
        tree: Arc<ProbTree>,
        query: Arc<dyn Query>,
        id: DocumentId,
        epoch: Epoch,
    },
}

impl Source<'_> {
    /// The current epoch of `doc`, queried by `query`.
    fn document(doc: &Document, query: Arc<dyn Query>) -> Self {
        Source::Document {
            tree: doc.snapshot(),
            query,
            id: doc.id(),
            epoch: doc.epoch(),
        }
    }

    fn tree(&self) -> &ProbTree {
        match self {
            Source::Borrowed { tree, .. } => tree,
            Source::Document { tree, .. } => tree,
        }
    }

    fn query(&self) -> &dyn Query {
        match self {
            Source::Borrowed { query, .. } => *query,
            Source::Document { query, .. } => &**query,
        }
    }
}

/// Cumulative telemetry of the per-semiring value caches: the non-`f64`
/// twin of the probability cache, proving the warehouse's lineage and
/// possibility views recompute only what maintenance dirtied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SemiringCacheStats {
    /// Condition values computed by a semiring fold (cache misses).
    pub computed: u64,
    /// Condition values served from the cache.
    pub hits: u64,
}

/// Cached per-condition semiring values, keyed by semiring type: one
/// slot per interned condition, `None` until computed — and back to
/// `None` when maintenance rebuilds the union (the same dirty flags that
/// drop the cached `f64`).
#[derive(Default)]
struct SemiringCaches {
    slots: HashMap<TypeId, Vec<CachedSemiringValue>>,
    stats: SemiringCacheStats,
}

/// One interned condition's cached value for one semiring instance:
/// `None` until computed, type-erased so every semiring shares the map.
type CachedSemiringValue = Option<Box<dyn Any + Send>>;

/// Cumulative maintenance telemetry of one [`PreparedQuery`] — the
/// counters the cross-check suites use to prove the patched path did not
/// silently fall back ([`fallbacks`](MaintainStats::fallbacks) stays 0
/// between rebases for every [`crate::PatternQuery`], and for any query
/// that re-matches at the appended nodes under a sound footprint) and did
/// less work than re-preparing
/// ([`unions_rebuilt`](MaintainStats::unions_rebuilt) vs the fresh
/// prepare's one-union-per-answer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Deltas patched in place across all maintenance calls.
    pub steps_patched: usize,
    /// Full re-prepares forced by a fallback.
    pub fallbacks: usize,
    /// Per-answer condition unions a patch built: one for each answer
    /// holding a node some delta rewrote, and one for each answer the
    /// re-match found.
    pub unions_rebuilt: usize,
    /// Per-answer condition unions carried over unchanged (with their
    /// cached probabilities).
    pub unions_carried: usize,
    /// Patch passes: every patched [`PreparedQuery::maintain`] call reads
    /// all its pending deltas in a single pass (they still count one each
    /// in [`steps_patched`](MaintainStats::steps_patched)).
    pub windows_applied: usize,
    /// Data nodes the re-matches read ([`Query::evaluate_appended`]'s
    /// count): the appended slots, the candidate roots and the candidates
    /// tested against a pattern node. A patch whose deltas meet no
    /// footprint label re-matches nothing; a query without a footprint
    /// re-matches on every patch.
    pub rematch_visited: usize,
}

/// What one [`PreparedQuery::maintain`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainOutcome {
    /// The prepared state already matches the document's epoch.
    UpToDate,
    /// All pending deltas were patched in place.
    Patched {
        /// Number of deltas patched.
        steps: usize,
    },
    /// Patching was not possible; the state was rebuilt by a full
    /// re-prepare against the document's current epoch (still in place —
    /// the prepared query is up to date afterwards either way).
    Fallback {
        /// Why the patch path was abandoned.
        reason: FallbackReason,
    },
}

/// Why [`PreparedQuery::maintain`] fell back to a full re-prepare. A
/// [`crate::PatternQuery`] falls back only behind a trimmed or restarted
/// log; the other two reasons concern foreign [`Query`] implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// A delta inserted or removed a label inside the query's footprint
    /// (every delta does, for a query without one), and the query cannot
    /// find its answers through the appended nodes: it does not provide
    /// [`Query::evaluate_appended`], so only evaluating the whole tree can
    /// tell the new match set.
    SpineTouched,
    /// The document's delta log no longer covers this state's epoch: it
    /// was trimmed at capacity, or restarted by a rebase — a commit that
    /// renumbered the frame, announced by its delta's
    /// [`node_map`](crate::UpdateDelta::node_map).
    LogTrimmed,
    /// A patched answer holds a node the new frame no longer reaches,
    /// though no pending delta inserted or removed a footprint label —
    /// impossible for a sound footprint, kept as a safety net for a
    /// foreign [`Query`] with an unsound one rather than a panic.
    AnswerDisplaced,
}

/// Error of [`PreparedQuery::maintain`]: the call itself was invalid
/// (as opposed to a valid call that had to fall back — that is a
/// [`MaintainOutcome::Fallback`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainError {
    /// The state came from [`QueryEngine::prepare`], which has no
    /// document identity or epoch to maintain against.
    NotDocumentBacked,
    /// The state was prepared against a different [`Document`].
    DocumentMismatch,
    /// The document's epoch is *behind* the prepared state's — the handle
    /// passed in is not the one the state was prepared against.
    EpochRewound,
}

impl std::fmt::Display for MaintainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintainError::NotDocumentBacked => {
                write!(f, "prepared state is not backed by a document")
            }
            MaintainError::DocumentMismatch => {
                write!(f, "prepared state belongs to a different document")
            }
            MaintainError::EpochRewound => {
                write!(f, "document epoch is behind the prepared state")
            }
        }
    }
}

impl std::error::Error for MaintainError {}

/// The shared state [`QueryEngine::prepare`] computes once per
/// `(tree, query)` pair: the match set (ascending by node set) and
/// the interned per-answer condition unions. Everything else —
/// probabilities, tie-break keys, rankings — is computed on demand and
/// cached where re-use pays (probabilities per interned condition,
/// tie-break keys per answer). No read builds an answer's tree.
pub struct PreparedQuery<'a> {
    /// The queried tree and the query, borrowed or document-backed.
    source: Source<'a>,
    /// The query's label footprint, computed once at prepare time — the
    /// label set [`PreparedQuery::maintain`] checks deltas against.
    footprint: Option<BTreeSet<String>>,
    /// Cumulative maintenance counters.
    maint: MaintainStats,
    answers: Vec<AnswerState>,
    /// Distinct condition unions, one slot each: in first-occurrence order
    /// after a prepare, with a patch's new unions appended, and renumbered
    /// in first-occurrence order when a patch leaves a slot unused.
    conditions: Vec<Condition>,
    /// The slot of each union in `conditions`.
    interned: HashMap<Condition, usize>,
    /// Lazily-computed `eval` probability of each interned condition.
    probabilities: Vec<OnceLock<f64>>,
    /// Lazily-built canonical tie-break key of each answer, kept by
    /// patches.
    tie_keys: Vec<OnceLock<String>>,
    /// Lazily-computed per-condition values of non-`f64` semirings,
    /// keyed by semiring type (see
    /// [`PreparedQuery::answers_in_cached`]). A `Mutex` rather than a
    /// `RefCell` so the state stays `Sync` for the warehouse server's
    /// shared views; the lock is only held for the duration of one cache
    /// sweep. A caller's semiring that panics mid-sweep poisons the lock,
    /// and every access reads through the poison: a slot is written only
    /// after its value is computed, so a poisoned cache holds only correct
    /// values (the `computed` counter may count the attempt that panicked).
    semiring: Mutex<SemiringCaches>,
}

impl<'a> PreparedQuery<'a> {
    /// The prob-tree the query was prepared against (the stamped epoch's
    /// snapshot when document-backed).
    pub fn tree(&self) -> &ProbTree {
        self.source.tree()
    }

    /// Identity and epoch of the backing [`Document`], `None` for state
    /// built by [`QueryEngine::prepare`].
    pub fn document_stamp(&self) -> Option<(DocumentId, Epoch)> {
        match self.source {
            Source::Borrowed { .. } => None,
            Source::Document { id, epoch, .. } => Some((id, epoch)),
        }
    }

    /// The label footprint maintenance checks deltas against (`None` =
    /// unbounded, as for a pattern with a wildcard that has no labelled
    /// node below it: every delta counts as meeting it, so every patch
    /// re-matches at the appended nodes).
    pub fn footprint(&self) -> Option<&BTreeSet<String>> {
        self.footprint.as_ref()
    }

    /// Cumulative maintenance telemetry.
    pub fn maintenance_stats(&self) -> MaintainStats {
        self.maint
    }

    /// Brings document-backed prepared state up to date with `doc`: reads
    /// the pending deltas ([`Document::deltas_since`]) and patches the
    /// state in place in one pass. Node ids are stable across the pending
    /// deltas, and a commit appends the nodes it adds, so by local
    /// monotonicity (Definition 6) the new frame's answers are the old
    /// answers it still reaches plus the answers that hold an appended
    /// node. The patch drops the answers holding a node the frame no
    /// longer reaches, re-matches only around the appended nodes when a
    /// pending delta inserted or removed a label of the query's
    /// [footprint](Query::label_footprint)
    /// ([`Query::evaluate_appended`]), merges what it finds into the
    /// answer order, rebuilds the condition unions of answers holding a
    /// node some delta rewrote, and swaps the snapshot and the stamp. A
    /// query without a footprint, such as a pattern with a wildcard leaf,
    /// re-matches on every patch. Falls back to a full re-prepare against
    /// the current epoch when a pending delta meets the footprint and the
    /// query cannot re-match at the appended nodes, or the delta log no
    /// longer covers the state's epoch (trimmed at capacity, or restarted
    /// by a rebase); the state is up to date on return either way.
    ///
    /// Patched state serves what a fresh prepare on the document's current
    /// tree serves: the same answers in the same order, the same distinct
    /// conditions, bit-identical probabilities, and every selection's
    /// [`SelectionStats`] equal but for
    /// [`tie_keys_built`](SelectionStats::tie_keys_built)
    /// (property-tested against the fresh-prepare oracle). A patch keeps
    /// the tie-break keys earlier selections built, so a selection builds
    /// only the keys the state still lacks, where a fresh prepare builds
    /// every key it compares.
    ///
    /// The query's own code (the re-match, or a re-prepare's evaluation)
    /// runs before the state is mutated, so a panic in it leaves the
    /// state as it was before the call.
    pub fn maintain(&mut self, doc: &Document) -> Result<MaintainOutcome, MaintainError> {
        let Some((id, epoch)) = self.document_stamp() else {
            return Err(MaintainError::NotDocumentBacked);
        };
        if id != doc.id() {
            return Err(MaintainError::DocumentMismatch);
        }
        if doc.epoch() < epoch {
            return Err(MaintainError::EpochRewound);
        }
        if doc.epoch() == epoch {
            return Ok(MaintainOutcome::UpToDate);
        }
        Ok(match doc.deltas_since(epoch) {
            Some(pending) => self.patch(doc, pending),
            None => self.reprepare(doc, FallbackReason::LogTrimmed),
        })
    }

    /// Patches the state through the `pending` deltas, which move its
    /// epoch to `doc`'s. Node ids are stable across them, so a surviving
    /// answer keeps its node set, and its place relative to the other
    /// survivors. The plan reads everything before the state is mutated:
    /// the re-match at the slots past the snapshot's arena (only when a
    /// delta meets the footprint, and always without one), then, only when
    /// a delta removed or rewrote a node, each answer against the new
    /// snapshot. An answer with a node the frame no longer reaches is
    /// dropped, or falls back when no delta met the footprint. One with a
    /// node some delta rewrote is dirty: its union is rebuilt. Clean
    /// answers keep their union slot and its cached values — the union is
    /// over unchanged node conditions, every semiring's value depends only
    /// on the events the condition mentions, and the event table only ever
    /// grows, so each value is identical to what a fresh prepare would
    /// compute; a rebuilt or new union equal to a held one shares its slot
    /// for the same reason. Every surviving answer keeps its tie-break
    /// key: the key is the canonical form of the answer's induced tree,
    /// and between rebases neither its node set, nor its nodes' labels,
    /// nor the parent edges among them change.
    fn patch<'d>(
        &mut self,
        doc: &Document,
        pending: impl ExactSizeIterator<Item = &'d UpdateDelta> + Clone,
    ) -> MaintainOutcome {
        let snapshot = doc.snapshot();
        let tree = snapshot.tree();
        let touched = self
            .footprint
            .as_ref()
            .is_none_or(|footprint| pending.clone().any(|delta| delta.touches(footprint)));
        let found = if touched {
            let first = self.tree().tree().arena_len();
            match self.query().evaluate_appended(tree, first) {
                Some(found) => Some(found),
                None => return self.reprepare(doc, FallbackReason::SpineTouched),
            }
        } else {
            None
        };
        let steps = pending.len();
        let removed = pending.clone().any(|delta| delta.nodes_removed > 0);
        let rewritten: BTreeSet<NodeId> = pending
            .flat_map(|delta| delta.rewritten.iter().copied())
            .collect();
        let plan: Vec<Survival> = if removed || !rewritten.is_empty() {
            self.answers
                .iter()
                .map(|answer| {
                    let mut survival = Survival::Clean;
                    for node in answer.subtree.nodes() {
                        if removed && !tree.is_attached(node) {
                            return Survival::Dropped;
                        }
                        if rewritten.contains(&node) {
                            survival = Survival::Dirty;
                        }
                    }
                    survival
                })
                .collect()
        } else {
            Vec::new()
        };
        if found.is_none() && plan.contains(&Survival::Dropped) {
            return self.reprepare(doc, FallbackReason::AnswerDisplaced);
        }
        let (found, visited) = found.unwrap_or_default();
        self.maint.windows_applied += 1;
        self.maint.steps_patched += steps;
        self.maint.rematch_visited += visited;
        if plan.is_empty() && found.is_empty() {
            self.maint.unions_carried += self.answers.len();
        } else {
            self.merge(&snapshot, &plan, found);
        }
        if let Source::Document { tree, epoch, .. } = &mut self.source {
            *tree = snapshot;
            *epoch = doc.epoch();
        }
        MaintainOutcome::Patched { steps }
    }

    /// Applies a patch's plan against `snapshot`: drops the `Dropped`
    /// answers, rebuilds the unions of the `Dirty` ones (a `plan` shorter
    /// than the answers leaves the rest clean), and merges `found` —
    /// ascending, and disjoint from the old answers, which hold no
    /// appended node — into the ascending answer order, each with a new
    /// union and no tie-break key yet. Only the rebuilt and the new unions
    /// are interned; the slots are renumbered only when one lost its last
    /// answer.
    fn merge(&mut self, snapshot: &ProbTree, plan: &[Survival], found: Vec<SubDataTree>) {
        let dropped = plan.iter().filter(|&&s| s == Survival::Dropped).count();
        let capacity = self.answers.len() - dropped + found.len();
        let old = std::mem::take(&mut self.answers).into_iter();
        let keys = std::mem::take(&mut self.tie_keys).into_iter();
        let mut found = found.into_iter().peekable();
        let (mut answers, mut tie_keys) =
            (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        let (mut rebuilt, mut carried, mut released) = (0, 0, false);
        let new_answer = |this: &mut Self, subtree: SubDataTree| {
            let condition = this.intern(union_over(snapshot, &subtree));
            AnswerState { subtree, condition }
        };
        for (position, (mut answer, key)) in old.zip(keys).enumerate() {
            let survival = plan.get(position).copied().unwrap_or(Survival::Clean);
            if survival == Survival::Dropped {
                released = true;
                continue;
            }
            while let Some(subtree) = found.next_if(|subtree| *subtree < answer.subtree) {
                answers.push(new_answer(self, subtree));
                tie_keys.push(OnceLock::new());
                rebuilt += 1;
            }
            if survival == Survival::Dirty {
                answer.condition = self.intern(union_over(snapshot, &answer.subtree));
                released = true;
                rebuilt += 1;
            } else {
                carried += 1;
            }
            answers.push(answer);
            tie_keys.push(key);
        }
        for subtree in found {
            answers.push(new_answer(self, subtree));
            tie_keys.push(OnceLock::new());
            rebuilt += 1;
        }
        self.answers = answers;
        self.tie_keys = tie_keys;
        self.maint.unions_rebuilt += rebuilt;
        self.maint.unions_carried += carried;
        if released {
            self.drop_unused_slots();
        }
    }

    /// The slot of `union`: the slot holding an equal union, or a new one
    /// with nothing cached yet.
    fn intern(&mut self, union: Condition) -> usize {
        match self.interned.entry(union) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let index = self.conditions.len();
                self.conditions.push(slot.key().clone());
                self.probabilities.push(OnceLock::new());
                slot.insert(index);
                index
            }
        }
    }

    /// Drops the condition slots no answer holds, if any, and renumbers
    /// the rest in first-occurrence order along the answers (a fresh
    /// prepare's numbering), moving each slot's cached probability and
    /// semiring values with it.
    fn drop_unused_slots(&mut self) {
        let mut renumbered = vec![usize::MAX; self.conditions.len()];
        let mut order: Vec<usize> = Vec::with_capacity(self.conditions.len());
        for answer in &self.answers {
            if renumbered[answer.condition] == usize::MAX {
                renumbered[answer.condition] = order.len();
                order.push(answer.condition);
            }
        }
        if order.len() == self.conditions.len() {
            return;
        }
        for answer in &mut self.answers {
            answer.condition = renumbered[answer.condition];
        }
        self.conditions = order
            .iter()
            .map(|&slot| std::mem::take(&mut self.conditions[slot]))
            .collect();
        self.probabilities = order
            .iter()
            .map(|&slot| std::mem::take(&mut self.probabilities[slot]))
            .collect();
        self.interned
            .retain(|_, slot| renumbered[*slot] != usize::MAX);
        self.interned
            .values_mut()
            .for_each(|slot| *slot = renumbered[*slot]);
        let caches = self
            .semiring
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for slots in caches.slots.values_mut() {
            *slots = order
                .iter()
                .map(|&slot| slots.get_mut(slot).and_then(Option::take))
                .collect();
        }
    }

    /// The maintenance fallback: rebuild everything against the
    /// document's current epoch, preserving the cumulative maintenance
    /// counters (and counting the fallback).
    fn reprepare(&mut self, doc: &Document, reason: FallbackReason) -> MaintainOutcome {
        let mut maint = self.maint;
        maint.fallbacks += 1;
        let semiring_stats = self
            .semiring
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .stats;
        let Source::Document { query, .. } = &self.source else {
            unreachable!("only document-backed state is maintained");
        };
        *self = build_prepared(Source::document(doc, Arc::clone(query)));
        self.maint = maint;
        self.semiring
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .stats = semiring_stats;
        MaintainOutcome::Fallback { reason }
    }

    /// The prepared query.
    pub fn query(&self) -> &dyn Query {
        self.source.query()
    }

    /// Number of answers in the match set (including zero-probability
    /// answers, which ranked selection drops).
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// `true` if the query has no answers on this tree.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Number of **distinct** condition unions across the answers — the
    /// number of probability evaluations a full drain pays after
    /// interning.
    pub fn num_distinct_conditions(&self) -> usize {
        self.conditions.len()
    }

    /// Number of interned conditions whose probability has been computed
    /// so far (telemetry: shows what a partial drain paid).
    pub fn num_cached_probabilities(&self) -> usize {
        self.probabilities
            .iter()
            .filter(|p| p.get().is_some())
            .count()
    }

    /// Number of answers whose canonical tie-break key has been built so
    /// far (telemetry: keys are built at most once per answer).
    pub fn num_cached_tie_keys(&self) -> usize {
        self.tie_keys.iter().filter(|k| k.get().is_some()).count()
    }

    /// The condition union `⋃_{n ∈ u} γ(n)` of the `index`-th answer.
    ///
    /// # Panics
    /// Panics if `index ≥ len()`.
    pub fn condition(&self, index: usize) -> &Condition {
        &self.conditions[self.answers[index].condition]
    }

    /// The node set of the `index`-th answer.
    ///
    /// # Panics
    /// Panics if `index ≥ len()`.
    pub fn subtree(&self, index: usize) -> &SubDataTree {
        &self.answers[index].subtree
    }

    /// The probability of the `index`-th answer (Definition 8), computed
    /// on first use and cached per interned condition.
    ///
    /// # Panics
    /// Panics if `index ≥ len()`.
    pub fn probability(&self, index: usize) -> f64 {
        self.union_probability(self.answers[index].condition)
    }

    fn union_probability(&self, condition: usize) -> f64 {
        *self.probabilities[condition]
            .get_or_init(|| self.conditions[condition].probability(self.tree().events()))
    }

    /// Streams the answers lazily, in match order: each answer's
    /// probability is only computed when the iterator reaches it, so
    /// consumers that stop early never pay for the tail. An answer's node
    /// set is shared with the prepared state; no tree is built.
    pub fn answers(&self) -> Answers<'_, 'a> {
        Answers {
            prepared: self,
            next: 0,
        }
    }

    /// The probability of the answer with exactly this node set, or
    /// `None` if the query did not return it: a binary search of the
    /// answers, which ascend by node set, with no re-evaluation.
    pub fn probability_of(&self, subtree: &SubDataTree) -> Option<f64> {
        self.position_of(subtree)
            .map(|index| self.probability(index))
    }

    /// The position of the answer with exactly this node set.
    fn position_of(&self, subtree: &SubDataTree) -> Option<usize> {
        self.answers
            .binary_search_by(|answer| answer.subtree.cmp(subtree))
            .ok()
    }

    /// The semiring value of the `index`-th answer's condition union —
    /// [`PreparedQuery::probability`] generalized over any [`Semiring`].
    /// The match set and the interned condition unions are shared across
    /// semirings (one prepare serves them all); only the `f64`
    /// probability path additionally keeps a persistent per-condition
    /// cache.
    ///
    /// # Panics
    /// Panics if `index ≥ len()`.
    pub fn value_in<S: Semiring>(&self, semiring: &S, index: usize) -> S::Value {
        self.conditions[self.answers[index].condition].eval_in(semiring, self.tree().events())
    }

    /// Evaluates every **distinct** interned condition union once under
    /// `semiring`, indexed by condition slot.
    fn condition_values_in<S: Semiring>(&self, semiring: &S) -> Vec<S::Value> {
        let events = self.tree().events();
        self.conditions
            .iter()
            .map(|c| c.eval_in(semiring, events))
            .collect()
    }

    /// All answers under an arbitrary [`Semiring`], in match order: each
    /// distinct condition union is evaluated exactly once per call and
    /// the per-answer values are cloned from those slots, so a drain
    /// costs `num_distinct_conditions()` semiring folds — the same
    /// sharing the probability path gets from its cache — with **no
    /// re-matching** of the query.
    pub fn answers_in<S: Semiring>(&self, semiring: &S) -> Vec<(&SubDataTree, S::Value)> {
        let values = self.condition_values_in(semiring);
        self.answers
            .iter()
            .map(|a| (&a.subtree, values[a.condition].clone()))
            .collect()
    }

    /// [`PreparedQuery::answers_in`] with a **persistent** per-condition
    /// value cache, keyed by the semiring's type: repeated drains under
    /// the same semiring reuse the stored per-slot values instead of
    /// re-folding each condition, and [`PreparedQuery::maintain`] carries
    /// clean slots' values across epochs exactly as it carries the `f64`
    /// probability cache (dirty slots are invalidated by the same flags).
    pub fn answers_in_cached<S>(&self, semiring: &S) -> Vec<(&SubDataTree, S::Value)>
    where
        S: Semiring + 'static,
        S::Value: Send + 'static,
    {
        let values = self.condition_values_cached(semiring);
        self.answers
            .iter()
            .map(|a| (&a.subtree, values[a.condition].clone()))
            .collect()
    }

    /// Evaluates every distinct interned condition union under `semiring`,
    /// consulting and filling the persistent per-semiring cache.
    fn condition_values_cached<S>(&self, semiring: &S) -> Vec<S::Value>
    where
        S: Semiring + 'static,
        S::Value: Send + 'static,
    {
        let events = self.tree().events();
        let mut caches = self.semiring.lock().unwrap_or_else(PoisonError::into_inner);
        let caches = &mut *caches;
        let slots = caches.slots.entry(TypeId::of::<S>()).or_default();
        slots.resize_with(self.conditions.len(), || None);
        self.conditions
            .iter()
            .zip(slots.iter_mut())
            .map(|(condition, slot)| {
                let cached = slot
                    .as_deref()
                    .and_then(|boxed| (boxed as &dyn Any).downcast_ref::<S::Value>());
                if let Some(value) = cached {
                    caches.stats.hits += 1;
                    return value.clone();
                }
                caches.stats.computed += 1;
                let value = condition.eval_in(semiring, events);
                *slot = Some(Box::new(value.clone()));
                value
            })
            .collect()
    }

    /// Cumulative hit/miss telemetry of the per-semiring value caches
    /// (preserved across maintenance fallbacks, like
    /// [`PreparedQuery::maintenance_stats`]).
    pub fn semiring_cache_stats(&self) -> SemiringCacheStats {
        self.semiring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Number of cached values currently held for the semiring type of
    /// `semiring` (telemetry: shows what maintenance carried across an
    /// epoch).
    pub fn num_cached_semiring_values<S>(&self, _semiring: &S) -> usize
    where
        S: Semiring + 'static,
    {
        self.semiring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .get(&TypeId::of::<S>())
            .map_or(0, |slots| slots.iter().flatten().count())
    }

    /// The semiring value of the answer with exactly this node set, or
    /// `None` if the query did not return it —
    /// [`PreparedQuery::probability_of`] generalized over any
    /// [`Semiring`], through the same binary search.
    pub fn probability_of_in<S: Semiring>(
        &self,
        semiring: &S,
        subtree: &SubDataTree,
    ) -> Option<S::Value> {
        self.position_of(subtree)
            .map(|index| self.value_in(semiring, index))
    }

    /// The expected number of answers over the possible worlds — by
    /// linearity of expectation under the multiset semantics, the plain
    /// sum of the per-answer probabilities.
    pub fn expected_matches(&self) -> f64 {
        (0..self.answers.len()).map(|i| self.probability(i)).sum()
    }

    /// The `k` most probable answers, best first, selected with a bounded
    /// binary heap: `O(n log k)` rank comparisons instead of a full
    /// `O(n log n)` sort. Zero-probability answers are dropped; ties are
    /// broken by the answer's canonical form, then by match order, with
    /// canonical keys built at most once per answer and cached across
    /// calls.
    pub fn top_k(&self, k: usize) -> AnswerSet {
        let counters = SelectionCounters::default();
        let mut heap: BinaryHeap<HeapEntry<'_, 'a>> = BinaryHeap::with_capacity(k.min(self.len()));
        for index in 0..self.answers.len() {
            counters.enumerated.set(counters.enumerated.get() + 1);
            let probability = self.probability(index);
            if probability <= 0.0 {
                continue;
            }
            let entry = HeapEntry {
                prepared: self,
                counters: &counters,
                index,
                probability,
            };
            if heap.len() < k {
                heap.push(entry);
            } else if let Some(mut worst) = heap.peek_mut() {
                // The heap is a max-heap under rank order (its maximum is
                // the worst of the current best k); replacing the peeked
                // entry re-sifts on drop.
                if entry.cmp(&worst) == Ordering::Less {
                    *worst = entry;
                }
            }
        }
        let mut ranked: Vec<(usize, f64)> =
            heap.into_iter().map(|e| (e.index, e.probability)).collect();
        ranked.sort_unstable_by(|&a, &b| self.rank_cmp(a, b, &counters));
        self.select(ranked, counters)
    }

    /// All answers with probability at least `threshold`, best first, in
    /// [`PreparedQuery::top_k`]'s rank order. Zero-probability answers are
    /// dropped, even at threshold 0.
    ///
    /// Answers sharing an interned condition union share its probability,
    /// so the read ranks condition slots, not answers: one scan in match
    /// order takes each slot at its first answer and evaluates it once,
    /// the qualifying slots are sorted by probability (`O(s log s)`
    /// comparisons for `s` qualifying slots), and a counting pass places
    /// each qualifying answer in the run of its probability. Each run is
    /// sorted by tie key and then match order: a run of one answer makes no
    /// comparison, and one already in order, such as a slot's answers of
    /// one canonical form, costs one comparison per answer. Answers below
    /// the threshold never enter a sort, so a selective threshold does less
    /// work than the full ranking.
    pub fn above(&self, threshold: f64) -> AnswerSet {
        /// A slot no answer scanned so far holds.
        const UNSEEN: usize = usize::MAX;
        /// A slot whose probability is zero or below the threshold.
        const BELOW: usize = usize::MAX - 1;
        let counters = SelectionCounters::default();
        counters.enumerated.set(self.answers.len() as u64);
        // Slot → its position in `slots`, and later its run.
        let mut place = vec![UNSEEN; self.conditions.len()];
        // Qualifying slots in first-occurrence order: (slot, probability,
        // answers holding it).
        let mut slots: Vec<(usize, f64, usize)> = Vec::new();
        for answer in &self.answers {
            let slot = answer.condition;
            if place[slot] == UNSEEN {
                let probability = self.union_probability(slot);
                place[slot] = if probability > 0.0 && probability >= threshold {
                    slots.push((slot, probability, 0));
                    slots.len() - 1
                } else {
                    BELOW
                };
            }
            if place[slot] != BELOW {
                slots[place[slot]].2 += 1;
            }
        }
        slots.sort_unstable_by(|a, b| {
            counters.comparisons.set(counters.comparisons.get() + 1);
            b.1.total_cmp(&a.1)
        });
        // Runs of bit-equal probability, best first: each run's next free
        // position in `ranked`, and its probability.
        let mut runs: Vec<(usize, f64)> = Vec::new();
        let mut selected = 0;
        for &(slot, probability, count) in &slots {
            if runs
                .last()
                .is_none_or(|run| run.1.to_bits() != probability.to_bits())
            {
                runs.push((selected, probability));
            }
            place[slot] = runs.len() - 1;
            selected += count;
        }
        let mut ranked = vec![(0, 0.0); selected];
        for (index, answer) in self.answers.iter().enumerate() {
            // `BELOW` names no run.
            if let Some(run) = runs.get_mut(place[answer.condition]) {
                ranked[run.0] = (index, run.1);
                run.0 += 1;
            }
        }
        // Each run's next free position is now where the next run starts.
        // A run of one answer makes no comparison and builds no tie key.
        let mut start = 0;
        for &(end, _) in &runs {
            ranked[start..end].sort_unstable_by(|&a, &b| self.rank_cmp(a, b, &counters));
            start = end;
        }
        self.select(ranked, counters)
    }

    /// Every positive-probability answer, fully ranked:
    /// [`PreparedQuery::above`] at threshold 0.
    pub fn ranked(&self) -> AnswerSet {
        self.above(0.0)
    }

    /// Packs a ranked selection into an [`AnswerSet`]: each answer's node
    /// set is shared with the prepared state, and no tree is built.
    fn select(&self, ranked: Vec<(usize, f64)>, counters: SelectionCounters) -> AnswerSet {
        let answers: Vec<ProbAnswer> = ranked
            .into_iter()
            .map(|(index, probability)| ProbAnswer {
                subtree: self.answers[index].subtree.clone(),
                probability,
            })
            .collect();
        AnswerSet {
            stats: counters.into_stats(answers.len()),
            answers,
        }
    }

    /// Rank order: probability descending, then the canonical form of the
    /// answer tree under multiset semantics (deterministic across runs and
    /// independent of node identities), then match order — the answer's
    /// position in the prepared state. The order is **total**, so the
    /// bounded-heap [`PreparedQuery::top_k`] and the slot-ranking
    /// [`PreparedQuery::above`] select exactly the same answers in the
    /// same order.
    fn rank_cmp(&self, a: (usize, f64), b: (usize, f64), counters: &SelectionCounters) -> Ordering {
        counters.comparisons.set(counters.comparisons.get() + 1);
        b.1.partial_cmp(&a.1)
            .expect("answer probabilities are finite")
            .then_with(|| self.tie_key(a.0, counters).cmp(self.tie_key(b.0, counters)))
            .then_with(|| a.0.cmp(&b.0))
    }

    /// The canonical tie-break key of an answer, built on first use and
    /// cached — the legacy sort recomputed it inside **every** comparison.
    fn tie_key(&self, index: usize, counters: &SelectionCounters) -> &str {
        self.tie_keys[index].get_or_init(|| {
            counters
                .tie_keys_built
                .set(counters.tie_keys_built.get() + 1);
            self.answers[index]
                .subtree
                .canonical_string(self.tree().tree(), Semantics::MultiSet)
        })
    }

    /// The positive-probability answers repackaged as a weighted world
    /// set, comparable (`∼`) against [`query_pw_set`] — the statement of
    /// Theorem 1.
    pub fn as_pw_set(&self) -> PossibleWorldSet {
        PossibleWorldSet::from_worlds((0..self.answers.len()).filter_map(|index| {
            let probability = self.probability(index);
            (probability > 0.0).then(|| {
                (
                    self.answers[index].subtree.to_tree(self.tree().tree()),
                    probability,
                )
            })
        }))
    }

    /// Checks Theorem 1 (`Q(T) ∼ Q(JT K)`) on the prepared state by
    /// exhaustive expansion through the **factorized** world engine,
    /// within a budget of
    /// [`DEFAULT_MAX_EXHAUSTIVE_EVENTS`](crate::DEFAULT_MAX_EXHAUSTIVE_EVENTS)
    /// events per co-occurrence component (and `2^` that many shard and
    /// joint states). Exponential in the worst case; returns an error
    /// instead of exceeding the budget.
    ///
    /// Theorem 1 only holds for locally monotone queries, so the static
    /// [`MonotonicityCertificate`] is consulted first: a
    /// [`Rejected`](MonotonicityCertificate::Rejected) query fails fast
    /// with [`Theorem1Error::NotCertifiedMonotone`] before any world is
    /// enumerated. `Certified` and `Unknown` queries proceed to the
    /// cross-check.
    pub fn theorem1_check(&self) -> Result<bool, Theorem1Error> {
        if let MonotonicityCertificate::Rejected { reason } = self.query().monotonicity() {
            return Err(Theorem1Error::NotCertifiedMonotone { reason });
        }
        let direct = self.as_pw_set();
        let worlds = possible_worlds_normalized(self.tree(), crate::DEFAULT_MAX_EXHAUSTIVE_EVENTS)?;
        let via_worlds = query_pw_set(self.query(), &worlds);
        Ok(direct.normalized().isomorphic(&via_worlds.normalized()))
    }
}

/// Interior-mutability counters threaded through one ranked selection.
#[derive(Default)]
struct SelectionCounters {
    enumerated: Cell<u64>,
    comparisons: Cell<u64>,
    tie_keys_built: Cell<u64>,
}

impl SelectionCounters {
    fn into_stats(self, selected: usize) -> SelectionStats {
        SelectionStats {
            enumerated: self.enumerated.get(),
            comparisons: self.comparisons.get(),
            tie_keys_built: self.tie_keys_built.get(),
            selected,
        }
    }
}

/// Work counters of one ranked selection ([`PreparedQuery::top_k`] /
/// [`PreparedQuery::above`] / [`PreparedQuery::ranked`]) — the evidence
/// that the bounded heap and the slot ranking do less work than a full
/// sort of the answers (asserted by tests and the `query_scaling` bench).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Prepared answers scanned (always the full match set — a probability
    /// is one cached lookup per answer in [`PreparedQuery::top_k`], per
    /// condition slot in [`PreparedQuery::above`]).
    pub enumerated: u64,
    /// Pairwise comparisons performed: rank comparisons of answers, plus,
    /// in [`PreparedQuery::above`], the probability comparisons of its
    /// condition slots.
    pub comparisons: u64,
    /// Canonical tie-break keys built during this selection (keys already
    /// cached by earlier selections are not rebuilt).
    pub tie_keys_built: u64,
    /// Answers selected (the length of the result).
    pub selected: usize,
}

/// One candidate in the bounded top-k heap. Ordered by rank (better =
/// [`Ordering::Less`]), so the heap's maximum is the worst of the current
/// best `k` — the eviction candidate.
struct HeapEntry<'p, 'a> {
    prepared: &'p PreparedQuery<'a>,
    counters: &'p SelectionCounters,
    index: usize,
    probability: f64,
}

impl PartialEq for HeapEntry<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl Eq for HeapEntry<'_, '_> {}

impl PartialOrd for HeapEntry<'_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry<'_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prepared.rank_cmp(
            (self.index, self.probability),
            (other.index, other.probability),
            self.counters,
        )
    }
}

/// Lazy answer stream over a [`PreparedQuery`] in match order (see
/// [`PreparedQuery::answers`]): each item shares its node set with the
/// prepared state and carries its cached probability.
pub struct Answers<'p, 'a> {
    prepared: &'p PreparedQuery<'a>,
    next: usize,
}

impl Iterator for Answers<'_, '_> {
    type Item = ProbAnswer;

    fn next(&mut self) -> Option<ProbAnswer> {
        if self.next >= self.prepared.len() {
            return None;
        }
        let answer = ProbAnswer {
            subtree: self.prepared.subtree(self.next).clone(),
            probability: self.prepared.probability(self.next),
        };
        self.next += 1;
        Some(answer)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.prepared.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Answers<'_, '_> {}

/// A ranked selection of query answers, best first, with the work
/// counters of the selection that produced it. Replaces the ad-hoc
/// `Vec<ProbAnswer>` returns of the legacy ranked API; derefs to
/// `[ProbAnswer]` for slice-style access.
#[derive(Clone, Debug)]
pub struct AnswerSet {
    answers: Vec<ProbAnswer>,
    stats: SelectionStats,
}

impl AnswerSet {
    /// Work counters of the selection.
    pub fn stats(&self) -> SelectionStats {
        self.stats
    }

    /// The answers as a slice, best first.
    pub fn as_slice(&self) -> &[ProbAnswer] {
        &self.answers
    }

    /// Sum of the answer probabilities (the expected number of selected
    /// matches).
    pub fn total_probability(&self) -> f64 {
        self.answers.iter().map(|a| a.probability).sum()
    }

    /// The most probable answer, if any.
    pub fn best(&self) -> Option<&ProbAnswer> {
        self.answers.first()
    }
}

impl std::ops::Deref for AnswerSet {
    type Target = [ProbAnswer];

    fn deref(&self) -> &[ProbAnswer] {
        &self.answers
    }
}

impl IntoIterator for AnswerSet {
    type Item = ProbAnswer;
    type IntoIter = std::vec::IntoIter<ProbAnswer>;

    fn into_iter(self) -> Self::IntoIter {
        self.answers.into_iter()
    }
}

impl<'s> IntoIterator for &'s AnswerSet {
    type Item = &'s ProbAnswer;
    type IntoIter = std::slice::Iter<'s, ProbAnswer>;

    fn into_iter(self) -> Self::IntoIter {
        self.answers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::query::pattern::PatternQuery;
    use pxml_events::{prob_eq, Literal};
    use pxml_tree::DataTree;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A foreign query wrapping a pattern: it counts `evaluate` calls —
    /// proving the match set is computed exactly once per prepared state —
    /// states the footprint it is given, and does not provide
    /// `evaluate_appended`. Counts with an atomic (not `Cell`) because
    /// `Query` requires `Sync`.
    struct CountingQuery {
        inner: PatternQuery,
        footprint: Option<BTreeSet<String>>,
        evaluations: AtomicUsize,
    }

    impl CountingQuery {
        fn new(inner: PatternQuery, footprint: Option<BTreeSet<String>>) -> Self {
            CountingQuery {
                inner,
                footprint,
                evaluations: AtomicUsize::new(0),
            }
        }
    }

    impl Query for CountingQuery {
        fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree> {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate(tree)
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }

        fn label_footprint(&self) -> Option<BTreeSet<String>> {
            self.footprint.clone()
        }
    }

    /// Root with `n` items of pairwise-distinct probabilities in
    /// scrambled order (a pre-sorted match set would let the pattern-
    /// defeating reference sort finish in `O(n)` comparisons and void
    /// the heap-vs-sort measurements), each with a distinct leaf.
    fn ladder(n: usize) -> ProbTree {
        let mut t = ProbTree::new("catalog");
        let root = t.tree().root();
        for i in 0..n {
            let rank = (i * 7919) % n;
            let w = t
                .events_mut()
                .insert(format!("w{i}"), 0.9 - 0.8 * rank as f64 / n as f64);
            let item = t.add_child(root, "item", Condition::of(Literal::pos(w)));
            t.add_child(item, format!("sku{i}"), Condition::always());
        }
        t
    }

    #[test]
    fn prepare_evaluates_the_query_exactly_once() {
        let tree = ladder(6);
        let counting = CountingQuery::new(PatternQuery::new(Some("item")), None);
        let prepared = QueryEngine::new().prepare(&tree, &counting);
        // Serve every prepared-state consumer from the one match set.
        let top = prepared.top_k(2);
        let slice = prepared.above(0.5);
        let expected = prepared.expected_matches();
        let streamed: Vec<ProbAnswer> = prepared.answers().collect();
        let point = prepared.probability_of(prepared.subtree(0));
        assert_eq!(top.len(), 2);
        assert!(!slice.is_empty());
        assert!(expected > 0.0);
        assert_eq!(streamed.len(), prepared.len());
        assert!(point.is_some());
        assert_eq!(
            counting.evaluations.load(Ordering::Relaxed),
            1,
            "match set computed once"
        );
        // The Theorem 1 cross-check necessarily re-runs the query on
        // every expanded world — but never re-evaluates the match set on
        // the prob-tree itself.
        assert!(prepared.theorem1_check().unwrap());
        assert!(counting.evaluations.load(Ordering::Relaxed) > 1);
    }

    #[test]
    fn probabilities_are_lazy_and_cached_per_interned_condition() {
        let tree = ladder(5);
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(prepared.num_cached_probabilities(), 0, "prepare pays none");
        let first = prepared.answers().next().unwrap();
        assert!(first.probability > 0.0);
        assert_eq!(prepared.num_cached_probabilities(), 1, "one answer pulled");
        prepared.expected_matches();
        assert_eq!(
            prepared.num_cached_probabilities(),
            prepared.num_distinct_conditions()
        );
    }

    #[test]
    fn equal_condition_unions_are_interned() {
        // Two siblings under the same conditioned parent: both answers'
        // unions equal the parent condition.
        let mut tree = ProbTree::new("A");
        let w = tree.events_mut().insert("w", 0.6);
        let root = tree.tree().root();
        let b = tree.add_child(root, "B", Condition::of(Literal::pos(w)));
        tree.add_child(b, "C", Condition::always());
        tree.add_child(b, "C", Condition::always());
        let q = PatternQuery::new(Some("C"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared.num_distinct_conditions(), 1);
        assert!(prob_eq(prepared.probability(0), 0.6));
        assert!(prob_eq(prepared.probability(1), 0.6));
    }

    #[test]
    fn top_k_agrees_with_the_full_sort_reference() {
        let tree = ladder(9);
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        let full = prepared.ranked();
        for k in [0usize, 1, 3, 9, 20] {
            let top = prepared.top_k(k);
            assert_eq!(top.len(), k.min(full.len()));
            for (a, b) in top.iter().zip(full.iter()) {
                assert_eq!(a.probability, b.probability);
                assert_eq!(a.subtree, b.subtree);
            }
        }
    }

    #[test]
    fn above_short_circuits_the_ranking_sort() {
        let tree = ladder(40);
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        let full = prepared.ranked();
        // A selective threshold: only the few most probable answers pass.
        let selective = prepared.above(0.8);
        assert!(selective.len() < full.len() / 4);
        assert_eq!(selective.stats().enumerated, full.stats().enumerated);
        assert!(
            selective.stats().comparisons < full.stats().comparisons / 4,
            "selective threshold must sort only the qualifying answers \
             ({} vs {} comparisons)",
            selective.stats().comparisons,
            full.stats().comparisons
        );
        // And the result agrees with filtering the full ranking.
        let reference: Vec<f64> = full
            .iter()
            .filter(|a| a.probability >= 0.8)
            .map(|a| a.probability)
            .collect();
        let probabilities: Vec<f64> = selective.iter().map(|a| a.probability).collect();
        assert_eq!(probabilities, reference);
    }

    #[test]
    fn top_k_bounded_heap_beats_full_sort_on_comparisons() {
        let tree = ladder(200);
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        let top = prepared.top_k(5);
        let full = prepared.ranked();
        assert_eq!(top.stats().selected, 5);
        assert!(
            top.stats().comparisons < full.stats().comparisons / 2,
            "O(n log k) heap must beat the O(n log n) sort ({} vs {})",
            top.stats().comparisons,
            full.stats().comparisons
        );
    }

    /// Root with `n` x-items, all with probability 0.5, of pairwise
    /// distinct shapes (leaf labels): ranking them compares tie keys, and
    /// the canonical tie-break is total.
    fn tied(n: usize) -> ProbTree {
        let mut tree = ProbTree::new("r");
        let root = tree.tree().root();
        for i in 0..n {
            let w = tree.events_mut().insert(format!("w{i}"), 0.5);
            let x = tree.add_child(root, "x", Condition::of(Literal::pos(w)));
            tree.add_child(x, format!("leaf{i}"), Condition::always());
        }
        tree
    }

    #[test]
    fn tie_keys_are_built_once_and_cached_across_selections() {
        let tree = tied(4);
        let q = PatternQuery::new(Some("x"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        let first = prepared.ranked();
        assert!(first.stats().tie_keys_built > 0);
        assert_eq!(
            prepared.num_cached_tie_keys() as u64,
            first.stats().tie_keys_built
        );
        let second = prepared.ranked();
        assert_eq!(second.stats().tie_keys_built, 0, "keys cached");
        let order: Vec<&SubDataTree> = first.iter().map(|a| &a.subtree).collect();
        let order2: Vec<&SubDataTree> = second.iter().map(|a| &a.subtree).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn probability_of_looks_up_prepared_answers() {
        let tree = figure1_example();
        let mut q = PatternQuery::new(Some("C"));
        q.add_child(q.root(), "D");
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(prepared.len(), 1);
        let hit = prepared.probability_of(prepared.subtree(0));
        assert!(prob_eq(hit.unwrap(), 0.7));
        let miss = SubDataTree::root_only(tree.tree());
        assert_eq!(prepared.probability_of(&miss), None);
    }

    #[test]
    fn theorem1_check_on_figure1() {
        let tree = figure1_example();
        let queries = [
            PatternQuery::new(Some("B")),
            PatternQuery::new(Some("D")),
            PatternQuery::new(Some("Z")),
        ];
        let engine = QueryEngine::new();
        for q in &queries {
            assert!(engine.prepare(&tree, q).theorem1_check().unwrap());
        }
    }

    #[test]
    fn theorem1_check_honors_the_world_budget() {
        // One condition over `n` events: a single `n`-event component.
        let component = |n: usize| {
            let mut tree = ProbTree::new("A");
            let root = tree.tree().root();
            let events: Vec<_> = (0..n).map(|_| tree.events_mut().fresh(0.5)).collect();
            tree.add_child(
                root,
                "B",
                Condition::from_literals(events.iter().map(|&e| Literal::pos(e))),
            );
            tree
        };
        let q = PatternQuery::new(Some("B"));
        let engine = QueryEngine::new();
        let too_wide = component(crate::DEFAULT_MAX_EXHAUSTIVE_EVENTS + 1);
        assert!(engine.prepare(&too_wide, &q).theorem1_check().is_err());
        assert!(engine.prepare(&component(6), &q).theorem1_check().unwrap());
    }

    #[test]
    fn empty_match_set_serves_empty_everything() {
        let tree = figure1_example();
        let q = PatternQuery::new(Some("nope"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert!(prepared.is_empty());
        assert_eq!(prepared.answers().count(), 0);
        assert!(prepared.top_k(3).is_empty());
        assert!(prepared.above(0.0).is_empty());
        assert_eq!(prepared.expected_matches(), 0.0);
        assert!(prepared.as_pw_set().is_empty());
        assert!(prepared.theorem1_check().unwrap());
    }

    #[test]
    fn answer_set_accessors() {
        let tree = ladder(3);
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&tree, &q);
        let set = prepared.ranked();
        assert_eq!(set.as_slice().len(), set.len());
        assert!(prob_eq(
            set.total_probability(),
            prepared.expected_matches()
        ));
        assert_eq!(set.best().unwrap().probability, set[0].probability);
        let by_ref: Vec<f64> = (&set).into_iter().map(|a| a.probability).collect();
        let owned: Vec<f64> = set.clone().into_iter().map(|a| a.probability).collect();
        assert_eq!(by_ref, owned);
        assert_eq!(set.len(), 3);
    }

    /// A root with three children of the same label but different
    /// probabilities, so ranking is non-trivial.
    fn catalog() -> ProbTree {
        let mut t = ProbTree::new("catalog");
        let root = t.tree().root();
        for (name, p) in [("high", 0.9), ("mid", 0.5), ("low", 0.2)] {
            let w = t.events_mut().insert(name, p);
            let item = t.add_child(root, "item", Condition::of(Literal::pos(w)));
            t.add_child(item, format!("sku_{name}"), Condition::always());
        }
        t
    }

    #[test]
    fn top_k_orders_by_probability() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&t, &q);
        let top = prepared.top_k(2);
        assert_eq!(top.len(), 2);
        assert!(prob_eq(top[0].probability, 0.9));
        assert!(prob_eq(top[1].probability, 0.5));
        let all = prepared.top_k(10);
        assert_eq!(all.len(), 3);
        assert!(prob_eq(all[2].probability, 0.2));
    }

    #[test]
    fn above_threshold_filters() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        let prepared = QueryEngine::new().prepare(&t, &q);
        assert_eq!(prepared.above(0.4).len(), 2);
        assert_eq!(prepared.above(0.95).len(), 0);
        assert_eq!(prepared.above(0.0).len(), 3);
    }

    /// Regression test for deterministic tie handling: many
    /// equal-probability answers must come back in canonical-key order,
    /// identically across fresh engines, across `k` values at the tie
    /// boundary, and between the bounded-heap and slot-ranking paths.
    #[test]
    fn top_k_is_deterministic_under_ties() {
        let tree = tied(8);
        let q = PatternQuery::new(Some("x"));
        let keys_of = |answers: &[ProbAnswer]| -> Vec<String> {
            answers
                .iter()
                .map(|a| a.subtree.canonical_string(tree.tree(), Semantics::MultiSet))
                .collect()
        };
        let top_k = |k: usize| QueryEngine::new().prepare(&tree, &q).top_k(k);
        let keys = keys_of(&top_k(8));
        // Equal probabilities everywhere, so the order IS the sorted
        // canonical-key order.
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "ties must follow the canonical order");
        // Repeated fresh engines agree byte for byte.
        assert_eq!(keys_of(&top_k(8)), keys);
        // Every k slices the same ranking, even through the tie block.
        for k in 1..8 {
            assert_eq!(keys_of(&top_k(k)), keys[..k].to_vec());
        }
        // The heap path agrees with the slot ranking.
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(keys_of(&prepared.ranked()), keys);
        assert_eq!(keys_of(&prepared.top_k(3)), keys[..3].to_vec());
    }

    /// Match order interleaves two distinct conditions of bit-equal
    /// probability (`w` and `¬w`, π(w) = 0.5) with a slot `v` that three
    /// answers of one canonical form share, and ends on a lone answer.
    /// `above` ranks the slots and sorts only the runs of equal
    /// probability, in the order of a full sort of the answers.
    #[test]
    fn above_sorts_only_runs_of_equal_probability() {
        let mut tree = ProbTree::new("r");
        let w = tree.events_mut().insert("w", 0.5);
        let v = tree.events_mut().insert("v", 0.8);
        let u = tree.events_mut().insert("u", 0.3);
        let root = tree.tree().root();
        let children = [
            (Literal::pos(w), "b"),
            (Literal::neg(w), "a"),
            (Literal::pos(v), "s"),
            (Literal::pos(w), "a"),
            (Literal::pos(v), "s"),
            (Literal::neg(w), "c"),
            (Literal::pos(v), "s"),
            (Literal::pos(u), "z"),
        ];
        for (literal, leaf) in children {
            let x = tree.add_child(root, "x", Condition::of(literal));
            tree.add_child(x, leaf, Condition::always());
        }
        // An `x` node and its leaf, so the leaf labels set the tie keys.
        let mut q = PatternQuery::new(Some("x"));
        q.add_node(q.root(), crate::query::pattern::Axis::Child, None);
        let prepared = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(prepared.num_distinct_conditions(), 4);
        assert_eq!(prepared.probability(0), prepared.probability(1));
        let position = |answers: &AnswerSet| -> Vec<usize> {
            answers
                .iter()
                .map(|a| (0..prepared.len()).find(|&i| *prepared.subtree(i) == a.subtree))
                .map(Option::unwrap)
                .collect()
        };
        // The full sort of the answers under the same rank order, on a
        // state of its own so that `prepared` caches no tie key yet.
        let reference = QueryEngine::new().prepare(&tree, &q);
        let mut full: Vec<(usize, f64)> = (0..reference.len())
            .map(|i| (i, reference.probability(i)))
            .collect();
        full.sort_by(|&a, &b| reference.rank_cmp(a, b, &SelectionCounters::default()));
        let full: Vec<usize> = full.into_iter().map(|(i, _)| i).collect();
        assert_eq!(full, [2, 4, 6, 1, 3, 0, 5, 7]);

        let ranked = prepared.ranked();
        assert_eq!(position(&ranked), full);
        // Four slots sorted by probability: 4 comparisons. The `v` run is
        // in order: 2. The `w`/`¬w` run sorts four answers: 4. The lone
        // `u` answer is compared with nothing and builds no tie key.
        assert_eq!(
            ranked.stats(),
            SelectionStats {
                enumerated: 8,
                comparisons: 4 + 2 + 4,
                tie_keys_built: 3 + 4,
                selected: 8,
            }
        );
        // A threshold above the tie keeps the `v` run alone: one slot, and
        // its run in order.
        let above = prepared.above(0.6);
        assert_eq!(position(&above), full[..3]);
        assert_eq!(above.stats().comparisons, 2);
        assert_eq!(above.stats().tie_keys_built, 0, "keys cached");
    }

    #[test]
    fn zero_probability_answers_are_dropped() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "C", Condition::of(Literal::neg(w)));
        // A query needing both B and C has an answer whose condition set is
        // inconsistent.
        let mut q = PatternQuery::anchored(Some("A"));
        q.add_child(q.root(), "B");
        q.add_child(q.root(), "C");
        let prepared = QueryEngine::new().prepare(&t, &q);
        assert_eq!(prepared.len(), 1);
        assert!(prepared.top_k(10).is_empty());
        assert!(prepared.above(0.0).is_empty());
    }

    #[test]
    fn expected_matches_agrees_with_world_expansion() {
        // Expected number of //C/D matches on Figure 1: only the 0.70 world
        // has one, so the expectation is 0.70.
        let t = figure1_example();
        let mut q = PatternQuery::new(Some("C"));
        q.add_child(q.root(), "D");
        let direct = QueryEngine::new().prepare(&t, &q).expected_matches();
        let mut via_worlds = 0.0;
        for (world, p) in crate::semantics::possible_worlds(&t, 20)
            .unwrap()
            .normalized()
            .iter()
        {
            via_worlds += p * q.evaluate(&world.to_tree()).len() as f64;
        }
        assert!(prob_eq(direct, via_worlds));
        assert!(prob_eq(direct, 0.70));
    }

    #[test]
    fn expected_matches_counts_multiplicities() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        let expected = QueryEngine::new().prepare(&t, &q).expected_matches();
        assert!(prob_eq(expected, 0.9 + 0.5 + 0.2));
    }

    // ------------------------------------------------------------------
    // Incremental maintenance (`PreparedQuery::maintain`)
    // ------------------------------------------------------------------

    use crate::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};

    fn doc_insert(label: &str, inserted: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new(inserted)),
            confidence,
        )
    }

    fn doc_delete(label: &str, confidence: f64) -> ProbabilisticUpdate {
        let q = PatternQuery::new(Some(label));
        let at = q.root();
        ProbabilisticUpdate::new(UpdateOperation::delete(q, at), confidence)
    }

    /// A default engine's document-backed state for a pattern.
    fn doc_view(doc: &Document, q: &PatternQuery) -> PreparedQuery<'static> {
        QueryEngine::new().prepare_doc_shared(doc, Arc::new(q.clone()))
    }

    /// The maintained state must be indistinguishable from a fresh
    /// prepare against the same document epoch: same answers, same
    /// distinct conditions, same ranking order, bit-identical
    /// probabilities.
    fn assert_agrees_with_fresh(maintained: &PreparedQuery<'_>, doc: &Document, q: &PatternQuery) {
        let fresh = doc_view(doc, q);
        assert_eq!(maintained.len(), fresh.len());
        assert_eq!(
            maintained.num_distinct_conditions(),
            fresh.num_distinct_conditions()
        );
        for i in 0..fresh.len() {
            assert_eq!(maintained.subtree(i), fresh.subtree(i), "answer #{i} nodes");
            assert_eq!(
                maintained.probability(i).to_bits(),
                fresh.probability(i).to_bits(),
                "answer #{i} probability is bit-identical"
            );
        }
        for (a, b) in maintained.ranked().iter().zip(fresh.ranked().iter()) {
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            assert_eq!(a.subtree, b.subtree, "ranking order agrees");
        }
    }

    #[test]
    fn maintain_patches_off_footprint_insertions_in_place() {
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(6));
        let mut prepared = doc_view(&doc, &q);
        assert_eq!(prepared.document_stamp(), Some((doc.id(), 0)));
        assert_eq!(
            prepared.footprint().map(std::collections::BTreeSet::len),
            Some(1),
            "the item pattern has a one-label footprint"
        );
        prepared.expected_matches(); // cache every probability
        assert_eq!(
            prepared.num_cached_probabilities(),
            prepared.num_distinct_conditions()
        );
        let engine = UpdateEngine::new();
        engine.apply_doc(&mut doc, &doc_insert("sku0", "note", 0.9));
        engine.apply_doc(&mut doc, &doc_insert("catalog", "annex", 0.4));
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(outcome, MaintainOutcome::Patched { steps: 2 });
        let stats = prepared.maintenance_stats();
        assert_eq!(stats.steps_patched, 2);
        assert_eq!(stats.fallbacks, 0, "no silent fallback");
        assert_eq!(stats.unions_rebuilt, 0, "no condition was rewritten");
        assert_eq!(stats.unions_carried, 6, "one carried union per answer");
        assert_eq!(
            prepared.num_cached_probabilities(),
            prepared.num_distinct_conditions(),
            "cached probabilities survive the patch"
        );
        assert_agrees_with_fresh(&prepared, &doc, &q);
        assert_eq!(prepared.maintain(&doc), Ok(MaintainOutcome::UpToDate));
    }

    #[test]
    fn a_patch_keeps_the_tie_keys_earlier_selections_built() {
        let q = PatternQuery::new(Some("x"));
        let mut doc = Document::new(tied(6));
        let mut prepared = doc_view(&doc, &q);
        let built = prepared.ranked().stats().tie_keys_built;
        assert!(built > 0, "the ties need keys");
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("r", "note", 0.9));
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 1 })
        );
        assert_eq!(
            prepared.num_cached_tie_keys() as u64,
            built,
            "the patch keeps every key"
        );
        let fresh = doc_view(&doc, &q);
        let (carried, rebuilt) = (prepared.ranked(), fresh.ranked());
        assert_eq!(carried.stats().tie_keys_built, 0);
        assert_eq!(rebuilt.stats().tie_keys_built, built);
        assert_eq!(
            SelectionStats {
                tie_keys_built: built,
                ..carried.stats()
            },
            rebuilt.stats()
        );
        assert_eq!(carried.len(), rebuilt.len());
        for (a, b) in carried.iter().zip(rebuilt.iter()) {
            assert_eq!(a.subtree, b.subtree, "same answers in the same order");
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn certain_deletion_of_the_matched_label_patches_to_empty() {
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(3));
        let mut prepared = doc_view(&doc, &q);
        assert_eq!(prepared.len(), 3);
        prepared.expected_matches();
        UpdateEngine::new().apply_doc(&mut doc, &doc_delete("item", 1.0));
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(outcome, MaintainOutcome::Patched { steps: 1 });
        assert!(prepared.is_empty(), "every item is gone");
        assert_eq!(prepared.num_distinct_conditions(), 0, "no slot is left");
        let stats = prepared.maintenance_stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.steps_patched, 1);
        assert_eq!((stats.unions_rebuilt, stats.unions_carried), (0, 0));
        assert_agrees_with_fresh(&prepared, &doc, &q);
    }

    #[test]
    fn footprint_label_insertion_patches_in_the_new_answer() {
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(3));
        let mut prepared = doc_view(&doc, &q);
        assert_eq!(prepared.len(), 3);
        prepared.expected_matches();
        let built = prepared.ranked().stats().tie_keys_built;
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "item", 0.85));
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(outcome, MaintainOutcome::Patched { steps: 1 });
        assert_eq!(prepared.len(), 4, "the inserted item is an answer now");
        assert!(
            (0..prepared.len()).any(|i| prob_eq(prepared.probability(i), 0.85)),
            "the new answer carries the insertion confidence"
        );
        let stats = prepared.maintenance_stats();
        assert_eq!((stats.unions_rebuilt, stats.unions_carried), (1, 3));
        assert_eq!(
            stats.rematch_visited, 2,
            "the one appended slot, read once as a slot and once as a root"
        );
        assert_eq!(prepared.num_cached_tie_keys() as u64, built);
        assert_agrees_with_fresh(&prepared, &doc, &q);
    }

    #[test]
    fn off_footprint_condition_rewrites_patch_and_rebuild_only_dirty_unions() {
        // A certain helper event rides on the first item's condition; the
        // first update triggers the engine's prune-certain pass, which
        // strips the redundant literal from the *surviving* node — a pure
        // condition rewrite in the delta, with no removal or insertion of
        // footprint labels. The patched path must rebuild exactly that
        // answer's union and break the resulting probability tie exactly
        // as a fresh prepare does.
        let mut tree = ProbTree::new("catalog");
        let root = tree.tree().root();
        let c = tree.events_mut().insert("c", 1.0);
        let w1 = tree.events_mut().insert("w1", 0.5);
        let w2 = tree.events_mut().insert("w2", 0.5);
        tree.add_child(
            root,
            "item",
            Condition::from_literals([Literal::pos(w1), Literal::pos(c)]),
        );
        tree.add_child(root, "item", Condition::of(Literal::pos(w2)));
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(tree);
        let mut prepared = doc_view(&doc, &q);
        prepared.expected_matches(); // cache every probability
        let delta = UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "note", 0.9));
        assert!(
            !delta.rewritten.is_empty(),
            "prune-certain rewrote the surviving item in place"
        );
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(outcome, MaintainOutcome::Patched { steps: 1 });
        let stats = prepared.maintenance_stats();
        assert_eq!(stats.unions_rebuilt, 1, "only the rewritten answer");
        assert_eq!(stats.unions_carried, 1);
        assert_eq!(stats.fallbacks, 0);
        // Both items are tied at probability 0.5 after the rewrite.
        assert!(prob_eq(prepared.probability(0), 0.5));
        assert!(prob_eq(prepared.probability(1), 0.5));
        assert_agrees_with_fresh(&prepared, &doc, &q);
    }

    #[test]
    fn semiring_value_caches_hit_on_redrains_and_survive_maintenance() {
        use pxml_events::{Lineage, Possibility};
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(6));
        let mut prepared = doc_view(&doc, &q);
        let n = prepared.num_distinct_conditions() as u64;
        assert_eq!(
            prepared.semiring_cache_stats(),
            SemiringCacheStats::default()
        );
        let first = prepared.answers_in_cached(&Lineage);
        assert_eq!(
            prepared.semiring_cache_stats(),
            SemiringCacheStats {
                computed: n,
                hits: 0
            },
            "first drain folds every distinct condition"
        );
        let second = prepared.answers_in_cached(&Lineage);
        assert_eq!(
            prepared.semiring_cache_stats(),
            SemiringCacheStats {
                computed: n,
                hits: n
            },
            "second drain is all hits"
        );
        assert_eq!(first, second);
        assert_eq!(first, prepared.answers_in(&Lineage));
        // Each semiring type caches in its own slots.
        let possible = prepared.answers_in_cached(&Possibility);
        assert_eq!(
            prepared.num_cached_semiring_values(&Possibility),
            n as usize
        );
        assert_eq!(prepared.num_cached_semiring_values(&Lineage), n as usize);
        assert_eq!(possible, prepared.answers_in(&Possibility));
        // Off-footprint maintenance carries every clean slot's value, so
        // the next drain recomputes nothing.
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "annex", 1.0));
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 1 })
        );
        assert_eq!(prepared.num_cached_semiring_values(&Lineage), n as usize);
        let stats_before = prepared.semiring_cache_stats();
        let after = prepared.answers_in_cached(&Lineage);
        assert_eq!(
            prepared.semiring_cache_stats().computed,
            stats_before.computed,
            "carried values are not recomputed"
        );
        assert_eq!(
            after,
            doc_view(&doc, &q).answers_in(&Lineage),
            "cached drain agrees with a fresh prepare"
        );
    }

    #[test]
    fn semiring_values_carry_across_commits_that_add_events() {
        use pxml_events::{Lineage, Possibility};
        // A confidence-0.9 insertion off the footprint adds a fresh event
        // and rewrites no answer's condition. A Possibility or Lineage
        // value depends only on the events its condition mentions, so
        // every clean slot keeps its value.
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(6));
        let mut prepared = doc_view(&doc, &q);
        let n = prepared.num_distinct_conditions();
        prepared.answers_in_cached(&Possibility);
        prepared.answers_in_cached(&Lineage);
        let events_before = doc.tree().events().len();
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "memo", 0.9));
        assert_eq!(doc.tree().events().len(), events_before + 1);
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 1 })
        );
        assert_eq!(prepared.maintenance_stats().unions_rebuilt, 0);
        assert_eq!(
            prepared.num_cached_semiring_values(&Possibility),
            n,
            "clean slots stay cached"
        );
        assert_eq!(prepared.num_cached_semiring_values(&Lineage), n);
        let computed = prepared.semiring_cache_stats().computed;
        let fresh = doc_view(&doc, &q);
        assert_eq!(
            prepared.answers_in_cached(&Possibility),
            fresh.answers_in(&Possibility)
        );
        assert_eq!(
            prepared.answers_in_cached(&Lineage),
            fresh.answers_in(&Lineage)
        );
        assert_eq!(
            prepared.semiring_cache_stats().computed,
            computed,
            "both drains are served from the carried values"
        );
    }

    #[test]
    fn dirty_condition_rewrites_invalidate_carried_semiring_values() {
        use pxml_events::semiring::Lineage;
        // The prune-certain scenario of
        // `off_footprint_condition_rewrites_patch_and_rebuild_only_dirty_unions`:
        // the first item's condition is rewritten in place, the second is
        // untouched.
        let mut tree = ProbTree::new("catalog");
        let root = tree.tree().root();
        let c = tree.events_mut().insert("c", 1.0);
        let w1 = tree.events_mut().insert("w1", 0.5);
        let w2 = tree.events_mut().insert("w2", 0.5);
        tree.add_child(
            root,
            "item",
            Condition::from_literals([Literal::pos(w1), Literal::pos(c)]),
        );
        tree.add_child(root, "item", Condition::of(Literal::pos(w2)));
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(tree);
        let mut prepared = doc_view(&doc, &q);
        prepared.answers_in_cached(&Lineage);
        assert_eq!(prepared.num_cached_semiring_values(&Lineage), 2);
        // Only the rewritten answer's slot is dropped.
        let delta = UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "note", 1.0));
        assert!(!delta.rewritten.is_empty(), "prune-certain rewrote a node");
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 1 })
        );
        assert_eq!(prepared.maintenance_stats().unions_rebuilt, 1);
        assert_eq!(
            prepared.num_cached_semiring_values(&Lineage),
            1,
            "the rewritten answer's cached value was dropped"
        );
        let drained = prepared.answers_in_cached(&Lineage);
        assert_eq!(
            prepared.semiring_cache_stats(),
            SemiringCacheStats {
                computed: 3,
                hits: 1
            },
            "exactly the dirty slot was re-folded"
        );
        assert_eq!(drained, doc_view(&doc, &q).answers_in(&Lineage));
    }

    #[test]
    fn windowed_maintenance_matches_the_per_delta_path() {
        // `windowed` falls two commits behind and patches both in one
        // pass; `stepped` is maintained after each commit.
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::new(ladder(6));
        let mut windowed = doc_view(&doc, &q);
        let mut stepped = doc_view(&doc, &q);
        windowed.expected_matches();
        stepped.expected_matches();
        let engine = UpdateEngine::new();
        for update in [
            doc_insert("sku0", "note", 0.9),
            doc_insert("catalog", "annex", 0.4),
        ] {
            engine.apply_doc(&mut doc, &update);
            assert_eq!(
                stepped.maintain(&doc),
                Ok(MaintainOutcome::Patched { steps: 1 })
            );
        }
        assert_eq!(
            windowed.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 2 })
        );
        let wstats = windowed.maintenance_stats();
        assert_eq!(wstats.windows_applied, 1);
        assert_eq!(wstats.steps_patched, 2, "each pending delta counts once");
        let sstats = stepped.maintenance_stats();
        assert_eq!(sstats.windows_applied, 2);
        assert_eq!(sstats.steps_patched, 2);
        assert_eq!(
            windowed.num_cached_probabilities(),
            stepped.num_cached_probabilities(),
            "one pass carries the same probability cache"
        );
        assert_agrees_with_fresh(&windowed, &doc, &q);
        assert_agrees_with_fresh(&stepped, &doc, &q);
        // Two pending deltas, one of them on the footprint, patch in one
        // pass that re-matches at the nodes both appended.
        engine.apply_doc(&mut doc, &doc_insert("sku1", "memo", 0.6));
        engine.apply_doc(&mut doc, &doc_insert("catalog", "item", 0.85));
        assert_eq!(
            windowed.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 2 })
        );
        assert_eq!(windowed.len(), 7);
        assert_eq!(windowed.maintenance_stats().fallbacks, 0);
        assert_agrees_with_fresh(&windowed, &doc, &q);
    }

    #[test]
    fn maintain_rejects_foreign_and_borrowed_states() {
        let q = PatternQuery::new(Some("item"));
        let tree = ladder(2);
        let doc = Document::new(ladder(2));
        let mut borrowed = QueryEngine::new().prepare(&tree, &q);
        assert_eq!(borrowed.document_stamp(), None);
        assert_eq!(
            borrowed.maintain(&doc),
            Err(MaintainError::NotDocumentBacked)
        );
        let other = Document::new(ladder(2));
        let mut prepared = doc_view(&doc, &q);
        assert_eq!(
            prepared.maintain(&other),
            Err(MaintainError::DocumentMismatch)
        );
        assert_eq!(
            prepared.document_stamp(),
            Some((doc.id(), 0)),
            "stamp untouched"
        );
        assert_eq!(prepared.maintenance_stats(), MaintainStats::default());
        assert_eq!(prepared.maintain(&doc), Ok(MaintainOutcome::UpToDate));
    }

    #[test]
    fn trimmed_delta_logs_force_a_fallback_reprepare() {
        let q = PatternQuery::new(Some("item"));
        let mut doc = Document::with_log_capacity(ladder(3), 0);
        let mut prepared = doc_view(&doc, &q);
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "note", 0.9));
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(
            outcome,
            MaintainOutcome::Fallback {
                reason: FallbackReason::LogTrimmed
            }
        );
        assert_agrees_with_fresh(&prepared, &doc, &q);
    }

    /// A wildcard pattern has no footprint, so every delta counts as
    /// meeting it, and the patch re-matches at the appended nodes.
    #[test]
    fn wildcard_patterns_patch_by_rematching_at_the_appended_nodes() {
        let q = PatternQuery::new(None);
        let mut doc = Document::new(ladder(2));
        let mut prepared = doc_view(&doc, &q);
        assert!(
            prepared.footprint().is_none(),
            "wildcards have no footprint"
        );
        assert_eq!(prepared.len(), 5);
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("catalog", "note", 0.9));
        let outcome = prepared.maintain(&doc).unwrap();
        assert_eq!(outcome, MaintainOutcome::Patched { steps: 1 });
        assert_eq!(prepared.len(), 6, "the note is an answer now");
        let stats = prepared.maintenance_stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!((stats.unions_rebuilt, stats.unions_carried), (1, 5));
        assert_eq!(
            stats.rematch_visited, 2,
            "the one appended slot, read once as a slot and once as a root"
        );
        assert_agrees_with_fresh(&prepared, &doc, &q);
    }

    /// A foreign query with no footprint and no `evaluate_appended` meets
    /// every delta and cannot re-match: each commit re-prepares it, even
    /// one that misses the labels its answers hold.
    #[test]
    fn a_foreign_query_that_cannot_rematch_falls_back_spine_touched() {
        let counting = Arc::new(CountingQuery::new(PatternQuery::new(Some("item")), None));
        let mut doc = Document::new(ladder(3));
        let mut prepared = QueryEngine::new().prepare_doc_shared(&doc, counting.clone());
        UpdateEngine::new().apply_doc(&mut doc, &doc_insert("sku0", "note", 0.9));
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Fallback {
                reason: FallbackReason::SpineTouched
            })
        );
        assert_eq!(
            counting.evaluations.load(Ordering::Relaxed),
            2,
            "the fallback evaluated the whole tree again"
        );
        assert_eq!(prepared.maintenance_stats().fallbacks, 1);
        assert_agrees_with_fresh(&prepared, &doc, &counting.inner);
    }

    /// A foreign footprint that omits `item`, a label its answers hold, is
    /// unsound: a confidence-1 retraction detaches every item while its
    /// delta misses the footprint, so the patch finds the answers
    /// displaced and re-prepares.
    #[test]
    fn an_unsound_foreign_footprint_falls_back_answer_displaced() {
        let footprint = BTreeSet::from(["catalog".to_string()]);
        let counting = Arc::new(CountingQuery::new(
            PatternQuery::new(Some("item")),
            Some(footprint),
        ));
        let mut doc = Document::new(ladder(3));
        let mut prepared = QueryEngine::new().prepare_doc_shared(&doc, counting.clone());
        assert_eq!(prepared.len(), 3);
        let delta = UpdateEngine::new().apply_doc(&mut doc, &doc_delete("item", 1.0));
        assert!(delta.nodes_removed > 0, "the retraction detached the items");
        assert_eq!(
            prepared.maintain(&doc),
            Ok(MaintainOutcome::Fallback {
                reason: FallbackReason::AnswerDisplaced
            })
        );
        assert!(prepared.is_empty());
        assert_agrees_with_fresh(&prepared, &doc, &counting.inner);
    }
}
