//! The update engine: deterministic, nested-target-correct application of
//! probabilistic updates to prob-trees (Appendix A, generalized).
//!
//! Three properties distinguish the engine from a naive transcription of
//! the Appendix A algorithms:
//!
//! 1. **Nested-target correctness.** When the deletion query matches two
//!    targets on one root-to-leaf path, the descendant's survival split
//!    must be visible *inside* the ancestor's survivor copies. The engine
//!    therefore orders deletion targets deepest-first over the total
//!    `(depth, NodeId)` order and grafts every survivor copy from the
//!    **evolving** tree, so splits already applied below a target are
//!    carried into its copies. (The per-match deletion conditions are
//!    still computed on the original tree — matches are defined by the
//!    original world contents.)
//! 2. **Determinism.** Target grouping uses a `BTreeMap`, per-target
//!    deletion conditions are sorted and deduplicated, and every
//!    remaining iteration order is structural — two applications of the
//!    same update to the same tree produce byte-identical renderings.
//! 3. **Blow-up control.** The mutually exclusive negation chain of
//!    Appendix A is built over a configurable literal order; the default
//!    places literals shared by many deletion conditions first, so chain
//!    products prune inconsistent combinations early. For a confidence-`c`
//!    deletion with `k` matches on one target this yields `1 + Π_j p_j`
//!    survivor copies instead of `Π_j (p_j + 1)` (the fresh event `w` is
//!    split off once), and the post-step [`simplify`](mod@super::simplify)
//!    pass re-covers what the ordering alone cannot.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use pxml_events::{Condition, EventId, Literal};
use pxml_tree::{DataTree, NodeId};

use crate::document::Fixpoint;
use crate::probtree::ProbTree;
use crate::query::pattern::{PatternMatch, PatternNodeId};

use super::script::{ScriptReport, UpdateScript};
use super::simplify::{simplify_scoped, Census, Touched};
use super::{ProbabilisticUpdate, UpdateAction};

/// Configuration of an [`UpdateEngine`].
#[derive(Clone, Debug)]
pub struct UpdateEngineConfig {
    /// Run the [`simplify`](mod@super::simplify) pass after every step
    /// (default: `true`).
    pub simplify: bool,
    /// Order negation-chain literals so that literals shared by many
    /// deletion conditions come first (default: `true`). Disable to
    /// reproduce the naive Appendix A expansion (used by the blow-up
    /// benchmarks as a baseline).
    pub shared_first_chains: bool,
    /// Hard budget on the *predicted* total survivor copies of one step
    /// (default: `None` = unlimited). When set,
    /// [`UpdateEngine::try_apply`] refuses a deletion whose
    /// [`DeletionForecast`] exceeds the budget — before any subtree is
    /// materialized.
    pub max_survivor_copies: Option<usize>,
}

impl Default for UpdateEngineConfig {
    fn default() -> Self {
        UpdateEngineConfig {
            simplify: true,
            shared_first_chains: true,
            max_survivor_copies: None,
        }
    }
}

impl UpdateEngineConfig {
    /// The naive Appendix A behaviour: no simplification, no chain
    /// reordering. Kept as the measurable baseline for the blow-up
    /// benchmarks and the simplification assertions: its output is the
    /// Appendix A expansion itself, at Theorem 3's size.
    pub fn raw() -> Self {
        UpdateEngineConfig {
            simplify: false,
            shared_first_chains: false,
            max_survivor_copies: None,
        }
    }
}

/// Error of [`UpdateEngine::try_apply`]: the static forecast predicts
/// more survivor copies than the configured budget allows, so the step
/// was refused before materializing anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurvivorBudgetExceeded {
    /// Total survivor copies the forecast predicts for the step.
    pub predicted: usize,
    /// The configured [`UpdateEngineConfig::max_survivor_copies`] budget.
    pub budget: usize,
}

impl std::fmt::Display for SurvivorBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "predicted {} survivor copies exceed the budget of {}",
            self.predicted, self.budget
        )
    }
}

impl std::error::Error for SurvivorBudgetExceeded {}

/// The static cost prediction of one update step, computed by
/// [`UpdateEngine::forecast`] by replaying the match grouping and
/// survivor expansion **without mutating the tree** — no subtree is
/// copied, no condition is attached. For deletions the per-target counts
/// equal, exactly, the number of survivor copies [`UpdateEngine::apply`]
/// will graft (property-tested against [`StepReport::survivor_copies`]);
/// insertions never copy survivors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeletionForecast {
    /// Number of query matches the step will see.
    pub matches: usize,
    /// Number of distinct target nodes.
    pub targets: usize,
    /// Predicted survivor copies per distinct target, in the engine's
    /// deterministic (deepest-first) target order. Empty for insertions
    /// and unmatched steps.
    pub survivors_per_target: Vec<usize>,
    /// Logical size of each target's subtree (same order), measured on
    /// the input tree. Exact for non-nested targets; with nested targets
    /// the real copies also embed deeper splits, so this is a floor.
    pub subtree_nodes_per_target: Vec<usize>,
}

impl DeletionForecast {
    /// Total survivor copies the step will graft.
    pub fn total_survivor_copies(&self) -> usize {
        self.survivors_per_target.iter().sum()
    }

    /// Predicted nodes of all survivor copies together:
    /// `Σ_targets copies · subtree size` — what [`ProbTree::num_nodes`]
    /// will charge for them (exact for non-nested targets), since
    /// [`UpdateEngine::apply`] grafts every copy as fresh arena nodes.
    pub fn logical_survivor_nodes(&self) -> usize {
        self.survivors_per_target
            .iter()
            .zip(&self.subtree_nodes_per_target)
            .map(|(copies, nodes)| copies * nodes)
            .sum()
    }

    /// `true` if the step will not change the tree (no matches).
    pub fn is_dead(&self) -> bool {
        self.matches == 0
    }
}

/// Telemetry for one applied update step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Number of query matches.
    pub matches: usize,
    /// Number of distinct target nodes.
    pub targets: usize,
    /// The fresh event variable introduced (confidence < 1 and at least
    /// one match).
    pub new_event: Option<EventId>,
    /// Nodes / literals before the step.
    pub nodes_before: usize,
    /// Literals before the step.
    pub literals_before: usize,
    /// Nodes after the update but before simplification.
    pub nodes_raw: usize,
    /// Literals after the update but before simplification.
    pub literals_raw: usize,
    /// Nodes after the step (after simplification, when enabled).
    pub nodes_after: usize,
    /// Literals after the step (after simplification, when enabled).
    pub literals_after: usize,
    /// Survivor copies actually grafted by this step (0 for insertions
    /// and unmatched steps) — the measured counterpart of
    /// [`DeletionForecast::total_survivor_copies`].
    pub survivor_copies: usize,
    /// Which part of the tree the step's simplification covered.
    pub scope: StepScope,
    /// Data nodes the step's pattern match read: postings walked plus
    /// candidates tested (see
    /// [`PatternQuery::matches`](crate::PatternQuery::matches)). It
    /// depends on whether the input frame carries label postings, which
    /// only a document's frames do once [`UpdateEngine::stage_doc`] has
    /// indexed them.
    pub match_visited: usize,
    /// Nodes the simplification visited: cleaned or pruned, scanned as
    /// children of a parent whose sibling-cover merge ran, or interned for
    /// a shape code (0 when simplification is off or nothing matched).
    pub simplify_visited: usize,
    /// Nodes the census walked to derive the step's sizes and its
    /// [`UpdateDelta`](crate::UpdateDelta): the touched subtrees and the
    /// rewritten nodes, counted after the update and again after the
    /// simplification when it runs, in either scope (0 when nothing
    /// matched).
    pub delta_visited: usize,
}

/// The part of the tree an update step's simplification covered; see
/// [`StepReport::scope`]. Either way the step derives its sizes and its
/// delta from the nodes it and its simplification touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepScope {
    /// The whole tree: one-shot [`UpdateEngine::apply`], any commit by an
    /// engine that does not simplify, and any document commit whose base
    /// frame is not known to be a simplify fixpoint (a fresh document's
    /// first commit, or the commit after one whose simplify did not run
    /// or did not converge). Cleaning and pruning may rewrite base-frame
    /// conditions.
    Whole,
    /// Only what the step touched, on a document frame that is a simplify
    /// fixpoint: the subtrees it grafted, the parents it grafted under or
    /// detached from, and their ancestors. Gives the whole scope's tree,
    /// sizes and delta; only the ids of the nodes a step appends may
    /// differ, since the two scopes sweep merges in different orders and
    /// each merge appends its cover copies as it runs. Both scopes keep
    /// the ids of the base frame's surviving nodes.
    Region,
}

impl StepReport {
    /// The report of a step with `matches` matches, before anything is
    /// grafted: every size is the input's.
    fn new(matches: usize, nodes: usize, literals: usize, scope: StepScope) -> Self {
        StepReport {
            matches,
            targets: 0,
            new_event: None,
            nodes_before: nodes,
            literals_before: literals,
            nodes_raw: nodes,
            literals_raw: literals,
            nodes_after: nodes,
            literals_after: literals,
            survivor_copies: 0,
            scope,
            match_visited: 0,
            simplify_visited: 0,
            delta_visited: 0,
        }
    }

    /// `|T|` after the update, before simplification (nodes + literals,
    /// the paper's size measure).
    pub fn size_raw(&self) -> usize {
        self.nodes_raw + self.literals_raw
    }

    /// `|T|` after the step.
    pub fn size_after(&self) -> usize {
        self.nodes_after + self.literals_after
    }

    /// How much the simplification pass saved on this step, in size units.
    pub fn simplification_savings(&self) -> usize {
        self.size_raw().saturating_sub(self.size_after())
    }
}

/// Applies probabilistic updates to prob-trees; see the module docs for
/// what it guarantees beyond the naive Appendix A transcription.
#[derive(Clone, Debug, Default)]
pub struct UpdateEngine {
    config: UpdateEngineConfig,
}

impl UpdateEngine {
    /// An engine with the default configuration (simplification and
    /// shared-first chains on).
    pub fn new() -> Self {
        UpdateEngine::default()
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: UpdateEngineConfig) -> Self {
        UpdateEngine { config }
    }

    /// Applies one probabilistic update, returning the updated prob-tree
    /// and the step telemetry. Survivor copies are materialized as fresh
    /// arena nodes.
    pub fn apply(&self, tree: &ProbTree, update: &ProbabilisticUpdate) -> (ProbTree, StepReport) {
        let step = self.run(tree, update, None);
        let tree = if step.report.matches == 0 {
            step.tree
        } else {
            step.tree.compact().0
        };
        (tree, step.report)
    }

    /// One step on `tree`. `base` is the document's record of a frame
    /// that is a simplify fixpoint: the step takes the frame's size from
    /// it, and a simplifying engine simplifies only the touched region.
    /// Without it the step measures `tree` and runs over the whole tree.
    /// Either way, the step's other sizes and its census come from what
    /// it touched.
    fn run(&self, tree: &ProbTree, update: &ProbabilisticUpdate, base: Option<&Fixpoint>) -> Step {
        let (matches, match_visited) = update.operation.query.matches_counted(tree.tree());
        let (nodes_before, literals_before) = match base {
            Some(base) => (base.nodes, base.literals),
            None => {
                let stats = tree.memory_stats();
                (stats.logical_nodes, stats.logical_literals)
            }
        };
        let scope = if base.is_some() && self.config.simplify {
            StepScope::Region
        } else {
            StepScope::Whole
        };
        let mut report = StepReport::new(matches.len(), nodes_before, literals_before, scope);
        report.match_visited = match_visited;
        if matches.is_empty() {
            return Step {
                tree: tree.clone(),
                report,
                census: Census::default(),
                converged: None,
            };
        }
        let mut out = tree.clone();
        let mut touched = Touched::new(out.tree().arena_len());
        self.graft(&mut out, tree, &matches, update, &mut touched, &mut report);
        let raw = Census::of(&out, &touched);
        report.delta_visited += raw.visited;
        (report.nodes_raw, report.literals_raw) = raw.size_after(nodes_before, literals_before);
        let (updated, census, converged) = if self.config.simplify {
            let run = simplify_scoped(out, scope, touched);
            report.simplify_visited = run.visited;
            report.delta_visited += run.census.visited;
            (run.tree, run.census, Some(run.converged))
        } else {
            (out, raw, None)
        };
        (report.nodes_after, report.literals_after) =
            census.size_after(nodes_before, literals_before);
        Step {
            tree: updated,
            report,
            census,
            converged,
        }
    }

    /// Grafts one matched step into `out`, a copy of `original`: declares
    /// the fresh confidence event, runs the insertion or deletion, and
    /// records the event, targets and survivor copies in `report`.
    fn graft(
        &self,
        out: &mut ProbTree,
        original: &ProbTree,
        matches: &[PatternMatch],
        update: &ProbabilisticUpdate,
        touched: &mut Touched,
        report: &mut StepReport,
    ) {
        let new_event =
            (update.confidence < 1.0).then(|| out.events_mut().fresh(update.confidence));
        report.new_event = new_event;
        match &update.operation.action {
            UpdateAction::Insert { at, subtree } => {
                report.targets =
                    Self::apply_insertion(out, original, matches, *at, subtree, new_event, touched);
            }
            UpdateAction::Delete { at } => {
                let (targets, survivors) =
                    self.apply_deletion(out, original, matches, *at, new_event, touched);
                report.targets = targets;
                report.survivor_copies = survivors;
            }
        }
    }

    /// Like [`UpdateEngine::apply`], but enforces the configured
    /// [`UpdateEngineConfig::max_survivor_copies`] budget: the step's
    /// [`DeletionForecast`] is computed first (no mutation), and if it
    /// predicts more survivor copies than the budget allows the step is
    /// refused with a [`SurvivorBudgetExceeded`] error — before a single
    /// subtree copy is materialized. Without a budget this is `apply`.
    pub fn try_apply(
        &self,
        tree: &ProbTree,
        update: &ProbabilisticUpdate,
    ) -> Result<(ProbTree, StepReport), SurvivorBudgetExceeded> {
        if let Some(budget) = self.config.max_survivor_copies {
            let forecast = self.forecast(tree, update);
            let predicted = forecast.total_survivor_copies();
            if predicted > budget {
                return Err(SurvivorBudgetExceeded { predicted, budget });
            }
        }
        Ok(self.apply(tree, update))
    }

    /// Predicts the cost of one step **without mutating the tree**: the
    /// match set is grouped by target and the survivor expansion replayed
    /// on the deletion conditions alone — no subtree is copied. The
    /// fresh confidence event a sub-1 confidence would introduce is
    /// simulated with the next free event id, so the predicted chain
    /// lengths match the real application exactly.
    pub fn forecast(&self, tree: &ProbTree, update: &ProbabilisticUpdate) -> DeletionForecast {
        let matches = update.operation.query.matches(tree.tree());
        if matches.is_empty() {
            return DeletionForecast {
                matches: 0,
                targets: 0,
                survivors_per_target: Vec::new(),
                subtree_nodes_per_target: Vec::new(),
            };
        }
        let new_event = (update.confidence < 1.0).then(|| EventId::from_index(tree.events().len()));
        match &update.operation.action {
            UpdateAction::Insert { at, .. } => {
                let mut targets: Vec<NodeId> = matches.iter().map(|m| m.node(*at)).collect();
                targets.sort();
                targets.dedup();
                DeletionForecast {
                    matches: matches.len(),
                    targets: targets.len(),
                    survivors_per_target: Vec::new(),
                    subtree_nodes_per_target: Vec::new(),
                }
            }
            UpdateAction::Delete { at } => {
                let by_target = deletion_conditions(tree, &matches, *at, new_event);
                let targets = deletion_order(tree, &by_target);
                let survivors_per_target: Vec<usize> = targets
                    .iter()
                    .map(|t| {
                        self.expand_survivors(&by_target[t], self.config.shared_first_chains)
                            .len()
                    })
                    .collect();
                let subtree_nodes_per_target: Vec<usize> = targets
                    .iter()
                    .map(|&t| tree.tree().descendants(t).len())
                    .collect();
                DeletionForecast {
                    matches: matches.len(),
                    targets: targets.len(),
                    survivors_per_target,
                    subtree_nodes_per_target,
                }
            }
        }
    }

    /// Applies a batched sequence of updates in one pass, each step against
    /// the previous step's output, with per-step telemetry.
    pub fn apply_script(&self, tree: &ProbTree, script: &UpdateScript) -> (ProbTree, ScriptReport) {
        let mut current = tree.clone();
        let mut steps = Vec::with_capacity(script.len());
        for update in script.steps() {
            let (next, report) = self.apply(&current, update);
            current = next;
            steps.push(report);
        }
        (current, ScriptReport { steps })
    }

    /// Applies one update to a [`Document`](crate::Document), committing
    /// the result as the document's next epoch together with the
    /// [`UpdateDelta`](crate::UpdateDelta) that prepared queries consume
    /// via [`PreparedQuery::maintain`](crate::PreparedQuery::maintain).
    pub fn apply_doc(
        &self,
        doc: &mut crate::Document,
        update: &ProbabilisticUpdate,
    ) -> std::sync::Arc<crate::UpdateDelta> {
        let staged = self.stage_doc(doc, update);
        doc.commit_staged(staged)
            .expect("staged against the same exclusive document state")
    }

    /// The first half of [`UpdateEngine::apply_doc`], split off: applies
    /// `update` against the document's current snapshot **without
    /// committing**. All the work (matching, grafting, simplification,
    /// the delta) happens here under shared access; the returned
    /// [`StagedStep`](crate::StagedStep) carries the document identity
    /// and base epoch and commits — cheaply — via
    /// [`Document::commit_staged`](crate::Document::commit_staged). A
    /// commit that lands in between is detected there as an epoch
    /// conflict, so staging is safe to run optimistically.
    ///
    /// While the document's frame is a simplify fixpoint and this engine
    /// simplifies, the step runs in [`StepScope::Region`]: simplification
    /// covers only what the step touched. Otherwise it runs in
    /// [`StepScope::Whole`]. In both scopes the step's sizes and the delta
    /// come from a census of the nodes the step grafted, detached and
    /// rewrote; the step measures its input tree only when the document
    /// does not record the frame's size.
    ///
    /// This is the one place node ids change. A step keeps the id of
    /// every node it does not detach and appends the nodes it adds; it
    /// *rebases* — compacts its output once and reports the renumbering
    /// in [`UpdateDelta::node_map`](crate::UpdateDelta::node_map) — when
    /// it matched and the base frame holds more detached arena slots than
    /// live nodes.
    ///
    /// It is also the one place postings are built: a staged frame without
    /// label postings gets them ([`DataTree::index_labels`]), so the next
    /// step matches from the postings instead of scanning. That happens on
    /// a document's first commit and on a commit that rebases; every other
    /// step inherits its base frame's postings and links the nodes it adds.
    pub fn stage_doc(
        &self,
        doc: &crate::Document,
        update: &ProbabilisticUpdate,
    ) -> crate::StagedStep {
        let step = self.run(doc.tree(), update, doc.fixpoint());
        let matched = step.report.matches > 0;
        let fixpoint = if !matched {
            // The frame is the same tree.
            doc.fixpoint().cloned()
        } else if step.converged == Some(true) {
            Some(Fixpoint {
                nodes: step.report.nodes_after,
                literals: step.report.literals_after,
            })
        } else {
            None
        };
        let mut tree = step.tree;
        let mut delta = crate::UpdateDelta::from_census(doc.epoch() + 1, step.census, step.report);
        let base_len = doc.tree().tree().arena_len();
        let live = delta.report.nodes_before;
        if matched && base_len - live > live {
            let (compacted, mut map) = tree.compact();
            map.retain(|old, _| old.index() < base_len);
            delta.rewritten = delta.rewritten.iter().map(|node| map[node]).collect();
            delta.node_map = Some(map);
            tree = compacted;
        }
        if !tree.tree().has_postings() {
            tree.index_labels();
        }
        crate::StagedStep {
            doc: doc.id(),
            base_epoch: doc.epoch(),
            tree,
            delta,
            fixpoint,
        }
    }

    /// Appendix A insertion: one grafted copy of `subtree` per match.
    /// Returns the number of distinct insertion parents.
    fn apply_insertion(
        out: &mut ProbTree,
        original: &ProbTree,
        matches: &[PatternMatch],
        at: PatternNodeId,
        subtree: &DataTree,
        new_event: Option<EventId>,
        touched: &mut Touched,
    ) -> usize {
        let mut targets: Vec<NodeId> = Vec::new();
        for m in matches {
            let target = m.node(at);
            targets.push(target);
            let cond = match_condition(original, m);
            let gamma_target = original.condition(target);
            let cond_ancestors = original.ancestor_condition(target);
            // {w} ∪ (cond − (γ(µ(n)) ∪ cond_ancestors))
            let mut root_cond = cond.minus(&gamma_target.and(&cond_ancestors));
            if let Some(w) = new_event {
                root_cond = root_cond.and_literal(Literal::pos(w));
            }
            touched
                .grafted
                .push(out.graft_data_tree(target, subtree, root_cond));
        }
        targets.sort();
        targets.dedup();
        targets.len()
    }

    /// Appendix A deletion, generalized to several (possibly nested)
    /// matches: every target is replaced by one copy per surviving
    /// disjunct of the mutually exclusive expansion of "no deletion
    /// condition holds". Returns the number of distinct targets and the
    /// total number of survivor copies grafted.
    fn apply_deletion(
        &self,
        out: &mut ProbTree,
        original: &ProbTree,
        matches: &[PatternMatch],
        at: PatternNodeId,
        new_event: Option<EventId>,
        touched: &mut Touched,
    ) -> (usize, usize) {
        let by_target = deletion_conditions(original, matches, at, new_event);
        let targets = deletion_order(original, &by_target);
        let mut survivor_copies = 0;
        for target in &targets {
            let target = *target;
            let survivor_disjuncts =
                self.expand_survivors(&by_target[&target], self.config.shared_first_chains);
            survivor_copies += survivor_disjuncts.len();
            let gamma_target = out.condition(target);
            let parent = out
                .tree()
                .parent(target)
                .expect("non-root node has a parent");
            for disjunct in &survivor_disjuncts {
                let copy = out.duplicate_subtree_deep(parent, target, gamma_target.and(disjunct));
                touched.grafted.push(copy);
            }
            out.detach(target);
            touched.detached.push((parent, target));
        }
        (targets.len(), survivor_copies)
    }

    /// Expands `⋀_j ¬d_j` into a deterministic list of mutually exclusive
    /// conjunctions (the survivor disjuncts). A `d_j` with no literals
    /// means the deletion applies unconditionally: the target never
    /// survives and the list is empty.
    fn expand_survivors(&self, del_conds: &[Condition], shared_first: bool) -> Vec<Condition> {
        // Sorting + deduplication: determinism regardless of match
        // enumeration order, and `¬d ∧ ¬d = ¬d`.
        let mut dels: Vec<Condition> = del_conds.to_vec();
        dels.sort();
        dels.dedup();
        if dels.iter().any(Condition::is_empty) {
            return Vec::new();
        }
        // Literal frequency across the deletion conditions; chains over
        // shared-first literal orders collide early (a combination mixing
        // `¬w` and `w` links is pruned as inconsistent instead of
        // multiplying through).
        let mut frequency: BTreeMap<Literal, usize> = BTreeMap::new();
        if shared_first {
            for d in &dels {
                for &literal in d.literals() {
                    *frequency.entry(literal).or_insert(0) += 1;
                }
            }
        }
        let mut survivors: Vec<Condition> = vec![Condition::always()];
        for d in &dels {
            let mut literals: Vec<Literal> = d.literals().to_vec();
            if shared_first {
                literals.sort_by_key(|l| (Reverse(frequency[l]), *l));
            }
            let chain = negation_chain(&literals);
            let mut next = Vec::with_capacity(survivors.len() * chain.len());
            for base in &survivors {
                for link in &chain {
                    let combined = base.and(link);
                    if combined.is_consistent() {
                        next.push(combined);
                    }
                }
            }
            survivors = next;
        }
        survivors
    }
}

/// What [`UpdateEngine::run`] produced for one step.
struct Step {
    /// The updated tree, uncompacted: every node of the input keeps its
    /// id, detached nodes stay in the arena, and the nodes the step and
    /// its simplification added are appended.
    tree: ProbTree,
    report: StepReport,
    /// What the step removed, inserted and rewrote (empty when it
    /// matched nothing).
    census: Census,
    /// Whether simplification ran and converged; `None` when it did not
    /// run.
    converged: Option<bool>,
}

/// Groups the per-match deletion conditions by target node (shared by
/// the real application and the no-mutation [`UpdateEngine::forecast`]).
/// The conditions are computed against the original tree: a match is a
/// statement about the original world's contents, and all node
/// conditions it mentions still annotate the same nodes (or their
/// copies) while targets are being split below.
fn deletion_conditions(
    original: &ProbTree,
    matches: &[PatternMatch],
    at: PatternNodeId,
    new_event: Option<EventId>,
) -> BTreeMap<NodeId, Vec<Condition>> {
    let mut by_target: BTreeMap<NodeId, Vec<Condition>> = BTreeMap::new();
    for m in matches {
        let target = m.node(at);
        assert!(
            target != original.tree().root(),
            "deleting the root of a prob-tree is not supported"
        );
        let cond = match_condition(original, m);
        let gamma_target = original.condition(target);
        let cond_ancestors = original.ancestor_condition(target);
        let mut del_cond = cond.minus(&gamma_target.and(&cond_ancestors));
        if let Some(w) = new_event {
            del_cond = del_cond.and_literal(Literal::pos(w));
        }
        by_target.entry(target).or_default().push(del_cond);
    }
    by_target
}

/// The engine's deterministic target order: deepest targets first (ties
/// by `NodeId`). A target is only split after every target strictly
/// below it has been, so its survivor copies — grafted from the evolving
/// tree — embed the descendants' splits. Shallower-first (or grafting
/// from the original tree, as the pre-engine code did) loses the
/// descendant splits inside the ancestor's copies.
fn deletion_order(
    original: &ProbTree,
    by_target: &BTreeMap<NodeId, Vec<Condition>>,
) -> Vec<NodeId> {
    let mut targets: Vec<NodeId> = by_target.keys().copied().collect();
    targets.sort_by_key(|&t| (Reverse(original.tree().depth(t)), t));
    targets
}

/// The condition `cond` of Appendix A for one match: the union of the
/// conditions of the nodes of the induced answer sub-datatree.
fn match_condition(tree: &ProbTree, m: &PatternMatch) -> Condition {
    let sub = m.induced_subtree(tree.tree());
    let mut cond = Condition::always();
    for node in sub.nodes() {
        cond = cond.and(&tree.condition(node));
    }
    cond
}

/// The mutually exclusive expansion of `¬(a_1 ∧ … ∧ a_p)` used by
/// Appendix A, over the given literal order:
/// `{¬a_1}, {a_1, ¬a_2}, …, {a_1, …, a_{p−1}, ¬a_p}`.
fn negation_chain(literals: &[Literal]) -> Vec<Condition> {
    let mut chain = Vec::with_capacity(literals.len());
    for (i, &lit) in literals.iter().enumerate() {
        let mut parts: Vec<Literal> = literals[..i].to_vec();
        parts.push(lit.negated());
        chain.push(Condition::from_literals(parts));
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::possible_worlds;
    use crate::update::UpdateOperation;
    use crate::PatternQuery;

    /// The nested-target fixture:
    ///
    /// ```text
    /// A
    /// └── B1 [⊤]
    ///     ├── C1 [x]
    ///     └── B2 [⊤]
    ///         └── C2 [y]
    /// ```
    ///
    /// Deleting every `B` that has a `C` child (confidence 1) must, in the
    /// world `x=0, y=1`, delete `B2` but keep `B1` — which requires `B2`'s
    /// survival split to live inside `B1`'s survivor copy.
    fn nested_fixture() -> ProbTree {
        let mut t = ProbTree::new("A");
        let x = t.events_mut().insert("x", 0.5);
        let y = t.events_mut().insert("y", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(root, "B", Condition::always());
        t.add_child(b1, "C", Condition::of(Literal::pos(x)));
        let b2 = t.add_child(b1, "B", Condition::always());
        t.add_child(b2, "C", Condition::of(Literal::pos(y)));
        t
    }

    fn delete_b_with_c_child(confidence: f64) -> ProbabilisticUpdate {
        let mut q = PatternQuery::new(Some("B"));
        let b = q.root();
        q.add_child(b, "C");
        ProbabilisticUpdate::new(UpdateOperation::delete(q, b), confidence)
    }

    #[test]
    fn nested_deletion_targets_agree_with_pw_semantics() {
        let t = nested_fixture();
        let update = delete_b_with_c_child(1.0);
        assert_eq!(update.operation.query.matches(t.tree()).len(), 2);
        for config in [UpdateEngineConfig::default(), UpdateEngineConfig::raw()] {
            let engine = UpdateEngine::with_config(config);
            let (updated, report) = engine.apply(&t, &update);
            assert_eq!(report.targets, 2);
            let direct = possible_worlds(&updated, 20).unwrap().normalized();
            let via_pw = update
                .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
                .normalized();
            assert!(
                direct.isomorphic(&via_pw),
                "nested targets escape their survival split\n{}",
                updated.to_ascii()
            );
        }
    }

    #[test]
    fn nested_deletion_targets_with_confidence_below_one() {
        let t = nested_fixture();
        let update = delete_b_with_c_child(0.7);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert!(report.new_event.is_some());
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(direct.isomorphic(&via_pw), "\n{}", updated.to_ascii());
    }

    /// Three levels of nesting plus a multi-match target: every B below
    /// the root is matched once per C child.
    #[test]
    fn deeply_nested_and_multi_match_targets() {
        let mut t = ProbTree::new("A");
        let x = t.events_mut().insert("x", 0.5);
        let y = t.events_mut().insert("y", 0.5);
        let z = t.events_mut().insert("z", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(root, "B", Condition::always());
        t.add_child(b1, "C", Condition::of(Literal::pos(x)));
        t.add_child(b1, "C", Condition::of(Literal::pos(y)));
        let b2 = t.add_child(b1, "B", Condition::of(Literal::pos(y)));
        let b3 = t.add_child(b2, "B", Condition::always());
        t.add_child(b3, "C", Condition::of(Literal::pos(z)));
        let update = delete_b_with_c_child(1.0);
        // B1 matched twice (two C children), B3 once.
        assert_eq!(update.operation.query.matches(t.tree()).len(), 3);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert_eq!(report.matches, 3);
        assert_eq!(report.targets, 2);
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&t, 20).unwrap())
            .normalized();
        assert!(direct.isomorphic(&via_pw), "\n{}", updated.to_ascii());
    }

    /// Regression: two applications of the same deletion must produce
    /// byte-identical renderings (the pre-engine `HashMap` target grouping
    /// made the sibling order depend on per-instance hash seeds).
    #[test]
    fn deletion_output_is_run_to_run_deterministic() {
        let build = || {
            let mut t = ProbTree::new("A");
            let root = t.tree().root();
            // Many distinct targets so a hash-ordered traversal has many
            // orders to choose from.
            for i in 0..12 {
                let w = t.events_mut().insert(format!("w{i}"), 0.5);
                let s = t.add_child(root, "S", Condition::always());
                let b = t.add_child(s, "B", Condition::of(Literal::pos(w)));
                t.add_child(b, "P", Condition::always());
            }
            t
        };
        let mut q = PatternQuery::new(Some("B"));
        let b = q.root();
        q.add_child(b, "P");
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, b), 0.9);
        let engine = UpdateEngine::new();
        let (first, _) = engine.apply(&build(), &update);
        let (second, _) = engine.apply(&build(), &update);
        assert_eq!(
            first.to_ascii(),
            second.to_ascii(),
            "update output must not depend on hash iteration order"
        );
    }

    /// Shared-first chains split the fresh confidence event off once:
    /// `1 + 2^n` survivor copies instead of `3^n` on the Theorem 3 family.
    #[test]
    fn shared_first_chains_control_the_confidence_blowup() {
        let tree = pxml_workloads_free_theorem3(4);
        let update = d0(0.8);
        let raw = UpdateEngine::with_config(UpdateEngineConfig::raw());
        let ordered = UpdateEngine::with_config(UpdateEngineConfig {
            simplify: false,
            ..UpdateEngineConfig::default()
        });
        let (raw_out, _) = raw.apply(&tree, &update);
        let (ordered_out, _) = ordered.apply(&tree, &update);
        let b = |t: &ProbTree| {
            t.tree()
                .iter()
                .filter(|&nd| t.tree().label(nd) == "B")
                .count()
        };
        assert_eq!(b(&raw_out), 81, "naive chain product: 3^4");
        assert_eq!(b(&ordered_out), 17, "shared-first: 1 + 2^4");
        assert!(ordered_out.size() < raw_out.size());
    }

    /// … and the simplification pass recovers the same reduction from the
    /// naive expansion (acceptance: the pass shrinks the Theorem 3 family).
    #[test]
    fn simplification_shrinks_the_naive_theorem3_output() {
        for n in 2..=4usize {
            let tree = pxml_workloads_free_theorem3(n);
            let update = d0(0.8);
            let raw = UpdateEngine::with_config(UpdateEngineConfig::raw());
            let simplified = UpdateEngine::with_config(UpdateEngineConfig {
                simplify: true,
                shared_first_chains: false,
                ..UpdateEngineConfig::default()
            });
            let (raw_out, raw_report) = raw.apply(&tree, &update);
            let (simpl_out, simpl_report) = simplified.apply(&tree, &update);
            assert_eq!(raw_report.size_raw(), simpl_report.size_raw());
            assert!(
                simpl_out.size() < raw_out.size(),
                "n = {n}: {} !< {}",
                simpl_out.size(),
                raw_out.size()
            );
            assert!(simpl_report.simplification_savings() > 0);
            // Both agree with the PW semantics at feasible sizes.
            if n <= 3 {
                let via_pw = update
                    .apply_to_pw_set(&possible_worlds(&tree, 20).unwrap())
                    .normalized();
                let direct = possible_worlds(&simpl_out, 20).unwrap().normalized();
                assert!(direct.isomorphic(&via_pw));
            }
        }
    }

    /// The no-mutation forecast predicts exactly the survivor copies the
    /// real application grafts, for both chain orders and confidences on
    /// the Theorem 3 family: `3^n` naive, `1 + 2^n` shared-first.
    #[test]
    fn forecast_matches_measured_survivor_copies_on_theorem3() {
        for n in 1..=4usize {
            for confidence in [0.8, 1.0] {
                let tree = pxml_workloads_free_theorem3(n);
                let update = d0(confidence);
                for config in [
                    UpdateEngineConfig::raw(),
                    UpdateEngineConfig {
                        simplify: false,
                        ..UpdateEngineConfig::default()
                    },
                ] {
                    let shared = config.shared_first_chains;
                    let engine = UpdateEngine::with_config(config);
                    let forecast = engine.forecast(&tree, &update);
                    let (_, report) = engine.apply(&tree, &update);
                    assert_eq!(forecast.matches, report.matches);
                    assert_eq!(forecast.targets, report.targets);
                    assert_eq!(
                        forecast.total_survivor_copies(),
                        report.survivor_copies,
                        "n={n} confidence={confidence} shared_first={shared}"
                    );
                    if confidence < 1.0 {
                        let expected = if shared {
                            1 + (1usize << n)
                        } else {
                            3usize.pow(n as u32)
                        };
                        assert_eq!(forecast.total_survivor_copies(), expected);
                    }
                }
            }
        }
    }

    /// `try_apply` refuses a predicted blow-up before materializing and
    /// accepts steps within budget.
    #[test]
    fn try_apply_enforces_the_survivor_budget() {
        let tree = pxml_workloads_free_theorem3(4);
        let update = d0(0.8);
        let tight = UpdateEngine::with_config(UpdateEngineConfig {
            simplify: false,
            max_survivor_copies: Some(16),
            ..UpdateEngineConfig::default()
        });
        let err = tight.try_apply(&tree, &update).unwrap_err();
        assert_eq!(err.predicted, 17, "shared-first: 1 + 2^4");
        assert_eq!(err.budget, 16);
        assert!(err.to_string().contains("17"));
        let roomy = UpdateEngine::with_config(UpdateEngineConfig {
            simplify: false,
            max_survivor_copies: Some(17),
            ..UpdateEngineConfig::default()
        });
        let (_, report) = roomy.try_apply(&tree, &update).unwrap();
        assert_eq!(report.survivor_copies, 17);
    }

    /// Insertions and unmatched steps forecast zero survivor copies.
    #[test]
    fn forecast_on_insertions_and_dead_steps() {
        let t = figure1_example();
        let engine = UpdateEngine::new();
        let insert = {
            let q = PatternQuery::new(Some("C"));
            let at = q.root();
            ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new("E")), 0.9)
        };
        let f = engine.forecast(&t, &insert);
        assert_eq!(f.matches, 1);
        assert_eq!(f.targets, 1);
        assert_eq!(f.total_survivor_copies(), 0);
        assert!(!f.is_dead());
        let dead = {
            let q = PatternQuery::new(Some("Z"));
            let at = q.root();
            ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new("E")), 0.9)
        };
        let f = engine.forecast(&t, &dead);
        assert!(f.is_dead());
        assert_eq!(f.targets, 0);
    }

    #[test]
    fn unmatched_update_reports_identity() {
        let t = figure1_example();
        let q = PatternQuery::new(Some("Z"));
        let at = q.root();
        let update =
            ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new("E")), 0.9);
        let (updated, report) = UpdateEngine::new().apply(&t, &update);
        assert_eq!(report.matches, 0);
        assert!(report.new_event.is_none());
        assert_eq!(
            (report.nodes_before, report.literals_before),
            (report.nodes_after, report.literals_after)
        );
        assert_eq!(updated.num_nodes(), t.num_nodes());
        assert_eq!(updated.events().len(), t.events().len(), "no fresh event");
    }

    /// Local copy of `pxml_workloads::paper::theorem3_tree` (the workloads
    /// crate depends on this one, so the fixture cannot be imported).
    fn pxml_workloads_free_theorem3(n: usize) -> ProbTree {
        let mut tree = ProbTree::new("A");
        let root = tree.tree().root();
        tree.add_child(root, "B", Condition::always());
        for i in 0..n {
            let w0 = tree.events_mut().insert(format!("w{}_0", i + 1), 0.5);
            let w1 = tree.events_mut().insert(format!("w{}_1", i + 1), 0.5);
            tree.add_child(
                root,
                "C",
                Condition::from_literals([Literal::pos(w0), Literal::pos(w1)]),
            );
        }
        tree
    }

    fn d0(confidence: f64) -> ProbabilisticUpdate {
        let mut q = PatternQuery::anchored(Some("A"));
        let b = q.add_child(q.root(), "B");
        let _c = q.add_child(q.root(), "C");
        ProbabilisticUpdate::new(UpdateOperation::delete(q, b), confidence)
    }
}
