//! Region ≡ whole-tree property suite, and the two-frame delta oracle.
//!
//! While a `Document`'s frame is a simplify fixpoint, `stage_doc` runs a
//! step in region scope: it simplifies only what the step touched. In
//! both scopes a step derives its delta and its sizes from the nodes it
//! touched. This suite commits random scripts through a document and, at
//! every step, stages the same update on a fresh document holding the
//! same frame — which runs the whole-tree scope — and requires the same
//! tree (rendering, arena labels and conditions once both frames are
//! compacted, since the scopes may number the nodes they append
//! differently), the same fate for every node of the base frame, and the
//! same node map, step telemetry and delta. Both scopes rebase on the
//! same commits, since the rule reads only the base frame. Both deltas
//! must also equal the oracle, a diff of the base frame and the committed
//! frame by node id (through the node map after a rebase). Every
//! region-scoped commit's base, and every frame the document trusts at
//! the end, must also be a fixpoint that one more whole-tree simplify
//! leaves alone. Deterministic cases pin the merges random scripts rarely
//! reach, a whole-scope commit that rewrites base nodes, and the fixpoint
//! status's life cycle.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pxml_core::update::{
    ProbabilisticUpdate, StepReport, StepScope, UpdateEngine, UpdateEngineConfig, UpdateOperation,
};
use pxml_core::{Document, PatternQuery, ProbTree, UpdateDelta};
use pxml_events::{Condition, Literal};
use pxml_tree::{DataTree, NodeId};
use pxml_workloads::warehouse::skeleton;

use common::{build_probtree, probtree_strategy, update_strategy, ProbTreeSpec};

/// Commits `update` to `doc` and, on a fresh document holding the same
/// frame, in the whole-tree scope; asserts both commits agree with each
/// other and with the two-frame oracle, and that a region-scoped commit
/// started from a fixpoint. Returns `doc`'s delta.
fn commit_checked(
    engine: &UpdateEngine,
    doc: &mut Document,
    update: &ProbabilisticUpdate,
) -> Arc<UpdateDelta> {
    let base = doc.snapshot();
    let mut oracle = Document::new(ProbTree::clone(&base));
    let delta = engine.apply_doc(doc, update);
    let expected = engine.apply_doc(&mut oracle, update);
    assert_eq!(expected.report.scope, StepScope::Whole);
    if delta.report.scope == StepScope::Region {
        assert_fixpoint(&base);
    }
    assert_delta_is_the_diff(&base, doc.tree(), &delta);
    assert_delta_is_the_diff(&base, oracle.tree(), &expected);
    assert_same_delta(&delta, &expected);
    for node in base.tree().iter() {
        let got = survivor(doc.tree(), &delta, node);
        let want = survivor(oracle.tree(), &expected, node);
        assert_eq!(got.is_some(), want.is_some(), "{node:?} survives in both");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(doc.tree().condition(got), oracle.tree().condition(want));
        }
    }
    doc.tree().validate_invariants().expect("valid frame");
    assert_same_frame(&doc.tree().compact().0, &oracle.tree().compact().0);
    delta
}

/// Where the base frame's `node` sits in a committed frame: at its own id
/// while ids are stable, at its rebased id after a rebase, and nowhere
/// once removed.
fn survivor(frame: &ProbTree, delta: &UpdateDelta, node: NodeId) -> Option<NodeId> {
    match &delta.node_map {
        None => frame.tree().is_attached(node).then_some(node),
        Some(map) => map.get(&node).copied(),
    }
}

/// The two-frame oracle: `delta`, committed on `base`, must be the diff
/// of `base` and the committed `frame` by node id. A base node survives
/// where [`survivor`] finds it; it is removed if it does not survive, and
/// rewritten if its condition changed. A node of `frame` that no base
/// node survives at is inserted. The step's sizes before and after are
/// the two frames' own.
fn assert_delta_is_the_diff(base: &ProbTree, frame: &ProbTree, delta: &UpdateDelta) {
    let mut survivors = BTreeSet::new();
    let mut removed = (0, BTreeSet::new());
    let mut rewritten = BTreeSet::new();
    for node in base.tree().iter() {
        match survivor(frame, delta, node) {
            None => {
                removed.0 += 1;
                removed.1.insert(base.tree().label(node).to_owned());
            }
            Some(id) => {
                survivors.insert(id);
                if base.condition(node) != frame.condition(id) {
                    rewritten.insert(id);
                }
            }
        }
    }
    let mut inserted = (0, BTreeSet::new());
    for node in frame.tree().iter().filter(|node| !survivors.contains(node)) {
        inserted.0 += 1;
        inserted.1.insert(frame.tree().label(node).to_owned());
    }
    assert_eq!((delta.nodes_removed, delta.removed_labels.clone()), removed);
    assert_eq!(
        (delta.nodes_inserted, delta.inserted_labels.clone()),
        inserted
    );
    assert_eq!(delta.rewritten, rewritten);
    let size = |tree: &ProbTree| {
        let stats = tree.memory_stats();
        (stats.logical_nodes, stats.logical_literals)
    };
    let report = &delta.report;
    assert_eq!((report.nodes_before, report.literals_before), size(base));
    assert_eq!((report.nodes_after, report.literals_after), size(frame));
}

/// One more whole-tree simplify leaves `frame` alone: a one-shot step
/// that inserts an unconditioned leaf under the root, which no pass can
/// clean, prune or merge, simplifies nothing.
fn assert_fixpoint(frame: &ProbTree) {
    let root = frame.tree().label(frame.tree().root());
    let update = insert_leaf(PatternQuery::anchored(Some(root)), "Z");
    let (simplified, report) = UpdateEngine::new().apply(frame, &update);
    assert_eq!(report.scope, StepScope::Whole);
    assert_eq!(report.simplification_savings(), 0, "{}", frame.to_ascii());
    let raw = UpdateEngine::with_config(UpdateEngineConfig {
        simplify: false,
        ..UpdateEngineConfig::default()
    });
    assert_eq!(
        simplified.to_ascii(),
        raw.apply(frame, &update).0.to_ascii()
    );
}

/// Checks the status `doc` ends with: a certain insertion under the root
/// of a fork (which inherits the status) runs in region scope exactly
/// when the document trusts its frame, and [`commit_checked`] then
/// requires that frame to be a fixpoint.
fn probe_final_frame(engine: &UpdateEngine, doc: &Document) -> StepScope {
    let mut fork = doc.fork();
    commit_checked(engine, &mut fork, &insert_leaf(root_query(), "Z"))
        .report
        .scope
}

fn assert_same_frame(got: &ProbTree, expected: &ProbTree) {
    assert_eq!(got.to_ascii(), expected.to_ascii());
    assert_eq!(got.tree().arena_len(), expected.tree().arena_len());
    let arena = |t: &ProbTree| -> Vec<_> {
        t.tree()
            .iter()
            .map(|n| (n, t.tree().label(n).to_owned(), t.condition(n)))
            .collect()
    };
    assert_eq!(arena(got), arena(expected));
    assert_eq!(got.events().len(), expected.events().len());
}

fn assert_same_delta(got: &UpdateDelta, expected: &UpdateDelta) {
    assert_eq!(got.node_map, expected.node_map);
    assert_eq!(got.removed_labels, expected.removed_labels);
    assert_eq!(got.inserted_labels, expected.inserted_labels);
    assert_eq!(got.rewritten, expected.rewritten);
    assert_eq!(got.nodes_removed, expected.nodes_removed);
    assert_eq!(got.nodes_inserted, expected.nodes_inserted);
    assert_same_report(&got.report, &expected.report);
}

/// Every telemetry field but the scope and the visit counters: the
/// simplifier's and census's depend on the scope, the matcher's on whether
/// the frame carries label postings.
fn assert_same_report(got: &StepReport, expected: &StepReport) {
    let fields = |r: &StepReport| {
        (
            (r.matches, r.targets, r.new_event, r.survivor_copies),
            (
                r.nodes_before,
                r.literals_before,
                r.nodes_raw,
                r.literals_raw,
            ),
            (r.nodes_after, r.literals_after),
        )
    };
    assert_eq!(fields(got), fields(expected));
}

/// `spec`'s tree, with a certain event (`π = 1`) folded into every third
/// node's condition when `certain` is set — the first commit's prune has
/// something to drop, and the region's prune runs over fresh subtrees.
fn base_tree(spec: &ProbTreeSpec, certain: bool) -> ProbTree {
    let mut tree = build_probtree(spec);
    if certain {
        let sure = tree.events_mut().insert("sure", 1.0);
        let nodes: Vec<_> = tree.tree().iter().skip(1).collect();
        for (i, node) in nodes.into_iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            let literal = Literal {
                event: sure,
                positive: i % 2 == 0,
            };
            let condition = tree.condition(node).and_literal(literal);
            tree.set_condition(node, condition);
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random 1–8-step scripts (nested and multi-match targets, certain
    /// events, confidence-1 deletions, unmatched steps): every commit
    /// agrees with the whole-tree scope on the same base, commits up to
    /// the first matched one run whole-tree, and the frame the document
    /// ends with is a fixpoint whenever the document trusts it.
    #[test]
    fn region_commits_equal_whole_tree_commits(
        spec in probtree_strategy(),
        certain in any::<bool>(),
        updates in prop::collection::vec(update_strategy(), 1..=8),
    ) {
        let engine = UpdateEngine::new();
        let mut doc = Document::new(base_tree(&spec, certain));
        let mut matched = false;
        for update in &updates {
            let delta = commit_checked(&engine, &mut doc, update);
            if !matched {
                prop_assert_eq!(delta.report.scope, StepScope::Whole);
            }
            matched |= delta.report.matches > 0;
        }
        // Every commit converges on these small trees.
        let expected = if matched { StepScope::Region } else { StepScope::Whole };
        prop_assert_eq!(probe_final_frame(&engine, &doc), expected);
    }
}

// ---------------------------------------------------------------------------
// Deterministic cases
// ---------------------------------------------------------------------------

/// A certain insertion of a `label` leaf under every match of `query`'s
/// root.
fn insert_leaf(query: PatternQuery, label: &str) -> ProbabilisticUpdate {
    let at = query.root();
    ProbabilisticUpdate::new(
        UpdateOperation::insert(query, at, DataTree::new(label)),
        1.0,
    )
}

fn delete_label(label: &str, confidence: f64) -> ProbabilisticUpdate {
    let q = PatternQuery::new(Some(label));
    let at = q.root();
    ProbabilisticUpdate::new(UpdateOperation::delete(q, at), confidence)
}

fn root_query() -> PatternQuery {
    PatternQuery::new(Some("R"))
}

/// Commits an unrelated certain insertion under the root, so the frame
/// becomes a fixpoint through one whole-tree commit.
fn settle(engine: &UpdateEngine, doc: &mut Document) {
    let delta = engine.apply_doc(doc, &insert_leaf(root_query(), "Z"));
    assert_eq!(delta.report.scope, StepScope::Whole);
}

/// `R → P → {B[x] → C, B[¬x] → X, D[y] → E, D[¬y] → X}`: no merge until
/// the `X` leaves go.
fn two_groups_base() -> ProbTree {
    let mut t = ProbTree::new("R");
    let x = t.events_mut().insert("x", 0.5);
    let y = t.events_mut().insert("y", 0.5);
    let root = t.tree().root();
    let p = t.add_child(root, "P", Condition::always());
    for (label, event, inner) in [("B", x, "C"), ("D", y, "E")] {
        let kept = t.add_child(p, label, Condition::of(Literal::pos(event)));
        t.add_child(kept, inner, Condition::always());
        let other = t.add_child(p, label, Condition::of(Literal::neg(event)));
        t.add_child(other, inner, Condition::always());
        t.add_child(other, "X", Condition::always());
    }
    t
}

/// Deleting the `X` leaves makes both sibling pairs complementary copies:
/// two groups merge under one parent, in the order of their first member.
#[test]
fn two_merging_groups_under_one_parent() {
    let engine = UpdateEngine::new();
    let mut doc = Document::new(two_groups_base());
    settle(&engine, &mut doc);
    let delta = commit_checked(&engine, &mut doc, &delete_label("X", 1.0));
    assert_eq!(delta.report.scope, StepScope::Region);
    let text = doc.tree().to_ascii();
    assert_eq!(text.matches('B').count(), 1, "{text}");
    assert_eq!(text.matches('D').count(), 1, "{text}");
    assert_eq!(doc.tree().num_literals(), 0, "{text}");
}

/// `R → P → {B[x] → C, B[¬x] → D}`: a certain insertion at `P` through
/// both `B`s grafts `new[x]` and `new[¬x]`, complementary copies that
/// merge into one unconditioned `new`.
#[test]
fn complementary_insertions_merge() {
    let mut t = ProbTree::new("R");
    let x = t.events_mut().insert("x", 0.5);
    let root = t.tree().root();
    let p = t.add_child(root, "P", Condition::always());
    let b = t.add_child(p, "B", Condition::of(Literal::pos(x)));
    t.add_child(b, "C", Condition::always());
    let b = t.add_child(p, "B", Condition::of(Literal::neg(x)));
    t.add_child(b, "D", Condition::always());
    let engine = UpdateEngine::new();
    let mut doc = Document::new(t);
    settle(&engine, &mut doc);
    let mut q = PatternQuery::new(Some("P"));
    q.add_child(q.root(), "B");
    let delta = commit_checked(&engine, &mut doc, &insert_leaf(q, "new"));
    assert_eq!(delta.report.scope, StepScope::Region);
    assert_eq!(delta.report.matches, 2);
    assert_eq!(delta.nodes_inserted, 1, "the two copies merged into one");
    assert_eq!(doc.tree().to_ascii().matches("new").count(), 1);
}

/// `R → A → cascade(k)`, where `cascade(1) = {L1[e1] → X, L1[¬e1]}` and
/// `cascade(j) = {Lj[ej] → cascade(j − 1), Lj[¬ej] → Lj−1 → … → L1}`:
/// deleting `X` lets the `L1` pair merge on the first pass, which makes
/// the `L2` pair identical for the second, and so on up to `Lk`.
fn cascade_base(k: usize) -> ProbTree {
    let mut t = ProbTree::new("R");
    let root = t.tree().root();
    let a = t.add_child(root, "A", Condition::always());
    let mut parent = a;
    for level in (1..=k).rev() {
        let e = t.events_mut().insert(format!("e{level}"), 0.5);
        let label = format!("L{level}");
        let unmerged = t.add_child(parent, label.as_str(), Condition::of(Literal::pos(e)));
        let mut merged = t.add_child(parent, label.as_str(), Condition::of(Literal::neg(e)));
        for below in (1..level).rev() {
            merged = t.add_child(merged, format!("L{below}"), Condition::always());
        }
        parent = unmerged;
    }
    t.add_child(parent, "X", Condition::always());
    t
}

#[test]
fn a_merge_cascades_to_the_parent_merge() {
    let engine = UpdateEngine::new();
    let mut doc = Document::new(cascade_base(2));
    settle(&engine, &mut doc);
    let delta = commit_checked(&engine, &mut doc, &delete_label("X", 1.0));
    assert_eq!(delta.report.scope, StepScope::Region);
    assert_eq!(doc.tree().num_nodes(), 5, "R → {{Z, A → L2 → L1}}");
    assert_eq!(doc.tree().num_literals(), 0);
}

/// A fresh document's first commit runs whole-tree; a commit whose
/// simplify ran out of passes leaves the frame unknown, so the next one
/// runs whole-tree too; a raw engine's commit, which does not simplify,
/// leaves it unknown as well.
#[test]
fn fixpoint_status_follows_convergence() {
    let engine = UpdateEngine::new();
    // Five levels: one merge per pass, and a simplify stops after four
    // passes.
    let mut doc = Document::new(cascade_base(5));
    settle(&engine, &mut doc);
    // This commit runs in region scope but does not converge, and still
    // equals the whole-tree commit.
    let delta = commit_checked(&engine, &mut doc, &delete_label("X", 1.0));
    assert_eq!(delta.report.scope, StepScope::Region);
    assert!(doc.tree().num_literals() > 0, "the L5 pair is left");
    let delta = commit_checked(&engine, &mut doc, &delete_label("Q", 1.0));
    assert_eq!(delta.report.matches, 0);
    // An unmatched step leaves the unknown status unknown; this commit
    // finishes the cascade.
    let delta = commit_checked(&engine, &mut doc, &insert_leaf(root_query(), "Y"));
    assert_eq!(delta.report.scope, StepScope::Whole);
    assert!(delta.report.simplification_savings() > 0);
    assert_eq!(doc.tree().num_literals(), 0);
    // That commit converged: a fixpoint.
    let delta = commit_checked(&engine, &mut doc, &delete_label("L1", 0.5));
    assert_eq!(delta.report.scope, StepScope::Region);
    // A raw commit runs whole-tree and leaves the status unknown.
    let raw = UpdateEngine::with_config(UpdateEngineConfig::raw());
    let delta = commit_checked(&raw, &mut doc, &delete_label("L2", 0.5));
    assert_eq!(delta.report.scope, StepScope::Whole);
    let delta = commit_checked(&engine, &mut doc, &insert_leaf(root_query(), "Y"));
    assert_eq!(delta.report.scope, StepScope::Whole);
    let delta = commit_checked(&engine, &mut doc, &insert_leaf(root_query(), "Y"));
    assert_eq!(delta.report.scope, StepScope::Region);
}

/// Forks inherit the status: a fork of a fresh document starts
/// whole-tree, a fork of a settled one starts in region scope.
#[test]
fn forks_inherit_the_fixpoint_status() {
    let engine = UpdateEngine::new();
    let fresh = Document::new(two_groups_base());
    let mut branch = fresh.fork();
    let delta = commit_checked(&engine, &mut branch, &delete_label("X", 0.5));
    assert_eq!(delta.report.scope, StepScope::Whole);
    let mut settled = Document::new(two_groups_base());
    settle(&engine, &mut settled);
    let mut branch = settled.fork();
    let delta = commit_checked(&engine, &mut branch, &delete_label("X", 0.5));
    assert_eq!(delta.report.scope, StepScope::Region);
}

/// Node ids stay put: a whole-scope insertion, a region-scope retraction
/// and an unmatched step each keep every surviving node of the frame
/// before them at its id, with its label, and detach the removed ones in
/// place. The retraction keeps each target as its one survivor under a
/// stronger condition: the three facts count in `delta.rewritten`, not as
/// detached, and every other node keeps its condition. `skeleton` numbers
/// each service's `name` right after the service, unlike a compaction's
/// order, so a commit that renumbered the frame would show.
#[test]
fn ids_survive_commits_until_a_rebase() {
    let engine = UpdateEngine::new();
    let mut doc = Document::new(skeleton(3));
    let claim = || insert_leaf(PatternQuery::new(Some("service")), "keyword");
    let steps = [
        claim(),
        delete_label("keyword", 0.5),
        delete_label("nothing", 0.5),
    ];
    let mut scopes = Vec::new();
    for update in &steps {
        let before = doc.snapshot();
        let delta = commit_checked(&engine, &mut doc, update);
        let after = doc.tree();
        let mut detached = 0;
        for node in before.tree().iter() {
            if !after.tree().is_attached(node) {
                detached += 1;
                continue;
            }
            assert_eq!(
                before.tree().label(node),
                after.tree().label(node),
                "{node:?} keeps its label"
            );
            if !delta.rewritten.contains(&node) {
                assert_eq!(before.condition(node), after.condition(node));
            }
        }
        assert_eq!(detached, delta.nodes_removed);
        assert!(delta.node_map.is_none(), "no commit here rebases");
        scopes.push((
            delta.report.scope,
            delta.report.matches,
            delta.nodes_removed,
            delta.rewritten.len(),
        ));
    }
    assert_eq!(
        scopes,
        [
            (StepScope::Whole, 3, 0, 0),
            (StepScope::Region, 3, 0, 3),
            (StepScope::Region, 0, 0, 0)
        ]
    );
    // A confidence-1 retraction leaves no survivor, so it detaches the
    // three facts; a claim appends three more. The first commit whose
    // base frame holds more detached slots than live nodes rebases, in the
    // region scope and in its whole-scope oracle alike.
    for round in 0..12usize {
        let update = if round.is_multiple_of(2) {
            delete_label("keyword", 1.0)
        } else {
            claim()
        };
        let base = doc.snapshot();
        let live = base.num_nodes();
        let delta = commit_checked(&engine, &mut doc, &update);
        let rebased = base.tree().arena_len() - live > live;
        assert_eq!(delta.node_map.is_some(), rebased);
        if rebased {
            assert_eq!(doc.tree().tree().arena_len(), doc.tree().num_nodes());
            return;
        }
    }
    panic!("detached slots outgrow the live nodes");
}

/// A document's frame carries label postings from its first commit on:
/// `stage_doc` indexes a staged frame that has none, which is the first
/// commit's and a rebased one's, and every other commit links what it
/// adds. A commit on an indexed frame reads the postings of its rarest
/// label, not the tree.
#[test]
fn a_document_indexes_its_frame_on_the_first_commit_and_on_a_rebase() {
    let engine = UpdateEngine::new();
    let mut tree = skeleton(50);
    let root = tree.tree().root();
    tree.add_child(root, "anchor", Condition::always());
    for _ in 0..20 {
        tree.add_child(root, "kept", Condition::always());
    }
    let mut doc = Document::new(tree);
    assert!(!doc.tree().tree().has_postings());
    let first = commit_checked(&engine, &mut doc, &delete_label("name", 1.0));
    assert_eq!(first.report.match_visited, 122, "a scan tries every node");
    assert!(doc.tree().tree().has_postings());
    let second = commit_checked(&engine, &mut doc, &delete_label("service", 1.0));
    assert!(second.node_map.is_none());
    assert!(doc.tree().tree().has_postings());
    // 100 of the base frame's 122 slots are detached: this commit rebases.
    let anchored = || insert_leaf(PatternQuery::new(Some("anchor")), "leaf");
    let rebased = commit_checked(&engine, &mut doc, &anchored());
    assert!(rebased.node_map.is_some());
    let frame = doc.tree().tree();
    assert_eq!(frame.arena_len(), 23);
    assert!(frame.has_postings(), "the rebased frame is indexed again");
    let count = |label: &str| frame.label_postings(label).map(|postings| postings.len());
    assert_eq!(
        (count("service"), count("anchor"), count("leaf")),
        (Some(0), Some(1), Some(1))
    );
    let next = commit_checked(&engine, &mut doc, &anchored());
    assert_eq!(next.report.matches, 1);
    assert_eq!(
        next.report.match_visited, 2,
        "one posting, one candidate root"
    );
}

/// A whole-scope commit that rewrites and removes base nodes:
/// `R → {A[x] → B[x], C[sure ∧ ¬x], D[¬sure]}` with `π(x) = 0.5` and
/// `π(sure) = 1`. On the first commit of a certain `Z` leaf under `R`,
/// cleaning drops `B`'s repeated `x`, and pruning drops `C`'s `sure` and
/// removes `D`; the same update committed again runs in region scope.
#[test]
fn a_whole_scope_commit_rewrites_and_removes_base_nodes() {
    let mut t = ProbTree::new("R");
    let x = t.events_mut().insert("x", 0.5);
    let sure = t.events_mut().insert("sure", 1.0);
    let root = t.tree().root();
    let a = t.add_child(root, "A", Condition::of(Literal::pos(x)));
    let b = t.add_child(a, "B", Condition::of(Literal::pos(x)));
    let c = t.add_child(
        root,
        "C",
        Condition::from_literals([Literal::pos(sure), Literal::neg(x)]),
    );
    t.add_child(root, "D", Condition::of(Literal::neg(sure)));
    let engine = UpdateEngine::new();
    let mut doc = Document::new(t);
    let update = insert_leaf(root_query(), "Z");
    let delta = commit_checked(&engine, &mut doc, &update);
    let report = &delta.report;
    assert_eq!(report.scope, StepScope::Whole);
    assert_eq!(
        (report.nodes_before, report.nodes_raw, report.nodes_after),
        (5, 6, 5)
    );
    assert_eq!(
        (
            report.literals_before,
            report.literals_raw,
            report.literals_after
        ),
        (5, 5, 2)
    );
    assert_eq!((delta.nodes_inserted, delta.nodes_removed), (1, 1));
    assert_eq!(delta.inserted_labels, BTreeSet::from(["Z".to_owned()]));
    assert_eq!(delta.removed_labels, BTreeSet::from(["D".to_owned()]));
    assert_eq!((b.index(), c.index()), (2, 3));
    assert_eq!(delta.rewritten, BTreeSet::from([b, c]));
    assert!(delta.node_map.is_none());
    let again = commit_checked(&engine, &mut doc, &update);
    assert_eq!(again.report.scope, StepScope::Region);
}
