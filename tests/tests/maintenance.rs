//! Property suite for incremental view maintenance.
//!
//! The versioned-`Document` redesign lets a `PreparedQuery` stay live
//! across `UpdateEngine` steps: each committed epoch carries a structured
//! `UpdateDelta`, and `PreparedQuery::maintain` patches the match set,
//! the interned condition unions and the cached probabilities in place.
//! A delta that inserts or removes a label of the query's footprint is
//! patched by dropping the answers the new frame no longer reaches and
//! re-matching the pattern only around the appended nodes. This suite
//! pins the two contracts over random (tree, pattern, script) triples:
//!
//! 1. **Indistinguishability** — after every maintenance call the state
//!    must equal a fresh prepare against the same epoch: same answers in
//!    the same order, bit-identical probabilities, and the same selection
//!    counts, except that a patched state builds only the tie-break keys
//!    it does not carry yet.
//! 2. **No silent fallback** — every delta *must* be patched, on the
//!    footprint or off it, for every pattern: wildcards (which have no
//!    footprint, so every delta re-matches), descendant edges and joins
//!    included. Only a view behind a rebase, whose delta announces it with
//!    a node map, must re-prepare.
//!
//! Deterministic cases replay the warehouse scenario of Section 1 round
//! by round against the same fresh-prepare oracle, with a labelled view
//! and with a wildcard and a join view, and pin the rebase.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use pxml_core::query::pattern::{Axis, PatternQuery};
use pxml_core::{
    Document, FallbackReason, MaintainOutcome, PreparedQuery, QueryEngine, UpdateEngine,
};

use common::{build_probtree, probtree_strategy, update_strategy};

/// A random small pattern: up to three extra nodes hung off earlier
/// pattern nodes, mixed axes, wildcard or concrete labels — wildcards
/// yield unbounded footprints, so every delta re-matches — and an
/// optional join: a flag and two pattern node indices.
#[derive(Clone, Debug)]
struct PatternSpec {
    anchored: bool,
    root_label: Option<&'static str>,
    nodes: Vec<(usize, bool, Option<&'static str>)>,
    join: (bool, usize, usize),
}

fn pattern_strategy() -> impl Strategy<Value = PatternSpec> {
    let label = prop::sample::select(vec![None, Some("A"), Some("B"), Some("C"), Some("D")]);
    (
        any::<bool>(),
        label.clone(),
        prop::collection::vec((0usize..4, any::<bool>(), label), 0..3),
        (any::<bool>(), 0usize..4, 0usize..4),
    )
        .prop_map(|(anchored, root_label, nodes, join)| PatternSpec {
            anchored,
            root_label,
            nodes,
            join,
        })
}

fn build_pattern(spec: &PatternSpec) -> PatternQuery {
    let mut q = if spec.anchored {
        PatternQuery::anchored(spec.root_label)
    } else {
        PatternQuery::new(spec.root_label)
    };
    let mut ids = vec![q.root()];
    for &(parent, descendant, label) in &spec.nodes {
        let parent = ids[parent % ids.len()];
        let axis = if descendant {
            Axis::Descendant
        } else {
            Axis::Child
        };
        ids.push(q.add_node(parent, axis, label));
    }
    // Two distinct pattern nodes, when the flag is set and there are two.
    let (join, first, offset) = spec.join;
    if join && ids.len() >= 2 {
        let first = first % ids.len();
        let second = (first + 1 + offset % (ids.len() - 1)) % ids.len();
        q.add_join(vec![ids[first], ids[second]]);
    }
    q
}

// ---------------------------------------------------------------------------
// Cross-check helper
// ---------------------------------------------------------------------------

/// A default engine's document-backed state for a pattern.
fn doc_view(doc: &Document, query: &PatternQuery) -> PreparedQuery<'static> {
    QueryEngine::new().prepare_doc_shared(doc, Arc::new(query.clone()))
}

/// The maintained state must be indistinguishable from a fresh prepare
/// against the same document epoch: the same answers and distinct
/// conditions. Its ranked read makes the fresh read's scans, comparisons
/// and selections; it builds exactly the tie keys its cache gains, since
/// a patch carries the keys earlier reads built.
fn assert_matches_fresh(maintained: &PreparedQuery<'_>, doc: &Document, query: &PatternQuery) {
    let fresh = doc_view(doc, query);
    prop_assert_eq!(maintained.len(), fresh.len());
    prop_assert_eq!(
        maintained.num_distinct_conditions(),
        fresh.num_distinct_conditions()
    );
    for i in 0..fresh.len() {
        prop_assert_eq!(maintained.subtree(i), fresh.subtree(i));
        prop_assert_eq!(
            maintained.probability(i).to_bits(),
            fresh.probability(i).to_bits(),
            "answer #{} probability must be bit-identical",
            i
        );
    }
    let keys_before = maintained.num_cached_tie_keys();
    let ranked_maintained = maintained.ranked();
    let keys_built = maintained.num_cached_tie_keys() - keys_before;
    let ranked_fresh = fresh.ranked();
    let (carried, rebuilt) = (ranked_maintained.stats(), ranked_fresh.stats());
    prop_assert_eq!(carried.enumerated, rebuilt.enumerated);
    prop_assert_eq!(carried.comparisons, rebuilt.comparisons);
    prop_assert_eq!(carried.selected, rebuilt.selected);
    prop_assert_eq!(carried.tie_keys_built, keys_built as u64);
    prop_assert_eq!(rebuilt.tie_keys_built, fresh.num_cached_tie_keys() as u64);
    for (a, b) in ranked_maintained.iter().zip(ranked_fresh.iter()) {
        prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        prop_assert_eq!(&a.subtree, &b.subtree);
    }
    prop_assert_eq!(
        maintained.expected_matches().to_bits(),
        fresh.expected_matches().to_bits()
    );
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step-by-step maintenance: after every committed epoch the
    /// maintained state equals a fresh prepare, and the outcome is
    /// exactly determined by the delta — a rebase restarts the log and
    /// MUST fall back; otherwise every delta MUST patch (no silent
    /// fallback), whether it touches the footprint or not and whether or
    /// not the pattern has one or a join.
    #[test]
    fn maintained_state_is_indistinguishable_from_a_fresh_prepare(
        spec in probtree_strategy(),
        pattern in pattern_strategy(),
        updates in prop::collection::vec(update_strategy(), 1..4),
    ) {
        let tree = build_probtree(&spec);
        let query = build_pattern(&pattern);
        let mut doc = Document::new(tree);
        let update_engine = UpdateEngine::new();
        let mut prepared = doc_view(&doc, &query);
        for update in &updates {
            let delta = update_engine.apply_doc(&mut doc, update);
            let outcome = prepared.maintain(&doc).unwrap();
            if delta.node_map.is_some() {
                prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Fallback { reason: FallbackReason::LogTrimmed }
                );
            } else {
                prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Patched { steps: 1 },
                    "no silent fallback"
                );
            }
            assert_matches_fresh(&prepared, &doc, &query);
        }
        // Every step was accounted for as either a patch or a fallback.
        let stats = prepared.maintenance_stats();
        prop_assert_eq!(stats.steps_patched + stats.fallbacks, updates.len());
    }

    /// Batched maintenance: apply the whole script first, then catch up
    /// with one `maintain` call spanning all pending deltas.
    #[test]
    fn one_maintain_call_catches_up_across_a_whole_script(
        spec in probtree_strategy(),
        pattern in pattern_strategy(),
        updates in prop::collection::vec(update_strategy(), 1..4),
    ) {
        let tree = build_probtree(&spec);
        let query = build_pattern(&pattern);
        let mut doc = Document::new(tree);
        let update_engine = UpdateEngine::new();
        let mut prepared = doc_view(&doc, &query);
        let deltas: Vec<_> = updates
            .iter()
            .map(|update| update_engine.apply_doc(&mut doc, update))
            .collect();
        let outcome = prepared.maintain(&doc).unwrap();
        let expected = if deltas.iter().any(|d| d.node_map.is_some()) {
            MaintainOutcome::Fallback { reason: FallbackReason::LogTrimmed }
        } else {
            MaintainOutcome::Patched { steps: updates.len() }
        };
        prop_assert_eq!(outcome, expected);
        assert_matches_fresh(&prepared, &doc, &query);
        prop_assert_eq!(prepared.maintain(&doc).unwrap(), MaintainOutcome::UpToDate);
    }
}

/// The warehouse scenario served live: the extraction script is committed
/// round by round through a `Document`, and one document-backed view of
/// the canonical analysis query is maintained after every round. Every
/// round patches in place: rounds that claim or retract `keyword` facts
/// carry every answer, and rounds that touch `endpoint` or `contact`
/// facts drop the answers they detach and re-match at the facts they
/// append. The view must equal a fresh prepare after every round.
#[test]
fn warehouse_view_matches_a_fresh_prepare_after_every_round() {
    use pxml_workloads::warehouse::{
        scenario_script, services_with_endpoint_and_contact, skeleton, WarehouseConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let config = WarehouseConfig {
        services: 3,
        extraction_rounds: 10,
        deletion_ratio: 0.2,
    };
    let (script, _) = scenario_script(&config, &mut StdRng::seed_from_u64(0xBEEF));
    let query = services_with_endpoint_and_contact();
    let mut doc = Document::new(skeleton(config.services));
    let update_engine = UpdateEngine::new();
    let mut view = doc_view(&doc, &query);
    let mut outcomes = Vec::new();
    for update in script.steps() {
        update_engine.apply_doc(&mut doc, update);
        outcomes.push(view.maintain(&doc).unwrap());
        assert_matches_fresh(&view, &doc, &query);
    }
    assert_eq!(outcomes.len(), 10);
    assert!(
        outcomes
            .iter()
            .all(|o| *o == MaintainOutcome::Patched { steps: 1 }),
        "a round fell back: {outcomes:?}"
    );
    let stats = view.maintenance_stats();
    assert_eq!(stats.fallbacks, 0);
    assert!(
        stats.unions_rebuilt > 0 && stats.rematch_visited > 0,
        "no round re-matched: {stats:?}"
    );
}

/// The warehouse scenario of
/// `warehouse_view_matches_a_fresh_prepare_after_every_round`, after one
/// certain `endpoint` claim, served to two views without a footprint:
/// `*[endpoint]`, a wildcard with an `endpoint` child, and
/// `service[* = *]`, two wildcard children joined on their label, which a
/// service's `name` satisfies alone. Every round meets both views, so
/// each patch re-matches at the nodes the round appends. Every round
/// patches with no fallback, and each view holds answers and equals a
/// fresh prepare after every round.
#[test]
fn wildcard_and_join_views_patch_through_every_warehouse_round() {
    use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
    use pxml_tree::DataTree;
    use pxml_workloads::warehouse::{scenario_script, skeleton, WarehouseConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let config = WarehouseConfig {
        services: 3,
        extraction_rounds: 10,
        deletion_ratio: 0.2,
    };
    let (script, _) = scenario_script(&config, &mut StdRng::seed_from_u64(0xBEEF));
    let mut wildcard = PatternQuery::new(None);
    wildcard.add_child(wildcard.root(), "endpoint");
    let mut join = PatternQuery::new(Some("service"));
    let first = join.add_node(join.root(), Axis::Child, None);
    let second = join.add_node(join.root(), Axis::Child, None);
    join.add_join(vec![first, second]);
    let claim = {
        let q = PatternQuery::new(Some("service"));
        let at = q.root();
        ProbabilisticUpdate::new(
            UpdateOperation::insert(q, at, DataTree::new("endpoint")),
            1.0,
        )
    };
    let mut doc = Document::new(skeleton(config.services));
    let update_engine = UpdateEngine::new();
    update_engine.apply_doc(&mut doc, &claim);
    let queries = [wildcard, join];
    let mut views: Vec<PreparedQuery<'static>> =
        queries.iter().map(|query| doc_view(&doc, query)).collect();
    for view in &views {
        assert!(view.footprint().is_none(), "wildcards have no footprint");
    }
    for (round, update) in script.steps().iter().enumerate() {
        update_engine.apply_doc(&mut doc, update);
        for (view, query) in views.iter_mut().zip(&queries) {
            assert_eq!(
                view.maintain(&doc),
                Ok(MaintainOutcome::Patched { steps: 1 }),
                "round {round}, {query:?}"
            );
            assert_matches_fresh(view, &doc, query);
            assert!(!view.is_empty(), "round {round}, {query:?}");
        }
    }
    for view in &views {
        let stats = view.maintenance_stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.steps_patched, 10);
        assert!(
            stats.unions_rebuilt > 0 && stats.rematch_visited > 0,
            "no round re-matched: {stats:?}"
        );
    }
}

/// A rebase: a one-service skeleton holds one certain `keyword` fact with
/// a `value` child. A confidence-1 retraction leaves the fact no
/// survivor, so it detaches its two nodes, and the next claim appends the
/// fact again. Detached slots grow by two per round while the frame
/// holds 3 or 5 live nodes, until the first commit whose base frame holds
/// more detached slots than live nodes compacts it. A `service[name]`
/// view is off every commit's labels: it patches until the rebase,
/// re-prepares once behind it, and patches again after it.
#[test]
fn a_rebase_restarts_the_log_and_a_lagging_view_reprepares_once() {
    use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
    use pxml_server::Warehouse;
    use pxml_tree::DataTree;
    use pxml_workloads::warehouse::skeleton;

    let insert = {
        let q = PatternQuery::new(Some("service"));
        let at = q.root();
        let mut fact = DataTree::new("keyword");
        fact.add_child(fact.root(), "value");
        ProbabilisticUpdate::new(UpdateOperation::insert(q, at, fact), 1.0)
    };
    let retract = {
        let mut q = PatternQuery::new(Some("service"));
        let fact = q.add_child(q.root(), "keyword");
        ProbabilisticUpdate::new(UpdateOperation::delete(q, fact), 1.0)
    };
    // Retract, claim again, retract, ...
    let round = |commit: usize| {
        if commit.is_multiple_of(2) {
            &retract
        } else {
            &insert
        }
    };
    let mut query = PatternQuery::new(Some("service"));
    query.add_child(query.root(), "name");

    let engine = UpdateEngine::new();
    let mut doc = Document::new(skeleton(1));
    engine.apply_doc(&mut doc, &insert);
    let mut view = doc_view(&doc, &query);
    let mut rebase = None;
    for commit in 0..8 {
        let base = doc.snapshot();
        let live = base.num_nodes();
        let rebases = base.tree().arena_len() - live > live;
        let delta = engine.apply_doc(&mut doc, round(commit));
        if rebases {
            rebase = Some((base, delta));
            break;
        }
        assert!(
            delta.node_map.is_none(),
            "commits keep node ids until a rebase"
        );
        assert_eq!(
            view.maintain(&doc),
            Ok(MaintainOutcome::Patched { steps: 1 })
        );
        assert_matches_fresh(&view, &doc, &query);
    }
    let (base, delta) = rebase.expect("detached slots outgrow the live nodes");
    assert_eq!(doc.epoch(), 5, "the second claim after the view rebases");
    let map = delta
        .node_map
        .as_ref()
        .expect("the rebase carries a node map");
    let frame = doc.snapshot();
    assert_eq!(
        frame.tree().arena_len(),
        frame.num_nodes(),
        "no detached slot left"
    );
    assert_eq!(map.len(), base.num_nodes() - delta.nodes_removed);
    for (&old, &new) in map {
        assert_eq!(base.tree().label(old), frame.tree().label(new));
        assert_eq!(base.condition(old), frame.condition(new));
    }
    assert_eq!(doc.log_len(), 0, "the rebase restarts the log");
    for epoch in 0..doc.epoch() {
        assert!(doc.deltas_since(epoch).is_none());
    }
    assert_eq!(
        view.maintain(&doc),
        Ok(MaintainOutcome::Fallback {
            reason: FallbackReason::LogTrimmed
        })
    );
    assert_matches_fresh(&view, &doc, &query);
    let delta = engine.apply_doc(&mut doc, &retract);
    assert!(delta.node_map.is_none());
    assert_eq!(
        view.maintain(&doc),
        Ok(MaintainOutcome::Patched { steps: 1 })
    );
    assert_matches_fresh(&view, &doc, &query);
    assert_eq!(view.maintenance_stats().fallbacks, 1);

    // The same commits through a warehouse view: the hub falls back once,
    // at the rebase, and composes no window for that span.
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(1)).unwrap();
    warehouse.commit("doc", &insert).unwrap();
    warehouse
        .register_view("doc", "names", Arc::new(query.clone()))
        .unwrap();
    let mut rebases = 0;
    for commit in 0..5 {
        let before = warehouse.hub_stats("doc").unwrap();
        let delta = warehouse.commit("doc", round(commit)).unwrap();
        warehouse.expected_matches("doc", "names").unwrap();
        let after = warehouse.hub_stats("doc").unwrap();
        let rebased = u64::from(delta.node_map.is_some());
        rebases += rebased;
        assert_eq!(after.fallbacks, before.fallbacks + rebased);
        assert_eq!(
            after.windows_composed,
            before.windows_composed + 1 - rebased
        );
        assert_eq!(after.windows_applied, before.windows_applied + 1 - rebased);
    }
    assert_eq!(rebases, 1);
}
