//! Property suite for incremental view maintenance.
//!
//! The versioned-`Document` redesign lets a `PreparedQuery` stay live
//! across `UpdateEngine` steps: each committed epoch carries a structured
//! `UpdateDelta`, and `PreparedQuery::maintain` patches the match set,
//! the interned condition unions and the cached probabilities in place
//! whenever the delta's label traffic provably misses the query's spine
//! footprint. This suite pins the two contracts over random (tree,
//! pattern, script) triples:
//!
//! 1. **Indistinguishability** — after every maintenance call the state
//!    must equal a fresh prepare against the same epoch: same answers in
//!    the same order, bit-identical probabilities, and the same selection
//!    counts, except that a patched state builds only the tie-break keys
//!    it does not carry yet.
//! 2. **No silent fallback** — when the query has a bounded footprint
//!    and a delta provably misses it, the patch path *must* be taken;
//!    conversely spine-touching and unbounded cases must re-prepare, and
//!    so must a view behind a rebase, whose delta announces it with a
//!    node map.
//!
//! Deterministic cases replay the warehouse scenario of Section 1 round
//! by round against the same fresh-prepare oracle, and pin the rebase.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pxml_core::query::pattern::{Axis, PatternQuery};
use pxml_core::{
    Document, FallbackReason, MaintainOutcome, PreparedQuery, QueryEngine, UpdateEngine,
};

use common::{build_probtree, probtree_strategy, update_strategy};

/// A random small pattern: up to three extra nodes hung off earlier
/// pattern nodes, mixed axes, wildcard or concrete labels — wildcards
/// yield unbounded footprints, exercising the mandatory-fallback arm.
#[derive(Clone, Debug)]
struct PatternSpec {
    anchored: bool,
    root_label: Option<&'static str>,
    nodes: Vec<(usize, bool, Option<&'static str>)>,
}

fn pattern_strategy() -> impl Strategy<Value = PatternSpec> {
    let label = prop::sample::select(vec![None, Some("A"), Some("B"), Some("C"), Some("D")]);
    (
        any::<bool>(),
        label.clone(),
        prop::collection::vec((0usize..4, any::<bool>(), label), 0..3),
    )
        .prop_map(|(anchored, root_label, nodes)| PatternSpec {
            anchored,
            root_label,
            nodes,
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
/// against the same document epoch. Its ranked read makes the fresh
/// read's scans, comparisons and selections; it builds exactly the tie
/// keys its cache gains, since a patch carries the keys earlier reads
/// built.
fn assert_matches_fresh(maintained: &PreparedQuery<'_>, doc: &Document, query: &PatternQuery) {
    let fresh = doc_view(doc, query);
    prop_assert_eq!(maintained.len(), fresh.len());
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
    /// MUST fall back; otherwise a non-touching delta on a bounded
    /// footprint MUST patch (no silent fallback), a touching one MUST
    /// fall back.
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
        let footprint: Option<BTreeSet<String>> = prepared.footprint().cloned();
        for update in &updates {
            let delta = update_engine.apply_doc(&mut doc, update);
            let outcome = prepared.maintain(&doc).unwrap();
            match &footprint {
                _ if delta.node_map.is_some() => prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Fallback { reason: FallbackReason::LogTrimmed }
                ),
                None => prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Fallback { reason: FallbackReason::UnboundedFootprint }
                ),
                Some(fp) if delta.touches(fp) => prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Fallback { reason: FallbackReason::SpineTouched }
                ),
                Some(_) => prop_assert_eq!(
                    outcome,
                    MaintainOutcome::Patched { steps: 1 },
                    "no silent fallback on a non-spine-touching delta"
                ),
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
        let footprint: Option<BTreeSet<String>> = prepared.footprint().cloned();
        let deltas: Vec<_> = updates
            .iter()
            .map(|update| update_engine.apply_doc(&mut doc, update))
            .collect();
        let outcome = prepared.maintain(&doc).unwrap();
        let expected = match &footprint {
            _ if deltas.iter().any(|d| d.node_map.is_some()) => {
                MaintainOutcome::Fallback { reason: FallbackReason::LogTrimmed }
            }
            None => MaintainOutcome::Fallback { reason: FallbackReason::UnboundedFootprint },
            Some(fp) if deltas.iter().any(|d| d.touches(fp)) => {
                MaintainOutcome::Fallback { reason: FallbackReason::SpineTouched }
            }
            Some(_) => MaintainOutcome::Patched { steps: updates.len() },
        };
        prop_assert_eq!(outcome, expected);
        assert_matches_fresh(&prepared, &doc, &query);
        prop_assert_eq!(prepared.maintain(&doc).unwrap(), MaintainOutcome::UpToDate);
    }
}

/// The warehouse scenario served live: the extraction script is committed
/// round by round through a `Document`, and one document-backed view of
/// the canonical analysis query is maintained after every round. Rounds
/// that only claim or retract `keyword` facts patch in place; rounds that
/// touch `endpoint` or `contact` facts fall back to a re-prepare. Either
/// way the view must equal a fresh prepare after every round.
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
    let fallbacks = outcomes
        .iter()
        .filter(|o| matches!(o, MaintainOutcome::Fallback { .. }))
        .count();
    assert!(fallbacks > 0, "no round fell back: {outcomes:?}");
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, MaintainOutcome::Patched { .. })),
        "no round was patched: {outcomes:?}"
    );
    assert_eq!(view.maintenance_stats().fallbacks, fallbacks);
}

/// A rebase: a one-service skeleton holds one `keyword` fact with a
/// `value` child, and each confidence-0.5 retraction of it detaches the
/// fact's two nodes and appends a survivor copy. Detached slots grow by
/// two per commit while the frame keeps 5 live nodes, until the first
/// commit whose base frame holds more detached slots than live nodes
/// compacts it. A `service[name]` view is off every retraction's labels:
/// it patches until the rebase, re-prepares once behind it, and patches
/// again after it.
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
        ProbabilisticUpdate::new(UpdateOperation::delete(q, fact), 0.5)
    };
    let mut query = PatternQuery::new(Some("service"));
    query.add_child(query.root(), "name");

    let engine = UpdateEngine::new();
    let mut doc = Document::new(skeleton(1));
    engine.apply_doc(&mut doc, &insert);
    let mut view = doc_view(&doc, &query);
    let mut rebase = None;
    for _ in 0..8 {
        let base = doc.snapshot();
        let live = base.num_nodes();
        let rebases = base.tree().arena_len() - live > live;
        let delta = engine.apply_doc(&mut doc, &retract);
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
    assert_eq!(doc.epoch(), 5, "the fourth retraction rebases");
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
    for _ in 0..5 {
        let before = warehouse.hub_stats("doc").unwrap();
        let delta = warehouse.commit("doc", &retract).unwrap();
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
