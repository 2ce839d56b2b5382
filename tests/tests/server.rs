//! Property suite for the `pxml_server` warehouse.
//!
//! Three contracts over random (tree, pattern, script) triples:
//!
//! 1. **Snapshot isolation** — a pinned [`Snapshot`] is bit-identically
//!    unaffected by any number of later commits: preparing the same query
//!    against the pinned tree before and after a commit storm yields the
//!    same answers with the same probability bits.
//! 2. **Hub equivalence** — a hub-maintained view served after a random
//!    interleaving of commits and reads is indistinguishable from a fresh
//!    prepare against the current epoch (same answers, same order,
//!    bit-identical probabilities), no matter how far the view fell
//!    behind between reads.
//! 3. **Branch-then-diff** — forking a branch and applying a divergent
//!    suffix is equivalent to building the two documents independently
//!    from scratch: the canonical answer diff of the branched pair equals
//!    the diff of the independently built pair.
//!
//! Deterministic cases then cover the serving boundary: concurrent
//! readers, writers committing to several documents at once, view names
//! sharing one query's state, a refused root deletion, refused
//! confidences, a panicking reader, a panicking semiring and a panicking
//! maintenance pass, alone or shared.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::{Axis, PatternQuery};
use pxml_core::query::Query;
use pxml_core::update::{ProbabilisticUpdate, UpdateAction, UpdateOperation, UpdateScript};
use pxml_core::QueryEngine;
use pxml_events::{Condition, EventId, EventTable, Literal, Possibility, Semiring};
use pxml_server::{ServerError, Warehouse};
use pxml_tree::builder::TreeSpec;
use pxml_tree::DataTree;
use pxml_tree::SubDataTree;
use pxml_workloads::warehouse::{
    scenario_script, services_with_endpoint_and_contact, skeleton, WarehouseConfig,
};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Node labels used below the root (the root is always `R`, so label
/// patterns can never select it for deletion).
const LABELS: [&str; 4] = ["A", "B", "C", "D"];

// ---------------------------------------------------------------------------
// Strategies (same small-world construction as the maintenance suite)
// ---------------------------------------------------------------------------

fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop::sample::select(LABELS.to_vec()).prop_map(TreeSpec::leaf);
    leaf.prop_recursive(3, 10, 3, |inner| {
        (
            prop::sample::select(LABELS.to_vec()),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(label, children)| TreeSpec::node(label, children))
    })
}

#[derive(Clone, Debug)]
struct ProbTreeSpec {
    children: Vec<TreeSpec>,
    num_events: usize,
    conditions: Vec<Vec<(usize, bool)>>,
}

fn probtree_strategy() -> impl Strategy<Value = ProbTreeSpec> {
    (
        prop::collection::vec(tree_spec_strategy(), 1..3),
        1usize..=3,
    )
        .prop_flat_map(|(children, num_events)| {
            let nodes: usize = children.iter().map(TreeSpec::size).sum();
            prop::collection::vec(
                prop::collection::vec((0..num_events, any::<bool>()), 0..=2),
                nodes + 1,
            )
            .prop_map(move |conditions| ProbTreeSpec {
                children: children.clone(),
                num_events,
                conditions,
            })
        })
}

fn build_probtree(spec: &ProbTreeSpec) -> ProbTree {
    let mut data = DataTree::new("R");
    let root = data.root();
    for child in &spec.children {
        data.graft(root, &child.build());
    }
    let mut tree = ProbTree::from_data_tree(data, pxml_events::EventTable::new());
    let events: Vec<EventId> = (0..spec.num_events)
        .map(|i| {
            tree.events_mut()
                .insert(format!("e{i}"), 0.4 + 0.05 * i as f64)
        })
        .collect();
    let nodes: Vec<_> = tree.tree().iter().collect();
    for (idx, node) in nodes.into_iter().enumerate() {
        if node == tree.tree().root() {
            continue;
        }
        let literals = spec.conditions[idx % spec.conditions.len()]
            .iter()
            .map(|&(e, positive)| Literal {
                event: events[e % events.len()],
                positive,
            });
        tree.set_condition(node, Condition::from_literals(literals));
    }
    tree.validate_invariants().expect("generated tree invalid");
    tree
}

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

fn update_strategy() -> impl Strategy<Value = ProbabilisticUpdate> {
    (
        0usize..4,
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(LABELS.to_vec()),
        prop::sample::select(vec![0.5f64, 0.8, 1.0]),
    )
        .prop_map(|(shape, l1, l2, confidence)| {
            let operation = match shape {
                0 => {
                    let q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    UpdateOperation::delete(q, at)
                }
                1 => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    UpdateOperation::delete(q, at)
                }
                2 => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.add_descendant(q.root(), l2);
                    UpdateOperation::delete(q, at)
                }
                _ => {
                    let mut q = PatternQuery::new(Some(l1));
                    let at = q.root();
                    q.add_child(at, l2);
                    let mut sub = DataTree::new("new");
                    let sub_root = sub.root();
                    sub.add_child(sub_root, "leaf");
                    UpdateOperation::insert(q, at, sub)
                }
            };
            ProbabilisticUpdate::new(operation, confidence)
        })
}

/// The answers of `query` against a pinned tree, as comparable data:
/// `(subtree, probability bits)` in engine order.
fn answers_against(tree: &ProbTree, query: &PatternQuery) -> Vec<(SubDataTree, u64)> {
    let prepared = QueryEngine::new().prepare(tree, query);
    (0..prepared.len())
        .map(|i| {
            (
                prepared.subtree(i).clone(),
                prepared.probability(i).to_bits(),
            )
        })
        .collect()
}

/// The answers of `view` of `doc` as served, as comparable data:
/// `(subtree, probability bits)` in engine order.
fn served_answers(warehouse: &Warehouse, doc: &str, view: &str) -> Vec<(SubDataTree, u64)> {
    warehouse
        .with_view(doc, view, |prepared| {
            (0..prepared.len())
                .map(|i| {
                    (
                        prepared.subtree(i).clone(),
                        prepared.probability(i).to_bits(),
                    )
                })
                .collect()
        })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: a pinned snapshot is unaffected — bit for bit — by
    /// any number of subsequent commits to the same document.
    #[test]
    fn snapshots_are_isolated_from_later_commits(
        spec in probtree_strategy(),
        pattern in pattern_strategy(),
        updates in prop::collection::vec(update_strategy(), 1..5),
    ) {
        let warehouse = Warehouse::new();
        warehouse.register("doc", build_probtree(&spec)).unwrap();
        let query = build_pattern(&pattern);

        let pinned = warehouse.snapshot("doc").unwrap();
        let before = answers_against(&pinned.tree, &query);
        for update in &updates {
            warehouse.commit("doc", update).unwrap();
        }
        prop_assert_eq!(warehouse.epoch("doc").unwrap(), updates.len() as u64);
        prop_assert_eq!(pinned.epoch, 0);
        let after = answers_against(&pinned.tree, &query);
        prop_assert_eq!(before, after);
    }

    /// Contract 2: after a random interleaving of commits and view reads,
    /// a hub-served view is indistinguishable from a fresh prepare
    /// against the current epoch.
    #[test]
    fn hub_served_views_equal_fresh_prepares_after_interleavings(
        spec in probtree_strategy(),
        pattern in pattern_strategy(),
        // Each step: one commit, then (optionally) a read of each view —
        // so views fall behind by random spans between serves.
        steps in prop::collection::vec((update_strategy(), any::<bool>()), 1..5),
    ) {
        let warehouse = Warehouse::new();
        warehouse.register("doc", build_probtree(&spec)).unwrap();
        let query = build_pattern(&pattern);
        let shared: Arc<dyn Query> = Arc::new(query.clone());
        warehouse.register_view("doc", "a", shared.clone()).unwrap();
        // "b" holds a state of its own, over its own allocation; "c"
        // shares "a"'s.
        warehouse.register_view("doc", "b", Arc::new(query.clone())).unwrap();
        warehouse.register_view("doc", "c", shared).unwrap();

        for (update, read_between) in &steps {
            warehouse.commit("doc", update).unwrap();
            if *read_between {
                // Only view "a" is read here: "b" falls further behind,
                // and "c" is served from the state "a" brought current.
                warehouse.expected_matches("doc", "a").unwrap();
            }
        }

        let snapshot = warehouse.snapshot("doc").unwrap();
        let fresh = answers_against(&snapshot.tree, &query);
        for view in ["a", "b", "c"] {
            let served = served_answers(&warehouse, "doc", view);
            prop_assert_eq!(&served, &fresh, "view {} diverged from fresh prepare", view);
        }
    }

    /// Contract 3: branch-then-commit is equivalent to building the two
    /// documents independently — the canonical diff of the branched pair
    /// equals the diff of the from-scratch pair.
    #[test]
    fn branch_then_diff_equals_independently_built_documents(
        spec in probtree_strategy(),
        pattern in pattern_strategy(),
        prefix in prop::collection::vec(update_strategy(), 0..3),
        trunk_suffix in prop::collection::vec(update_strategy(), 0..3),
        branch_suffix in prop::collection::vec(update_strategy(), 0..3),
    ) {
        let query = build_pattern(&pattern);

        // Branched pair: prefix on the trunk, fork, divergent suffixes.
        let branched = Warehouse::new();
        branched.register("trunk", build_probtree(&spec)).unwrap();
        for update in &prefix {
            branched.commit("trunk", update).unwrap();
        }
        branched.branch("trunk", "branch").unwrap();
        for update in &trunk_suffix {
            branched.commit("trunk", update).unwrap();
        }
        for update in &branch_suffix {
            branched.commit("branch", update).unwrap();
        }
        let via_branch = branched.diff("trunk", "branch", &query).unwrap();

        // Independent pair: each document replays its full script from
        // the same base tree in its own warehouse.
        let independent = Warehouse::new();
        independent.register("left", build_probtree(&spec)).unwrap();
        independent.register("right", build_probtree(&spec)).unwrap();
        for update in prefix.iter().chain(&trunk_suffix) {
            independent.commit("left", update).unwrap();
        }
        for update in prefix.iter().chain(&branch_suffix) {
            independent.commit("right", update).unwrap();
        }
        let via_scratch = independent.diff("left", "right", &query).unwrap();

        prop_assert_eq!(&via_branch.only_left, &via_scratch.only_left);
        prop_assert_eq!(&via_branch.only_right, &via_scratch.only_right);
        prop_assert_eq!(via_branch.unchanged, via_scratch.unchanged);
        prop_assert_eq!(via_branch.shifted.len(), via_scratch.shifted.len());
        for ((ca, la, ra), (cb, lb, rb)) in
            via_branch.shifted.iter().zip(via_scratch.shifted.iter())
        {
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(la.to_bits(), lb.to_bits());
            prop_assert_eq!(ra.to_bits(), rb.to_bits());
        }
        // Same suffixes => no divergence at all.
        if trunk_suffix.is_empty() && branch_suffix.is_empty() {
            prop_assert!(via_branch.is_empty());
        }
    }
}

/// Concurrency smoke: reader threads pin snapshots and serve views while
/// a writer commits — nothing tears, and the served answers always match
/// a fresh prepare against the epoch they were served at.
#[test]
fn concurrent_readers_never_block_or_tear() {
    let warehouse = Warehouse::new();
    let tree = pxml_workloads::warehouse::skeleton(4);
    warehouse.register("doc", tree).unwrap();
    let query = pxml_workloads::warehouse::services_with_endpoint_and_contact();
    // Two names over one allocation share one state: readers of either
    // name take its read lock, and a stale read maintains it once.
    let shared: Arc<dyn Query> = Arc::new(query.clone());
    for view in ["q", "q2"] {
        warehouse
            .register_view("doc", view, shared.clone())
            .unwrap();
    }

    let commits = 16;
    std::thread::scope(|scope| {
        let warehouse = &warehouse;
        let query = &query;
        scope.spawn(move || {
            for i in 0..commits {
                let label = if i % 2 == 0 { "endpoint" } else { "contact" };
                let q = PatternQuery::new(Some("service"));
                let at = q.root();
                let update = ProbabilisticUpdate::new(
                    UpdateOperation::insert(q, at, DataTree::new(label)),
                    0.9,
                );
                warehouse.commit("doc", &update).unwrap();
            }
        });
        for _ in 0..3 {
            scope.spawn(move || {
                for _ in 0..32 {
                    // A pinned snapshot and a served view each must be
                    // internally consistent with *some* epoch.
                    let snapshot = warehouse.snapshot("doc").unwrap();
                    let pinned = QueryEngine::new()
                        .prepare(&snapshot.tree, query)
                        .expected_matches();
                    assert!(pinned.is_finite());
                    for view in ["q", "q2"] {
                        let served = warehouse.expected_matches("doc", view).unwrap();
                        assert!(served.is_finite());
                    }
                }
            });
        }
    });

    assert_eq!(warehouse.epoch("doc").unwrap(), commits);
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = QueryEngine::new()
        .prepare(&snapshot.tree, &query)
        .expected_matches();
    for view in ["q", "q2"] {
        let served = warehouse.expected_matches("doc", view).unwrap();
        assert_eq!(served.to_bits(), fresh.to_bits(), "{view}");
    }
    assert!(matches!(
        warehouse.expected_matches("missing", "q"),
        Err(ServerError::UnknownDocument(_))
    ));
}

/// The hub views each tenant of the multi-writer case registers, one per
/// read kind.
const TENANT_VIEWS: [&str; 4] = ["top", "above", "expected", "possible"];

/// Registers `tenants` documents, each a 4-service skeleton with the four
/// tenant views, and returns each tenant's seeded 4-round script. A
/// tenant's views are registered over one shared `Arc` when `shared`,
/// else over an `Arc` each.
fn tenant_warehouse(tenants: u64, shared: bool) -> (Warehouse, Vec<UpdateScript>) {
    let warehouse = Warehouse::new();
    let scenario = WarehouseConfig {
        services: 4,
        extraction_rounds: 4,
        deletion_ratio: 0.25,
    };
    let scripts = (0..tenants)
        .map(|t| {
            let name = format!("tenant{t}");
            warehouse.register(&name, skeleton(4)).unwrap();
            let one: Arc<dyn Query> = Arc::new(services_with_endpoint_and_contact());
            for view in TENANT_VIEWS {
                let query = if shared {
                    one.clone()
                } else {
                    Arc::new(services_with_endpoint_and_contact())
                };
                warehouse.register_view(&name, view, query).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(0x2007_0611 + t);
            scenario_script(&scenario, &mut rng).0
        })
        .collect();
    (warehouse, scripts)
}

/// Reads each tenant view of `name` once, through its read kind, and
/// appends the bits of everything read to `reads`.
fn read_tenant_views(warehouse: &Warehouse, name: &str, reads: &mut Vec<u64>) {
    let top = warehouse.top_k(name, "top", 3).unwrap();
    reads.extend(top.iter().map(|a| a.probability.to_bits()));
    let above = warehouse.above(name, "above", 0.5).unwrap();
    reads.extend(above.iter().map(|a| a.probability.to_bits()));
    reads.push(
        warehouse
            .expected_matches(name, "expected")
            .unwrap()
            .to_bits(),
    );
    reads.push(warehouse.possible_count(name, "possible").unwrap() as u64);
}

/// One tenant's lane: commit one step, then read each view once, for
/// every step. Returns the bits of everything read.
fn run_lane(warehouse: &Warehouse, name: &str, script: &UpdateScript) -> Vec<u64> {
    let mut reads = Vec::new();
    for update in script.steps() {
        warehouse.commit(name, update).unwrap();
        read_tenant_views(warehouse, name, &mut reads);
    }
    reads
}

/// Writers committing to different documents of one warehouse at once
/// see exactly what they see one after another: every tenant's reads
/// agree bit for bit, and so do its hub counters.
#[test]
fn concurrent_writers_to_different_documents_match_a_sequential_run() {
    const TENANTS: u64 = 3;

    let (concurrent, scripts) = tenant_warehouse(TENANTS, false);
    let start = Barrier::new(TENANTS as usize);
    let concurrent_reads: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let lanes: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let (warehouse, start) = (&concurrent, &start);
                scope.spawn(move || {
                    start.wait();
                    run_lane(warehouse, &format!("tenant{t}"), script)
                })
            })
            .collect();
        lanes.into_iter().map(|lane| lane.join().unwrap()).collect()
    });

    let (sequential, scripts) = tenant_warehouse(TENANTS, false);
    for (t, script) in scripts.iter().enumerate() {
        let name = format!("tenant{t}");
        let reads = run_lane(&sequential, &name, script);
        assert_eq!(reads, concurrent_reads[t], "{name} read differently");
        let stats = sequential.hub_stats(&name).unwrap();
        assert_eq!(stats, concurrent.hub_stats(&name).unwrap(), "{name} hub");
        assert_eq!(stats.deltas_observed, 4);
        assert_eq!(stats.flags_fanned, 16);
    }
    assert!(
        concurrent.expected_matches("tenant0", "expected").unwrap() > 0.0,
        "the reads observed live answers"
    );
}

/// Runs one tenant's script against its four views, shared or not (see
/// [`tenant_warehouse`]). After every commit it reads each view through
/// its read kind, then checks each view's answers and probability bits
/// against a fresh prepare. Returns the bits of the reads, the number of
/// commits and the hub counters.
fn four_views_over_one_script(shared: bool) -> (Vec<u64>, u64, pxml_server::HubStats) {
    let (warehouse, scripts) = tenant_warehouse(1, shared);
    let query = services_with_endpoint_and_contact();
    let mut reads = Vec::new();
    for update in scripts[0].steps() {
        warehouse.commit("tenant0", update).unwrap();
        read_tenant_views(&warehouse, "tenant0", &mut reads);
        let snapshot = warehouse.snapshot("tenant0").unwrap();
        let fresh = answers_against(&snapshot.tree, &query);
        for view in TENANT_VIEWS {
            assert_eq!(served_answers(&warehouse, "tenant0", view), fresh, "{view}");
        }
    }
    let commits = scripts[0].steps().len() as u64;
    (reads, commits, warehouse.hub_stats("tenant0").unwrap())
}

/// Four view names over one `Arc<dyn Query>` share one prepared state:
/// each commit costs one maintenance pass, however many names read it
/// after, and every name serves what a fresh prepare serves. Over four
/// separate `Arc`s of an equal query, the same script still costs four
/// passes per commit and reads the same bits.
#[test]
fn four_names_over_one_query_maintain_once_per_commit() {
    let (shared_reads, commits, shared) = four_views_over_one_script(true);
    assert!(commits > 0);
    assert_eq!(shared.deltas_observed, commits);
    assert_eq!(shared.flags_fanned, 4 * commits, "flags count names");
    assert_eq!(shared.view_maintains, commits, "one pass per commit");
    assert_eq!(shared.windows_applied + shared.fallbacks, commits);

    let (separate_reads, _, separate) = four_views_over_one_script(false);
    assert_eq!(separate_reads, shared_reads);
    assert_eq!(separate.flags_fanned, 4 * commits);
    assert_eq!(separate.view_maintains, 4 * commits, "one pass per state");
    assert_eq!(separate.windows_applied + separate.fallbacks, 4 * commits);
}

/// An update that would delete the document root is refused before
/// staging: the commit returns a typed error, nothing about the document
/// changes, and the next valid commit lands as epoch 1.
#[test]
fn root_deletion_is_refused_and_leaves_the_document_untouched() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(2)).unwrap();
    warehouse
        .register_view("doc", "q", Arc::new(services_with_endpoint_and_contact()))
        .unwrap();

    // The root by its label, and by a wildcard that also matches every
    // other node.
    for root_label in [Some("warehouse"), None] {
        let q = PatternQuery::new(root_label);
        let at = q.root();
        let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, at), 0.5);
        assert_eq!(
            warehouse.commit("doc", &update).unwrap_err(),
            ServerError::RootDeletion
        );
    }
    assert_eq!(warehouse.epoch("doc").unwrap(), 0);
    assert_eq!(warehouse.hub_stats("doc").unwrap().deltas_observed, 0);

    // A wildcard deletion whose pattern the root cannot match is valid.
    let mut q = PatternQuery::new(None);
    let at = q.root();
    q.add_child(at, "name");
    let update = ProbabilisticUpdate::new(UpdateOperation::delete(q, at), 0.5);
    let delta = warehouse.commit("doc", &update).unwrap();
    assert_eq!(delta.epoch, 1);
    assert_eq!(warehouse.epoch("doc").unwrap(), 1);
    assert_eq!(warehouse.hub_stats("doc").unwrap().deltas_observed, 1);
}

/// A confidence outside `(0, 1]` is refused before staging, even from an
/// update built without `ProbabilisticUpdate::new`'s check: NaN, 0, −0.5,
/// 1.5 and +∞ each get a typed error and leave the epoch, the tree and the
/// hub counters as they were, and the next valid commit lands as epoch 1.
#[test]
fn an_invalid_confidence_is_refused_before_staging() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    warehouse
        .register_view("doc", "q", Arc::new(services_with_endpoint_and_contact()))
        .unwrap();
    let mut q = PatternQuery::new(Some("service"));
    let at = q.add_child(q.root(), "name");
    let mut update = ProbabilisticUpdate {
        operation: UpdateOperation::delete(q, at),
        confidence: 0.5,
    };
    let tree = warehouse.snapshot("doc").unwrap().tree.to_ascii();
    let stats = warehouse.hub_stats("doc").unwrap();
    for confidence in [f64::NAN, 0.0, -0.5, 1.5, f64::INFINITY] {
        update.confidence = confidence;
        let refused = warehouse.commit("doc", &update).unwrap_err();
        assert_eq!(
            refused,
            ServerError::InvalidConfidence(confidence.to_string())
        );
        let after = warehouse.snapshot("doc").unwrap();
        assert_eq!((after.epoch, after.tree.to_ascii()), (0, tree.clone()));
        assert_eq!(warehouse.hub_stats("doc").unwrap(), stats);
    }
    update.confidence = 0.5;
    assert_eq!(warehouse.commit("doc", &update).unwrap().epoch, 1);
}

/// An update whose target is not a node of its query is refused with a
/// typed error before staging, where matching would panic under the writer
/// lock and poison it: the epoch, the tree and the hub stay as they were,
/// and the next valid commit lands. The constructors refuse such a target,
/// so the operations are struct literals (`query` and `action` are public
/// fields).
#[test]
fn an_update_with_an_unknown_target_is_refused_before_staging() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    warehouse
        .register_view("doc", "q", Arc::new(services_with_endpoint_and_contact()))
        .unwrap();
    let mut wider = PatternQuery::new(Some("service"));
    let name = wider.add_child(wider.root(), "name");
    let tree = warehouse.snapshot("doc").unwrap().tree.to_ascii();
    let stats = warehouse.hub_stats("doc").unwrap();
    for action in [
        UpdateAction::Delete { at: name },
        UpdateAction::Insert {
            at: name,
            subtree: DataTree::new("fact"),
        },
    ] {
        let operation = UpdateOperation {
            query: PatternQuery::new(Some("service")),
            action,
        };
        let update = ProbabilisticUpdate::new(operation, 0.5);
        let refused = warehouse.commit("doc", &update).unwrap_err();
        assert_eq!(refused, ServerError::UnknownTarget(name.0));
        let after = warehouse.snapshot("doc").unwrap();
        assert_eq!((after.epoch, after.tree.to_ascii()), (0, tree.clone()));
        assert_eq!(warehouse.hub_stats("doc").unwrap(), stats);
    }
    let update = ProbabilisticUpdate::new(UpdateOperation::delete(wider, name), 0.5);
    assert_eq!(warehouse.commit("doc", &update).unwrap().epoch, 1);
}

/// Inserts a `label` fact under every service with `confidence`.
fn insert_under_services(label: &str, confidence: f64) -> ProbabilisticUpdate {
    let q = PatternQuery::new(Some("service"));
    let at = q.root();
    ProbabilisticUpdate::new(
        UpdateOperation::insert(q, at, DataTree::new(label)),
        confidence,
    )
}

/// A reader whose closure panics gets its panic back, but the view it
/// read stays usable: later reads equal a fresh prepare bit for bit, and
/// the document's hub counters can still be read.
#[test]
fn a_panicking_reader_does_not_brick_its_view() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    let query = services_with_endpoint_and_contact();
    warehouse
        .register_view("doc", "q", Arc::new(query.clone()))
        .unwrap();
    for (label, confidence) in [("endpoint", 0.8), ("contact", 0.7)] {
        warehouse
            .commit("doc", &insert_under_services(label, confidence))
            .unwrap();
    }

    let read = panic::catch_unwind(AssertUnwindSafe(|| {
        warehouse.with_view("doc", "q", |_| -> usize { panic!("reader bug") })
    }));
    assert!(read.is_err(), "the reader's panic reaches the caller");

    let served = warehouse.expected_matches("doc", "q").unwrap();
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = QueryEngine::new()
        .prepare(&snapshot.tree, &query)
        .expected_matches();
    assert_eq!(served.to_bits(), fresh.to_bits());
    let stats = warehouse.hub_stats("doc").unwrap();
    assert_eq!(
        stats.view_maintains, 1,
        "maintenance ran once, before the panicking read"
    );
}

/// A caller-supplied semiring with a bug: `one` panics, so folding any
/// consistent condition panics while the view's semiring cache is locked.
struct PanicsOnOne;

impl Semiring for PanicsOnOne {
    type Value = bool;

    fn zero(&self) -> bool {
        false
    }

    fn one(&self) -> bool {
        panic!("semiring bug")
    }

    fn add(&self, a: bool, b: bool) -> bool {
        a || b
    }

    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }

    fn literal(&self, _: Literal, _: &EventTable) -> bool {
        true
    }

    fn is_zero(&self, value: &bool) -> bool {
        !value
    }
}

/// A reader whose semiring panics mid-fold leaves its view serving: the
/// document's hub counters stay readable, and a commit on the view's
/// footprint re-prepares it, after which its cached semiring reads equal
/// a fresh prepare's.
#[test]
fn a_panicking_semiring_reader_leaves_its_view_serving() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    let query = services_with_endpoint_and_contact();
    warehouse
        .register_view("doc", "q", Arc::new(query.clone()))
        .unwrap();
    for (label, confidence) in [("endpoint", 0.8), ("contact", 0.7)] {
        warehouse
            .commit("doc", &insert_under_services(label, confidence))
            .unwrap();
    }

    let read = panic::catch_unwind(AssertUnwindSafe(|| {
        warehouse.with_view("doc", "q", |prepared| {
            prepared.answers_in_cached(&PanicsOnOne).len()
        })
    }));
    assert!(read.is_err(), "the semiring's panic reaches the caller");
    let before = warehouse.hub_stats("doc").unwrap();

    warehouse
        .commit("doc", &insert_under_services("endpoint", 0.6))
        .unwrap();
    let served = warehouse.possible_count("doc", "q").unwrap();
    let after = warehouse.hub_stats("doc").unwrap();
    assert_eq!(
        after.fallbacks,
        before.fallbacks + 1,
        "the on-footprint commit re-prepared the view"
    );
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = QueryEngine::new()
        .prepare(&snapshot.tree, &query)
        .answers_in(&Possibility)
        .into_iter()
        .filter(|(_, possible)| *possible)
        .count();
    assert_eq!(served, fresh);
    assert!(served > 0, "the view has possible answers");
}

/// A foreign query with a bug only a re-prepare reaches: its second
/// `evaluate` panics. It reports no label footprint, so every maintenance
/// pass re-prepares.
struct PanicsOnSecondEvaluate {
    pattern: PatternQuery,
    calls: AtomicUsize,
}

impl Query for PanicsOnSecondEvaluate {
    fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("query bug on re-prepare");
        }
        self.pattern.evaluate(tree)
    }
}

/// A view whose maintenance panics poisons only its own lock: the
/// document's hub counters stay readable, its other views keep serving,
/// and the next read of the view clears the poison and serves it current.
#[test]
fn a_view_whose_maintenance_panicked_leaves_hub_stats_readable() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    warehouse
        .commit("doc", &insert_under_services("contact", 0.7))
        .unwrap();
    let query = services_with_endpoint_and_contact();
    warehouse
        .register_view("doc", "healthy", Arc::new(query.clone()))
        .unwrap();
    let bad = PanicsOnSecondEvaluate {
        pattern: query.clone(),
        calls: AtomicUsize::new(0),
    };
    warehouse
        .register_view("doc", "bad", Arc::new(bad))
        .unwrap();
    warehouse
        .commit("doc", &insert_under_services("endpoint", 0.8))
        .unwrap();

    let read = panic::catch_unwind(AssertUnwindSafe(|| {
        warehouse.expected_matches("doc", "bad")
    }));
    assert!(read.is_err(), "the bad view's re-prepare panicked");

    let stats = warehouse.hub_stats("doc").unwrap();
    assert_eq!(stats.deltas_observed, 2);
    assert_eq!(stats.view_maintains, 1, "the panicked pass was counted");
    assert_eq!(
        stats.fallbacks, 0,
        "the panicked re-prepare counted nothing"
    );

    let served = warehouse.expected_matches("doc", "healthy").unwrap();
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = QueryEngine::new()
        .prepare(&snapshot.tree, &query)
        .expected_matches();
    assert_eq!(served.to_bits(), fresh.to_bits());
    assert!(served > 0.0, "the healthy view has live answers");

    // The bad view still holds its state from before the panicked pass;
    // the next read re-prepares it, and the query's third evaluate
    // succeeds.
    let recovered = warehouse.expected_matches("doc", "bad").unwrap();
    assert_eq!(recovered.to_bits(), fresh.to_bits());
    let stats = warehouse.hub_stats("doc").unwrap();
    assert_eq!(stats.views_recovered, 1);
    assert_eq!(stats.view_maintains, 3, "bad, healthy, bad again");
    warehouse.expected_matches("doc", "bad").unwrap();
    assert_eq!(
        warehouse.hub_stats("doc").unwrap().views_recovered,
        1,
        "the poison is cleared"
    );
}

/// A panic in the maintenance of a state that two names share poisons
/// that one state: the read that hit it gets the panic, the next read
/// through either name recovers the state once and serves it current, and
/// the other name needs no recovery of its own.
#[test]
fn a_panic_in_shared_maintenance_is_recovered_once_for_every_name() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    warehouse
        .commit("doc", &insert_under_services("contact", 0.7))
        .unwrap();
    let query = services_with_endpoint_and_contact();
    let bad: Arc<dyn Query> = Arc::new(PanicsOnSecondEvaluate {
        pattern: query.clone(),
        calls: AtomicUsize::new(0),
    });
    // Only the first registration evaluates the query, so its second
    // `evaluate` is the re-prepare of the first maintenance pass.
    warehouse.register_view("doc", "bad", bad.clone()).unwrap();
    warehouse.register_view("doc", "bad2", bad).unwrap();
    warehouse
        .commit("doc", &insert_under_services("endpoint", 0.8))
        .unwrap();

    let read = panic::catch_unwind(AssertUnwindSafe(|| {
        warehouse.expected_matches("doc", "bad")
    }));
    assert!(read.is_err(), "the shared state's re-prepare panicked");

    let served = warehouse.expected_matches("doc", "bad2").unwrap();
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = QueryEngine::new()
        .prepare(&snapshot.tree, &query)
        .expected_matches();
    assert_eq!(served.to_bits(), fresh.to_bits());
    assert!(served > 0.0, "the view has live answers");
    let stats = warehouse.hub_stats("doc").unwrap();
    assert_eq!(stats.views_recovered, 1);
    assert_eq!(stats.view_maintains, 2, "the panicked pass and its redo");
    assert_eq!(stats.fallbacks, 1);

    let again = warehouse.expected_matches("doc", "bad").unwrap();
    assert_eq!(again.to_bits(), fresh.to_bits());
    let stats = warehouse.hub_stats("doc").unwrap();
    assert_eq!(stats.views_recovered, 1, "one recovery serves both names");
    assert_eq!(stats.view_maintains, 2, "\"bad\" shares the current state");
}

/// A query that counts its `evaluate` calls. It reports no label
/// footprint, so every maintenance pass re-prepares and evaluates.
struct CountsEvaluate {
    pattern: PatternQuery,
    calls: AtomicUsize,
}

impl Query for CountsEvaluate {
    fn evaluate(&self, tree: &DataTree) -> Vec<SubDataTree> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.pattern.evaluate(tree)
    }
}

/// Registering a second name over a query the hub already serves
/// prepares nothing: the query is evaluated once for both names, and once
/// per commit after that.
#[test]
fn a_second_registration_over_one_query_does_not_evaluate() {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(3)).unwrap();
    let query = services_with_endpoint_and_contact();
    let counted = Arc::new(CountsEvaluate {
        pattern: query.clone(),
        calls: AtomicUsize::new(0),
    });
    warehouse
        .register_view("doc", "first", counted.clone())
        .unwrap();
    warehouse
        .register_view("doc", "second", counted.clone())
        .unwrap();
    assert_eq!(counted.calls.load(Ordering::SeqCst), 1);

    for (label, confidence) in [("endpoint", 0.8), ("contact", 0.7)] {
        warehouse
            .commit("doc", &insert_under_services(label, confidence))
            .unwrap();
    }
    let snapshot = warehouse.snapshot("doc").unwrap();
    let fresh = answers_against(&snapshot.tree, &query);
    assert!(!fresh.is_empty(), "the view has live answers");
    for view in ["second", "first"] {
        assert_eq!(served_answers(&warehouse, "doc", view), fresh, "{view}");
    }
    assert_eq!(
        counted.calls.load(Ordering::SeqCst),
        2,
        "one re-prepare served both names"
    );
}
