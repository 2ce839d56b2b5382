//! E16 — the warehouse server: lazy view maintenance and the concurrent
//! read path.
//!
//! The untimed **invariant block** first proves the maintenance hub's
//! laziness claim with exact counters: under a traffic shape of `R` read
//! rounds × `D` off-footprint commits per round × `V` registered views,
//! each over its own query allocation, the hub performs `V × R`
//! maintenance passes (one patch pass over all pending deltas per stale
//! view per read round, counted as an applied window) where the pre-hub
//! pattern — every view maintained after every delta — applies
//! `V × D × R` windows. Both window counts are asserted exactly, along
//! with the raw hub counters. The same traffic over `V` names registered
//! with one shared `Arc<dyn Query>` holds one prepared state, so it costs
//! exactly `R` passes and `R` windows.
//!
//! The timed groups then measure the served read path as the document
//! grows, and the O(1) epoch-snapshot pin contrasted against it.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's `bench-smoke` job does) for a fast
//! smoke run; the invariant block runs (and asserts) in both modes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick};
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
use pxml_core::{Document, PatternQuery, QueryEngine};
use pxml_server::Warehouse;
use pxml_tree::DataTree;
use pxml_workloads::warehouse::{services_with_endpoint_and_contact, skeleton};

/// Views registered per document.
const VIEWS: usize = 4;
/// Read rounds in the invariant traffic shape.
const ROUNDS: usize = 5;
/// Off-footprint commits between read rounds.
const DELTAS_PER_ROUND: usize = 8;

fn insert_under(label: &str, inserted: &str, confidence: f64) -> ProbabilisticUpdate {
    let q = PatternQuery::new(Some(label));
    let at = q.root();
    ProbabilisticUpdate::new(
        UpdateOperation::insert(q, at, DataTree::new(inserted)),
        confidence,
    )
}

/// Gives every service an `endpoint` and a `contact` so the query has
/// live answers; returns the two content updates.
fn content_updates() -> [ProbabilisticUpdate; 2] {
    [
        insert_under("service", "endpoint", 0.9),
        insert_under("service", "contact", 0.8),
    ]
}

/// A warehouse with one settled document of `services` services and
/// `VIEWS` registered (and already-served, hence current) views, each
/// over its own query allocation, or all over one shared `Arc` when
/// `shared`.
fn settled_warehouse(services: usize, shared: bool) -> Warehouse {
    let warehouse = Warehouse::new();
    warehouse.register("doc", skeleton(services)).unwrap();
    for update in &content_updates() {
        warehouse.commit("doc", update).unwrap();
    }
    let one = Arc::new(services_with_endpoint_and_contact());
    for v in 0..VIEWS {
        let query = if shared {
            one.clone()
        } else {
            Arc::new(services_with_endpoint_and_contact())
        };
        warehouse
            .register_view("doc", &format!("v{v}"), query)
            .unwrap();
    }
    for v in 0..VIEWS {
        warehouse.expected_matches("doc", &format!("v{v}")).unwrap();
    }
    warehouse
}

/// The invariant traffic: `D` off-footprint commits per round, then one
/// read of each view, for `R` rounds.
fn serve_rounds(warehouse: &Warehouse) {
    for _ in 0..ROUNDS {
        for _ in 0..DELTAS_PER_ROUND {
            warehouse
                .commit("doc", &insert_under("service", "keyword", 0.7))
                .unwrap();
        }
        for v in 0..VIEWS {
            warehouse.expected_matches("doc", &format!("v{v}")).unwrap();
        }
    }
}

/// The invariant block: hub counters under the `R × D × V` traffic shape,
/// against the pre-hub per-view-per-delta baseline, and over one shared
/// query. Returns the settled warehouse for the timed read-path group.
fn hub_laziness_invariants(services: usize) -> Warehouse {
    // Hub side: maintenance happens lazily on the reads, once per view
    // per round, each pass patching through all its pending deltas.
    let warehouse = settled_warehouse(services, false);
    serve_rounds(&warehouse);
    let hub = warehouse.hub_stats("doc").unwrap();
    let commits = (2 + ROUNDS * DELTAS_PER_ROUND) as u64;
    assert_eq!(hub.deltas_observed, commits);
    assert_eq!(
        hub.flags_fanned,
        ((ROUNDS * DELTAS_PER_ROUND) * VIEWS) as u64,
        "setup commits precede view registration"
    );
    assert_eq!(
        hub.view_maintains,
        (VIEWS * ROUNDS) as u64,
        "lazy: one maintenance pass per stale view per read round, not per view-delta pair"
    );
    assert_eq!(
        hub.windows_composed,
        (VIEWS * ROUNDS) as u64,
        "one composed window per maintenance pass"
    );

    // Baseline (the pre-hub pattern): every view is maintained after
    // every delta.
    let engine = UpdateEngine::new();
    let queries = QueryEngine::new();
    let query = services_with_endpoint_and_contact();
    let mut doc = Document::new(skeleton(services));
    for update in &content_updates() {
        engine.apply_doc(&mut doc, update);
    }
    let mut views: Vec<_> = (0..VIEWS)
        .map(|_| queries.prepare_doc_shared(&doc, Arc::new(query.clone())))
        .collect();
    for _ in 0..ROUNDS {
        for _ in 0..DELTAS_PER_ROUND {
            engine.apply_doc(&mut doc, &insert_under("service", "keyword", 0.7));
            for view in &mut views {
                view.maintain(&doc).unwrap();
            }
        }
    }
    let baseline_windows: u64 = views
        .iter()
        .map(|view| view.maintenance_stats().windows_applied as u64)
        .sum();
    assert_eq!(
        hub.windows_applied,
        (VIEWS * ROUNDS) as u64,
        "hub: one window per stale view per read round"
    );
    assert_eq!(
        baseline_windows,
        (VIEWS * ROUNDS * DELTAS_PER_ROUND) as u64,
        "baseline: one window per view per delta"
    );

    // Shared side: the V names over one `Arc` hold one state, so the
    // same traffic maintains it once per round.
    let shared = settled_warehouse(services, true);
    serve_rounds(&shared);
    let one = shared.hub_stats("doc").unwrap();
    assert_eq!(one.deltas_observed, commits);
    assert_eq!(
        one.flags_fanned, hub.flags_fanned,
        "flags count names, shared or not"
    );
    assert_eq!(
        one.view_maintains, ROUNDS as u64,
        "one state: one maintenance pass per read round, for all V names"
    );
    assert_eq!(one.windows_composed, ROUNDS as u64);
    assert_eq!(
        one.windows_applied, ROUNDS as u64,
        "one state: one window per read round"
    );
    warehouse
}

/// E16a: the served read path — a current view behind the hub — as the
/// document grows. The invariant block runs first (it asserts; a failure
/// fails the bench) and its warehouse is reused for the smallest size.
fn bench_served_reads(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[4, 8] } else { &[4, 8, 16, 32] };
    let mut group = c.benchmark_group("e16_warehouse_served_read");
    for (i, &services) in sizes.iter().enumerate() {
        let warehouse = if i == 0 {
            hub_laziness_invariants(services)
        } else {
            settled_warehouse(services, false)
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(services),
            &warehouse,
            |b, warehouse| {
                b.iter(|| warehouse.expected_matches("doc", "v0").unwrap());
            },
        );
    }
    group.finish();
}

/// E16b: pinning an epoch snapshot is O(1) — an `Arc` clone under the
/// reader lock — regardless of document size.
fn bench_snapshot_pin(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[4, 8] } else { &[4, 8, 16, 32] };
    let mut group = c.benchmark_group("e16_warehouse_snapshot_pin");
    for &services in sizes {
        let warehouse = settled_warehouse(services, false);
        group.bench_with_input(
            BenchmarkId::from_parameter(services),
            &warehouse,
            |b, warehouse| {
                b.iter(|| warehouse.snapshot("doc").unwrap());
            },
        );
    }
    group.finish();
}

/// E16c: the commit path — stage under shared access, swap under the
/// short writer lock, count the commit in the hub — for an off-footprint
/// insert.
fn bench_commit_path(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[4, 8] } else { &[4, 8, 16, 32] };
    let mut group = c.benchmark_group("e16_warehouse_commit");
    for &services in sizes {
        let warehouse = settled_warehouse(services, false);
        let update = insert_under("service", "keyword", 0.7);
        group.bench_with_input(
            BenchmarkId::from_parameter(services),
            &warehouse,
            |b, warehouse| {
                b.iter(|| warehouse.commit("doc", &update).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(10);
    targets = bench_served_reads, bench_snapshot_pin, bench_commit_path
}
criterion_main!(benches);
