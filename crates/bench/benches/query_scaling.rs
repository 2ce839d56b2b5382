//! E3 — Theorem 1 / Proposition 2 (queries): locally monotone query
//! evaluation over prob-trees is polynomial, with cost
//! `time(Q(t)) + O(|Q(t)|·|T|)` on top of the plain data-tree evaluation.
//!
//! Four groups:
//!
//! * `e3_query_data_tree` — the query on the bare data tree (the
//!   `time(Q(t))` term);
//! * `e3_query_probtree` — the same query on the prob-tree, prepared and
//!   drained once (adds the condition unions and probability
//!   evaluation);
//! * `e3_prepared_vs_unprepared` — a top-10 request served from a reused
//!   `PreparedQuery` vs paying `prepare` on every call: the prepared path
//!   skips matching, condition unions and (cached) probabilities;
//! * `e3_topk_vs_ranked` — top-10 via the bounded binary heap vs the full
//!   ranking `ranked()`, which sorts the interned condition slots and then
//!   each run of tied answers, from the same prepared state.
//!
//! Plus `e3_above_serve_tenant` — the threshold read of perfbench's `serve`
//! workload on one of its tenants: `above(0.5)` selects 2 048 of 3 584
//! answers, which tie in runs of 64, on a state with its tie keys cached
//! and on a fresh one. A cached read sorts the qualifying condition slots
//! and walks each run, already in order, once; it copies no tree. A fresh
//! one adds the prepare and the tie keys. The counts are asserted exactly
//! before timing, and the cached read's comparisons stay below twice the
//! answers it selects.
//!
//! Plus `e14_maintain_vs_reprepare` — the live-view access pattern of the
//! warehouse scenario: the endpoint+contact monitoring query served after
//! every extractor round, by per-round fresh prepares vs one
//! incrementally maintained `PreparedQuery`, on rounds that claim
//! `keyword` facts (off the query's footprint) and on rounds that claim
//! and retract `endpoint` and `contact` facts (on it, so a patch
//! re-matches at the appended facts). Only the per-round serving calls
//! are timed; building the document and applying the updates are not.
//!
//! Plus `e15_semiring_overhead` — the generic provenance path on the
//! deletion blow-up family (retract/re-claim rounds grow `¬w` chains in
//! the answers' conditions): before timing, the generic `Probability`
//! drain is asserted **bit-identical** to the pre-refactor f64 fast
//! path; the timed arms then drain the same prepared state under
//! `Probability`, `Possibility` (boolean ops instead of float
//! multiplies) and `Lineage`.
//!
//! Before timing, the heap-vs-sort and threshold short-circuit comparison
//! counters are asserted (untimed) on the largest fixture, and the
//! maintenance counters are asserted on the warehouse fixture: no round
//! of either script falls back, each patch builds exactly the unions of
//! the answers its round appends, and the keyword rounds rebuild ≥5x
//! fewer unions than per-round re-preparing.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's bench-smoke job does) for a fast
//! smoke run over the two smallest tree sizes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_bench::{quick, rng, scaling_probtree, scaling_query, SCALING_SIZES, SEED};
use pxml_core::query::pattern::PatternQuery;
use pxml_core::query::Query;
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
use pxml_core::{Document, MaintainOutcome, QueryEngine};
use pxml_events::{Lineage, Possibility, Probability};
use pxml_tree::DataTree;
use pxml_workloads::warehouse::{
    scenario_script, services_with_endpoint_and_contact, skeleton, WarehouseConfig,
};

/// Untimed sanity assertions on the selection counters: the bounded heap
/// must do fewer rank comparisons than the full sort, and a selective
/// threshold must sort only its qualifying answers.
fn assert_selection_counters(tree: &pxml_core::ProbTree, query: &dyn Query) {
    let prepared = QueryEngine::new().prepare(tree, query);
    let full = prepared.ranked();
    if full.len() < 64 {
        return; // not enough answers for a meaningful ratio
    }
    let top = prepared.top_k(10);
    assert!(
        top.stats().comparisons < full.stats().comparisons / 2,
        "bounded heap must beat the full sort: {} vs {} comparisons over {} answers",
        top.stats().comparisons,
        full.stats().comparisons,
        full.len()
    );
    // A threshold keeping only the ~top answers: the short-circuit path
    // must not pay the full ranking sort (the legacy path sorted all
    // answers before filtering). The ratio depends on how many answers
    // tie at the cutoff, so only strict improvement is asserted here —
    // the sharp /4 bound lives in the engine's unit tests.
    let cutoff = top.as_slice()[top.len() - 1].probability;
    let selective = prepared.above(cutoff);
    assert!(
        selective.stats().comparisons < full.stats().comparisons,
        "threshold short-circuit must beat the full sort: {} vs {} comparisons",
        selective.stats().comparisons,
        full.stats().comparisons
    );
    assert!(selective.len() >= top.len());
}

fn bench_query_scaling(c: &mut Criterion) {
    let query = scaling_query();
    let mut r = rng();
    let sizes: &[usize] = if quick() {
        &SCALING_SIZES[..2]
    } else {
        &SCALING_SIZES
    };
    let trees: Vec<_> = sizes
        .iter()
        .map(|&n| (n, scaling_probtree(n, &mut r)))
        .collect();

    let (_, largest) = trees.last().expect("at least one scaling size");
    assert_selection_counters(largest, &query);

    let mut group = c.benchmark_group("e3_query_data_tree");
    for (n, tree) in &trees {
        group.bench_with_input(BenchmarkId::from_parameter(n), tree, |b, tree| {
            b.iter(|| query.evaluate(tree.tree()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e3_query_probtree");
    for (n, tree) in &trees {
        group.bench_with_input(BenchmarkId::from_parameter(n), tree, |b, tree| {
            b.iter(|| {
                QueryEngine::new()
                    .prepare(tree, &query)
                    .answers()
                    .collect::<Vec<_>>()
            });
        });
    }
    group.finish();

    // Prepared reuse: the ranked-retrieval access pattern — one prepare,
    // many top-k requests — vs re-preparing per request.
    let engine = QueryEngine::new();
    let mut group = c.benchmark_group("e3_prepared_vs_unprepared");
    for (n, tree) in &trees {
        group.bench_with_input(BenchmarkId::new("unprepared", n), tree, |b, tree| {
            b.iter(|| engine.prepare(tree, &query).top_k(10));
        });
        group.bench_with_input(BenchmarkId::new("prepared", n), tree, |b, tree| {
            let prepared = engine.prepare(tree, &query);
            prepared.top_k(10); // warm the probability cache once
            b.iter(|| prepared.top_k(10));
        });
    }
    group.finish();

    // Bounded-heap top-k vs the full ranking over one prepared state
    // (probabilities cached, so the selection cost dominates).
    let mut group = c.benchmark_group("e3_topk_vs_ranked");
    for (n, tree) in &trees {
        let prepared = engine.prepare(tree, &query);
        prepared.ranked(); // warm probability + tie-key caches
        group.bench_with_input(
            BenchmarkId::new("top10_heap", n),
            &prepared,
            |b, prepared| {
                b.iter(|| prepared.top_k(10));
            },
        );
        group.bench_with_input(BenchmarkId::new("ranked", n), &prepared, |b, prepared| {
            b.iter(|| prepared.ranked());
        });
    }
    group.finish();
}

/// A `serve` tenant: a 64-service warehouse document after the 25 commits
/// of perfbench `serve`'s commit schedule 8, a quarter of them
/// retractions. Every commit is corpus-wide, so each service's answers
/// carry the same probabilities as every other's, and each probability
/// is shared by 64 answers.
fn serve_tenant() -> Document {
    let config = WarehouseConfig {
        services: 64,
        extraction_rounds: 25,
        deletion_ratio: 0.25,
    };
    let mut schedule = StdRng::seed_from_u64(SEED + 8);
    let (script, _) = scenario_script(&config, &mut schedule);
    let engine = UpdateEngine::new();
    let mut doc = Document::new(skeleton(config.services));
    for update in script.steps() {
        engine.apply_doc(&mut doc, update);
    }
    doc
}

/// The `serve` threshold read on one tenant, the same in quick mode: a
/// read ranks the qualifying condition slots and places every qualifying
/// answer, and its comparisons stay below twice the answers it selects.
fn bench_above_serve_tenant(c: &mut Criterion) {
    const THRESHOLD: f64 = 0.5;
    let doc = serve_tenant();
    let tree = doc.tree();
    let query = services_with_endpoint_and_contact();
    let engine = QueryEngine::new();
    let prepared = engine.prepare(tree, &query);
    let first = prepared.above(THRESHOLD);
    assert_eq!(
        (
            prepared.len(),
            first.stats().selected,
            first.stats().tie_keys_built
        ),
        (3584, 2048, 2048),
        "the tenant's answers, and the first read's selection and tie keys"
    );
    let cached = prepared.above(THRESHOLD).stats();
    assert!(
        cached.comparisons < 2 * cached.selected as u64,
        "a cached read sorts slots and walks runs already in order: {} \
         comparisons for {} selected answers",
        cached.comparisons,
        cached.selected
    );
    let mut group = c.benchmark_group("e3_above_serve_tenant");
    group.bench_function(format!("cached_keys/{}", prepared.len()), |b| {
        b.iter(|| prepared.above(THRESHOLD));
    });
    group.bench_function(format!("fresh_state/{}", prepared.len()), |b| {
        b.iter(|| engine.prepare(tree, &query).above(THRESHOLD));
    });
    group.finish();
}

/// One extractor round: claim a `label` fact (with a distinct per-round
/// value leaf) under every service.
fn claim_fact(label: &str, round: usize, confidence: f64) -> ProbabilisticUpdate {
    let mut fact = DataTree::new(label);
    let fact_root = fact.root();
    fact.add_child(fact_root, format!("value{round}"));
    let query = PatternQuery::new(Some("service"));
    let at = query.root();
    ProbabilisticUpdate::new(UpdateOperation::insert(query, at, fact), confidence)
}

/// Retracts the `label` facts of every service with `confidence`: each
/// fact is detached and one survivor copy of it appended.
fn retract_facts(label: &str, confidence: f64) -> ProbabilisticUpdate {
    let mut query = PatternQuery::new(Some("service"));
    let fact = query.add_child(query.root(), label);
    ProbabilisticUpdate::new(UpdateOperation::delete(query, fact), confidence)
}

/// The two E14 scripts. `Keyword` rounds claim facts off the query's
/// {service, endpoint, contact} footprint, so maintenance carries every
/// answer. `Footprint` rounds cycle through claiming an `endpoint` fact,
/// claiming a `contact` fact, retracting every `endpoint` fact and
/// retracting every `contact` fact, so maintenance drops the answers a
/// round detaches and re-matches at the facts it appends.
#[derive(Clone, Copy, Debug)]
enum Rounds {
    Keyword,
    Footprint,
}

impl Rounds {
    fn name(self) -> &'static str {
        match self {
            Rounds::Keyword => "keyword",
            Rounds::Footprint => "footprint",
        }
    }

    /// Rounds per script. A retraction leaves detached slots, and a commit
    /// whose base frame holds more of them than live nodes rebases, which
    /// re-prepares every view: two footprint cycles stay below that.
    fn count(self) -> usize {
        match (self, quick()) {
            (_, true) => 4,
            (Rounds::Keyword, false) => 10,
            (Rounds::Footprint, false) => 8,
        }
    }

    /// The update of round `round`, counted from 1.
    fn update(self, round: usize) -> ProbabilisticUpdate {
        let confidence = 0.5 + 0.4 * (round as f64 / self.count() as f64);
        match (self, round % 4) {
            (Rounds::Keyword, _) => claim_fact("keyword", round, confidence),
            (Rounds::Footprint, 1) => claim_fact("endpoint", round, confidence),
            (Rounds::Footprint, 2) => claim_fact("contact", round, confidence),
            (Rounds::Footprint, 3) => retract_facts("endpoint", 0.5),
            (Rounds::Footprint, _) => retract_facts("contact", 0.5),
        }
    }

    /// The condition unions a patch of each round builds: one per answer
    /// holding a node the round appended. Every service holds the same
    /// facts, starting from one endpoint and one contact. A claim adds the
    /// new fact's answers with every fact of the other label; a retraction
    /// replaces each fact by its survivor copy, so every answer is found
    /// again.
    fn unions_built(self, services: usize) -> usize {
        let (mut endpoints, mut contacts, mut built) = (1, 1, 0);
        for round in 1..=self.count() {
            match (self, round % 4) {
                (Rounds::Keyword, _) => {}
                (Rounds::Footprint, 1) => {
                    built += contacts;
                    endpoints += 1;
                }
                (Rounds::Footprint, 2) => {
                    built += endpoints;
                    contacts += 1;
                }
                (Rounds::Footprint, _) => built += endpoints * contacts,
            }
        }
        services * built
    }
}

/// A warehouse already carrying one endpoint and one contact fact per
/// service (so the endpoint+contact query has answers), plus the rounds
/// of the `kind` script.
fn maintenance_fixture(services: usize, kind: Rounds) -> (Document, Vec<ProbabilisticUpdate>) {
    let update_engine = UpdateEngine::new();
    let mut doc = Document::new(skeleton(services));
    update_engine.apply_doc(&mut doc, &claim_fact("endpoint", 0, 0.9));
    update_engine.apply_doc(&mut doc, &claim_fact("contact", 0, 0.8));
    let script = (1..=kind.count()).map(|round| kind.update(round)).collect();
    (doc, script)
}

/// Untimed counter assertions for the incremental-maintenance contract:
/// no round of either script falls back, each patch builds exactly the
/// unions of the answers through the nodes its round appended, and on the
/// keyword rounds patching rebuilds at least 5x fewer condition unions
/// than re-preparing every round would.
fn assert_maintenance_counters(services: usize, kind: Rounds) {
    let (mut doc, script) = maintenance_fixture(services, kind);
    let query: Arc<dyn Query> = Arc::new(services_with_endpoint_and_contact());
    let query_engine = QueryEngine::new();
    let update_engine = UpdateEngine::new();
    let mut prepared = query_engine.prepare_doc_shared(&doc, Arc::clone(&query));
    assert!(!prepared.is_empty(), "the seeded warehouse has answers");
    let mut reprepare_union_work = 0usize;
    for update in &script {
        let delta = update_engine.apply_doc(&mut doc, update);
        assert!(delta.node_map.is_none(), "{kind:?} rounds never rebase");
        let outcome = prepared.maintain(&doc).expect("document-backed state");
        assert_eq!(
            outcome,
            MaintainOutcome::Patched { steps: 1 },
            "{kind:?} rounds must patch"
        );
        // A fresh prepare recomputes one condition union per answer.
        let fresh = query_engine.prepare_doc_shared(&doc, Arc::clone(&query));
        assert_eq!(prepared.len(), fresh.len());
        reprepare_union_work += fresh.len();
    }
    let stats = prepared.maintenance_stats();
    assert_eq!(stats.fallbacks, 0, "no silent fallback on {kind:?} rounds");
    assert_eq!(stats.steps_patched, script.len());
    assert_eq!(
        stats.unions_rebuilt,
        kind.unions_built(services),
        "{kind:?} rounds build the unions of the answers they append"
    );
    if let Rounds::Keyword = kind {
        assert!(
            stats.unions_rebuilt * 5 <= reprepare_union_work,
            "maintenance must rebuild at least 5x fewer unions than per-round \
             re-preparing: {} rebuilt vs {} across {} fresh prepares",
            stats.unions_rebuilt,
            reprepare_union_work,
            script.len()
        );
    }
}

/// E14 — incremental view maintenance: serving the endpoint+contact
/// monitoring query after every extractor round, either by re-preparing
/// from scratch each round or by patching one live `PreparedQuery`
/// through the document's update deltas, on both scripts. Both arms
/// replay the identical scenario, and each times only its per-round
/// serving calls: `prepare_doc_shared(..).expected_matches()` against
/// `maintain(&doc)` plus `expected_matches()`. Building the fixture,
/// preparing the live view before the first round and applying each
/// update are untimed.
fn bench_maintenance(c: &mut Criterion) {
    let services = if quick() { 8 } else { 24 };
    let kinds = [Rounds::Keyword, Rounds::Footprint];
    for kind in kinds {
        assert_maintenance_counters(services, kind);
    }

    let query: Arc<dyn Query> = Arc::new(services_with_endpoint_and_contact());
    let query_engine = QueryEngine::new();
    let update_engine = UpdateEngine::new();
    let mut group = c.benchmark_group("e14_maintain_vs_reprepare");
    for kind in kinds {
        let name = kind.name();
        group.bench_function(format!("reprepare_every_round/{name}/{services}"), |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let (mut doc, script) = maintenance_fixture(services, kind);
                    let mut total = 0.0f64;
                    for update in &script {
                        update_engine.apply_doc(&mut doc, update);
                        let start = Instant::now();
                        total += query_engine
                            .prepare_doc_shared(&doc, Arc::clone(&query))
                            .expected_matches();
                        timed += start.elapsed();
                    }
                    black_box(total);
                }
                timed
            });
        });
        group.bench_function(format!("maintain_across_rounds/{name}/{services}"), |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let (mut doc, script) = maintenance_fixture(services, kind);
                    let mut prepared = query_engine.prepare_doc_shared(&doc, Arc::clone(&query));
                    let mut total = 0.0f64;
                    for update in &script {
                        update_engine.apply_doc(&mut doc, update);
                        let start = Instant::now();
                        prepared.maintain(&doc).expect("document-backed state");
                        total += prepared.expected_matches();
                        timed += start.elapsed();
                    }
                    black_box(total);
                }
                timed
            });
        });
    }
    group.finish();
}

/// The deletion blow-up family: retract/re-claim rounds against the
/// `endpoint` facts grow `¬w` survivor chains in the conditions the
/// endpoint+contact query unions per answer — the family where
/// per-literal semiring cost dominates the drain.
fn blowup_fixture(rounds: usize) -> pxml_core::ProbTree {
    let engine = UpdateEngine::new();
    let mut tree = skeleton(6);
    tree = engine.apply(&tree, &claim_fact("endpoint", 0, 0.9)).0;
    tree = engine.apply(&tree, &claim_fact("contact", 0, 0.8)).0;
    for round in 1..=rounds {
        let mut retract = PatternQuery::new(Some("service"));
        let fact = retract.add_child(retract.root(), "endpoint");
        let delete = ProbabilisticUpdate::new(UpdateOperation::delete(retract, fact), 0.3);
        tree = engine.apply(&tree, &delete).0;
        tree = engine.apply(&tree, &claim_fact("endpoint", round, 0.9)).0;
    }
    tree
}

/// Untimed contract assertion: draining the prepared state through the
/// generic `Probability` semiring returns, answer for answer, the exact
/// bits of the pre-refactor f64 fast path.
fn assert_probability_bit_identity(tree: &pxml_core::ProbTree, query: &dyn Query) {
    let prepared = QueryEngine::new().prepare(tree, query);
    let generic = prepared.answers_in(&Probability);
    let fast: Vec<_> = prepared.answers().collect();
    assert_eq!(generic.len(), fast.len());
    for ((_, value), answer) in generic.iter().zip(&fast) {
        assert_eq!(
            value.to_bits(),
            answer.probability.to_bits(),
            "generic Probability must be bit-identical to the f64 fast path"
        );
    }
}

/// E15 — semiring-generic provenance: one prepared match set drained
/// under three semirings. `Probability` re-folds f64 products,
/// `Possibility` folds booleans over the same literals, `Lineage`
/// accumulates event sets — the spread is the cost of genericity.
fn bench_semiring_overhead(c: &mut Criterion) {
    let rounds = if quick() { 4 } else { 12 };
    let tree = blowup_fixture(rounds);
    let query = services_with_endpoint_and_contact();
    assert_probability_bit_identity(&tree, &query);

    let engine = QueryEngine::new();
    let prepared = engine.prepare(&tree, &query);
    assert!(!prepared.is_empty(), "the blow-up fixture has answers");
    let mut group = c.benchmark_group("e15_semiring_overhead");
    group.bench_function(format!("probability_generic/{rounds}"), |b| {
        b.iter(|| prepared.answers_in(&Probability));
    });
    group.bench_function(format!("possibility/{rounds}"), |b| {
        b.iter(|| prepared.answers_in(&Possibility));
    });
    group.bench_function(format!("lineage/{rounds}"), |b| {
        b.iter(|| prepared.answers_in(&Lineage));
    });
    group.finish();
}

fn config() -> Criterion {
    if quick() {
        Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(20))
            .measurement_time(Duration::from_millis(80))
    } else {
        Criterion::default()
            .sample_size(20)
            .warm_up_time(Duration::from_millis(400))
            .measurement_time(Duration::from_millis(1500))
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_query_scaling, bench_above_serve_tenant, bench_maintenance,
        bench_semiring_overhead
}
criterion_main!(benches);
