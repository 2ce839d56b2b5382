//! E4/E5 — Proposition 2 (updates) and Theorem 3: probabilistic insertions
//! stay polynomial while the `d0` deletion on the Theorem 3 family takes
//! time (and space) exponential in `n` — plus the update-engine scenarios:
//! batched scripts, nested deletion targets, and the blow-up control
//! (shared-first negation chains + simplification) contrasted against the
//! naive Appendix A expansion via size counters asserted outside the timed
//! regions, and region-scoped document commits at growing document sizes.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's `bench-smoke` job does) for a fast
//! smoke run with small iteration budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick, rng, scaling_probtree, SCALING_SIZES};
use pxml_core::semantics::possible_worlds;
use pxml_core::update::{
    ProbabilisticUpdate, StepScope, UpdateEngine, UpdateEngineConfig, UpdateOperation,
};
use pxml_core::{Document, MaintainOutcome, PatternQuery, ProbTree, QueryEngine};
use pxml_events::{Condition, Literal};
use pxml_tree::DataTree;
use pxml_workloads::paper::{d0_deletion, theorem3_tree};
use pxml_workloads::warehouse::{scenario_script, skeleton, WarehouseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The system allocator, counting every `alloc` and `realloc` call, so
/// `updates_region_commit` can pin the allocations of a frame clone and a
/// commit.
struct CountingAllocator;

/// `alloc` and `realloc` calls since the bench started, on every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method passes its arguments unchanged to `System`, so what
// the caller guarantees under `GlobalAlloc`'s contract is what `System`
// needs; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `f`'s result and the allocations made while it ran.
fn counting_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// E4: insertion scaling on random prob-trees (insert an `E` child under
/// every `L0` node, confidence 0.9).
fn bench_insertions(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("e4_insertion_scaling");
    for (n, tree) in &trees {
        group.bench_with_input(BenchmarkId::from_parameter(n), tree, |b, tree| {
            b.iter(|| {
                let q = PatternQuery::new(Some("L0"));
                let at = q.root();
                let update = ProbabilisticUpdate::new(
                    UpdateOperation::insert(q, at, DataTree::new("E")),
                    0.9,
                );
                UpdateEngine::new().apply(tree, &update)
            });
        });
    }
    group.finish();
}

/// E5: the Theorem 3 deletion blow-up — `d0` on the n-C-children family.
/// Time doubles (at least) with every increment of n; the companion table
/// (`tables --exp e5`) reports the output sizes. Timed on the raw engine
/// configuration so the curve measures the Appendix A deletion itself,
/// every survivor copy grafted deep, not the (separately benchmarked)
/// simplification pass.
fn bench_theorem3_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_theorem3_deletion");
    let sizes: &[usize] = if quick() {
        &[2, 4]
    } else {
        &[2, 4, 6, 8, 10, 12]
    };
    let engine = UpdateEngine::with_config(UpdateEngineConfig::raw());
    for &n in sizes {
        let tree = theorem3_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| engine.apply(tree, &d0_deletion(1.0)));
        });
    }
    group.finish();
}

/// E5 (contrast): the same query used for an insertion instead of a
/// deletion stays flat on the very same family.
fn bench_theorem3_insertion_contrast(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_theorem3_insertion_contrast");
    let sizes: &[usize] = if quick() {
        &[2, 4]
    } else {
        &[2, 4, 6, 8, 10, 12]
    };
    for &n in sizes {
        let tree = theorem3_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| {
                let (update, _) = pxml_workloads::paper::d0_insertion(1.0);
                UpdateEngine::new().apply(tree, &update)
            });
        });
    }
    group.finish();
}

/// Blow-up control on the confidence-c Theorem 3 deletion: the naive
/// Appendix A expansion produces `3^n` survivor copies, shared-first
/// chains produce `1 + 2^n`, and the simplification pass recovers the same
/// reduction from the naive output. The size ratios are asserted outside
/// the timed region; the timed comparison contrasts the engine
/// configurations.
fn bench_deletion_blowup_control(c: &mut Criterion) {
    let n = if quick() { 3 } else { 5 };
    let tree = theorem3_tree(n);
    let update = d0_deletion(0.8);
    let raw_engine = UpdateEngine::with_config(UpdateEngineConfig::raw());
    let default_engine = UpdateEngine::new();
    let simplify_only = UpdateEngine::with_config(UpdateEngineConfig {
        simplify: true,
        shared_first_chains: false,
    });

    // Counter assertions (sizes, not wall-clock).
    let (raw_out, raw_report) = raw_engine.apply(&tree, &update);
    let (default_out, _) = default_engine.apply(&tree, &update);
    let (simplified_out, simplified_report) = simplify_only.apply(&tree, &update);
    let b_copies = |t: &ProbTree| {
        t.tree()
            .iter()
            .filter(|&nd| t.tree().label(nd) == "B")
            .count()
    };
    assert_eq!(
        b_copies(&raw_out),
        3usize.pow(n as u32),
        "naive: 3^n copies"
    );
    assert_eq!(
        b_copies(&default_out),
        1 + (1usize << n),
        "shared-first chains: 1 + 2^n copies"
    );
    assert_eq!(
        b_copies(&simplified_out),
        1 + (1usize << n),
        "simplification recovers the same cover from the naive output"
    );
    assert!(simplified_report.simplification_savings() > 0);
    assert_eq!(raw_report.size_raw(), raw_out.size());
    // All three agree with the Definition 16 semantics at a feasible n.
    if n <= 3 {
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&tree, 20).unwrap())
            .normalized();
        for out in [&raw_out, &default_out, &simplified_out] {
            let direct = possible_worlds(out, 20).unwrap().normalized();
            assert!(direct.isomorphic(&via_pw));
        }
    }

    let mut group = c.benchmark_group("e5_deletion_blowup_control");
    group.bench_with_input(BenchmarkId::new("naive", n), &tree, |b, tree| {
        b.iter(|| raw_engine.apply(tree, &update));
    });
    group.bench_with_input(BenchmarkId::new("shared_first", n), &tree, |b, tree| {
        b.iter(|| default_engine.apply(tree, &update));
    });
    group.bench_with_input(BenchmarkId::new("simplify_naive", n), &tree, |b, tree| {
        b.iter(|| simplify_only.apply(tree, &update));
    });
    group.finish();
}

/// Nested deletion targets: chains of `B → C, B → …` where every `B` with
/// a `C` child is a target, so each target's survival split must land
/// inside its ancestors' survivor copies (the bug the engine fixed). The
/// correctness of the small instance is asserted against the PW semantics
/// outside the timed region.
fn bench_nested_target_deletion(c: &mut Criterion) {
    fn nested_chain(depth: usize) -> ProbTree {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        let mut cur = root;
        for i in 0..depth {
            let b = t.add_child(cur, "B", Condition::always());
            let w = t.events_mut().insert(format!("x{i}"), 0.5);
            t.add_child(b, "C", Condition::of(Literal::pos(w)));
            cur = b;
        }
        t
    }
    fn delete_b_with_c(confidence: f64) -> ProbabilisticUpdate {
        let mut q = PatternQuery::new(Some("B"));
        let b = q.root();
        q.add_child(b, "C");
        ProbabilisticUpdate::new(UpdateOperation::delete(q, b), confidence)
    }

    // Correctness cross-check on a feasible instance.
    let small = nested_chain(3);
    let update = delete_b_with_c(0.9);
    let (updated, _) = UpdateEngine::new().apply(&small, &update);
    let direct = possible_worlds(&updated, 20).unwrap().normalized();
    let via_pw = update
        .apply_to_pw_set(&possible_worlds(&small, 20).unwrap())
        .normalized();
    assert!(
        direct.isomorphic(&via_pw),
        "nested-target deletion must agree with the PW semantics"
    );

    let mut group = c.benchmark_group("updates_nested_target_deletion");
    let depths: &[usize] = if quick() { &[4] } else { &[4, 6, 8] };
    let engine = UpdateEngine::new();
    for &depth in depths {
        let tree = nested_chain(depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &tree, |b, tree| {
            b.iter(|| engine.apply(tree, &update));
        });
    }
    group.finish();
}

/// Batched update scripts: the warehouse extraction pipeline applied in
/// one `apply_script` pass, at growing round counts.
fn bench_update_scripts(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates_warehouse_script");
    let rounds: &[usize] = if quick() { &[6] } else { &[6, 12, 18] };
    for &extraction_rounds in rounds {
        let config = WarehouseConfig {
            services: 4,
            extraction_rounds,
            deletion_ratio: 0.25,
        };
        let mut r = StdRng::seed_from_u64(0xBEEF ^ extraction_rounds as u64);
        let (script, _) = scenario_script(&config, &mut r);
        let base = skeleton(config.services);
        // Scripts report per-step telemetry; spot-check it once, untimed.
        let engine = UpdateEngine::new();
        let (_, report) = engine.apply_script(&base, &script);
        assert_eq!(report.steps.len(), script.len());
        group.bench_with_input(
            BenchmarkId::from_parameter(extraction_rounds),
            &(base, script),
            |b, (base, script)| {
                b.iter(|| UpdateEngine::new().apply_script(base, script));
            },
        );
    }
    group.finish();
}

/// Region-scoped commits: one-fact retractions into `skeleton`-shaped
/// documents at the ROADMAP probe sizes. Untimed counters first: a fresh
/// document's first commit runs whole-tree and scans, every later one runs
/// in region scope on an indexed frame. Such a commit keeps the fact in
/// place under a stronger condition, so its delta is the one rewritten
/// fact. It visits at most `REGION_VISITS_PER_DELTA_NODE` nodes per node
/// of its delta in the simplifier and census, and its match reads
/// `MATCH_VISITS` nodes at every size and after every commit, within
/// `MATCH_VISITS_PER_READ` nodes per posting of its rarest label and per
/// match. It keeps node ids (no node map) and leaves all but
/// `UNSHARED_PAGES` pages of the new frame shared with its predecessor. A
/// view of the retraction's own pattern, maintained after each such
/// commit, patches: the delta moves no label, so it rebuilds the fact's
/// answer's union and re-matches nothing
/// (`MaintainStats::rematch_visited` stays put). The three commits make as
/// many allocations as each other, since declaring their fresh events
/// copies no event name, and each of them, and a clone of the settled
/// frame, makes as many at every size. Then, per size,
/// one commit is timed on an O(1) fork of the settled document (forks
/// inherit its fixpoint status and postings), and so are its parts:
/// cloning a frame, the match, and dropping a frame a commit derived. No
/// part reads the whole document.
fn bench_region_commits(c: &mut Criterion) {
    const REGION_VISITS_PER_DELTA_NODE: usize = 8;
    /// A commit walks the one `keyword` posting (the fact stays in place,
    /// so no dead posting piles up), then tests the fact as the root and
    /// its `fact0` child: 3 reads for 1 posting and 1 match.
    const MATCH_VISITS: usize = 3;
    const MATCH_VISITS_PER_READ: usize = 2;
    /// Measured: 4 at every size. The commit writes the fact's condition,
    /// which copies one page of the condition column, and declares a fresh
    /// event, which copies the last page of the event table's names, of
    /// its probabilities and of its name index.
    const UNSHARED_PAGES: usize = 4;
    /// The nodes a view of the retracted pattern reads re-matching after a
    /// commit: none, since the delta moves no label.
    const REMATCH_VISITS: usize = 0;
    /// Frames held at once by the clone and drop arms.
    const BATCH: u64 = 32;
    let engine = UpdateEngine::new();
    let query = {
        let mut q = PatternQuery::new(Some("keyword"));
        let fact = q.root();
        q.add_child(fact, "fact0");
        q
    };
    let retract =
        ProbabilisticUpdate::new(UpdateOperation::delete(query.clone(), query.root()), 0.9);
    let mut group = c.benchmark_group("updates_region_commit");
    let mut match_visits: Vec<Vec<usize>> = Vec::new();
    let mut rematch_visits: Vec<Vec<usize>> = Vec::new();
    let mut commit_allocations: Vec<Vec<u64>> = Vec::new();
    let mut clone_allocations: Vec<u64> = Vec::new();
    for nodes in [2_011usize, 20_011, 100_011] {
        // `skeleton(s)` has 1 + 2s nodes; one keyword fact adds two.
        let mut tree = skeleton((nodes - 3) / 2);
        let service = tree.tree().children(tree.tree().root())[0];
        let keyword = tree.add_child(service, "keyword", Condition::always());
        tree.add_child(keyword, "fact0", Condition::always());
        assert_eq!(tree.num_nodes(), nodes);
        let mut doc = Document::new(tree);
        let first = engine.apply_doc(&mut doc, &retract);
        assert_eq!(first.report.scope, StepScope::Whole);
        assert!(
            first.report.match_visited >= nodes,
            "a frame without postings is scanned"
        );
        let mut view = QueryEngine::new().prepare_doc_shared(&doc, Arc::new(query.clone()));
        let (mut visits, mut rematches, mut allocated) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let before = doc.snapshot();
            let (delta, allocs) = counting_allocations(|| engine.apply_doc(&mut doc, &retract));
            allocated.push(allocs);
            let read_before = view.maintenance_stats().rematch_visited;
            assert_eq!(
                view.maintain(&doc),
                Ok(MaintainOutcome::Patched { steps: 1 }),
                "{nodes} nodes: the view of the retracted pattern patches"
            );
            assert_eq!(view.len(), 1, "the strengthened fact is the one answer");
            let rematch = view.maintenance_stats().rematch_visited - read_before;
            assert_eq!(
                rematch, REMATCH_VISITS,
                "{nodes} nodes: the re-match's reads"
            );
            rematches.push(rematch);
            let report = &delta.report;
            assert_eq!(report.scope, StepScope::Region);
            let postings = ["keyword", "fact0"]
                .map(|label| before.tree().label_postings(label).expect("indexed").len());
            let reads = postings.into_iter().min().unwrap_or(0) + report.matches;
            assert!(
                report.match_visited <= MATCH_VISITS_PER_READ * reads,
                "{nodes} nodes: the match read {} nodes for {reads} postings and matches",
                report.match_visited
            );
            assert_eq!(
                report.match_visited, MATCH_VISITS,
                "{nodes} nodes: the match's reads"
            );
            visits.push(report.match_visited);
            assert!(delta.node_map.is_none(), "a settled commit keeps ids");
            assert_eq!(
                report.nodes_after, nodes,
                "a retraction keeps its one survivor in place"
            );
            let delta_nodes = delta.nodes_removed + delta.nodes_inserted + delta.rewritten.len();
            assert_eq!(delta_nodes, 1, "the keyword fact, rewritten in place");
            let visited = report.simplify_visited + report.delta_visited;
            assert!(
                visited <= REGION_VISITS_PER_DELTA_NODE * delta_nodes,
                "{nodes} nodes: visited {visited} for a delta of {delta_nodes}"
            );
            let unshared = doc.tree().unshared_pages(&before);
            assert!(
                unshared <= UNSHARED_PAGES,
                "{nodes} nodes: the commit left {unshared} pages unshared"
            );
        }
        match_visits.push(visits);
        assert!(
            match_visits.windows(2).all(|pair| pair[0] == pair[1]),
            "match visits grow with the document: {match_visits:?}"
        );
        rematch_visits.push(rematches);
        assert!(
            rematch_visits.windows(2).all(|pair| pair[0] == pair[1]),
            "re-match visits grow with the document: {rematch_visits:?}"
        );
        assert!(
            allocated.windows(2).all(|pair| pair[0] == pair[1]),
            "{nodes} nodes: commit allocations grow with the commits: {allocated:?}"
        );
        commit_allocations.push(allocated);
        assert!(
            commit_allocations.windows(2).all(|pair| pair[0] == pair[1]),
            "commit allocations grow with the document: {commit_allocations:?}"
        );
        let (frame, allocated) = counting_allocations(|| doc.tree().clone());
        drop(frame);
        clone_allocations.push(allocated);
        assert!(
            clone_allocations.windows(2).all(|pair| pair[0] == pair[1]),
            "frame clone allocations grow with the document: {clone_allocations:?}"
        );
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &doc, |b, doc| {
            b.iter(|| engine.apply_doc(&mut doc.fork(), &retract));
        });
        group.bench_with_input(BenchmarkId::new("clone", nodes), doc.tree(), |b, frame| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for chunk in (0..iters).step_by(BATCH as usize) {
                    let start = Instant::now();
                    let clones: Vec<ProbTree> = (chunk..iters.min(chunk + BATCH))
                        .map(|_| frame.clone())
                        .collect();
                    timed += start.elapsed();
                    drop(clones);
                }
                timed
            });
        });
        group.bench_with_input(BenchmarkId::new("match", nodes), doc.tree(), |b, frame| {
            b.iter(|| query.matches(frame.tree()));
        });
        group.bench_with_input(BenchmarkId::new("drop", nodes), &doc, |b, doc| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for chunk in (0..iters).step_by(BATCH as usize) {
                    let frames: Vec<_> = (chunk..iters.min(chunk + BATCH))
                        .map(|_| {
                            let mut fork = doc.fork();
                            engine.apply_doc(&mut fork, &retract);
                            fork.snapshot()
                        })
                        .collect();
                    let start = Instant::now();
                    drop(frames);
                    timed += start.elapsed();
                }
                timed
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(15);
    targets = bench_insertions, bench_theorem3_deletion,
        bench_theorem3_insertion_contrast, bench_deletion_blowup_control,
        bench_nested_target_deletion,
        bench_update_scripts, bench_region_commits
}
criterion_main!(benches);
