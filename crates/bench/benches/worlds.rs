//! Relevant-event world engine: dense vs sparse event usage.
//!
//! The legacy `possible_worlds` oracle enumerates all `2^{|W|}`
//! valuations of the *declared* event table; `possible_worlds_normalized`
//! runs the factorized `WorldEngine`, which only enumerates the events
//! the tree's conditions actually mention, one co-occurrence component at
//! a time. On a 200-node tree with 40 declared but only 10 mentioned
//! events the legacy path is infeasible (`2^40` valuations — it refuses
//! at the default `2^24` guard) while the engine answers in milliseconds;
//! on a dense tree (every declared event mentioned) the engine's
//! canonical-form accumulator still avoids the second normalization pass.
//!
//! Two further scenarios exercise the shard executor directly: a
//! many-small-components tree (24 events in 8 co-occurrence components of
//! 3) where `Σ_c 2^{|C_i|} = 64` shard states replace the infeasible
//! `2^24` joint walk (asserted via the enumeration counter), and a joint
//! drain at feasible sizes, checked against the legacy oracle. A last
//! group times the fold's class merge, where many joint states fall into
//! one world.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI does) for a fast smoke run with small
//! iteration budgets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick};
use pxml_core::semantics::{possible_worlds, possible_worlds_normalized};
use pxml_core::worlds::{WorldEngine, WorldEngineConfig};
use pxml_core::ProbTree;
use pxml_events::{prob_eq, Condition, Literal};
use pxml_workloads::random::{
    many_components_probtree, random_probtree, ProbTreeConfig, TreeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 200-node tree mentioning `mentioned` events in its conditions, with
/// `declared - mentioned` additional events that no condition uses.
fn sparse_tree(declared: usize, mentioned: usize) -> ProbTree {
    let config = ProbTreeConfig {
        tree: TreeConfig {
            nodes: 200,
            max_fanout: 5,
            labels: 4,
        },
        events: mentioned,
        annotation_density: 0.5,
        max_literals: 2,
    };
    let mut rng = StdRng::seed_from_u64(0x50DA);
    let mut tree = random_probtree(&config, &mut rng);
    for _ in mentioned..declared {
        tree.events_mut().fresh(0.5);
    }
    tree
}

/// Engine on sparse trees: 40 declared events, 6–10 mentioned. The legacy
/// path refuses all of these at the default 2^24 guard (asserted once,
/// outside the timed region).
fn bench_engine_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("worlds_engine_sparse_40_declared");
    let mentioned_sizes: &[usize] = if quick() { &[6] } else { &[6, 8, 10] };
    for &mentioned in mentioned_sizes {
        let tree = sparse_tree(40, mentioned);
        assert!(
            possible_worlds(&tree, 24).is_err(),
            "legacy full enumeration must refuse 2^40 valuations"
        );
        group.bench_with_input(BenchmarkId::from_parameter(mentioned), &tree, |b, tree| {
            b.iter(|| possible_worlds_normalized(tree, 24).unwrap());
        });
    }
    group.finish();
}

/// Dense trees (every declared event mentioned): legacy enumeration +
/// two-pass normalization vs the factorized engine's accumulator.
fn bench_dense_legacy_vs_engine(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[6] } else { &[6, 8, 10] };
    let mut group = c.benchmark_group("worlds_dense_legacy");
    for &events in sizes {
        let tree = sparse_tree(events, events);
        group.bench_with_input(BenchmarkId::from_parameter(events), &tree, |b, tree| {
            b.iter(|| possible_worlds(tree, 24).unwrap().normalized());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("worlds_dense_engine");
    for &events in sizes {
        let tree = sparse_tree(events, events);
        group.bench_with_input(BenchmarkId::from_parameter(events), &tree, |b, tree| {
            b.iter(|| possible_worlds_normalized(tree, 24).unwrap());
        });
    }
    group.finish();
}

/// Many small components: 24 events in 8 co-occurrence components of 3.
/// The factorized shard executor enumerates `Σ_c 2^{|C_i|} = 64`
/// assignments where any joint walk needs `2^24 ≈ 16.7M` — a ratio of
/// 262144×, asserted below via the enumeration counter (not wall-clock).
fn bench_factorized_many_components(c: &mut Criterion) {
    let tree = many_components_probtree(8, 3);
    let engine = WorldEngine::new(&tree);
    let config = WorldEngineConfig::default();

    // Counter assertions, outside the timed region.
    let factorized = engine.sharded(&config, 20).unwrap();
    assert_eq!(
        factorized.states_enumerated(),
        8 * (1 << 3),
        "factorized path must enumerate Σ_c 2^{{|C_i|}} assignments"
    );
    assert_eq!(factorized.num_joint_assignments(), 1 << 24);
    let ratio = factorized.num_joint_assignments() / factorized.states_enumerated() as u128;
    assert!(
        ratio >= 1000,
        "factorized enumeration must be ≥1000× fewer assignments than joint (got {ratio}×)"
    );
    // The legacy enumeration refuses this tree outright at the same
    // budget: 24 events > 20.
    assert!(possible_worlds(&tree, 20).is_err());

    let mut group = c.benchmark_group("worlds_factorized_many_components");
    group.bench_with_input(BenchmarkId::new("shard_build", "8x3"), &tree, |b, tree| {
        let engine = WorldEngine::new(tree);
        b.iter(|| engine.sharded(&config, 20).unwrap());
    });
    group.finish();
}

/// Joint drain at feasible sizes: the factorized combine (shards, then the
/// cross product of the deduplicated classes), checked against the legacy
/// full enumeration's normalized PW set.
fn bench_factorized_vs_joint_drain(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[3] } else { &[3, 4] };
    let config = WorldEngineConfig::default();
    for &components in sizes {
        let tree = many_components_probtree(components, 3);
        let engine = WorldEngine::new(&tree);
        // The factorized combine agrees with the oracle (asserted once,
        // untimed).
        let factorized = engine
            .sharded(&config, 16)
            .unwrap()
            .normalized_worlds()
            .unwrap();
        let legacy = possible_worlds(&tree, 16).unwrap().normalized();
        assert!(factorized.isomorphic(&legacy));

        let mut group = c.benchmark_group("worlds_joint_factorized");
        group.bench_with_input(
            BenchmarkId::from_parameter(components * 3),
            &tree,
            |b, tree| {
                let engine = WorldEngine::new(tree);
                b.iter(|| {
                    engine
                        .sharded(&config, 16)
                        .unwrap()
                        .normalized_worlds()
                        .unwrap()
                });
            },
        );
        group.finish();
    }
}

/// The class merge: E11's tree, a root with 16 `X` children, each on its
/// own `π = ½` event. Its `2^16` joint states fold into 17 classes, one per
/// number of `X` children present, so almost every state merges into a
/// class the fold already holds. perfbench's `worlds` batch never merges
/// (every joint state there is a class of its own), so this is where the
/// merge is timed.
fn bench_class_merge(c: &mut Criterion) {
    let mut tree = ProbTree::new("R");
    let root = tree.tree().root();
    for _ in 0..16 {
        let w = tree.events_mut().fresh(0.5);
        tree.add_child(root, "X", Condition::of(Literal::pos(w)));
    }

    // Counter assertions, outside the timed region.
    let factorized = WorldEngine::new(&tree)
        .sharded(&WorldEngineConfig::for_event_budget(16), 16)
        .unwrap();
    assert_eq!(factorized.states_enumerated(), 32, "16 shards of 2 states");
    assert_eq!(factorized.num_joint_assignments(), 65_536);
    let worlds = possible_worlds_normalized(&tree, 16).unwrap();
    assert_eq!(worlds.len(), 17, "0 to 16 X children");
    assert!(prob_eq(worlds.total_probability(), 1.0));

    let mut group = c.benchmark_group("worlds_class_merge");
    group.bench_with_input(BenchmarkId::from_parameter(16), &tree, |b, tree| {
        b.iter(|| possible_worlds_normalized(tree, 16).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(10);
    targets = bench_engine_sparse, bench_dense_legacy_vs_engine,
        bench_factorized_many_components, bench_factorized_vs_joint_drain,
        bench_class_merge
}
criterion_main!(benches);
