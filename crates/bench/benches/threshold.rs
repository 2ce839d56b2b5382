//! E7 — Theorem 4: threshold restriction on the witness family. The time
//! and (see `tables --exp e7`) output size grow exponentially with `n`
//! because the restriction has `2^{2n}` surviving equiprobable worlds.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's bench-smoke job does) for a fast
//! smoke run with the small family sizes and a tiny iteration budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick};
use pxml_core::threshold::{restrict_to_threshold, restriction_as_probtree};
use pxml_workloads::paper::{theorem4_tree, theorem4_world_probability};

fn bench_threshold_restriction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_threshold_restriction");
    let sizes: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    for &n in sizes {
        let tree = theorem4_tree(n);
        let threshold = theorem4_world_probability(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(2 * n),
            &(tree, threshold),
            |b, (tree, threshold)| {
                b.iter(|| restrict_to_threshold(tree, *threshold, 24).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_threshold_reencoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_threshold_as_probtree");
    let sizes: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 3, 4] };
    for &n in sizes {
        let tree = theorem4_tree(n);
        let threshold = theorem4_world_probability(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(2 * n),
            &(tree, threshold),
            |b, (tree, threshold)| {
                b.iter(|| {
                    restriction_as_probtree(tree, *threshold, 24)
                        .unwrap()
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(10);
    targets = bench_threshold_restriction, bench_threshold_reencoding
}
criterion_main!(benches);
