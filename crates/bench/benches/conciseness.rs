//! E2 — Proposition 1: representing possible-world sets. The PW-set →
//! prob-tree construction is linear in the *total size of the PW set*
//! (number of worlds × world size), and Proposition 1 shows that no
//! representation can do asymptotically better on average. This bench
//! measures the construction cost as the number of worlds grows; the
//! companion table reports sizes and the doubly-exponential counting bound.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's bench-smoke job does) for a fast
//! smoke run with the small sizes and a tiny iteration budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick};
use pxml_core::pwset::PossibleWorldSet;
use pxml_core::semantics::pw_set_to_probtree;
use pxml_tree::DataTree;

/// A PW set with `worlds` distinct worlds of ~`world_size` nodes each.
fn synthetic_pw_set(worlds: usize, world_size: usize) -> PossibleWorldSet {
    let mut set = Vec::new();
    for i in 0..worlds {
        let mut tree = DataTree::new("R");
        let root = tree.root();
        for j in 0..world_size.saturating_sub(1) {
            // Vary the labels per world so that all worlds are distinct.
            tree.add_child(root, format!("L{}", (i + j) % (world_size + i + 1)));
        }
        set.push((tree, 1.0 / worlds as f64));
    }
    PossibleWorldSet::from_worlds(set)
}

fn bench_pw_to_probtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_pw_set_to_probtree");
    let sizes: &[usize] = if quick() {
        &[4, 16]
    } else {
        &[4, 16, 64, 256, 1024]
    };
    for &worlds in sizes {
        let pw = synthetic_pw_set(worlds, 8);
        group.bench_with_input(BenchmarkId::from_parameter(worlds), &pw, |b, pw| {
            b.iter(|| pw_set_to_probtree(pw).unwrap());
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_pw_set_normalization");
    let sizes: &[usize] = if quick() {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    for &worlds in sizes {
        let pw = synthetic_pw_set(worlds, 8);
        group.bench_with_input(BenchmarkId::from_parameter(worlds), &pw, |b, pw| {
            b.iter(|| pw.normalized());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(10);
    targets = bench_pw_to_probtree, bench_normalization
}
criterion_main!(benches);
