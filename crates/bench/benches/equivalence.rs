//! E6 — Theorem 2: the randomized (Figure 3) structural-equivalence
//! algorithm runs in polynomial time, while the exhaustive baseline
//! enumerates `2^{|W|}` valuations.
//!
//! The workload pairs a document produced by "pipeline A" with an
//! equivalent rewrite of it (reordered children, redundant literals), for a
//! growing number of sections (each section adds two event variables), plus
//! inequivalent pairs obtained by flipping one literal.
//!
//! E11 — Section 5: semantic equivalence expands both possible-world sets,
//! so its cost is exponential in the events. The workload compares a root
//! with one `X` child per event (`π = ½`) against a copy of itself at 4–16
//! events; `tables --exp e11` prints the verdicts.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's bench-smoke job does) for a fast
//! smoke run with the small sizes and a tiny iteration budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick, rng};
use pxml_core::equivalence::{
    semantic_equivalent, structural_equivalent_exhaustive, structural_equivalent_randomized,
    EquivalenceConfig,
};
use pxml_core::probtree::ProbTree;
use pxml_events::{Condition, Literal};

fn document(sections: usize, reorder: bool, redundant: bool) -> ProbTree {
    let mut t = ProbTree::new("doc");
    let mut events = Vec::new();
    for i in 0..sections {
        let accepted = t.events_mut().insert(format!("a{i}"), 0.9);
        let flagged = t.events_mut().insert(format!("f{i}"), 0.2);
        events.push((accepted, flagged));
    }
    let root = t.tree().root();
    let order: Vec<usize> = if reorder {
        (0..sections).rev().collect()
    } else {
        (0..sections).collect()
    };
    for i in order {
        let (accepted, flagged) = events[i];
        let cond = Condition::from_literals([Literal::pos(accepted), Literal::neg(flagged)]);
        let section = t.add_child(root, "section", cond.clone());
        let para_cond = if redundant { cond } else { Condition::always() };
        t.add_child(section, format!("para{i}"), para_cond);
    }
    t
}

fn bench_randomized(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_equivalence_randomized");
    let sizes: &[usize] = if quick() {
        &[2, 8]
    } else {
        &[2, 4, 6, 8, 16, 32, 64]
    };
    for &sections in sizes {
        let a = document(sections, false, false);
        let b = document(sections, true, true);
        group.bench_with_input(
            BenchmarkId::from_parameter(sections * 2),
            &(a, b),
            |bencher, (a, b)| {
                let mut r = rng();
                bencher.iter(|| {
                    structural_equivalent_randomized(a, b, &EquivalenceConfig::default(), &mut r)
                });
            },
        );
    }
    group.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_equivalence_exhaustive");
    // The exhaustive check is 2^{|W|}: stop at 16 events.
    let sizes: &[usize] = if quick() { &[2, 4] } else { &[2, 4, 6, 8] };
    for &sections in sizes {
        let a = document(sections, false, false);
        let b = document(sections, true, true);
        group.bench_with_input(
            BenchmarkId::from_parameter(sections * 2),
            &(a, b),
            |bencher, (a, b)| {
                bencher.iter(|| structural_equivalent_exhaustive(a, b, 24).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_randomized_inequivalent(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_equivalence_randomized_inequivalent");
    let sizes: &[usize] = if quick() { &[8] } else { &[8, 32] };
    for &sections in sizes {
        let a = document(sections, false, false);
        let mut b = document(sections, true, true);
        // Flip one literal.
        let flagged0 = b.events().by_name("f0").unwrap();
        let accepted0 = b.events().by_name("a0").unwrap();
        let section = b
            .tree()
            .iter()
            .find(|&n| b.tree().label(n) == "section")
            .unwrap();
        b.set_condition(
            section,
            Condition::from_literals([Literal::pos(accepted0), Literal::pos(flagged0)]),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(sections * 2),
            &(a, b),
            |bencher, (a, b)| {
                let mut r = rng();
                bencher.iter(|| {
                    structural_equivalent_randomized(a, b, &EquivalenceConfig::default(), &mut r)
                });
            },
        );
    }
    group.finish();
}

/// E11: semantic equivalence of a tree with `events` conditioned `X`
/// children and its copy, which expands both PW sets.
fn bench_semantic(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_semantic_equivalence");
    let sizes: &[usize] = if quick() { &[4, 8] } else { &[4, 8, 12, 16] };
    for &events in sizes {
        let mut tree = ProbTree::new("R");
        let root = tree.tree().root();
        for _ in 0..events {
            let w = tree.events_mut().fresh(0.5);
            tree.add_child(root, "X", Condition::of(Literal::pos(w)));
        }
        let pair = (tree.clone(), tree);
        assert!(semantic_equivalent(&pair.0, &pair.1, 24).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(events), &pair, |b, (t, u)| {
            b.iter(|| semantic_equivalent(t, u, 24).unwrap());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config(15);
    targets = bench_randomized, bench_exhaustive, bench_randomized_inequivalent, bench_semantic
}
criterion_main!(benches);
