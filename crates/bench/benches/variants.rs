//! E10 — Section 5 ("Arbitrary Propositional Formula"): with arbitrary
//! formulas as conditions, the Theorem 3 deletion becomes polynomial while
//! boolean query evaluation requires SAT solving (and probability
//! computation requires exponential model counting).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_core::update::{UpdateEngine, UpdateEngineConfig};
use pxml_core::variants::FormulaProbTree;
use pxml_core::PatternQuery;
use pxml_sat::{Formula, Var};
use pxml_workloads::paper::{d0_deletion, theorem3_tree};

fn theorem3_formula_tree(n: usize) -> FormulaProbTree {
    let mut t = FormulaProbTree::new("A");
    let root = t.tree().root();
    t.add_child(root, "B", Formula::True);
    for _ in 0..n {
        let w0 = t.events_mut().fresh(0.5);
        let w1 = t.events_mut().fresh(0.5);
        t.add_child(
            root,
            "C",
            Formula::Var(Var(w0.index() as u32)).and(Formula::Var(Var(w1.index() as u32))),
        );
    }
    t
}

fn d0(t: &mut FormulaProbTree) {
    let mut q = PatternQuery::anchored(Some("A"));
    let b = q.add_child(q.root(), "B");
    let _c = q.add_child(q.root(), "C");
    t.delete(&q, b, 1.0);
}

/// Deletion cost on the conjunctive prob-tree model (exponential, Theorem
/// 3), timed on the raw engine configuration so the curve measures the
/// Appendix A deletion itself, every survivor copy grafted deep, rather
/// than the simplification pass.
fn bench_conjunctive_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_deletion_conjunctive_model");
    let engine = UpdateEngine::with_config(UpdateEngineConfig::raw());
    for n in [2usize, 4, 6, 8, 10] {
        let tree = theorem3_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| engine.apply(tree, &d0_deletion(1.0)));
        });
    }
    group.finish();
}

/// Deletion cost on the arbitrary-formula model (polynomial).
fn bench_formula_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_deletion_formula_model");
    for n in [2usize, 4, 6, 8, 10, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut tree = theorem3_formula_tree(n);
                d0(&mut tree);
                tree.size()
            });
        });
    }
    group.finish();
}

/// Boolean query evaluation on the formula model after the deletion: needs
/// a SAT call per query (the expensive direction of the trade-off).
fn bench_formula_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_boolean_query_formula_model");
    for n in [4usize, 16, 64, 200] {
        let mut tree = theorem3_formula_tree(n);
        d0(&mut tree);
        let mut q_b = PatternQuery::anchored(Some("A"));
        q_b.add_child(q_b.root(), "B");
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(tree, q_b),
            |b, (tree, q)| {
                b.iter(|| tree.query_possible(q));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_conjunctive_deletion, bench_formula_deletion, bench_formula_query
}
criterion_main!(benches);
