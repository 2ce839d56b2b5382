//! E8 — Theorem 5 (1)–(2): DTD satisfiability is NP-complete in the number
//! of event variables. The workload is random 3-CNF at the phase
//! transition, put through the paper's reduction; we compare
//!
//! * DPLL on the original CNF (the "native SAT" baseline),
//! * the pruned backtracking DTD-satisfiability checker on the reduced
//!   prob-tree, and
//! * the brute-force `2^{|W|}` sweep.
//!
//! All three are exponential in the worst case; the point of the experiment
//! is that the reduction preserves the answer and that the structure-aware
//! checkers beat the naive sweep by orders of magnitude.
//!
//! E9 — Theorem 5 (3): restricting a prob-tree to a DTD. On the witness
//! family (`theorem5_restriction_family(n)`: at most `n` of `2n` optional
//! children) the valid worlds, and the prob-tree that encodes them, grow
//! exponentially with `n`; `tables --exp e9` prints their sizes.
//!
//! Set `PXML_BENCH_QUICK=1` (as CI's bench-smoke job does) for a fast
//! smoke run with the small sizes and a tiny iteration budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_bench::{criterion_config, quick, rng};
use pxml_dtd::reduction::reduce_sat;
use pxml_dtd::restriction::{
    restrict_to_dtd, restriction_as_probtree, theorem5_restriction_family,
};
use pxml_dtd::satisfiability::{satisfiable_backtracking, satisfiable_bruteforce};
use pxml_sat::gen3sat::{random_3sat, ThreeSatConfig};
use pxml_sat::solve_dpll;

fn instances(num_vars: usize, count: usize) -> Vec<pxml_sat::Cnf> {
    let mut r = rng();
    (0..count)
        .map(|_| random_3sat(ThreeSatConfig::at_ratio(num_vars, 4.26), &mut r))
        .collect()
}

/// Variable counts of the E8 instances.
fn sat_sizes() -> &'static [usize] {
    if quick() {
        &[8, 12]
    } else {
        &[8, 12, 16, 20]
    }
}

fn bench_dpll_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_dpll_on_cnf");
    for &num_vars in sat_sizes() {
        let cnfs = instances(num_vars, 5);
        group.bench_with_input(BenchmarkId::from_parameter(num_vars), &cnfs, |b, cnfs| {
            b.iter(|| cnfs.iter().filter(|cnf| solve_dpll(cnf).is_some()).count());
        });
    }
    group.finish();
}

fn bench_dtd_backtracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_dtd_backtracking");
    for &num_vars in sat_sizes() {
        let trees: Vec<_> = instances(num_vars, 5).iter().map(reduce_sat).collect();
        group.bench_with_input(BenchmarkId::from_parameter(num_vars), &trees, |b, trees| {
            b.iter(|| {
                trees
                    .iter()
                    .filter(|i| {
                        satisfiable_backtracking(&i.tree, &i.satisfiability_dtd)
                            .0
                            .is_some()
                    })
                    .count()
            });
        });
    }
    group.finish();
}

fn bench_dtd_bruteforce(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_dtd_bruteforce");
    // The naive sweep visits 2^{|W|} worlds; keep the sizes modest.
    let sizes: &[usize] = if quick() { &[8] } else { &[8, 12, 16] };
    for &num_vars in sizes {
        let trees: Vec<_> = instances(num_vars, 5).iter().map(reduce_sat).collect();
        group.bench_with_input(BenchmarkId::from_parameter(num_vars), &trees, |b, trees| {
            b.iter(|| {
                trees
                    .iter()
                    .filter(|i| {
                        satisfiable_bruteforce(&i.tree, &i.satisfiability_dtd, 24)
                            .unwrap()
                            .is_some()
                    })
                    .count()
            });
        });
    }
    group.finish();
}

/// E9: the restriction to the DTD, per `|W| = 2n`.
fn bench_dtd_restriction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_dtd_restriction");
    for &n in restriction_sizes() {
        let family = theorem5_restriction_family(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(2 * n),
            &family,
            |b, (tree, dtd)| {
                b.iter(|| restrict_to_dtd(tree, dtd, 24).unwrap());
            },
        );
    }
    group.finish();
}

/// E9: the restriction re-encoded as a prob-tree (the restriction
/// included), per `|W| = 2n`.
fn bench_dtd_reencoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_dtd_restriction_as_probtree");
    for &n in restriction_sizes() {
        let family = theorem5_restriction_family(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(2 * n),
            &family,
            |b, (tree, dtd)| {
                b.iter(|| restriction_as_probtree(tree, dtd, 24).unwrap().unwrap());
            },
        );
    }
    group.finish();
}

/// The `n` of the E9 witness family.
fn restriction_sizes() -> &'static [usize] {
    if quick() {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5]
    }
}

criterion_group! {
    name = benches;
    config = criterion_config(10);
    targets = bench_dpll_baseline, bench_dtd_backtracking, bench_dtd_bruteforce,
        bench_dtd_restriction, bench_dtd_reencoding
}
criterion_main!(benches);
