//! # pxml-bench — the experiment harness
//!
//! One criterion bench target and/or one `tables` section per experiment,
//! each reproducing the complexity *shape* of a formal result of the paper
//! or measuring an engine built on it: the benches carry E2–E8, E10 and
//! E14–E16, and `tables` prints E1–E13. Each bench and table names the
//! result it reproduces.
//!
//! The `tables` binary (`cargo run --release -p pxml_bench --bin tables`)
//! prints the size/count tables (exponential blow-ups are statements about
//! *representation size*, which criterion does not capture); the criterion
//! benches (`cargo bench`) measure running times.

#![forbid(unsafe_code)]

use std::ffi::OsStr;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_core::probtree::ProbTree;
use pxml_core::PatternQuery;
use pxml_workloads::random::{random_probtree, ProbTreeConfig, TreeConfig};

/// The fixed RNG seed used by every experiment (full determinism).
pub const SEED: u64 = 0x2007_0611;

/// A seeded RNG for the experiments.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(SEED)
}

/// The standard random prob-tree used by the query/update scaling
/// experiments: `nodes` nodes, fan-out ≤ 8, 4 labels, 16 event variables,
/// 40% of the nodes annotated with ≤ 2 literals.
pub fn scaling_probtree(nodes: usize, rng: &mut StdRng) -> ProbTree {
    random_probtree(
        &ProbTreeConfig {
            tree: TreeConfig {
                nodes,
                max_fanout: 8,
                labels: 4,
            },
            events: 16,
            annotation_density: 0.4,
            max_literals: 2,
        },
        rng,
    )
}

/// The query used by the E3/E4 scaling experiments: `L0` nodes with an `L1`
/// child (unanchored), i.e. a two-step tree-pattern query.
pub fn scaling_query() -> PatternQuery {
    let mut q = PatternQuery::new(Some("L0"));
    q.add_child(q.root(), "L1");
    q
}

/// Node counts used by the scaling experiments.
pub const SCALING_SIZES: [usize; 4] = [100, 500, 2_000, 8_000];

/// Whether `PXML_BENCH_QUICK` asks the benches for their smoke-test
/// shapes and iteration budgets, as CI's `bench-smoke` job does. This is
/// the workspace's one environment read; the libraries take every setting
/// from their callers.
#[allow(
    clippy::disallowed_methods,
    reason = "the bench-smoke switch is the one setting read from the environment"
)]
pub fn quick() -> bool {
    is_truthy(std::env::var_os("PXML_BENCH_QUICK").as_deref())
}

/// A flag's value read as a boolean: unset, `0`, `false`, `off` and `no`
/// (case-insensitive) are `false`, anything else is `true`, including a
/// value that is not Unicode.
fn is_truthy(value: Option<&OsStr>) -> bool {
    value.is_some_and(|value| {
        !value.to_str().is_some_and(|value| {
            matches!(
                value.to_ascii_lowercase().as_str(),
                "0" | "false" | "off" | "no"
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::QueryEngine;

    #[test]
    fn flag_recognizes_falsy_spellings() {
        assert!(!is_truthy(None));
        for falsy in ["0", "false", "OFF", "No"] {
            assert!(
                !is_truthy(Some(OsStr::new(falsy))),
                "{falsy} should be falsy"
            );
        }
        for truthy in ["1", "true", "yes", "quick"] {
            assert!(
                is_truthy(Some(OsStr::new(truthy))),
                "{truthy} should be truthy"
            );
        }
    }

    #[test]
    fn scaling_fixtures_are_generated_deterministically() {
        let a = scaling_probtree(500, &mut rng());
        let b = scaling_probtree(500, &mut rng());
        assert_eq!(a.num_nodes(), 500);
        assert_eq!(a.num_literals(), b.num_literals());
    }

    #[test]
    fn scaling_query_has_answers_on_the_fixture() {
        let tree = scaling_probtree(2_000, &mut rng());
        let one_shot_query = scaling_query();
        let answers: Vec<_> = QueryEngine::new()
            .prepare(&tree, &one_shot_query)
            .answers()
            .collect();
        assert!(
            !answers.is_empty(),
            "the scaling query should match something"
        );
        // The prepared state serves the same answers (the E3 bench relies
        // on it for the prepared-vs-unprepared comparison).
        let query = scaling_query();
        let prepared = QueryEngine::new().prepare(&tree, &query);
        assert_eq!(prepared.len(), answers.len());
        assert!(prepared.top_k(10).len() <= 10);
    }
}
