//! The experiment table generator.
//!
//! Prints, for every experiment E1–E13, the table of sizes, counts and
//! verdicts that reproduces the *shape* of the corresponding result of the
//! paper: Theorems 3–5 are statements about representation size. Every
//! table is deterministic, and `--exp eN` prints exactly
//! `crates/bench/tests/eN.txt`, which CI diffs. The criterion benches
//! (`cargo bench -p pxml_bench`) own every timing.
//!
//! Usage:
//! ```text
//! cargo run --release -p pxml_bench --bin tables            # all experiments
//! cargo run --release -p pxml_bench --bin tables -- --exp e5
//! ```
//!
//! Any other argument exits 1.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_bench::{rng, scaling_probtree, scaling_query, SEED};
use pxml_core::equivalence::{
    structural_equivalent_exhaustive, structural_equivalent_randomized, EquivalenceConfig,
};
use pxml_core::probtree::{figure1_example, shape_census, ProbTree, ShapeCensus};
use pxml_core::query::prob::query_pw_set;
use pxml_core::semantics::{possible_worlds_normalized, pw_set_to_probtree};
use pxml_core::threshold::{restrict_to_threshold, restriction_as_probtree};
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateEngineConfig, UpdateOperation};
use pxml_core::variants::FormulaProbTree;
use pxml_core::PatternQuery;
use pxml_core::QueryEngine;
use pxml_dtd::reduction::reduce_sat;
use pxml_dtd::restriction::{
    restriction_as_probtree as dtd_restriction_as_probtree, theorem5_restriction_family,
};
use pxml_dtd::satisfiability::{satisfiable_backtracking, satisfiable_bruteforce};
use pxml_events::{Condition, Literal};
use pxml_poly::zippel::ZippelConfig;
use pxml_sat::gen3sat::{random_3sat, ThreeSatConfig};
use pxml_sat::solve_dpll;
use pxml_sat::{Formula, Var};
use pxml_tree::stats::rooted_tree_counts_cumulative;
use pxml_tree::DataTree;
use pxml_workloads::paper::{
    d0_deletion, d0_insertion, theorem3_tree, theorem4_tree, theorem4_world_probability,
};

/// Every experiment, by the id `--exp` takes, in print order.
const EXPERIMENTS: [(&str, fn()); 13] = [
    ("e1", e1_figure1),
    ("e2", e2_conciseness),
    ("e3", e3_query_scaling),
    ("e4", e4_insertion_scaling),
    ("e5", e5_deletion_blowup),
    ("e6", e6_equivalence),
    ("e7", e7_threshold),
    ("e8", e8_dtd_satisfiability),
    ("e9", e9_dtd_restriction),
    ("e10", e10_formula_variant),
    ("e11", e11_set_semantics_and_semantic_equivalence),
    ("e12", e12_static_analysis),
    ("e13", e13_shape_census),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<fn()> = match args.as_slice() {
        [] => EXPERIMENTS.iter().map(|&(_, run)| run).collect(),
        [flag, id] if flag == "--exp" => EXPERIMENTS
            .iter()
            .filter(|(name, _)| id.eq_ignore_ascii_case(name))
            .map(|&(_, run)| run)
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("unknown arguments {args:?} (expected none, or --exp e1 to e13)");
        return ExitCode::FAILURE;
    }

    println!("probxml experiment tables (seed 0x{SEED:x})");
    println!("==========================================\n");
    for run in selected {
        run();
    }
    ExitCode::SUCCESS
}

fn header(id: &str, title: &str) {
    println!("--- {id}: {title} ---");
}

/// E1: Figure 1 / Figure 2 — the worked example.
fn e1_figure1() {
    header("E1", "Figure 1 prob-tree and its Figure 2 possible worlds");
    let tree = figure1_example();
    println!("{}", tree.to_ascii());
    let worlds = possible_worlds_normalized(&tree, 20).unwrap();
    println!("{:>10}  {:<30}", "p", "world (node labels)");
    for (world, p) in worlds.iter() {
        let world = world.to_tree();
        let labels: Vec<&str> = world.iter().map(|n| world.label(n)).collect();
        println!("{p:>10.2}  {labels:?}");
    }
    let battery = pxml_workloads::paper::theorem1_query_battery();
    let engine = QueryEngine::new();
    let q = &battery[0]; // //C/D, the paper's worked query
    let prepared = engine.prepare(&tree, q);
    let via_worlds = query_pw_set(q, &worlds);
    println!(
        "query //C/D: direct probability {:.2}, via possible worlds {:.2} (Theorem 1: {})",
        prepared.expected_matches(),
        via_worlds.total_probability(),
        prepared.theorem1_check().unwrap()
    );
    let all_pass = battery
        .iter()
        .all(|q| engine.prepare(&tree, q).theorem1_check().unwrap());
    println!(
        "Theorem 1 battery ({} Section 2 queries): {}",
        battery.len(),
        all_pass
    );
    println!();
}

/// E2: Proposition 1 — conciseness limits of any representation.
fn e2_conciseness() {
    header(
        "E2",
        "Proposition 1 — size of PW-set encodings and the counting lower bound",
    );
    println!(
        "{:>3} {:>28} | {:>8} {:>14}",
        "n", "bit lower bound (= #trees<=n)", "#worlds", "probtree size"
    );
    let cumulative = rooted_tree_counts_cumulative(16);
    for n in [2usize, 4, 6, 8, 10, 12, 14, 16] {
        // Counting side (the lower bound of Proposition 1): the number of
        // PW sets over trees of <= n nodes is at least 2^(#trees), so any
        // representation needs that many bits on average.
        let bits = cumulative[n];
        // Constructive side: encode a synthetic PW set with `2^(n/2)` worlds
        // of n nodes into a prob-tree and report its size.
        let worlds = 1usize << (n / 2);
        let mut set = Vec::new();
        for i in 0..worlds {
            // World i keeps the children whose index is a set bit of i, so
            // all 2^(n/2) worlds are pairwise non-isomorphic.
            let mut t = DataTree::new("R");
            let root = t.root();
            for j in 0..n - 1 {
                if (i >> (j % (n / 2))) & 1 == 1 {
                    t.add_child(root, format!("L{j}"));
                }
            }
            set.push((t, 1.0 / worlds as f64));
        }
        let pw = pxml_core::pwset::PossibleWorldSet::from_worlds(set).normalized();
        let probtree = pw_set_to_probtree(&pw).unwrap();
        println!(
            "{n:>3} {bits:>28} | {:>8} {:>14}",
            pw.len(),
            probtree.size()
        );
    }
    println!("(the lower bound column is doubly exponential in n; any representation, including prob-trees, needs that many bits on average)\n");
}

/// E3: Proposition 2 — query evaluation is PTIME on prob-trees.
fn e3_query_scaling() {
    header("E3", "Theorem 1 / Proposition 2 — query evaluation scaling");
    println!("{:>8} {:>10} {:>10}", "|T|", "literals", "answers");
    let query = scaling_query();
    let engine = QueryEngine::new();
    let mut r = rng();
    for nodes in [100usize, 500, 2_000, 8_000, 32_000] {
        let tree = scaling_probtree(nodes, &mut r);
        let answers = engine.prepare(&tree, &query).len();
        println!("{nodes:>8} {:>10} {answers:>10}", tree.num_literals());
    }
    println!();
}

/// E4: Proposition 2 — insertion is PTIME and output growth is linear.
fn e4_insertion_scaling() {
    header("E4", "Proposition 2 — probabilistic insertion scaling");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "|T|", "size before", "size after", "growth"
    );
    // Raw engine: the default one would also simplify the random input,
    // and "size after" would count that cleaning beside the insertion.
    let appendix_a = UpdateEngine::with_config(UpdateEngineConfig::raw());
    let mut r = rng();
    for nodes in [100usize, 500, 2_000, 8_000] {
        let tree = scaling_probtree(nodes, &mut r);
        let q = PatternQuery::new(Some("L0"));
        let at = q.root();
        let update =
            ProbabilisticUpdate::new(UpdateOperation::insert(q, at, DataTree::new("E")), 0.9);
        let before = tree.size();
        let (updated, _) = appendix_a.apply(&tree, &update);
        let after = updated.size();
        assert!(
            after >= before,
            "an insertion never shrinks the tree: {before} -> {after}"
        );
        println!("{nodes:>8} {before:>12} {after:>12} {:>12}", after - before);
    }
    println!();
}

/// E5: Theorem 3 — the deletion blow-up.
fn e5_deletion_blowup() {
    header(
        "E5",
        "Theorem 3 — deletion d0 blow-up vs insertion on the same family",
    );
    println!(
        "{:>3} {:>10} | {:>12} {:>12} | {:>12}",
        "n", "input size", "del. size", "B copies", "ins. size"
    );
    // Raw engine: this table is the Appendix A deletion curve; the
    // simplification pass is measured separately below.
    let appendix_a = UpdateEngine::with_config(UpdateEngineConfig::raw());
    let copies = |t: &ProbTree| {
        t.tree()
            .iter()
            .filter(|&nd| t.tree().label(nd) == "B")
            .count()
    };
    for n in [1usize, 2, 4, 6, 8, 10, 12, 14] {
        let tree = theorem3_tree(n);
        let (deleted, _) = appendix_a.apply(&tree, &d0_deletion(1.0));
        let (insertion, _) = d0_insertion(1.0);
        let (inserted, _) = UpdateEngine::new().apply(&tree, &insertion);
        println!(
            "{n:>3} {:>10} | {:>12} {:>12} | {:>12}",
            tree.size(),
            deleted.size(),
            copies(&deleted),
            inserted.size()
        );
    }
    println!("(deletion output doubles with every n — Ω(2^n) — while insertion stays linear)\n");

    // Blow-up control on the confidence-c variant: the naive Appendix A
    // expansion yields 3^n survivor copies, the engine's shared-first
    // chains 1 + 2^n, and the simplification pass recovers the same cover
    // from the naive output.
    println!("d0 at confidence 0.8 — naive expansion vs engine blow-up control:");
    println!(
        "{:>3} | {:>12} {:>12} | {:>14} {:>14} | {:>14}",
        "n", "naive size", "naive copies", "engine size", "engine copies", "simpl. savings"
    );
    let simplify_naive = UpdateEngine::with_config(UpdateEngineConfig {
        simplify: true,
        shared_first_chains: false,
    });
    let engine = UpdateEngine::new();
    for n in [1usize, 2, 3, 4, 5, 6] {
        let tree = theorem3_tree(n);
        let update = d0_deletion(0.8);
        let (naive, _) = appendix_a.apply(&tree, &update);
        let (controlled, _) = engine.apply(&tree, &update);
        let (_, simplified_report) = simplify_naive.apply(&tree, &update);
        println!(
            "{n:>3} | {:>12} {:>12} | {:>14} {:>14} | {:>14}",
            naive.size(),
            copies(&naive),
            controlled.size(),
            copies(&controlled),
            simplified_report.simplification_savings()
        );
    }
    println!("(naive: 3^n survivor copies; engine: 1 + 2^n — the simplification pass finds the same cover starting from the naive output)\n");
}

/// E6: Theorem 2 — randomized vs exhaustive structural equivalence: each
/// test's verdict, and the one-sided error of the randomized test.
fn e6_equivalence() {
    header(
        "E6",
        "Theorem 2 — randomized (Fig. 3) vs exhaustive structural equivalence",
    );

    fn document(sections: usize, rewrite: bool) -> ProbTree {
        let mut t = ProbTree::new("doc");
        let mut events = Vec::new();
        for i in 0..sections {
            let a = t.events_mut().insert(format!("a{i}"), 0.9);
            let f = t.events_mut().insert(format!("f{i}"), 0.2);
            events.push((a, f));
        }
        let root = t.tree().root();
        let order: Vec<usize> = if rewrite {
            (0..sections).rev().collect()
        } else {
            (0..sections).collect()
        };
        for i in order {
            let (a, f) = events[i];
            let cond = Condition::from_literals([Literal::pos(a), Literal::neg(f)]);
            let s = t.add_child(root, "section", cond.clone());
            t.add_child(
                s,
                format!("para{i}"),
                if rewrite { cond } else { Condition::always() },
            );
        }
        t
    }

    println!(
        "{:>5} {:>8} | {:>16} {:>16} | {:>10}",
        "|W|", "nodes", "randomized", "exhaustive", "agree"
    );
    let mut r = rng();
    for sections in [2usize, 4, 6, 8, 10, 32, 128] {
        let a = document(sections, false);
        let b = document(sections, true);
        let randomized =
            structural_equivalent_randomized(&a, &b, &EquivalenceConfig::default(), &mut r);
        let exhaustive =
            (sections * 2 <= 20).then(|| structural_equivalent_exhaustive(&a, &b, 24).unwrap());
        println!(
            "{:>5} {:>8} | {randomized:>16} {:>16} | {:>10}",
            sections * 2,
            a.num_nodes() + b.num_nodes(),
            exhaustive.map_or("skipped (2^|W|)".to_string(), |e| e.to_string()),
            exhaustive.map_or("-".to_string(), |e| (e == randomized).to_string())
        );
    }

    // Empirical one-sided error of the underlying Schwartz–Zippel
    // count-equivalence test with a deliberately tiny sample set S, on the
    // pair ψ = x1∧x2 vs ψ' = x1 (not count-equivalent; the difference
    // polynomial x1·(x2 − 1) vanishes on 3 of the 4 points of {0,1}²).
    {
        use pxml_events::{Condition as Cond, Dnf, EventId, Literal as Lit};
        use pxml_poly::zippel::count_equivalent_randomized;
        let x1 = EventId::from_index(0);
        let x2 = EventId::from_index(1);
        let lhs = Dnf::of(Cond::from_literals([Lit::pos(x1), Lit::pos(x2)]));
        let rhs = Dnf::of(Cond::of(Lit::pos(x1)));
        println!("one-sided error of the count-equivalence test on x1∧x2 vs x1 (1 trial):");
        for sample_set in [2u64, 4, 16, 256, 1 << 16] {
            let config = ZippelConfig {
                trials: 1,
                sample_set_size: sample_set,
            };
            let trials = 20_000;
            let mut false_accepts = 0;
            for _ in 0..trials {
                if count_equivalent_randomized(&lhs, &rhs, &config, &mut r) {
                    false_accepts += 1;
                }
            }
            println!(
                "  |S| = {sample_set:>6}: {false_accepts:>6}/{trials} false accepts (Schwartz–Zippel bound: ≤ {:.4})",
                (2.0f64 / sample_set as f64).min(1.0)
            );
        }
        // And at the full-algorithm level, on an inequivalent document pair.
        let a = document(4, false);
        let mut b = document(4, true);
        let f0 = b.events().by_name("f0").unwrap();
        let a0 = b.events().by_name("a0").unwrap();
        let section = b
            .tree()
            .iter()
            .find(|&n| b.tree().label(n) == "section")
            .unwrap();
        b.set_condition(
            section,
            Condition::from_literals([Literal::pos(a0), Literal::pos(f0)]),
        );
        for sample_set in [2u64, 1 << 16] {
            let config = EquivalenceConfig {
                zippel: ZippelConfig {
                    trials: 1,
                    sample_set_size: sample_set,
                },
            };
            let trials = 2_000;
            let mut false_accepts = 0;
            for _ in 0..trials {
                if structural_equivalent_randomized(&a, &b, &config, &mut r) {
                    false_accepts += 1;
                }
            }
            println!(
                "  Figure 3 on an inequivalent pair, |S| = {sample_set:>6}: {false_accepts}/{trials} false accepts (bound ≤ 1/2)"
            );
        }
    }
    println!();
}

/// E7: Theorem 4 — threshold restriction blow-up.
fn e7_threshold() {
    header(
        "E7",
        "Theorem 4 — threshold restriction on the 2n-children family",
    );
    println!(
        "{:>3} {:>6} {:>12} | {:>10} {:>14} {:>14}",
        "n", "|W|", "input size", "worlds>=p", "restr. mass", "probtree size"
    );
    for n in [1usize, 2, 3, 4, 5] {
        let tree = theorem4_tree(n);
        let threshold = theorem4_world_probability(n);
        let restriction = restrict_to_threshold(&tree, threshold, 24).unwrap();
        let rep = restriction_as_probtree(&tree, threshold, 24)
            .unwrap()
            .unwrap();
        println!(
            "{n:>3} {:>6} {:>12} | {:>10} {:>14.4} {:>14}",
            2 * n,
            tree.size(),
            restriction.worlds.len(),
            restriction.retained_mass,
            rep.size()
        );
    }
    println!("(the input grows linearly in n, the restriction representation exponentially)\n");
}

/// E8: Theorem 5 (1)–(2) — DTD satisfiability via the SAT reduction: each
/// decider's verdict and the backtracking checker's decisions.
fn e8_dtd_satisfiability() {
    header(
        "E8",
        "Theorem 5 — DTD satisfiability on reduced random 3-SAT (ratio 4.26)",
    );
    println!(
        "{:>5} {:>8} {:>10} | {:>10} {:>12} {:>16} {:>16} {:>8}",
        "vars", "clauses", "tree size", "dpll", "backtr", "backtr decisions", "brute", "agree"
    );
    let mut r = StdRng::seed_from_u64(SEED ^ 0xE8);
    for num_vars in [6usize, 8, 10, 12, 14, 16, 18] {
        let cnf = random_3sat(ThreeSatConfig::at_ratio(num_vars, 4.26), &mut r);
        let instance = reduce_sat(&cnf);
        let dpll = solve_dpll(&cnf).is_some();
        let (witness, stats) =
            satisfiable_backtracking(&instance.tree, &instance.satisfiability_dtd);
        let backtrack = witness.is_some();
        let brute = (num_vars <= 16).then(|| {
            satisfiable_bruteforce(&instance.tree, &instance.satisfiability_dtd, 24)
                .unwrap()
                .is_some()
        });
        let agree = backtrack == dpll && brute.is_none_or(|b| b == dpll);
        println!(
            "{num_vars:>5} {:>8} {:>10} | {dpll:>10} {backtrack:>12} {:>16} {:>16} {agree:>8}",
            cnf.len(),
            instance.tree.size(),
            stats.decisions,
            brute.map_or("skipped".to_string(), |b| b.to_string())
        );
    }
    println!();
}

/// E9: Theorem 5 (3) — DTD restriction blow-up.
fn e9_dtd_restriction() {
    header(
        "E9",
        "Theorem 5 (3) — DTD restriction on the ≤ n-of-2n family",
    );
    println!(
        "{:>3} {:>6} {:>12} | {:>12} {:>14}",
        "n", "|W|", "input size", "valid worlds", "probtree size"
    );
    for n in [1usize, 2, 3, 4, 5] {
        let (tree, dtd) = theorem5_restriction_family(n);
        let restriction = pxml_dtd::restriction::restrict_to_dtd(&tree, &dtd, 24).unwrap();
        let rep = dtd_restriction_as_probtree(&tree, &dtd, 24)
            .unwrap()
            .unwrap();
        println!(
            "{n:>3} {:>6} {:>12} | {:>12} {:>14}",
            2 * n,
            tree.size(),
            restriction.worlds.len(),
            rep.size()
        );
    }
    println!();
}

/// E10: Section 5 — the arbitrary-formula variant trade-off: deletion
/// sizes under both condition models, and the boolean query's verdict.
fn e10_formula_variant() {
    header(
        "E10",
        "Section 5 — arbitrary-formula conditions: cheap deletions, expensive queries",
    );

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

    println!(
        "{:>4} | {:>14} | {:>14} | {:>10}",
        "n", "conj. del size", "form. del size", "bool query"
    );
    for n in [2usize, 4, 6, 8, 10, 12, 64, 256] {
        // Conjunctive (base model) deletion — exponential; skip when too big.
        let conj_size = if n <= 14 {
            let (deleted, _) = UpdateEngine::new().apply(&theorem3_tree(n), &d0_deletion(1.0));
            deleted.size().to_string()
        } else {
            "skipped".to_string()
        };
        // Formula-model deletion — linear.
        let mut ftree = theorem3_formula_tree(n);
        let mut q = PatternQuery::anchored(Some("A"));
        let b = q.add_child(q.root(), "B");
        let _c = q.add_child(q.root(), "C");
        ftree.delete(&q, b, 1.0);
        // Boolean query on the result — needs a SAT call.
        let mut q_b = PatternQuery::anchored(Some("A"));
        q_b.add_child(q_b.root(), "B");
        let possible = ftree.query_possible(&q_b);
        println!(
            "{n:>4} | {conj_size:>14} | {:>14} | {possible:>10}",
            ftree.size()
        );
    }
    println!();
}

/// E11: Section 5 — set semantics and semantic vs structural equivalence.
fn e11_set_semantics_and_semantic_equivalence() {
    header(
        "E11",
        "Section 5 / Proposition 4 — set semantics and semantic vs structural equivalence",
    );

    // (a) The paper's ≡sem-but-not-≡struct example.
    let mut a = ProbTree::new("A");
    let w1 = a.events_mut().insert("w1", 0.8);
    let w2 = a.events_mut().insert("w2", 0.5);
    let ra = a.tree().root();
    a.add_child(
        ra,
        "B",
        Condition::from_literals([Literal::pos(w1), Literal::pos(w2)]),
    );
    let mut b = ProbTree::new("A");
    let w3 = b.events_mut().insert("w3", 0.4);
    let rb = b.tree().root();
    b.add_child(rb, "B", Condition::of(Literal::pos(w3)));
    println!(
        "w1∧w2 (0.8·0.5) vs w3 (0.4):  semantically equivalent = {}, structurally equivalent = {}",
        pxml_core::equivalence::semantic_equivalent(&a, &b, 20).unwrap(),
        structural_equivalent_exhaustive(&a, &b, 20).unwrap()
    );

    // (b) Multiset vs set semantics on duplicate children.
    let mut two = ProbTree::new("A");
    let w = two.events_mut().insert("w", 0.5);
    let rt = two.tree().root();
    two.add_child(rt, "B", Condition::of(Literal::pos(w)));
    two.add_child(rt, "B", Condition::of(Literal::pos(w)));
    let mut one = ProbTree::new("A");
    let w_ = one.events_mut().insert("w", 0.5);
    let ro = one.tree().root();
    one.add_child(ro, "B", Condition::of(Literal::pos(w_)));
    println!(
        "two conditioned B children vs one:  multiset-equivalent = {}, set-equivalent = {}",
        structural_equivalent_exhaustive(&two, &one, 20).unwrap(),
        pxml_core::equivalence::structural_equivalent_exhaustive_with(
            &two,
            &one,
            20,
            pxml_tree::canon::Semantics::Set
        )
        .unwrap()
    );

    // (c) Semantic equivalence expands both PW sets (exptime); the
    // `equivalence` bench's `e11_semantic_equivalence` group times it.
    println!("\nsemantic-equivalence cost (exhaustive PW expansion):");
    println!("{:>5}", "|W|");
    for events in [4usize, 8, 12, 16] {
        let mut t = ProbTree::new("R");
        let root = t.tree().root();
        for _ in 0..events {
            let w = t.events_mut().fresh(0.5);
            t.add_child(root, "X", Condition::of(Literal::pos(w)));
        }
        let equal = pxml_core::equivalence::semantic_equivalent(&t, &t.clone(), 24).unwrap();
        println!("{events:>5}   (equivalent = {equal})");
    }
    println!();
}

/// E12: the static analyzer — every prediction vs the engine counter it
/// claims to predict.
fn e12_static_analysis() {
    use pxml_analysis::StaticAnalyzer;
    use pxml_core::update::UpdateScript;
    use pxml_core::worlds::{WorldEngine, WorldEngineConfig};
    use pxml_workloads::random::many_components_probtree;

    header(
        "E12",
        "Static analysis — predicted vs measured engine counters",
    );

    // (a) Theorem 3 survivor-copy forecasts, shared-first and naive.
    println!("d0 at confidence 0.8 — forecast survivor copies vs StepReport:");
    println!(
        "{:>3} | {:>14} {:>14} | {:>12} {:>12}",
        "n", "pred. shared", "meas. shared", "pred. naive", "meas. naive"
    );
    let analyzer = StaticAnalyzer::new();
    let naive_analyzer = StaticAnalyzer::new().with_update_config(UpdateEngineConfig::raw());
    let shared_engine = UpdateEngine::new();
    let naive_engine = UpdateEngine::with_config(UpdateEngineConfig::raw());
    for n in [1usize, 2, 3, 4, 5, 6] {
        let tree = theorem3_tree(n);
        let script = UpdateScript::from_steps([d0_deletion(0.8)]);
        let survivors = |report: &pxml_core::update::ScriptReport| {
            report
                .steps
                .iter()
                .map(|s| s.survivor_copies)
                .sum::<usize>()
        };
        let predicted_shared = analyzer
            .analyze_script(&tree, &script)
            .predicted_survivor_copies();
        let (_, shared_report) = shared_engine.apply_script(&tree, &script);
        let predicted_naive = naive_analyzer
            .analyze_script(&tree, &script)
            .predicted_survivor_copies();
        let (_, naive_report) = naive_engine.apply_script(&tree, &script);
        println!(
            "{n:>3} | {predicted_shared:>14} {:>14} | {predicted_naive:>12} {:>12}",
            survivors(&shared_report),
            survivors(&naive_report)
        );
    }
    println!(
        "(predicted shared = 1 + 2^n, predicted naive = 3^n; both match the measured counters)\n"
    );

    // (b) The co-occurrence census vs the factorized executor.
    println!("component census — predicted shard states vs states_enumerated:");
    println!(
        "{:>12} {:>10} | {:>16} {:>16}",
        "components", "events", "pred. states", "meas. states"
    );
    let config = WorldEngineConfig::default();
    for (components, events_per) in [(1usize, 4usize), (4, 3), (8, 2), (16, 1), (2, 8)] {
        let tree = many_components_probtree(components, events_per);
        let analysis = analyzer.analyze_worlds(&tree);
        let worlds = WorldEngine::new(&tree).sharded(&config, 24).unwrap();
        println!(
            "{components:>12} {:>10} | {:>16} {:>16}",
            components * events_per,
            analysis.predicted_states(),
            worlds.states_enumerated()
        );
    }
    println!("(the census is pure arithmetic on the condition graph — no valuation is enumerated to predict the cost)\n");
}

/// E13: the shape census — logical nodes against distinct annotated
/// shapes ([`shape_census`]) on the Theorem 3 deletion's deep output and
/// across a warehouse corpus (cross-document shape sharing).
fn e13_shape_census() {
    use pxml_workloads::warehouse::{run_scenario, WarehouseConfig};

    header(
        "E13",
        "Shape census — logical nodes vs distinct annotated shapes",
    );
    let ratio = |census: &ShapeCensus| census.logical_nodes as f64 / census.distinct_shapes as f64;

    println!("d0 at confidence 0.8 on the Theorem 3 family (simplify off):");
    println!(
        "{:>3} | {:>14} {:>14} | {:>12}",
        "n", "logical nodes", "shapes", "ratio"
    );
    let engine = UpdateEngine::with_config(UpdateEngineConfig {
        simplify: false,
        ..UpdateEngineConfig::default()
    });
    for n in [1usize, 2, 4, 6, 8, 10, 12] {
        let (out, _) = engine.apply(&theorem3_tree(n), &d0_deletion(0.8));
        let census = shape_census(&[&out]);
        println!(
            "{n:>3} | {:>14} {:>14} | {:>12.2}",
            census.logical_nodes,
            census.distinct_shapes,
            ratio(&census)
        );
    }
    println!("(logical nodes grow as 1 + 2^n with the survivor copies; each copy has its own root condition, so no two subtrees are equal and sharing equal subtrees would save nothing)\n");

    println!("warehouse corpus — one census over d independently-extracted documents:");
    println!(
        "{:>4} | {:>14} {:>14} | {:>12}",
        "docs", "logical nodes", "shapes", "ratio"
    );
    let config = WarehouseConfig {
        services: 4,
        extraction_rounds: 8,
        deletion_ratio: 0.1,
    };
    let warehouses: Vec<_> = (0..8u64)
        .map(|seed| run_scenario(&config, &mut StdRng::seed_from_u64(SEED ^ seed)))
        .collect();
    for docs in [1usize, 2, 4, 8] {
        let trees: Vec<&ProbTree> = warehouses[..docs].iter().map(|w| &w.tree).collect();
        let census = shape_census(&trees);
        println!(
            "{docs:>4} | {:>14} {:>14} | {:>12.2}",
            census.logical_nodes,
            census.distinct_shapes,
            ratio(&census)
        );
    }
    println!("(documents from the same pipeline share the skeleton and coincident fact shapes, so distinct grows sublinearly in the corpus size)\n");
}
