//! The constructions used in the paper's figures and proofs.

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::{PatternNodeId, PatternQuery};
use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
use pxml_dtd::reduction::{reduce_sat, Theorem5Instance};
use pxml_dtd::restriction::theorem5_restriction_family;
use pxml_dtd::Dtd;
use pxml_events::{Condition, Literal};
use pxml_sat::Cnf;

/// The Figure 1 example prob-tree (re-exported from `pxml-core`).
pub fn figure1() -> ProbTree {
    pxml_core::probtree::figure1_example()
}

/// The Theorem 3 witness prob-tree: root `A` with one unconditioned `B`
/// child and `n` `C` children, the `i`-th conditioned by `w_i⁽⁰⁾ ∧ w_i⁽¹⁾`
/// (2n event variables, each appearing once, probability ½).
pub fn theorem3_tree(n: usize) -> ProbTree {
    let mut tree = ProbTree::new("A");
    let root = tree.tree().root();
    tree.add_child(root, "B", Condition::always());
    for i in 0..n {
        let w0 = tree.events_mut().insert(format!("w{}_0", i + 1), 0.5);
        let w1 = tree.events_mut().insert(format!("w{}_1", i + 1), 0.5);
        tree.add_child(
            root,
            "C",
            Condition::from_literals([Literal::pos(w0), Literal::pos(w1)]),
        );
    }
    tree
}

/// The deletion `d0` of Theorem 3: "if the root has a C-child, delete all
/// B-children of the root", with the given confidence (Theorem 3 uses 1).
pub fn d0_deletion(confidence: f64) -> ProbabilisticUpdate {
    let mut query = PatternQuery::anchored(Some("A"));
    let b = query.add_child(query.root(), "B");
    let _c = query.add_child(query.root(), "C");
    ProbabilisticUpdate::new(UpdateOperation::delete(query, b), confidence)
}

/// An insertion counterpart to [`d0_deletion`] used by the E4/E5
/// comparison: "if the root has a C-child, insert an `E` child under every
/// B-child of the root".
pub fn d0_insertion(confidence: f64) -> (ProbabilisticUpdate, PatternNodeId) {
    let mut query = PatternQuery::anchored(Some("A"));
    let b = query.add_child(query.root(), "B");
    let _c = query.add_child(query.root(), "C");
    (
        ProbabilisticUpdate::new(
            UpdateOperation::insert(query, b, pxml_tree::DataTree::new("E")),
            confidence,
        ),
        b,
    )
}

/// The Theorem 4 witness prob-tree: root `A` with `2n` children
/// `C_1 … C_{2n}`, each conditioned by its own event variable. The paper
/// uses distinct labels so that every subset of children is a distinct
/// world. All events get probability ½ so that every world is
/// equiprobable (`2^{-2n}`), and the natural threshold for the E7
/// experiment is that common probability.
pub fn theorem4_tree(n: usize) -> ProbTree {
    let mut tree = ProbTree::new("A");
    let root = tree.tree().root();
    for i in 0..2 * n {
        let w = tree.events_mut().insert(format!("w{}", i + 1), 0.5);
        tree.add_child(root, format!("C{}", i + 1), Condition::of(Literal::pos(w)));
    }
    tree
}

/// The probability of each world of [`theorem4_tree`] (they are all
/// equal): `2^{-2n}`.
pub fn theorem4_world_probability(n: usize) -> f64 {
    0.5f64.powi(2 * n as i32)
}

/// The query battery of the Section 2 examples: `//C/D` (the paper's
/// worked query on Figure 1, the battery's first entry), the
/// single-label queries for `B` and `D`, the anchored `A//D` descendant
/// query, and a non-matching control. Used by the E1 experiment
/// (`tables --exp e1` runs the whole battery through the engine's
/// Theorem 1 check) and the Figure 1 regression tests.
pub fn theorem1_query_battery() -> Vec<PatternQuery> {
    vec![
        {
            let mut q = PatternQuery::new(Some("C"));
            q.add_child(q.root(), "D");
            q
        },
        PatternQuery::new(Some("B")),
        PatternQuery::new(Some("D")),
        {
            let mut q = PatternQuery::anchored(Some("A"));
            q.add_descendant(q.root(), "D");
            q
        },
        PatternQuery::new(Some("Z")),
    ]
}

/// The Theorem 5 SAT-reduction instance for a CNF formula (re-exported
/// from `pxml-dtd`).
pub fn theorem5_instance(cnf: &Cnf) -> Theorem5Instance {
    reduce_sat(cnf)
}

/// The Theorem 5 (3) restriction family (re-exported from `pxml-dtd`):
/// `2n` optional distinguishable `C` children and a DTD allowing at most
/// `n` of them.
pub fn theorem5_restriction(n: usize) -> (ProbTree, Dtd) {
    theorem5_restriction_family(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::semantics::{possible_worlds, possible_worlds_normalized};

    #[test]
    fn figure1_matches_paper_parameters() {
        let t = figure1();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.events().len(), 2);
        assert!((t.events().prob(t.events().by_name("w1").unwrap()) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn theorem3_tree_has_paper_size() {
        // "n + 2 nodes and 2n event variables, each appearing only once"
        for n in [1usize, 4, 9] {
            let t = theorem3_tree(n);
            assert_eq!(t.num_nodes(), n + 2);
            assert_eq!(t.events().len(), 2 * n);
            assert_eq!(t.num_literals(), 2 * n);
        }
    }

    #[test]
    fn d0_deletes_b_only_when_c_present() {
        let update = d0_deletion(1.0);
        // With a C child: B disappears.
        let with_c = theorem3_tree(1);
        let worlds = possible_worlds(&with_c, 20).unwrap();
        let updated = update.apply_to_pw_set(&worlds).normalized();
        for (world, p) in updated.iter() {
            let world = world.to_tree();
            let has_b = world.iter().any(|nd| world.label(nd) == "B");
            let has_c = world.iter().any(|nd| world.label(nd) == "C");
            assert!(!(has_b && has_c), "p={p}: B and C coexist after d0");
        }
    }

    #[test]
    fn theorem4_tree_worlds_are_equiprobable() {
        let n = 2;
        let t = theorem4_tree(n);
        assert_eq!(t.num_nodes(), 2 * n + 1);
        assert_eq!(t.events().len(), 2 * n);
        let pw = possible_worlds_normalized(&t, 20).unwrap();
        assert_eq!(
            pw.len(),
            1 << (2 * n),
            "distinct labels keep worlds distinct"
        );
        let expected = theorem4_world_probability(n);
        for (_, p) in pw.iter() {
            assert!((p - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn theorem1_battery_holds_on_figure1_through_the_engine() {
        use pxml_core::QueryEngine;
        let tree = figure1();
        let engine = QueryEngine::new();
        for q in &theorem1_query_battery() {
            use pxml_core::query::Query as _;
            assert!(
                engine.prepare(&tree, q).theorem1_check().unwrap(),
                "Theorem 1 violated for {}",
                q.describe()
            );
        }
    }

    #[test]
    fn theorem5_helpers_are_wired() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(vec![
            pxml_sat::Lit::pos(pxml_sat::Var(0)),
            pxml_sat::Lit::neg(pxml_sat::Var(1)),
        ]);
        let instance = theorem5_instance(&cnf);
        assert_eq!(instance.tree.num_nodes(), 2);
        let (tree, dtd) = theorem5_restriction(2);
        assert_eq!(tree.events().len(), 4);
        assert!(dtd.constrains("A"));
    }
}
