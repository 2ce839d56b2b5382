//! Structural equivalence of prob-trees and the co-RP algorithm
//! (Section 3 / Theorem 2 of the paper).
//!
//! Two extraction pipelines describe the same uncertain document with
//! differently-written annotations; the randomized Figure 3 algorithm
//! recognizes them as structurally equivalent in polynomial time, while the
//! exhaustive check needs 2^|W| world comparisons. A third, subtly
//! different document is rejected.
//!
//! Run with: `cargo run --release --example equivalence_demo`. Its
//! stdout is `examples/equivalence_demo.out`; the two checks' timings go
//! to stderr.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pxml_core::equivalence::{
    semantic_equivalent, structural_equivalent_exhaustive, structural_equivalent_randomized,
    EquivalenceConfig,
};
use pxml_core::probtree::ProbTree;
use pxml_events::{Condition, Literal};

/// A document with `n` sections, each present under one of two independent
/// review events, written by "pipeline A".
fn pipeline_a(n: usize) -> ProbTree {
    let mut t = ProbTree::new("doc");
    let root = t.tree().root();
    for i in 0..n {
        let accepted = t.events_mut().insert(format!("accepted{i}"), 0.9);
        let flagged = t.events_mut().insert(format!("flagged{i}"), 0.2);
        let section = t.add_child(
            root,
            "section",
            Condition::from_literals([Literal::pos(accepted), Literal::neg(flagged)]),
        );
        t.add_child(section, format!("para{i}"), Condition::always());
    }
    t
}

/// The same document as produced by "pipeline B": the children are listed
/// in reverse order and redundant ancestor literals are repeated on the
/// paragraphs (cleaning removes them).
fn pipeline_b(n: usize) -> ProbTree {
    let mut t = ProbTree::new("doc");
    // Declare the same event variables in the same order so the two trees
    // share W and π (a prerequisite of structural equivalence).
    let mut events = Vec::new();
    for i in 0..n {
        let accepted = t.events_mut().insert(format!("accepted{i}"), 0.9);
        let flagged = t.events_mut().insert(format!("flagged{i}"), 0.2);
        events.push((accepted, flagged));
    }
    let root = t.tree().root();
    for i in (0..n).rev() {
        let (accepted, flagged) = events[i];
        let section = t.add_child(
            root,
            "section",
            Condition::from_literals([Literal::pos(accepted), Literal::neg(flagged)]),
        );
        // Redundant repetition of the section's condition on the paragraph.
        t.add_child(
            section,
            format!("para{i}"),
            Condition::from_literals([Literal::pos(accepted), Literal::neg(flagged)]),
        );
    }
    t
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 8; // 16 event variables: the exhaustive check compares 65 536 worlds.
    let a = pipeline_a(n);
    let b = pipeline_b(n);

    println!(
        "Pipeline A: {} nodes, {} literals; pipeline B: {} nodes, {} literals; |W| = {}",
        a.num_nodes(),
        a.num_literals(),
        b.num_nodes(),
        b.num_literals(),
        a.events().len()
    );

    let start = Instant::now();
    let randomized =
        structural_equivalent_randomized(&a, &b, &EquivalenceConfig::default(), &mut rng);
    let randomized_time = start.elapsed();

    let start = Instant::now();
    let exhaustive = structural_equivalent_exhaustive(&a, &b, 24).expect("guarded");
    let exhaustive_time = start.elapsed();

    // The verdicts go to stdout and the timings to stderr, so stdout is
    // the same on every run.
    println!("Randomized Figure 3 algorithm: equivalent = {randomized}");
    eprintln!("Randomized Figure 3 algorithm took {randomized_time:?}");
    println!("Exhaustive 2^|W| check:        equivalent = {exhaustive}");
    eprintln!("Exhaustive 2^|W| check took {exhaustive_time:?}");

    // A third pipeline mixes up one condition: the flagged event is used
    // positively. This is *not* equivalent and the randomized algorithm
    // notices (one-sided error: it never wrongly rejects, and wrongly
    // accepts with negligible probability).
    let mut c = pipeline_a(n);
    let flagged0 = c.events().by_name("flagged0").unwrap();
    let accepted0 = c.events().by_name("accepted0").unwrap();
    let first_section = c
        .tree()
        .iter()
        .find(|&nd| c.tree().label(nd) == "section")
        .unwrap();
    c.set_condition(
        first_section,
        Condition::from_literals([Literal::pos(accepted0), Literal::pos(flagged0)]),
    );
    let verdict = structural_equivalent_randomized(&a, &c, &EquivalenceConfig::default(), &mut rng);
    println!("Tampered pipeline C vs A:      equivalent = {verdict}");

    // Semantic equivalence also distinguishes them (and is far more
    // expensive: it expands both possible-world sets).
    let sem = semantic_equivalent(&a, &c, 24).expect("guarded");
    println!("Semantic equivalence A vs C:   equivalent = {sem}");
}
