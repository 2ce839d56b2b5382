//! Property-based tests (proptest) on the core invariants of the model.

use proptest::prelude::*;

use pxml_core::clean::{clean, is_clean};
use pxml_core::equivalence::structural_equivalent_exhaustive;
use pxml_core::probtree::ProbTree;
use pxml_core::semantics::{possible_worlds, possible_worlds_normalized, pw_set_to_probtree};
use pxml_core::update::{ProbabilisticUpdate, UpdateEngine, UpdateOperation};
use pxml_core::worlds::{WorldEngine, WorldEngineConfig};
use pxml_core::PatternQuery;
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::builder::TreeSpec;
use pxml_tree::canon::{canonical_string, isomorphic, Semantics};
use pxml_tree::DataTree;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A random small data-tree specification.
fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop::sample::select(vec!["A", "B", "C", "D"]).prop_map(TreeSpec::leaf);
    leaf.prop_recursive(3, 12, 3, |inner| {
        (
            prop::sample::select(vec!["A", "B", "C", "D"]),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(label, children)| TreeSpec::node(label, children))
    })
}

/// A description of a small prob-tree: a tree shape plus, for every
/// non-root node index, an optional list of (event index, polarity)
/// literals over `num_events` events.
#[derive(Clone, Debug)]
struct ProbTreeSpec {
    shape: TreeSpec,
    num_events: usize,
    conditions: Vec<Vec<(usize, bool)>>,
}

fn probtree_strategy() -> impl Strategy<Value = ProbTreeSpec> {
    (tree_spec_strategy(), 1usize..=4).prop_flat_map(|(shape, num_events)| {
        let nodes = shape.size();
        prop::collection::vec(
            prop::collection::vec((0..num_events, any::<bool>()), 0..=2),
            nodes,
        )
        .prop_map(move |conditions| ProbTreeSpec {
            shape: shape.clone(),
            num_events,
            conditions,
        })
    })
}

fn build_probtree(spec: &ProbTreeSpec) -> ProbTree {
    let data = spec.shape.build();
    let mut tree = ProbTree::from_data_tree(data, pxml_events::EventTable::new());
    let events: Vec<EventId> = (0..spec.num_events)
        .map(|i| tree.events_mut().insert(format!("e{i}"), 0.5))
        .collect();
    let nodes: Vec<_> = tree.tree().iter().collect();
    for (idx, node) in nodes.into_iter().enumerate() {
        if node == tree.tree().root() {
            continue;
        }
        let literals = spec.conditions[idx % spec.conditions.len()]
            .iter()
            .map(|&(e, positive)| Literal {
                event: events[e % events.len()],
                positive,
            });
        tree.set_condition(node, Condition::from_literals(literals));
    }
    tree.validate_invariants()
        .expect("generated prob-trees satisfy the model invariants");
    tree
}

// ---------------------------------------------------------------------------
// Data-tree / canonical-form properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Isomorphism is invariant under rebuilding from the (unordered) spec
    /// with reversed child lists.
    #[test]
    fn isomorphism_ignores_child_order(spec in tree_spec_strategy()) {
        fn reverse(spec: &TreeSpec) -> TreeSpec {
            TreeSpec {
                label: spec.label.clone(),
                children: spec.children.iter().rev().map(reverse).collect(),
            }
        }
        let a = spec.build();
        let b = reverse(&spec).build();
        prop_assert!(isomorphic(&a, &b, Semantics::MultiSet));
        prop_assert_eq!(
            canonical_string(&a, Semantics::MultiSet),
            canonical_string(&b, Semantics::MultiSet)
        );
    }

    /// The canonical string characterizes isomorphism on random pairs.
    #[test]
    fn canonical_string_agreement(a in tree_spec_strategy(), b in tree_spec_strategy()) {
        let ta = a.build();
        let tb = b.build();
        let iso = isomorphic(&ta, &tb, Semantics::MultiSet);
        let same_string = canonical_string(&ta, Semantics::MultiSet)
            == canonical_string(&tb, Semantics::MultiSet);
        prop_assert_eq!(iso, same_string);
    }
}

// ---------------------------------------------------------------------------
// Prob-tree semantics properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The possible-world semantics is a probability distribution.
    #[test]
    fn world_probabilities_sum_to_one(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let pw = possible_worlds(&tree, 16).unwrap();
        prop_assert!((pw.total_probability() - 1.0).abs() < 1e-9);
    }

    /// Cleaning preserves structural equivalence (and therefore the
    /// semantics) and is idempotent.
    #[test]
    fn cleaning_preserves_equivalence(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let cleaned = clean(&tree);
        prop_assert!(is_clean(&cleaned));
        prop_assert!(structural_equivalent_exhaustive(&tree, &cleaned, 16).unwrap());
        let twice = clean(&cleaned);
        prop_assert_eq!(twice.num_nodes(), cleaned.num_nodes());
        prop_assert_eq!(twice.num_literals(), cleaned.num_literals());
    }

    /// Theorem 1: prob-tree query evaluation agrees with the possible-world
    /// semantics for a fixed battery of pattern queries.
    #[test]
    fn theorem1_on_random_probtrees(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let queries = vec![
            PatternQuery::new(Some("B")),
            {
                let mut q = PatternQuery::new(Some("A"));
                q.add_child(q.root(), "C");
                q
            },
            {
                let mut q = PatternQuery::anchored(None);
                q.add_descendant(q.root(), "D");
                q
            },
        ];
        let engine = pxml_core::QueryEngine::new();
        for q in &queries {
            prop_assert!(engine.prepare(&tree, q).theorem1_check().unwrap());
        }
    }

    /// The PW-set → prob-tree construction is a right inverse of the
    /// semantics (expressiveness completeness).
    #[test]
    fn pw_roundtrip(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let pw = possible_worlds(&tree, 16).unwrap().normalized();
        let reencoded = pw_set_to_probtree(&pw).unwrap();
        let back = possible_worlds(&reencoded, 16).unwrap().normalized();
        prop_assert!(back.isomorphic(&pw));
    }

    /// Update consistency (the Appendix A theorem): applying a
    /// probabilistic insertion or deletion commutes with taking the
    /// possible-world semantics.
    #[test]
    fn updates_commute_with_semantics(
        spec in probtree_strategy(),
        confidence in prop::sample::select(vec![0.5f64, 1.0]),
        delete in any::<bool>(),
    ) {
        let tree = build_probtree(&spec);
        let update = if delete {
            let mut q = PatternQuery::new(Some("A"));
            let target = q.add_child(q.root(), "B");
            ProbabilisticUpdate::new(UpdateOperation::delete(q, target), confidence)
        } else {
            let q = PatternQuery::new(Some("C"));
            let at = q.root();
            ProbabilisticUpdate::new(
                UpdateOperation::insert(q, at, DataTree::new("new")),
                confidence,
            )
        };
        let (updated, _) = UpdateEngine::new().apply(&tree, &update);
        prop_assert!(updated.validate_invariants().is_ok());
        let direct = possible_worlds(&updated, 20).unwrap().normalized();
        let via_pw = update
            .apply_to_pw_set(&possible_worlds(&tree, 16).unwrap())
            .normalized();
        prop_assert!(direct.isomorphic(&via_pw));
    }
}

// ---------------------------------------------------------------------------
// Relevant-event world engine properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production world path (`possible_worlds_normalized`, the
    /// factorized relevant-event engine) is isomorphic to the legacy
    /// full-enumeration semantics on random prob-trees built by the
    /// hand-rolled strategy.
    #[test]
    fn world_engine_matches_legacy_enumeration(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let legacy = possible_worlds(&tree, 16).unwrap().normalized();
        let engine = WorldEngine::new(&tree);
        prop_assert!(engine.num_relevant() <= tree.events().len());
        let fast = possible_worlds_normalized(&tree, 16).unwrap();
        prop_assert!(fast.isomorphic(&legacy));
        prop_assert!((fast.total_probability() - 1.0).abs() < 1e-9);
    }

    /// Same property on `workloads::random_probtree` instances whose event
    /// tables additionally declare events no condition ever mentions: the
    /// engine must marginalize them without enumerating them, and still
    /// agree with the full 2^{|W|} enumeration.
    #[test]
    fn world_engine_marginalizes_unused_events(seed in 0u64..1_000_000) {
        use pxml_workloads::random::{random_probtree, ProbTreeConfig, TreeConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let config = ProbTreeConfig {
            tree: TreeConfig { nodes: 25, max_fanout: 4, labels: 3 },
            events: 6,
            annotation_density: 0.4,
            max_literals: 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random_probtree(&config, &mut rng);
        // Declare 6 events that are never mentioned by any condition.
        for _ in 0..6 {
            tree.events_mut().fresh(0.5);
        }
        prop_assert_eq!(tree.events().len(), 12);

        let engine = WorldEngine::new(&tree);
        prop_assert!(engine.num_relevant() <= 6);
        // Component sizes partition the relevant set.
        let component_total: usize =
            engine.components().iter().map(Vec::len).sum();
        prop_assert_eq!(component_total, engine.num_relevant());

        let legacy = possible_worlds(&tree, 12).unwrap().normalized();
        let fast = possible_worlds_normalized(&tree, 6).unwrap();
        prop_assert!(fast.isomorphic(&legacy));
    }
}

// ---------------------------------------------------------------------------
// Factorized shard-executor properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shard enumeration's normalized PW set is isomorphic to
    /// the legacy full enumeration on random prob-trees, and its joint
    /// walk never visits more states than streaming every valuation of
    /// the free events would (`2^{free}`).
    #[test]
    fn factorized_matches_streamed_and_legacy(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let legacy = possible_worlds(&tree, 16).unwrap().normalized();
        let engine = WorldEngine::new(&tree);
        let fw = engine
            .sharded(&WorldEngineConfig::default(), 16)
            .unwrap();
        prop_assert!(fw.num_joint_assignments() <= 1u128 << fw.num_free_events());
        let factorized = fw.normalized_worlds().unwrap();
        prop_assert!(factorized.isomorphic(&legacy));
        prop_assert!((factorized.total_probability() - 1.0).abs() < 1e-9);
    }

    /// Per-component factorized probabilities re-multiply to the joint
    /// `Valuation::probability_over` result: every shard's class masses
    /// are the sums of the raw per-assignment masses of its component (so
    /// each shard carries total mass 1), each joint probability is the
    /// product of its per-shard class masses, and whenever no
    /// signature-merging happened the joint probability equals
    /// `probability_over` of the relevant events exactly.
    #[test]
    fn factorized_probabilities_remultiply(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let engine = WorldEngine::new(&tree);
        let fw = engine
            .sharded(&WorldEngineConfig::default(), 16)
            .unwrap();
        for (i, shard) in fw.shards().iter().enumerate() {
            let raw: f64 = engine
                .component_valuations(i, true)
                .map(|v| v.probability_over(tree.events(), shard.events.iter().copied()))
                .sum();
            let classes: f64 = shard.assignments.iter().map(|a| a.probability).sum();
            prop_assert!((raw - classes).abs() < 1e-9);
            prop_assert!((classes - 1.0).abs() < 1e-9);
        }
        let no_merging = fw
            .shards()
            .iter()
            .all(|s| s.assignments.iter().all(|a| a.merged == 1));
        let mut total = 0.0;
        for (v, p) in fw.joint_valuations().unwrap() {
            total += p;
            if no_merging {
                let expected =
                    v.probability_over(tree.events(), engine.relevant_events().iter().copied());
                prop_assert!((p - expected).abs() < 1e-9);
            }
        }
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Degenerate extreme: a *single* co-occurrence component (all events
    /// chained pairwise). The factorized path has exactly one shard, and
    /// every joint probability re-multiplies (trivially, but through the
    /// same plumbing) to `Valuation::probability_over`.
    #[test]
    fn factorized_single_component_extreme(
        probs in prop::collection::vec(0.05f64..0.95, 2..6),
    ) {
        let mut tree = ProbTree::new("R");
        let events: Vec<EventId> = probs
            .iter()
            .map(|&p| tree.events_mut().fresh(p))
            .collect();
        let root = tree.tree().root();
        for pair in events.windows(2) {
            tree.add_child(
                root,
                "P",
                Condition::from_literals([Literal::pos(pair[0]), Literal::pos(pair[1])]),
            );
        }
        let engine = WorldEngine::new(&tree);
        prop_assert_eq!(engine.components().len(), 1);
        let fw = engine
            .sharded(&WorldEngineConfig::default(), 16)
            .unwrap();
        prop_assert_eq!(fw.shards().len(), 1);
        prop_assert_eq!(fw.states_enumerated(), 1u64 << probs.len());
        // One shard: the joint IS the shard, class masses sum to 1, and
        // summing the raw masses per class reproduces them (checked via
        // the class totals against the full probability_over sum).
        let raw_total: f64 = engine
            .component_valuations(0, true)
            .map(|v| v.probability_over(tree.events(), events.iter().copied()))
            .sum();
        let class_total: f64 = fw.shards()[0]
            .assignments
            .iter()
            .map(|a| a.probability)
            .sum();
        prop_assert!((raw_total - class_total).abs() < 1e-9);
        let legacy = possible_worlds(&tree, 16).unwrap().normalized();
        prop_assert!(fw.normalized_worlds().unwrap().isomorphic(&legacy));
    }

    /// The opposite extreme: all-singleton components (every event in its
    /// own component, one single-literal condition each). No merging is
    /// possible, so every joint probability equals
    /// `Valuation::probability_over` exactly, and the shard counter is
    /// `Σ_c 2^1 = 2 · |W|` vs the `2^{|W|}` joint.
    #[test]
    fn factorized_all_singleton_extreme(
        probs in prop::collection::vec(0.05f64..0.95, 2..8),
        negate in prop::collection::vec(any::<bool>(), 8),
    ) {
        let mut tree = ProbTree::new("R");
        let root = tree.tree().root();
        let events: Vec<EventId> = probs
            .iter()
            .map(|&p| tree.events_mut().fresh(p))
            .collect();
        for (i, &e) in events.iter().enumerate() {
            let literal = if negate[i % negate.len()] {
                Literal::neg(e)
            } else {
                Literal::pos(e)
            };
            tree.add_child(root, format!("C{i}"), Condition::of(literal));
        }
        let engine = WorldEngine::new(&tree);
        prop_assert_eq!(engine.components().len(), events.len());
        let fw = engine
            .sharded(&WorldEngineConfig::default(), 16)
            .unwrap();
        prop_assert_eq!(fw.states_enumerated(), 2 * events.len() as u64);
        prop_assert_eq!(fw.num_joint_assignments(), 1u128 << events.len());
        for shard in fw.shards() {
            prop_assert!(shard.assignments.iter().all(|a| a.merged == 1));
        }
        for (v, p) in fw.joint_valuations().unwrap() {
            let expected = v.probability_over(tree.events(), events.iter().copied());
            prop_assert!((p - expected).abs() < 1e-9);
        }
        let legacy = possible_worlds(&tree, 16).unwrap().normalized();
        prop_assert!(fw.normalized_worlds().unwrap().isomorphic(&legacy));
    }

    /// The shard-local condition fold agrees with the analytic product
    /// over independent events, without ever touching the cross product.
    #[test]
    fn factorized_condition_fold_matches_analytic(
        spec in probtree_strategy(),
        literal_spec in prop::collection::vec((0usize..4, any::<bool>()), 0..4),
    ) {
        let tree = build_probtree(&spec);
        let engine = WorldEngine::new(&tree);
        let fw = engine
            .sharded(&WorldEngineConfig::default(), 16)
            .unwrap();
        let num_events = tree.events().len();
        let condition = Condition::from_literals(literal_spec.iter().map(|&(e, positive)| {
            Literal {
                event: EventId::from_index(e % num_events),
                positive,
            }
        }));
        let folded = fw.condition_probability(&condition);
        let analytic = condition.probability(tree.events());
        prop_assert!((folded - analytic).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Serialization properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ProXML round-trips preserve structural equivalence.
    #[test]
    fn proxml_roundtrip(spec in probtree_strategy()) {
        let tree = build_probtree(&spec);
        let xml = pxml_core::proxml::to_xml(&tree);
        let back = pxml_core::proxml::from_xml(&xml).unwrap();
        prop_assert!(structural_equivalent_exhaustive(&tree, &back, 16).unwrap());
    }

    /// The generic XML writer/parser round-trips arbitrary data trees.
    #[test]
    fn xml_datatree_roundtrip(spec in tree_spec_strategy()) {
        let tree = spec.build();
        let element = pxml_xml::datatree::datatree_to_element(&tree);
        let text = pxml_xml::writer::write_document(&element);
        let reparsed = pxml_xml::parser::parse(&text).unwrap();
        let back = pxml_xml::datatree::element_to_datatree(&reparsed);
        prop_assert!(isomorphic(&tree, &back, Semantics::MultiSet));
    }
}
