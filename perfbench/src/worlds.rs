//! `worlds`: a fixed batch of prob-trees, each folded by
//! `semantics::possible_worlds_normalized` under its default configuration.
//!
//! Even batch positions hold one dense co-occurrence component of 13 or 14
//! events beside two small ones, so shard enumeration and the joint combine
//! both carry weight; odd positions split 10 events into small components,
//! so the joint combine carries it. Each position has a fixed shape, and the
//! plain-node count varies across positions so per-tree costs spread evenly
//! over one range on which the two kinds overlap: the median never falls
//! between two modes. The seed picks polarities, probabilities and where
//! each node hangs. Conditioned nodes hang only under unconditioned ones, so
//! a world's size, and hence a fold's cost, does not depend on placement.
//! Only `pxml_core::worlds`, `pxml_events` and `pxml_tree::canon` work here.

use std::time::Instant;

use pxml_core::semantics::{possible_worlds, possible_worlds_normalized};
use pxml_core::{
    FactorizedWorlds, PossibleWorldSet, ProbTree, WorldEngine, WorldEngineConfig,
    DEFAULT_MAX_EXHAUSTIVE_EVENTS,
};
use pxml_events::{Condition, Literal};
use pxml_tree::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Class, Counters, Outcome, Passes, Setups};
use crate::speed::Gauge;
use crate::trace::{Span, Tracer};

/// Trees in the batch: the tail of 120 folds is p90, with 12 beyond it.
const TREES: usize = 120;
/// Timed passes over the batch, after one warm-up pass; a fold's latency is
/// its median over the passes. An extra set-up follows every pass, which spreads
/// `setup_s`'s samples over the run.
const PASSES: usize = 6;
/// The event budget `possible_worlds_normalized` is called with.
const MAX_EVENTS: usize = DEFAULT_MAX_EXHAUSTIVE_EVENTS;
/// Trees declaring at most this many events are also checked, in the
/// warm-up, against the legacy Definition-4 enumeration.
const LEGACY_EVENTS: usize = 12;

/// The component structure of one tree.
struct Shape {
    /// Events of the dense component, 0 for none. They are tied by one
    /// condition over all of them, plus `pairs` two-event conditions.
    dense: usize,
    pairs: usize,
    /// Events of each small component. Each is tied by one condition over
    /// all its events, plus one single-event condition per event.
    small: Vec<usize>,
    /// Nodes without a condition.
    plain: usize,
}

fn shape(position: usize) -> Shape {
    let level = position / 2;
    // Every value of 20..=79 once over the 60 levels, in a scattered order.
    let plain = 20 + level * 17 % 60;
    if position.is_multiple_of(2) {
        Shape {
            dense: 13 + level % 2,
            pairs: 3,
            small: vec![3, 2],
            plain,
        }
    } else {
        Shape {
            dense: 0,
            pairs: 0,
            small: vec![3, 2, 2, 2],
            plain,
        }
    }
}

/// Grows a tree whose unconditioned nodes form a random tree under the
/// root, with every conditioned node hanging under one of them; every label
/// is unique.
struct Grower {
    tree: ProbTree,
    plain: Vec<NodeId>,
    labels: usize,
}

impl Grower {
    fn node(&mut self, condition: Condition, rng: &mut StdRng) {
        let parent = self.plain[rng.gen_range(0..self.plain.len())];
        let unconditioned = condition.is_empty();
        self.labels += 1;
        let node = self
            .tree
            .add_child(parent, format!("n{}", self.labels), condition);
        if unconditioned {
            self.plain.push(node);
        }
    }

    /// Declares `count` fresh events, each used with one seeded polarity.
    fn literals(&mut self, count: usize, rng: &mut StdRng) -> Vec<Literal> {
        (0..count)
            .map(|_| {
                let event = self.tree.events_mut().fresh(rng.gen_range(0.2..0.8));
                if rng.gen_bool(0.5) {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                }
            })
            .collect()
    }
}

fn build(shape: &Shape, rng: &mut StdRng) -> ProbTree {
    let tree = ProbTree::new("doc");
    let root = tree.tree().root();
    let mut grower = Grower {
        tree,
        plain: vec![root],
        labels: 0,
    };
    for _ in 0..shape.plain {
        grower.node(Condition::always(), rng);
    }
    if shape.dense > 0 {
        let literals = grower.literals(shape.dense, rng);
        grower.node(Condition::from_literals(literals.iter().copied()), rng);
        for pair in literals.chunks(2).take(shape.pairs) {
            grower.node(Condition::from_literals(pair.iter().copied()), rng);
        }
    }
    for &events in &shape.small {
        let literals = grower.literals(events, rng);
        grower.node(Condition::from_literals(literals.iter().copied()), rng);
        for &literal in &literals {
            grower.node(Condition::of(literal), rng);
        }
    }
    grower.tree
}

/// The factorization's exact counters for one fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shards {
    states: u64,
    joint: u64,
    classes: u64,
}

impl Shards {
    fn of(factorized: &FactorizedWorlds<'_>) -> Self {
        Shards {
            states: factorized.states_enumerated(),
            joint: u64::try_from(factorized.num_joint_assignments())
                .expect("joint combines stay inside the event budget"),
            classes: factorized
                .shards()
                .iter()
                .map(|shard| shard.assignments.len() as u64)
                .sum(),
        }
    }
}

/// One fold's output, with the factorization's counters when the folder
/// saw it.
pub struct Folded {
    worlds: PossibleWorldSet,
    shards: Option<Shards>,
}

/// Folds a prob-tree into its normalized possible worlds, one way or the
/// other.
pub trait Folder {
    fn fold(&mut self, tree: &ProbTree) -> Result<Folded, String>;
    /// Starts or stops recording spans; without a tracer, nothing.
    fn set_tracing(&mut self, _on: bool) {}
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

/// The entry point analysts call.
#[derive(Default)]
pub struct Public;

impl Folder for Public {
    fn fold(&mut self, tree: &ProbTree) -> Result<Folded, String> {
        let worlds = possible_worlds_normalized(tree, MAX_EVENTS).map_err(|e| e.to_string())?;
        Ok(Folded {
            worlds,
            shards: None,
        })
    }
}

/// The calls `possible_worlds_normalized` makes, with a span around each.
pub struct Layered {
    config: WorldEngineConfig,
    tracer: Tracer,
}

impl Default for Layered {
    fn default() -> Self {
        Layered {
            config: engine_config(),
            tracer: Tracer::default(),
        }
    }
}

impl Folder for Layered {
    fn fold(&mut self, tree: &ProbTree) -> Result<Folded, String> {
        let tracer = &mut self.tracer;
        let request = tracer.request("fold");
        let span = tracer.begin("worlds.plan");
        let engine = WorldEngine::new(tree);
        tracer.end(span);
        let span = tracer.begin("worlds.enumerate");
        let factorized = engine.sharded(&self.config, MAX_EVENTS);
        tracer.end(span);
        let factorized = match factorized {
            Ok(factorized) => factorized,
            Err(error) => {
                tracer.end(request);
                return Err(error.to_string());
            }
        };
        let span = tracer.begin("worlds.combine");
        let worlds = factorized.normalized_worlds();
        tracer.end(span);
        tracer.end(request);
        Ok(Folded {
            worlds: worlds.map_err(|e| e.to_string())?,
            shards: Some(Shards::of(&factorized)),
        })
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.tracer.take()
    }
}

/// The executor configuration `possible_worlds_normalized` builds for its
/// event budget. Environment overrides are refused before a run starts.
fn engine_config() -> WorldEngineConfig {
    WorldEngineConfig::for_event_budget(MAX_EVENTS).with_joint_cap_bits(MAX_EVENTS)
}

/// What set-up knows about one tree before any timed fold.
struct Reference {
    dense: bool,
    events: usize,
    components: usize,
    shards: Shards,
}

fn reference(tree: &ProbTree, dense: bool) -> Reference {
    let engine = WorldEngine::new(tree);
    let factorized = engine
        .sharded(&engine_config(), MAX_EVENTS)
        .expect("every tree fits the event budget");
    Reference {
        dense,
        events: tree.events().len(),
        components: engine.components().len(),
        shards: Shards::of(&factorized),
    }
}

/// A fold agrees with the legacy Definition-4 semantics wherever the tree
/// declares few enough events to enumerate them all.
fn agrees_with_legacy(tree: &ProbTree, folded: &Folded) -> bool {
    tree.events().len() > LEGACY_EVENTS
        || possible_worlds(tree, LEGACY_EVENTS)
            .is_ok_and(|legacy| folded.worlds.isomorphic(&legacy.normalized()))
}

/// Every fold's worlds sum to 1, and its factorization matches set-up's.
fn sound(folded: &Folded, reference: &Reference) -> bool {
    (folded.worlds.total_probability() - 1.0).abs() <= 1e-9
        && folded
            .shards
            .is_none_or(|shards| shards == reference.shards)
}

/// A hash of a fold's output: each world's size and probability bits, in
/// order.
fn checksum(worlds: &PossibleWorldSet) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for (world, probability) in worlds.iter() {
        for word in [world.len() as u64, probability.to_bits()] {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One set-up: the batch from the seed, and each tree's reference answers.
fn set_up<F: Folder>(make: &impl Fn() -> F, seed: u64) -> (F, Vec<ProbTree>, Vec<Reference>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<ProbTree> = (0..TREES)
        .map(|position| build(&shape(position), &mut rng))
        .collect();
    let references: Vec<Reference> = trees
        .iter()
        .enumerate()
        .map(|(position, tree)| reference(tree, position.is_multiple_of(2)))
        .collect();
    (make(), trees, references)
}

pub fn run<F: Folder>(make: impl Fn() -> F, seed: u64) -> Outcome {
    // One set-up before the warm-up, and one after every pass.
    let (mut setups, mut gauge) = (Setups::new(1), Gauge::default());
    let (mut folder, trees, references) = setups.time(&mut gauge, || set_up(&make, seed));

    // The warm-up pass also runs the legacy oracle and records each tree's
    // output, which every timed fold must repeat exactly.
    let mut checks_passed = true;
    let mut expected = Vec::with_capacity(TREES);
    for (tree, reference) in trees.iter().zip(&references) {
        let output = match folder.fold(tree) {
            Ok(folded) => {
                checks_passed &= sound(&folded, reference) && agrees_with_legacy(tree, &folded);
                checksum(&folded.worlds)
            }
            Err(_) => {
                checks_passed = false;
                0
            }
        };
        expected.push(output);
    }

    let mut passes = Passes::default();
    let mut failed = 0;
    folder.set_tracing(true);
    for _ in 0..PASSES {
        let mut class = Class::new("fold");
        let mut counters = Counters::default();
        gauge.next();
        for ((tree, reference), &output) in trees.iter().zip(&references).zip(&expected) {
            let begin = Instant::now();
            let result = folder.fold(tree);
            let elapsed = begin.elapsed();
            let kind = if reference.dense { "dense" } else { "sparse" };
            class.push(kind, elapsed, gauge.next());
            let Ok(folded) = result else {
                failed += 1;
                continue;
            };
            let hash = checksum(&folded.worlds);
            failed += usize::from(!sound(&folded, reference) || hash != output);
            counters.add("worlds.worlds_out", folded.worlds.len() as u64);
            counters.add("worlds.checksum", hash);
            // Only the traced run sees the factorization; `sound` has checked
            // it against set-up's.
            if let Some(shards) = folded.shards {
                counters.add("worlds.states_enumerated", shards.states);
                counters.add("worlds.joint_assignments", shards.joint);
                counters.add("worlds.classes", shards.classes);
            }
        }
        passes.add(vec![class], counters);
        drop(setups.time(&mut gauge, || set_up(&make, seed)));
    }
    folder.set_tracing(false);

    let extent = |value: fn(&Reference) -> u64| {
        let values = references.iter().map(value);
        let (low, high) = (values.clone().min(), values.max());
        format!("{}..={}", low.unwrap_or(0), high.unwrap_or(0))
    };
    let dense = references.iter().filter(|r| r.dense).count();
    let sizes = vec![
        format!(
            "{TREES} trees: {dense} dense (one 13- or 14-event component beside two small \
             ones), {} sparse (four components of 2-3 events); 1 warm-up + {PASSES} timed passes",
            TREES - dense
        ),
        format!(
            "per tree: {} events, {} components, {} shard states, {} joint assignments",
            extent(|r| r.events as u64),
            extent(|r| r.components as u64),
            extent(|r| r.shards.states),
            extent(|r| r.shards.joint),
        ),
        format!(
            "{} trees also checked against the legacy enumeration (at most {LEGACY_EVENTS} events)",
            references
                .iter()
                .filter(|r| r.events <= LEGACY_EVENTS)
                .count()
        ),
    ];
    let spans = folder.take_spans();
    Outcome::new(passes, failed, checks_passed, setups, gauge, sizes, spans)
}
