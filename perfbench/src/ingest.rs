//! `ingest`: single-service commits against one warehouse document of 12 501
//! nodes that carries extraction history, with no views.
//!
//! Every service has a distinguishing name value, so a pattern matches
//! exactly one service, and every fact has a unique value. A commit either
//! inserts one fact under one service or probabilistically retracts one
//! fact, so each delta is a few nodes while the document keeps its size:
//! `pxml_core::update` (staging) and `pxml_core::document` (the commit under
//! the exclusive lock) do nearly all the work.

use std::sync::Arc;
use std::time::Instant;

use pxml_core::update::{ProbabilisticUpdate, UpdateOperation};
use pxml_core::{PatternQuery, ProbTree, UpdateDelta};
use pxml_events::{Condition, EventId, Literal};
use pxml_tree::DataTree;
use pxml_workloads::warehouse::FACT_LABELS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Class, Counters, Outcome, Passes, Setups};
use crate::speed::Gauge;
use crate::store::Store;
use crate::trace;

/// Services in the document.
const SERVICES: usize = 500;
/// Facts per service. With the service node, its name and the name's
/// value, the document starts at `1 + SERVICES * (3 + 2 * FACTS)` nodes.
const FACTS: usize = 11;
/// Events the facts' conditions range over.
const EVENTS: usize = 2_000;
/// Commits run before timing starts, discarded.
const WARMUP: usize = 3;
/// Timed commits per pass: a p90 tail with ten samples beyond it. With the
/// warm-up they stay inside the document's 256-entry delta log.
const TIMED: usize = 100;
/// Every fourth commit is an insertion; the others are retractions.
const INSERT_EVERY: usize = 4;
/// Passes over the commits, each from its own set-up; a commit's latency
/// is its median over the passes.
const PASSES: usize = 6;
/// Extra `setup_s` samples after each pass's timed commits, so that the
/// samples spread over the run without disturbing a timed commit.
const EXTRA_SETUPS: usize = 2;
/// Set-ups timed together as one `setup_s` sample.
const SETUP_BATCH: u32 = 20;

const START_NODES: usize = 1 + SERVICES * (3 + 2 * FACTS);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Retract,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Retract => "retract",
        }
    }

    /// Nodes one commit adds: an insertion grafts a fact and its value; a
    /// retraction replaces the fact by one survivor copy of the same size.
    fn growth(self) -> usize {
        match self {
            Kind::Insert => 2,
            Kind::Retract => 0,
        }
    }
}

struct Commit {
    kind: Kind,
    update: ProbabilisticUpdate,
}

/// A fact of the generated document: its service, label and value.
struct Fact {
    service: usize,
    label: &'static str,
    value: String,
}

/// Matches exactly the service whose name value is `svc{service}`.
fn service_pattern(service: usize) -> PatternQuery {
    let mut pattern = PatternQuery::new(Some("service"));
    let name = pattern.add_child(pattern.root(), "name");
    pattern.add_child(name, &format!("svc{service}"));
    pattern
}

fn document(rng: &mut StdRng) -> (ProbTree, Vec<Fact>) {
    let mut tree = ProbTree::new("warehouse");
    let events: Vec<EventId> = (0..EVENTS)
        .map(|i| {
            tree.events_mut()
                .insert(format!("x{i}"), rng.gen_range(0.5..0.99))
        })
        .collect();
    let root = tree.tree().root();
    let mut facts = Vec::with_capacity(SERVICES * FACTS);
    for service in 0..SERVICES {
        let node = tree.add_child(root, "service", Condition::always());
        let name = tree.add_child(node, "name", Condition::always());
        tree.add_child(name, format!("svc{service}"), Condition::always());
        for fact in 0..FACTS {
            let label = FACT_LABELS[fact % FACT_LABELS.len()];
            let claimed = rng.gen_range(0..EVENTS);
            // Every fourth fact was claimed, then probabilistically retracted.
            let condition = if fact % 4 == 3 {
                let retracted = (claimed + rng.gen_range(1..EVENTS)) % EVENTS;
                Condition::from_literals([
                    Literal::pos(events[claimed]),
                    Literal::neg(events[retracted]),
                ])
            } else {
                Condition::of(Literal::pos(events[claimed]))
            };
            let value = format!("v{service}_{fact}");
            let fact_node = tree.add_child(node, label, condition);
            tree.add_child(fact_node, value.clone(), Condition::always());
            facts.push(Fact {
                service,
                label,
                value,
            });
        }
    }
    (tree, facts)
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The warm-up commits, then the timed ones in a seeded order.
fn commits(rng: &mut StdRng, facts: &[Fact]) -> Vec<Commit> {
    let mut kinds: Vec<Kind> = (0..WARMUP + TIMED)
        .map(|i| {
            if i % INSERT_EVERY == 0 {
                Kind::Insert
            } else {
                Kind::Retract
            }
        })
        .collect();
    shuffle(&mut kinds[WARMUP..], rng);
    kinds
        .into_iter()
        .enumerate()
        .map(|(index, kind)| {
            let operation = match kind {
                Kind::Insert => {
                    let pattern = service_pattern(rng.gen_range(0..SERVICES));
                    let at = pattern.root();
                    let mut fact = DataTree::new(FACT_LABELS[index % FACT_LABELS.len()]);
                    let fact_root = fact.root();
                    fact.add_child(fact_root, format!("n{index}"));
                    UpdateOperation::insert(pattern, at, fact)
                }
                Kind::Retract => {
                    let target = &facts[rng.gen_range(0..facts.len())];
                    let mut pattern = service_pattern(target.service);
                    let fact = pattern.add_child(pattern.root(), target.label);
                    pattern.add_child(fact, &target.value);
                    UpdateOperation::delete(pattern, fact)
                }
            };
            let update = ProbabilisticUpdate::new(operation, rng.gen_range(0.5..0.99));
            Commit { kind, update }
        })
        .collect()
}

/// What the generator predicts for the next commit.
struct Expected {
    epoch: u64,
    nodes: usize,
}

impl Expected {
    /// Checks one commit: it lands at the next epoch, matches once, and
    /// grows the document as its kind predicts. Tracking continues from
    /// what the commit actually did, so one failure does not cascade.
    fn check(&mut self, result: &Result<Arc<UpdateDelta>, String>, kind: Kind) -> bool {
        let Ok(delta) = result else { return false };
        let report = &delta.report;
        let ok = delta.epoch == self.epoch + 1
            && report.matches == 1
            && report.nodes_before == self.nodes
            && report.nodes_after == self.nodes + kind.growth();
        self.epoch = delta.epoch;
        self.nodes = report.nodes_after;
        ok
    }
}

/// One set-up: the inputs from the seed, and the document registered.
fn set_up<S: Store>(make: &impl Fn() -> S, seed: u64) -> (S, Vec<Commit>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (tree, facts) = document(&mut rng);
    let commits = commits(&mut rng, &facts);
    let mut store = make();
    store.set_tracing(true);
    store.register(tree);
    store.set_tracing(false);
    (store, commits)
}

pub fn run<S: Store>(make: impl Fn() -> S, seed: u64) -> Outcome {
    let (mut setups, mut gauge) = (Setups::new(1 + EXTRA_SETUPS), Gauge::default());
    let (mut passes, mut spans) = (Passes::default(), Vec::new());
    let (mut failed, mut checks_passed, mut sizes) = (0, true, Vec::new());
    for _ in 0..PASSES {
        let (mut store, commits) =
            setups.time_batch(SETUP_BATCH, &mut gauge, || set_up(&make, seed));
        let mut expected = Expected {
            epoch: 0,
            nodes: START_NODES,
        };
        for commit in &commits[..WARMUP] {
            checks_passed &= expected.check(&store.commit(0, &commit.update), commit.kind);
        }

        let mut class = Class::new("commit");
        let mut counters = Counters::default();
        store.set_tracing(true);
        gauge.next();
        for commit in &commits[WARMUP..] {
            let begin = Instant::now();
            let result = store.commit(0, &commit.update);
            let elapsed = begin.elapsed();
            class.push(commit.kind.name(), elapsed, gauge.next());
            failed += usize::from(!expected.check(&result, commit.kind));
            if let Ok(delta) = &result {
                counters.add_commit(delta);
            }
        }
        store.set_tracing(false);
        for _ in 0..EXTRA_SETUPS {
            drop(setups.time_batch(SETUP_BATCH, &mut gauge, || set_up(&make, seed)));
        }

        let (epoch, tree) = store.snapshot(0);
        checks_passed &= epoch == (WARMUP + TIMED) as u64
            && tree.num_nodes() == expected.nodes
            && tree.validate_invariants().is_ok();
        counters.add_document(&tree);

        let retractions = commits[WARMUP..]
            .iter()
            .filter(|commit| commit.kind == Kind::Retract)
            .count();
        sizes = vec![
            format!(
                "one document, no views: {SERVICES} services x {FACTS} facts over {EVENTS} \
                 events; {START_NODES} nodes before the warm-up, {} after a pass",
                expected.nodes
            ),
            format!(
                "{PASSES} passes, each from its own set-up: {WARMUP} warm-up + {TIMED} timed \
                 commits on one service each, {} fact insertions and {retractions} \
                 probabilistic retractions of one fact",
                TIMED - retractions
            ),
        ];
        trace::append(&mut spans, store.take_spans());
        passes.add(vec![class], counters);
    }
    Outcome::new(passes, failed, checks_passed, setups, gauge, sizes, spans)
}
