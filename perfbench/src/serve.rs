//! `serve`: dozens of small tenants, each with four hub views on
//! `services_with_endpoint_and_contact`, under a fixed interleave. In every
//! round each tenant of a group takes one corpus-wide `scenario_script`
//! commit, then a burst of reads cycling its four views.
//!
//! Each tenant takes one of sixteen fixed `scenario_script` schedules
//! (insertion or retraction, the fact label and the confidence of every
//! commit), the same sixteen on every seed; the seed deals them out to the
//! tenants, which fixes the groups they run in and their order, and picks
//! the reads the oracle checks. So every seed does the same work. A
//! corpus-wide commit gives every service of a tenant the same
//! probabilities, so an `above` read returns all of the tenant's answers
//! or none of them; were the confidences drawn from the seed, the seed
//! would choose how many `above` reads select nothing and move the read
//! median.
//!
//! The first read of each view after a commit pays the hub's lazy
//! maintenance: a window patch, or a re-prepare fallback when the commit
//! touched the query's labels. Those stale reads are a fixed share of every
//! burst, `4 / BURST`. The hub (`pxml_server::hub`) and the query engine do
//! most of the work; the commits' deltas grow with the documents and land
//! beside reads on the same documents.

use std::sync::Arc;
use std::time::Instant;

use pxml_core::query::Query;
use pxml_core::update::ProbabilisticUpdate;
use pxml_core::{QueryEngine, UpdateAction};
use pxml_tree::SubDataTree;
use pxml_workloads::warehouse::{
    scenario_script, services_with_endpoint_and_contact, skeleton, WarehouseConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ingest::shuffle;
use crate::report::{Class, Counters, Outcome, Passes, Setups};
use crate::speed::Gauge;
use crate::store::{self, ReadKind, Served, Store, READ_KINDS};
use crate::trace;

/// Tenants, each one document.
const TENANTS: usize = 16;
/// Services in each tenant's skeleton.
const SERVICES: usize = 64;
/// Extraction commits replayed into each tenant in set-up.
const HISTORY: usize = 12;
/// Timed rounds, after one warm-up round.
const ROUNDS: usize = 12;
/// Tenants that run their rounds together, round-robin, before the next
/// group starts. The documents grow round by round, so the dearest stale
/// reads come in a group's last rounds; with several groups they fall at
/// several points of the run instead of all at its end.
const GROUP: usize = 4;
/// Reads per tenant after each commit; the first read of each view is
/// stale. With `TENANTS * ROUNDS * BURST` = 3 840 reads, the read tail is
/// p99, the top 5% of the stale reads.
const BURST: usize = 20;
/// Share of scenario commits that are retractions.
const DELETION_RATIO: f64 = 0.25;
/// Passes over the rounds, each from its own set-up; an op's latency is its
/// median over the passes. An extra set-up follows every pass, which spreads
/// `setup_s`'s samples over the run.
const PASSES: usize = 5;
/// Seeds the `s`-th commit schedule as `SCHEDULE + s`, on every run.
const SCHEDULE: u64 = 0x2007_0611;

/// A read's result in comparable form, probabilities as bits.
#[derive(Debug, PartialEq)]
enum ReadOut {
    Answers(Vec<(SubDataTree, u64)>),
    Expected(u64),
    Possible(usize),
}

impl ReadOut {
    fn of(served: &Served) -> Self {
        match served {
            Served::Answers(answers) => ReadOut::Answers(
                answers
                    .iter()
                    .map(|answer| (answer.subtree.clone(), answer.probability.to_bits()))
                    .collect(),
            ),
            Served::Expected(expected) => ReadOut::Expected(expected.to_bits()),
            Served::Possible(count) => ReadOut::Possible(*count),
        }
    }
}

/// The scalar a read adds to the read checksum.
fn value(served: &Served, kind: ReadKind) -> f64 {
    match served {
        Served::Answers(answers) if kind == ReadKind::Top => answers.total_probability(),
        Served::Answers(answers) => answers.len() as f64,
        Served::Expected(expected) => *expected,
        Served::Possible(count) => *count as f64,
    }
}

fn total_nodes(store: &impl Store) -> usize {
    (0..TENANTS)
        .map(|tenant| store.snapshot(tenant).1.num_nodes())
        .sum()
}

/// One set-up: every tenant's commits from the seed, then its document
/// registered, its history replayed and its four views prepared.
fn set_up<S: Store>(
    make: &impl Fn() -> S,
    seed: u64,
    query: &Arc<dyn Query>,
) -> (S, Vec<Vec<ProbabilisticUpdate>>) {
    let config = WarehouseConfig {
        services: SERVICES,
        extraction_rounds: HISTORY + 1 + ROUNDS,
        deletion_ratio: DELETION_RATIO,
    };
    let mut schedules: Vec<u64> = (0..TENANTS as u64).collect();
    shuffle(&mut schedules, &mut StdRng::seed_from_u64(seed));
    let scripts: Vec<Vec<ProbabilisticUpdate>> = schedules
        .into_iter()
        .map(|schedule| {
            let mut schedule = StdRng::seed_from_u64(SCHEDULE + schedule);
            scenario_script(&config, &mut schedule).0.steps().to_vec()
        })
        .collect();
    let mut store = make();
    for script in &scripts {
        store.set_tracing(true);
        let doc = store.register(skeleton(SERVICES));
        store.set_tracing(false);
        for update in &script[..HISTORY] {
            store.commit(doc, update).expect("history commits succeed");
        }
        store.set_tracing(true);
        for kind in READ_KINDS {
            store.register_view(doc, kind, Arc::clone(query));
        }
        store.set_tracing(false);
    }
    (store, scripts)
}

pub fn run<S: Store>(make: impl Fn() -> S, seed: u64) -> Outcome {
    let query = services_with_endpoint_and_contact();
    let footprint = query
        .label_footprint()
        .expect("the pattern's labels are concrete");
    let shared: Arc<dyn Query> = Arc::new(query.clone());
    let engine = QueryEngine::new();

    // Each pass's own set-up, and the extra one after it.
    let (mut setups, mut gauge) = (Setups::new(2), Gauge::default());
    let (mut passes, mut spans) = (Passes::default(), Vec::new());
    let (mut failed, mut checks_passed, mut sizes) = (0, true, Vec::new());
    for _ in 0..PASSES {
        let (mut store, scripts) = setups.time(&mut gauge, || set_up(&make, seed, &shared));
        let nodes_before = total_nodes(&store);
        let mut oracle = StdRng::seed_from_u64(seed ^ 0x5EED_0AC1E);
        let mut epochs = [HISTORY as u64; TENANTS];
        let (mut commits, mut reads) = (Class::new("commit"), Class::new("read"));
        let mut counters = Counters::default();
        let mut checksum = 0.0;
        // One group of tenants after another, each through all its rounds;
        // round 0 of each group is its warm-up.
        for first in (0..TENANTS).step_by(GROUP) {
            let group = first..first + GROUP;
            for round in 0..=ROUNDS {
                let timed = round > 0;
                let mut outcome = |ok: bool| {
                    if timed {
                        failed += usize::from(!ok);
                    } else {
                        checks_passed &= ok;
                    }
                };
                let mut sampled = Vec::with_capacity(GROUP);
                store.set_tracing(timed);
                // The kernel runs before each commit and after its burst of
                // reads; the commit and the reads share its time around them.
                gauge.next();
                for tenant in group.clone() {
                    let update = &scripts[tenant][HISTORY + round];
                    let begin = Instant::now();
                    let committed = store.commit(tenant, update);
                    let commit_time = begin.elapsed();
                    let mut stale = "stale-patch";
                    match &committed {
                        Ok(delta) => {
                            outcome(delta.epoch == epochs[tenant] + 1);
                            epochs[tenant] = delta.epoch;
                            if delta.touches(&footprint) {
                                stale = "stale-fallback";
                            }
                            if timed {
                                counters.add_commit(delta);
                            }
                        }
                        Err(_) => outcome(false),
                    }
                    let pick = oracle.gen_range(0..BURST);
                    let mut burst = Vec::with_capacity(BURST);
                    for read in 0..BURST {
                        let kind = READ_KINDS[(read + tenant + round) % READ_KINDS.len()];
                        let begin = Instant::now();
                        let served = store.read(tenant, kind);
                        let elapsed = begin.elapsed();
                        if timed {
                            let label = if read < READ_KINDS.len() {
                                stale
                            } else {
                                kind.view()
                            };
                            burst.push((label, elapsed));
                        }
                        let Ok(served) = served else {
                            outcome(false);
                            continue;
                        };
                        if timed {
                            checksum += value(&served, kind);
                            if let Served::Answers(answers) = &served {
                                counters.add_selection(answers.stats());
                            }
                        }
                        if read == pick {
                            sampled.push((tenant, kind, epochs[tenant], ReadOut::of(&served)));
                        }
                    }
                    let around = gauge.next();
                    if timed {
                        let retraction =
                            matches!(update.operation.action, UpdateAction::Delete { .. });
                        let kind = if retraction { "retract" } else { "insert" };
                        commits.push(kind, commit_time, around);
                    }
                    for (label, elapsed) in burst {
                        reads.push(label, elapsed, around);
                    }
                }
                store.set_tracing(false);
                // Oracle, outside every timed interval: the sampled reads
                // against fresh prepares on snapshots at the epochs they were
                // served at.
                for (tenant, kind, epoch, served) in sampled {
                    let (now, tree) = store.snapshot(tenant);
                    let fresh = engine.prepare(&tree, &query);
                    outcome(now == epoch && ReadOut::of(&store::select(&fresh, kind)) == served);
                }
            }
        }

        for tenant in 0..TENANTS {
            let (epoch, tree) = store.snapshot(tenant);
            checks_passed &=
                epoch == (HISTORY + 1 + ROUNDS) as u64 && tree.validate_invariants().is_ok();
            counters.add_document(&tree);
        }
        counters.add_hub(&store.hub_stats());
        counters.add("read.checksum", checksum.to_bits());

        sizes = vec![
            format!(
                "{TENANTS} tenants x {SERVICES} services; each replays {HISTORY} scenario \
                 commits in set-up, then registers 4 hub views on \
                 services_with_endpoint_and_contact"
            ),
            format!(
                "document nodes over all tenants: {nodes_before} after set-up, {} after a pass",
                total_nodes(&store)
            ),
            format!(
                "per tenant and round: 1 corpus-wide commit, then {BURST} reads cycling the 4 \
                 views; stale reads (first read of each view) are {:.0}% of reads",
                100.0 * READ_KINDS.len() as f64 / BURST as f64
            ),
            format!(
                "{PASSES} passes, each from its own set-up: {} groups of {GROUP} tenants, one \
                 after another, each through 1 warm-up + {ROUNDS} timed rounds; {} commits and \
                 {} reads a pass",
                TENANTS / GROUP,
                commits.samples.len(),
                reads.samples.len()
            ),
        ];
        trace::append(&mut spans, store.take_spans());
        passes.add(vec![reads, commits], counters);
        drop(store);
        drop(setups.time(&mut gauge, || set_up(&make, seed, &shared)));
    }
    Outcome::new(passes, failed, checks_passed, setups, gauge, sizes, spans)
}
