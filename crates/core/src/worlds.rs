//! The relevant-event world engine.
//!
//! Every exhaustive operation on a prob-tree — computing `JT K`
//! (Definition 4), threshold and DTD restriction, structural and semantic
//! equivalence, the Theorem 1 cross-check — ultimately enumerates
//! valuations of the event variables. The naive baseline
//! ([`crate::semantics::possible_worlds`]) walks all `2^{|W|}` valuations
//! of the *declared* event table, so its cost is exponential in how many
//! events were declared rather than in how many the tree actually *uses*.
//!
//! [`WorldEngine`] fixes that asymmetry:
//!
//! 1. **Relevant events.** It computes the union of the condition supports
//!    over the tree. Flipping an event no condition mentions never changes
//!    `V(T)`, so such events can be marginalized analytically (their true
//!    and false branches sum to 1) and only valuations of the relevant
//!    events need to be materialized.
//! 2. **Streaming normalization.** Instead of collecting one cloned world
//!    per valuation and canonicalizing in a second pass, worlds are
//!    streamed into an interned canonical-form accumulator
//!    (`HashMap<canonical string, slot>`), so the *normalized* PW set is
//!    produced directly with one retained tree per isomorphism class.
//! 3. **Connected components & zero-probability pruning.** Relevant events
//!    are partitioned into connected components induced by co-occurrence
//!    in conditions. Events with `π(w) = 1` have a zero-probability false
//!    branch; in probability-weighted enumeration they are pinned true,
//!    pruning the whole component subtree of assignments below the dead
//!    branch. Components are ordered by a total criterion (length, then
//!    event ids), so shard iteration order is identical no matter in
//!    which order conditions were inserted.
//! 4. **Factorized per-component shards.** Because co-occurrence drives
//!    the partition, *every condition's support lies inside exactly one
//!    component*. [`WorldEngine::sharded`] and
//!    [`WorldEngine::sharded_all`] exploit that: each component is
//!    enumerated independently (`2^{|C_i|}` partial assignments, so
//!    `Σ_c 2^{|C_i|}` enumeration states in total instead of
//!    `2^{|relevant|}`) into a [`ComponentShard`] accumulator — partial
//!    valuations of the component's events keyed by the truth signature
//!    they give the component's conditions, each carrying the marginal
//!    probability mass of its class. Once the plan predicts
//!    [`PARALLEL_SHARD_THRESHOLD`] states, independent components run on
//!    a scoped thread pool (plain `std` threads) of
//!    `min(available_parallelism, components)` workers; smaller plans run
//!    on the caller's thread. Shards are reassembled in component order
//!    either way, so the result is deterministic and independent of the
//!    thread count. Nothing is read from the environment, so the output
//!    is a function of the prob-tree, the configuration and the budget
//!    passed in.
//!
//! ## The shard-combine contract
//!
//! A [`FactorizedWorlds`] value answers two kinds of questions:
//!
//! * **Shard-local folds** never touch the cross product. A condition's
//!   support lives inside one component, so its probability is a fold over
//!   that single component's enumeration
//!   ([`FactorizedWorlds::condition_probability`] multiplies the
//!   per-component folds of an arbitrary conjunction — for independent
//!   events this re-derives the `O(|literals|)` analytic product
//!   [`Condition::probability`], so it serves as the decomposition's
//!   cross-check and as the template for aggregates without a closed
//!   form), and enumeration accounting
//!   ([`FactorizedWorlds::states_enumerated`],
//!   [`FactorizedWorlds::num_joint_assignments`]) is pure arithmetic over
//!   shard sizes.
//! * **Joint materialization is still forced** whenever the consumer needs
//!   actual worlds or valuations rather than aggregates: the normalized PW
//!   set (`JT K` has up to `Π_c` classes — the output itself is the cross
//!   product), DTD satisfiability/validity sweeps (a DTD couples sibling
//!   counts across components), and structural-equivalence/independence
//!   checks (they compare worlds per valuation). For those,
//!   [`FactorizedWorlds::joint_valuations`] lazily walks the cross product
//!   of the *deduplicated* shard classes — often far fewer than
//!   `2^{|relevant|}` states, guarded by
//!   [`WorldEngineConfig::max_joint_worlds`] — and recombines
//!   probabilities by product of the per-shard class masses.
//!
//! Shard classes merge assignments that give every condition of *this
//! engine's tree* the same truth values, so `FactorizedWorlds` is only
//! valid for consumers that observe valuations through those conditions
//! (worlds, world probabilities, condition folds). Consumers that
//! distinguish valuations beyond the tree's own conditions — the
//! [`WorldEngine::for_pair`] structural-equivalence setting, where the
//! second tree's conditions also matter, and the event-independence probe
//! — must keep using the exact enumerations
//! ([`WorldEngine::all_valuations`]).
//!
//! The factorized engine is exact: its output is isomorphic (`∼`) to the
//! normalized output of the full enumeration — a property-tested
//! invariant asserting the factorized shard executor ≡ legacy
//! [`crate::semantics::possible_worlds`], the single exhaustive oracle.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pxml_events::valuation::TooManyValuations;
use pxml_events::{Condition, EventId, Valuation};
use pxml_tree::canon::{canonical_string, Semantics};
use pxml_tree::DataTree;

use crate::probtree::ProbTree;
use crate::pwset::PossibleWorldSet;

/// Relevant-event world enumeration for one prob-tree (or a pair of
/// prob-trees over the same event table — see [`WorldEngine::for_pair`]).
#[derive(Clone, Debug)]
pub struct WorldEngine<'a> {
    tree: &'a ProbTree,
    /// Length of the valuations handed out (covers every declared event so
    /// conditions can be evaluated without re-indexing).
    valuation_len: usize,
    /// Union of the condition supports, sorted by event id.
    relevant: Vec<EventId>,
    /// Partition of `relevant` into connected components induced by
    /// co-occurrence in a condition; each component is sorted, and the
    /// component list follows the total shard order — length first, then
    /// event ids — so iteration is insertion-order independent.
    components: Vec<Vec<EventId>>,
}

impl<'a> WorldEngine<'a> {
    /// Builds the engine for one prob-tree: relevant events are the events
    /// mentioned by at least one node condition.
    pub fn new(tree: &'a ProbTree) -> Self {
        Self::build(tree, tree.events().len(), std::iter::empty())
    }

    /// Builds the engine with additional events forced into the relevant
    /// set (e.g. the event whose influence an independence check probes).
    pub fn with_extra_events<I: IntoIterator<Item = EventId>>(
        tree: &'a ProbTree,
        extra: I,
    ) -> Self {
        Self::build(tree, tree.events().len(), extra)
    }

    /// Builds the engine for a *pair* of prob-trees over the same declared
    /// event distribution (the structural-equivalence setting of
    /// Definition 9): relevant events are the union of both trees'
    /// condition supports, so one shared enumeration decides both values.
    /// Probabilities are read from `a`'s table.
    ///
    /// # Panics
    /// Panics if the two trees do not declare the same event distribution
    /// (structural equivalence is only defined in that case — callers that
    /// cannot guarantee it should check
    /// [`EventTable::same_distribution`](pxml_events::EventTable::same_distribution)
    /// first and short-circuit).
    pub fn for_pair(a: &'a ProbTree, b: &ProbTree) -> Self {
        assert!(
            a.events().same_distribution(b.events()),
            "WorldEngine::for_pair requires both prob-trees to declare the \
             same event variables and distribution"
        );
        let extra: Vec<EventId> = b
            .all_conditions()
            .into_iter()
            .flat_map(|c| c.events().collect::<Vec<_>>())
            .collect();
        Self::build(a, a.events().len(), extra)
    }

    fn build<I: IntoIterator<Item = EventId>>(
        tree: &'a ProbTree,
        valuation_len: usize,
        extra: I,
    ) -> Self {
        // Union-find over event indices, driven by co-occurrence inside a
        // single condition. `find` is iterative (chase then compress) so
        // that a long chain of pairwise co-occurring events cannot
        // overflow the stack.
        let mut parent: HashMap<EventId, EventId> = HashMap::new();
        fn find(parent: &mut HashMap<EventId, EventId>, e: EventId) -> EventId {
            let mut root = *parent.entry(e).or_insert(e);
            while parent[&root] != root {
                root = parent[&root];
            }
            let mut cur = e;
            while cur != root {
                let next = parent[&cur];
                parent.insert(cur, root);
                cur = next;
            }
            root
        }
        let union = |parent: &mut HashMap<EventId, EventId>, a: EventId, b: EventId| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent.insert(ra.max(rb), ra.min(rb));
            }
        };
        // `all_conditions` walks the shared representation directly —
        // handle conditions and stored-shape annotations included — so
        // world enumeration never needs to materialize shared subtrees.
        let conditions = tree.all_conditions();
        for condition in conditions {
            let mut events = condition.events();
            if let Some(first) = events.next() {
                find(&mut parent, first);
                for e in events {
                    union(&mut parent, first, e);
                }
            }
        }
        for e in extra {
            find(&mut parent, e);
        }

        let mut relevant: Vec<EventId> = parent.keys().copied().collect();
        relevant.sort_unstable();
        let mut groups: HashMap<EventId, Vec<EventId>> = HashMap::new();
        for &e in &relevant {
            groups.entry(find(&mut parent, e)).or_default().push(e);
        }
        let mut components: Vec<Vec<EventId>> = groups.into_values().collect();
        for component in &mut components {
            component.sort_unstable();
        }
        // Total order — length first, then the sorted event ids — so shard
        // iteration order is deterministic regardless of the order in which
        // conditions were declared or components popped out of the
        // union-find map.
        components.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));

        WorldEngine {
            tree,
            valuation_len,
            relevant,
            components,
        }
    }

    /// The prob-tree the engine enumerates.
    pub fn tree(&self) -> &ProbTree {
        self.tree
    }

    /// The relevant event set — the union of the condition supports (plus
    /// any extra events the engine was built with), sorted by id.
    pub fn relevant_events(&self) -> &[EventId] {
        &self.relevant
    }

    /// Number of relevant events (`k` in the `2^k` enumeration bound).
    pub fn num_relevant(&self) -> usize {
        self.relevant.len()
    }

    /// The connected components of the relevant events under co-occurrence
    /// in a condition. Enumeration is component-major, and the partition is
    /// the unit future per-component sharding operates on.
    pub fn components(&self) -> &[Vec<EventId>] {
        &self.components
    }

    /// The static shard plan of this engine's factorized enumeration:
    /// per-component free-event counts (after π = 1 pinning when
    /// `weighted`) and the predicted workload `Σ_c 2^{|free_c|}` —
    /// computed with cheap arithmetic, without enumerating a single
    /// world. [`WorldEngine::sharded`] takes its guards from this plan, so
    /// the prediction and the execution share one source of truth (the
    /// plan's [`ShardPlan::predicted_states`] equals the executor's
    /// [`FactorizedWorlds::states_enumerated`] exactly).
    pub fn shard_plan(&self, weighted: bool) -> ShardPlan {
        let events = self.tree.events();
        let free_sizes: Vec<usize> = self
            .components
            .iter()
            .map(|component| {
                component
                    .iter()
                    .filter(|&&e| !(weighted && events.prob(e) >= 1.0))
                    .count()
            })
            .collect();
        ShardPlan { free_sizes }
    }

    /// Enumeration of **all** `2^{|relevant|}` relevant partial valuations,
    /// component-major, including zero-probability branches. Structural
    /// equivalence (Definition 9) and event independence quantify over
    /// every valuation `V ⊆ W` regardless of probability, so they must not
    /// prune — and they never read probabilities, so none are computed on
    /// this path.
    ///
    /// Fails when the relevant set exceeds `max_events` (the same
    /// exponential-work guard as the legacy full enumeration, counting
    /// only events that actually matter).
    pub fn all_valuations(
        &self,
        max_events: usize,
    ) -> Result<RelevantValuations, TooManyValuations> {
        if self.relevant.len() > max_events {
            return Err(TooManyValuations {
                num_events: self.relevant.len(),
                max_events,
            });
        }
        Ok(RelevantValuations {
            free: self.components.concat(),
            next: Some(Valuation::empty(self.valuation_len)),
        })
    }

    /// Probability-weighted enumeration of a *single* component's partial
    /// valuations (all other events left false), in binary-counter order.
    /// With `prune_zero_probability`, events with `π(w) = 1` are pinned
    /// true.
    ///
    /// This is the raw, un-deduplicated per-component stream behind the
    /// factorized shard accumulators — `2^{|C_i|}` states for component
    /// `i` (fewer under pinning), independent of every other component.
    pub fn component_valuations(
        &self,
        component: usize,
        prune_zero_probability: bool,
    ) -> RelevantValuations {
        let events = self.tree.events();
        let mut start = Valuation::empty(self.valuation_len);
        let mut free = Vec::new();
        for &e in &self.components[component] {
            if prune_zero_probability && events.prob(e) >= 1.0 {
                start.set(e, true);
            } else {
                free.push(e);
            }
        }
        RelevantValuations {
            free,
            next: Some(start),
        }
    }

    /// Runs the factorized shard executor in probability-weighted mode:
    /// every component is enumerated independently (`Σ_c 2^{|C_i|}` states,
    /// `π(w) = 1` events pinned) into per-shard class accumulators. The
    /// per-component guard refuses components larger than `max_events`
    /// free events, and refuses when the *total* shard work
    /// `Σ_c 2^{|free_c|}` exceeds `2^{max_events}` — the same enumeration
    /// budget the joint guard grants, now spent per component.
    pub fn sharded(
        &self,
        config: &WorldEngineConfig,
        max_events: usize,
    ) -> Result<FactorizedWorlds<'a>, TooManyValuations> {
        self.run_shards(config, true, max_events, available_workers())
    }

    /// [`WorldEngine::sharded`] without zero-probability pruning: every
    /// `2^{|C_i|}` component assignment is enumerated, including the dead
    /// `π(w) = 1` false branches. This is the shard substrate for sweeps
    /// that quantify over *worlds* regardless of probability (brute-force
    /// DTD satisfiability and validity).
    pub fn sharded_all(
        &self,
        config: &WorldEngineConfig,
        max_events: usize,
    ) -> Result<FactorizedWorlds<'a>, TooManyValuations> {
        self.run_shards(config, false, max_events, available_workers())
    }

    /// Enumerates every component into a [`ComponentShard`] and wraps the
    /// result as [`FactorizedWorlds`]. `weighted` selects zero-probability
    /// pruning (the `JT K` semantics) vs the unpruned ∀-world sweep. The
    /// static [`ShardPlan`] supplies the budget guards; once it predicts
    /// [`PARALLEL_SHARD_THRESHOLD`] states, up to `workers` threads
    /// enumerate components concurrently. Shards are reassembled in
    /// component order, so the output does not depend on `workers`.
    fn run_shards(
        &self,
        config: &WorldEngineConfig,
        weighted: bool,
        max_events: usize,
        workers: usize,
    ) -> Result<FactorizedWorlds<'a>, TooManyValuations> {
        let plan = self.shard_plan(weighted);
        plan.check_budget(max_events)?;
        let num_components = self.components.len();
        let conditions = conditions_by_component(self);
        let workers = workers.min(num_components);
        let shards = if workers > 1 && plan.predicted_states() >= PARALLEL_SHARD_THRESHOLD {
            run_parallel(self, &conditions, weighted, workers)
        } else {
            (0..num_components)
                .map(|i| enumerate_component(self, i, &conditions[i], weighted))
                .collect()
        };
        Ok(FactorizedWorlds {
            engine: self.clone(),
            shards,
            weighted,
            max_joint_worlds: config.max_joint_worlds,
        })
    }
}

/// The worker threads the shard enumeration may use.
fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Iterator over the relevant partial valuations of a [`WorldEngine`], in
/// binary-counter order over the free events (component-major). Yields
/// full-length valuations — every declared event has a defined bit, so
/// [`ProbTree::value_in_world`] applies unchanged. No probabilities are
/// computed; the ∀-quantified consumers (equivalence, independence,
/// brute-force DTD checks) never need them.
#[derive(Debug)]
pub struct RelevantValuations {
    free: Vec<EventId>,
    next: Option<Valuation>,
}

impl Iterator for RelevantValuations {
    type Item = Valuation;

    fn next(&mut self) -> Option<Valuation> {
        let current = self.next.take()?;
        // Binary increment restricted to the free positions; stop after the
        // all-true assignment.
        let mut succ = current.clone();
        let mut carried = true;
        for &e in &self.free {
            if succ.get(e) {
                succ.set(e, false);
            } else {
                succ.set(e, true);
                carried = false;
                break;
            }
        }
        if !carried {
            self.next = Some(succ);
        }
        Some(current)
    }
}

/// Configuration of the factorized shard enumeration: how large a joint
/// cross product a shard-combining consumer may materialize.
///
/// The production call sites ([`crate::semantics::possible_worlds_normalized`]
/// and the DTD sweeps) use [`WorldEngineConfig::for_event_budget`]; callers
/// that want another joint cap use
/// [`WorldEngineConfig::with_joint_cap_bits`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldEngineConfig {
    /// Cap on the number of joint assignments (the product of the shard
    /// class counts) that [`FactorizedWorlds::joint_valuations`] and the
    /// consumers built on it may walk.
    pub max_joint_worlds: u128,
}

/// Minimum predicted shard work (total `Σ_c 2^{|free_c|}` states) before
/// the shard enumeration spawns worker threads; below it, thread setup
/// costs more than the enumeration itself.
pub const PARALLEL_SHARD_THRESHOLD: u128 = 4096;

impl Default for WorldEngineConfig {
    fn default() -> Self {
        WorldEngineConfig {
            max_joint_worlds: 1 << 24,
        }
    }
}

impl WorldEngineConfig {
    /// The configuration for consumers whose public contract is an
    /// event-count guard (`max_events`): a joint cap of exactly
    /// `2^{max_events}` — the enumeration budget the caller already
    /// granted, so every input with at most `max_events` relevant events
    /// is accepted.
    pub fn for_event_budget(max_events: usize) -> Self {
        WorldEngineConfig {
            max_joint_worlds: pow2_saturating(max_events),
        }
    }

    /// Caps `max_joint_worlds` at `2^bits` — used by consumers whose
    /// public contract is an event-count guard (`max_events`), so the
    /// joint combine never exceeds the work the caller budgeted for.
    pub fn with_joint_cap_bits(mut self, bits: usize) -> Self {
        self.max_joint_worlds = self.max_joint_worlds.min(pow2_saturating(bits));
        self
    }
}

/// `2^bits` as a `u128`, saturating instead of overflowing.
fn pow2_saturating(bits: usize) -> u128 {
    if bits >= 127 {
        u128::MAX
    } else {
        1u128 << bits
    }
}

/// One deduplicated partial assignment of a component's events: the
/// representative valuation (restricted to the component, every other
/// event false), the total semiring mass of its class, and how many raw
/// assignments the class merged.
///
/// Classes are keyed by the truth signature the assignment gives the
/// component's conditions — two assignments that satisfy exactly the same
/// conditions produce the same world contribution, so only their mass
/// matters downstream.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// Representative valuation of the class (the first one enumerated, in
    /// binary-counter order over the component's free events).
    pub valuation: Valuation,
    /// Total marginal probability of the class under the component's
    /// events (the masses of one weighted shard sum to 1).
    pub probability: f64,
    /// Number of raw component assignments merged into this class.
    pub merged: u64,
}

/// The per-component accumulator of the shard enumeration: the
/// component's events, its deduplicated assignment classes, and the raw
/// enumeration count (`2^{|free|}`) that produced them.
#[derive(Clone, Debug)]
pub struct ComponentShard {
    /// The component's events, sorted by id.
    pub events: Vec<EventId>,
    /// Events actually enumerated (`π(w) = 1` events are pinned true in
    /// weighted mode and excluded here).
    pub free: Vec<EventId>,
    /// Deduplicated assignment classes, in first-seen (binary-counter)
    /// order.
    pub assignments: Vec<ShardAssignment>,
    /// Raw assignments enumerated to build this shard: exactly
    /// `2^{|free|}`.
    pub states_enumerated: u64,
}

/// Error returned when combining shards would walk a joint cross product
/// larger than [`WorldEngineConfig::max_joint_worlds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JointTooLarge {
    /// Number of joint assignments the combine would have to walk (the
    /// product of the shard class counts).
    pub joint_assignments: u128,
    /// The configured cap.
    pub max_joint_worlds: u128,
}

impl std::fmt::Display for JointTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "combining shards would materialize {} joint assignments, \
             exceeding the configured cap of {}",
            self.joint_assignments, self.max_joint_worlds
        )
    }
}

impl std::error::Error for JointTooLarge {}

/// The static plan of a factorized world enumeration, produced by
/// [`WorldEngine::shard_plan`]: per-component free-event counts and the
/// predicted raw workload, all from arithmetic on the co-occurrence
/// partition — no possible world is touched. The `pxml_analysis` census
/// wraps this plan, and [`WorldEngine::sharded`] derives its budget
/// guards from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Free (actually enumerated) events per component, in the engine's
    /// deterministic component order.
    free_sizes: Vec<usize>,
}

impl ShardPlan {
    /// Number of co-occurrence components.
    pub fn num_components(&self) -> usize {
        self.free_sizes.len()
    }

    /// Free-event count per component, in component order.
    pub fn free_sizes(&self) -> &[usize] {
        &self.free_sizes
    }

    /// The largest per-component free-event count (0 with no components)
    /// — the quantity the per-component budget guard compares against
    /// `max_events`.
    pub fn largest_free_component(&self) -> usize {
        self.free_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total free events across components.
    pub fn num_free_events(&self) -> usize {
        self.free_sizes.iter().sum()
    }

    /// Predicted raw enumeration workload `Σ_c 2^{|free_c|}` (saturating)
    /// — exactly the [`FactorizedWorlds::states_enumerated`] counter the
    /// executor will report.
    pub fn predicted_states(&self) -> u128 {
        self.free_sizes
            .iter()
            .fold(0u128, |acc, &f| acc.saturating_add(pow2_saturating(f)))
    }

    /// The executor's tractability verdict: a single component with more
    /// than `max_events` free events is refused, and so is a total
    /// workload above `2^{max_events}` — the factorized path never does
    /// more enumeration than the caller budgeted for the joint path.
    pub fn check_budget(&self, max_events: usize) -> Result<(), TooManyValuations> {
        let largest = self.largest_free_component();
        if largest > max_events {
            return Err(TooManyValuations {
                num_events: largest,
                max_events,
            });
        }
        if self.predicted_states() > pow2_saturating(max_events) {
            return Err(TooManyValuations {
                num_events: self.num_free_events(),
                max_events,
            });
        }
        Ok(())
    }
}

/// Groups the tree's distinct non-empty conditions by the component their
/// support lives in. Co-occurrence within a condition is exactly what the
/// union-find merged, so a condition's events never straddle components.
fn conditions_by_component(engine: &WorldEngine<'_>) -> Vec<Vec<Condition>> {
    let mut component_of: HashMap<EventId, usize> = HashMap::new();
    for (i, component) in engine.components.iter().enumerate() {
        for &e in component {
            component_of.insert(e, i);
        }
    }
    let mut out: Vec<Vec<Condition>> = vec![Vec::new(); engine.components.len()];
    let mut seen: std::collections::HashSet<Vec<pxml_events::Literal>> =
        std::collections::HashSet::new();
    // `all_conditions` covers both arena nodes and shared (stored) children,
    // so factorization sees every constraint without materializing handles.
    for condition in engine.tree.all_conditions() {
        let Some(first) = condition.events().next() else {
            continue; // the empty condition constrains nothing
        };
        let component = component_of[&first];
        debug_assert!(
            condition.events().all(|e| component_of[&e] == component),
            "a condition's support must live inside one component"
        );
        if seen.insert(condition.literals().to_vec()) {
            out[component].push(condition.clone());
        }
    }
    out
}

/// Enumerates one component's `2^{|free|}` partial assignments and folds
/// them into signature-keyed classes. Each class sums its raw
/// assignments' [`Valuation::probability_over`] masses in binary-counter
/// enumeration order, so every class mass is bit-identical across runs
/// and thread counts.
fn enumerate_component(
    engine: &WorldEngine<'_>,
    component: usize,
    conditions: &[Condition],
    weighted: bool,
) -> ComponentShard {
    let events = engine.tree.events();
    let component_events = engine.components[component].clone();
    let mut classes: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut assignments: Vec<ShardAssignment> = Vec::new();
    let mut states = 0u64;
    for valuation in engine.component_valuations(component, weighted) {
        states += 1;
        let probability = valuation.probability_over(events, component_events.iter().copied());
        let mut signature = vec![0u64; conditions.len().div_ceil(64)];
        for (i, condition) in conditions.iter().enumerate() {
            if condition.eval(&valuation) {
                signature[i / 64] |= 1 << (i % 64);
            }
        }
        match classes.entry(signature) {
            Entry::Occupied(slot) => {
                let class = &mut assignments[*slot.get()];
                class.probability += probability;
                class.merged += 1;
            }
            Entry::Vacant(slot) => {
                slot.insert(assignments.len());
                assignments.push(ShardAssignment {
                    valuation,
                    probability,
                    merged: 1,
                });
            }
        }
    }
    let free = component_events
        .iter()
        .copied()
        .filter(|&e| !(weighted && events.prob(e) >= 1.0))
        .collect();
    ComponentShard {
        events: component_events,
        free,
        assignments,
        states_enumerated: states,
    }
}

/// Work-stealing parallel shard enumeration over `std::thread::scope`:
/// each worker pulls the next component index off an atomic counter and
/// sends its shard home over a channel; the main thread reassembles the
/// shards in component order.
fn run_parallel(
    engine: &WorldEngine<'_>,
    conditions: &[Vec<Condition>],
    weighted: bool,
    workers: usize,
) -> Vec<ComponentShard> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let num_components = engine.components.len();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, ComponentShard)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_components {
                    break;
                }
                let shard = enumerate_component(engine, i, &conditions[i], weighted);
                if tx.send((i, shard)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<ComponentShard>> = vec![None; num_components];
    for (i, shard) in rx {
        slots[i] = Some(shard);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every component enumerated exactly once"))
        .collect()
}

/// The factorized possible-world computation of one prob-tree: one
/// [`ComponentShard`] per co-occurrence component, combinable by product
/// only where a consumer genuinely needs joint worlds (see the
/// *shard-combine contract* in the module docs).
#[derive(Clone, Debug)]
pub struct FactorizedWorlds<'a> {
    engine: WorldEngine<'a>,
    shards: Vec<ComponentShard>,
    weighted: bool,
    max_joint_worlds: u128,
}

impl<'a> FactorizedWorlds<'a> {
    /// The per-component shards, in the engine's (total) component order.
    pub fn shards(&self) -> &[ComponentShard] {
        &self.shards
    }

    /// Total raw enumeration states visited across all shards — exactly
    /// `Σ_c 2^{|free_c|}`. This is the counter the factorized-vs-joint
    /// benches assert on.
    pub fn states_enumerated(&self) -> u64 {
        self.shards.iter().map(|s| s.states_enumerated).sum()
    }

    /// Total number of free (actually enumerated) events across shards.
    pub fn num_free_events(&self) -> usize {
        self.shards.iter().map(|s| s.free.len()).sum()
    }

    /// Number of joint assignments a combine would walk: the product of
    /// the per-shard class counts (saturating).
    pub fn num_joint_assignments(&self) -> u128 {
        self.shards.iter().fold(1u128, |acc, s| {
            acc.saturating_mul(s.assignments.len() as u128)
        })
    }

    /// Probability of an arbitrary conjunction of literals over the
    /// engine's event table, computed as a product of per-component folds
    /// over the raw shard enumerations — the cross product is never
    /// materialized. Involved components are folded in component order;
    /// literals over events outside every component (events no tree
    /// condition mentions) are folded analytically; an event constrained
    /// by both polarities yields 0.
    ///
    /// This is the *independent cross-check* of the shard decomposition:
    /// because events are mutually independent, the production path for a
    /// conjunction's probability is the `O(|literals|)` analytic product
    /// [`Condition::probability`], and the property suite asserts this
    /// exhaustive per-component marginalization (`Σ_c 2^{|C_i|}` work over
    /// the involved components) always re-derives the same value. Use the
    /// analytic product in hot paths; use this fold to validate shard
    /// plumbing or as the template for per-component aggregates that have
    /// no analytic closed form.
    ///
    /// Only meaningful on weighted shards ([`WorldEngine::sharded`]).
    pub fn condition_probability(&self, condition: &Condition) -> f64 {
        let events = self.engine.tree.events();
        let mut component_of: HashMap<EventId, usize> = HashMap::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for &e in &shard.events {
                component_of.insert(e, i);
            }
        }
        // Group the literals by component (detecting contradictions on the
        // way); iterate involved components in sorted order so the
        // accumulation is deterministic.
        let mut per_component: std::collections::BTreeMap<usize, Vec<pxml_events::Literal>> =
            std::collections::BTreeMap::new();
        let mut polarity: HashMap<EventId, bool> = HashMap::new();
        let mut acc = 1.0;
        for &literal in condition.literals() {
            if let Some(&prev) = polarity.get(&literal.event) {
                if prev != literal.positive {
                    return 0.0; // w ∧ ¬w
                }
                continue; // duplicate literal
            }
            polarity.insert(literal.event, literal.positive);
            match component_of.get(&literal.event) {
                Some(&component) => per_component.entry(component).or_default().push(literal),
                None => acc *= literal.prob(events),
            }
        }
        for (&component, literals) in &per_component {
            let component_events = &self.shards[component].events;
            let mut fold = 0.0;
            for v in self
                .engine
                .component_valuations(component, self.weighted)
                .filter(|v| literals.iter().all(|l| l.eval(v)))
            {
                fold += v.probability_over(events, component_events.iter().copied());
            }
            acc *= fold;
        }
        acc
    }

    /// Lazily walks the cross product of the shard classes, yielding the
    /// joint representative valuation (the union of the per-component
    /// representatives) with the product of the class masses. Refuses when
    /// the product of the class counts exceeds the configured
    /// [`WorldEngineConfig::max_joint_worlds`].
    pub fn joint_valuations(&self) -> Result<JointValuations<'_>, JointTooLarge> {
        let joint = self.num_joint_assignments();
        if joint > self.max_joint_worlds {
            return Err(JointTooLarge {
                joint_assignments: joint,
                max_joint_worlds: self.max_joint_worlds,
            });
        }
        Ok(JointValuations {
            shards: &self.shards,
            valuation_len: self.engine.valuation_len,
            indices: vec![0; self.shards.len()],
            done: false,
        })
    }

    /// The normalized possible-world semantics `JT K` assembled from the
    /// shards: the joint classes are streamed into an interned
    /// canonical-form accumulator (one retained tree per isomorphism
    /// class). Each joint state carries a whole class of valuations (its
    /// probability is the product of class masses), so the walk visits
    /// `Π_c |classes_c|` states — never more, and usually far fewer, than
    /// the `2^{|free|}` valuations of the free events. Worlds are grouped
    /// under the paper's default multiset semantics.
    pub fn normalized_worlds(&self) -> Result<PossibleWorldSet, JointTooLarge> {
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut worlds: Vec<(DataTree, f64)> = Vec::new();
        for (valuation, p) in self.joint_valuations()? {
            let world = self.engine.tree.value_in_world(&valuation);
            match slots.entry(canonical_string(&world, Semantics::MultiSet)) {
                Entry::Occupied(slot) => worlds[*slot.get()].1 += p,
                Entry::Vacant(slot) => {
                    slot.insert(worlds.len());
                    worlds.push((world, p));
                }
            }
        }
        Ok(PossibleWorldSet::from_worlds(worlds))
    }
}

/// Lazy odometer over the cross product of the shard classes — the joint
/// combine of the factorized enumeration. Yields full-length valuations
/// (the union of per-shard representatives) with the product of the class
/// masses.
#[derive(Debug)]
pub struct JointValuations<'f> {
    shards: &'f [ComponentShard],
    valuation_len: usize,
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for JointValuations<'_> {
    type Item = (Valuation, f64);

    /// Assembles the current representative joint valuation (union of the
    /// selected per-shard classes) with the product of the class masses,
    /// then advances the odometer least-significant shard first.
    fn next(&mut self) -> Option<(Valuation, f64)> {
        if self.done {
            return None;
        }
        let mut valuation = Valuation::empty(self.valuation_len);
        let mut probability = 1.0;
        for (shard, &i) in self.shards.iter().zip(&self.indices) {
            let class = &shard.assignments[i];
            valuation.union_with(&class.valuation);
            probability *= class.probability;
        }
        self.done = true;
        for (shard, index) in self.shards.iter().zip(self.indices.iter_mut()) {
            *index += 1;
            if *index < shard.assignments.len() {
                self.done = false;
                break;
            }
            *index = 0;
        }
        Some((valuation, probability))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::{possible_worlds, possible_worlds_normalized};
    use pxml_events::{prob_eq, Condition, Literal};

    #[test]
    fn figure1_engine_matches_legacy_normalization() {
        let t = figure1_example();
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.num_relevant(), 2);
        let fast = possible_worlds_normalized(&t, 20).unwrap();
        let legacy = possible_worlds(&t, 20).unwrap().normalized();
        assert_eq!(fast.len(), 3);
        assert!(fast.isomorphic(&legacy));
        assert!(prob_eq(fast.total_probability(), 1.0));
    }

    #[test]
    fn unused_events_are_marginalized_not_enumerated() {
        // 40 declared events, 10 mentioned: the legacy path refuses at the
        // default 2^24 guard, the engine answers instantly.
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        let mut mentioned = Vec::new();
        for i in 0..40 {
            let w = t.events_mut().fresh(0.5);
            if i < 10 {
                mentioned.push(w);
            }
        }
        for (i, &w) in mentioned.iter().enumerate() {
            t.add_child(root, format!("C{i}"), Condition::of(Literal::pos(w)));
        }
        assert!(
            possible_worlds(&t, 24).is_err(),
            "legacy path must refuse 2^40"
        );

        let engine = WorldEngine::new(&t);
        assert_eq!(engine.num_relevant(), 10);
        assert_eq!(engine.components().len(), 10, "one singleton per child");
        let pw = possible_worlds_normalized(&t, 24).unwrap();
        assert_eq!(pw.len(), 1 << 10);
        assert!(prob_eq(pw.total_probability(), 1.0));
    }

    #[test]
    fn relevant_set_is_the_union_of_condition_supports() {
        let mut t = ProbTree::new("A");
        let w1 = t.events_mut().insert("w1", 0.5);
        let w2 = t.events_mut().insert("w2", 0.5);
        let w3 = t.events_mut().insert("w3", 0.5);
        let _unused = t.events_mut().insert("unused", 0.5);
        let root = t.tree().root();
        let b = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
        );
        t.add_child(b, "C", Condition::of(Literal::pos(w3)));
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.relevant_events(), &[w1, w2, w3]);
        // {w1, w2} co-occur in B's condition; w3 is alone in C's. Shorter
        // components sort first (total length-then-ids order).
        assert_eq!(engine.components(), &[vec![w3], vec![w1, w2]]);
    }

    #[test]
    fn components_merge_transitively_across_conditions() {
        // w1–w2 co-occur, w2–w3 co-occur: one component {w1, w2, w3}.
        let mut t = ProbTree::new("A");
        let w1 = t.events_mut().insert("w1", 0.5);
        let w2 = t.events_mut().insert("w2", 0.5);
        let w3 = t.events_mut().insert("w3", 0.5);
        let w4 = t.events_mut().insert("w4", 0.5);
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2)]),
        );
        t.add_child(
            root,
            "C",
            Condition::from_literals([Literal::neg(w2), Literal::pos(w3)]),
        );
        t.add_child(root, "D", Condition::of(Literal::pos(w4)));
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.components(), &[vec![w4], vec![w1, w2, w3]]);
    }

    #[test]
    fn component_order_is_total_and_insertion_invariant() {
        // Build the same co-occurrence structure with conditions declared
        // in opposite orders: the component lists must come out identical
        // (length first, then ids), so shard iteration is deterministic.
        let build = |reversed: bool| {
            let mut t = ProbTree::new("A");
            let w: Vec<_> = (0..5).map(|_| t.events_mut().fresh(0.5)).collect();
            let root = t.tree().root();
            let mut children: Vec<(&str, Condition)> = vec![
                (
                    "B",
                    Condition::from_literals([Literal::pos(w[0]), Literal::neg(w[3])]),
                ),
                ("C", Condition::of(Literal::pos(w[4]))),
                (
                    "D",
                    Condition::from_literals([Literal::pos(w[1]), Literal::pos(w[2])]),
                ),
            ];
            if reversed {
                children.reverse();
            }
            for (label, condition) in children {
                t.add_child(root, label, condition);
            }
            (t, w)
        };
        let (a, w) = build(false);
        let (b, _) = build(true);
        let ca = WorldEngine::new(&a).components().to_vec();
        let cb = WorldEngine::new(&b).components().to_vec();
        assert_eq!(ca, cb);
        // Singleton {w4} first, then the two pairs by ids.
        assert_eq!(ca, vec![vec![w[4]], vec![w[0], w[3]], vec![w[1], w[2]]]);
    }

    /// The sequential shard executor on Figure 1 agrees with the legacy
    /// oracle, and its joint walk visits no more states than streaming
    /// every valuation of the free events would.
    #[test]
    fn factorized_matches_streamed_and_legacy_on_figure1() {
        let t = figure1_example();
        let engine = WorldEngine::new(&t);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 20).unwrap();
        assert!(factorized.num_joint_assignments() <= 1 << factorized.num_free_events());
        let fast = factorized.normalized_worlds().unwrap();
        let legacy = possible_worlds(&t, 20).unwrap().normalized();
        assert!(fast.isomorphic(&legacy));
        assert!(prob_eq(fast.total_probability(), 1.0));
    }

    #[test]
    fn shard_counter_is_sum_of_component_powers() {
        // 3 components of sizes 1, 2, 3 → Σ 2^{|C_i|} = 2 + 4 + 8 = 14
        // shard states, while the joint enumeration walks 2^6 = 64.
        let mut t = ProbTree::new("A");
        let w: Vec<_> = (0..6).map(|_| t.events_mut().fresh(0.5)).collect();
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w[0])));
        t.add_child(
            root,
            "C",
            Condition::from_literals([Literal::pos(w[1]), Literal::neg(w[2])]),
        );
        t.add_child(
            root,
            "D",
            Condition::from_literals([Literal::pos(w[3]), Literal::pos(w[4])]),
        );
        t.add_child(
            root,
            "E",
            Condition::from_literals([Literal::pos(w[4]), Literal::pos(w[5])]),
        );
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.components().len(), 3);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 20).unwrap();
        assert_eq!(factorized.states_enumerated(), 2 + 4 + 8);
        let per_shard: Vec<u64> = factorized
            .shards()
            .iter()
            .map(|s| s.states_enumerated)
            .collect();
        assert_eq!(per_shard, vec![2, 4, 8]);
        // Each shard's class masses sum to 1.
        for shard in factorized.shards() {
            let total: f64 = shard.assignments.iter().map(|a| a.probability).sum();
            assert!(prob_eq(total, 1.0));
        }
        // Worlds still agree with the joint paths.
        let fast = factorized.normalized_worlds().unwrap();
        let legacy = possible_worlds(&t, 20).unwrap().normalized();
        assert!(fast.isomorphic(&legacy));
    }

    #[test]
    fn signature_dedup_merges_condition_equivalent_assignments() {
        // One component of 3 chained events with 2 conditions: 8 raw
        // assignments collapse to the 4 reachable condition signatures.
        let mut t = ProbTree::new("A");
        let w: Vec<_> = (0..3).map(|_| t.events_mut().fresh(0.5)).collect();
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w[0]), Literal::pos(w[1])]),
        );
        t.add_child(
            root,
            "C",
            Condition::from_literals([Literal::pos(w[1]), Literal::pos(w[2])]),
        );
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.components().len(), 1);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 20).unwrap();
        let shard = &factorized.shards()[0];
        assert_eq!(shard.states_enumerated, 8);
        assert_eq!(shard.assignments.len(), 4);
        let merged: u64 = shard.assignments.iter().map(|a| a.merged).sum();
        assert_eq!(merged, 8);
        // The joint walk visits only the 4 classes, and the worlds agree
        // with the undeduplicated enumeration.
        assert_eq!(factorized.num_joint_assignments(), 4);
        let fast = factorized.normalized_worlds().unwrap();
        let legacy = possible_worlds(&t, 20).unwrap().normalized();
        assert!(fast.isomorphic(&legacy));
    }

    #[test]
    fn joint_guard_refuses_oversized_cross_products() {
        // 12 singleton components: shard work is 24 states, fine; the
        // joint combine would walk 2^12 classes, above a cap of 2^10.
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..12 {
            let w = t.events_mut().fresh(0.5);
            t.add_child(root, format!("C{i}"), Condition::of(Literal::pos(w)));
        }
        let engine = WorldEngine::new(&t);
        let config = WorldEngineConfig::default().with_joint_cap_bits(10);
        let factorized = engine.sharded(&config, 10).unwrap();
        assert_eq!(factorized.states_enumerated(), 24);
        let err = factorized.joint_valuations().unwrap_err();
        assert_eq!(err.joint_assignments, 1 << 12);
        assert_eq!(err.max_joint_worlds, 1 << 10);
        assert!(factorized.normalized_worlds().is_err());
    }

    #[test]
    fn event_budget_config_grants_the_full_joint_budget() {
        // The contract regression the joint cap must not introduce: a
        // consumer guarded by `max_events` grants the joint walk exactly
        // `2^{max_events}`, even above the standalone default of `2^24` —
        // so every input with at most `max_events` relevant events stays
        // accepted.
        assert_eq!(
            WorldEngineConfig::for_event_budget(26).max_joint_worlds,
            1 << 26
        );
        assert_eq!(
            WorldEngineConfig::for_event_budget(10).max_joint_worlds,
            1 << 10
        );
        assert_eq!(
            WorldEngineConfig::for_event_budget(200).max_joint_worlds,
            u128::MAX
        );
        assert_eq!(WorldEngineConfig::default().max_joint_worlds, 1 << 24);
    }

    #[test]
    fn per_component_guard_counts_the_largest_component() {
        let mut t = ProbTree::new("A");
        let w: Vec<_> = (0..8).map(|_| t.events_mut().fresh(0.5)).collect();
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
        );
        let engine = WorldEngine::new(&t);
        let err = engine
            .sharded(&WorldEngineConfig::default(), 6)
            .unwrap_err();
        assert_eq!(err.num_events, 8);
        assert_eq!(err.max_events, 6);
        assert!(engine.sharded(&WorldEngineConfig::default(), 8).is_ok());
    }

    #[test]
    fn parallel_executor_matches_sequential() {
        // 4 components of 12 chained events each: 4 · 2^12 = 16384 shard
        // states, above PARALLEL_SHARD_THRESHOLD, so 4 workers really
        // engage the scoped thread pool.
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..4 {
            let w: Vec<_> = (0..12)
                .map(|j| t.events_mut().fresh(0.3 + 0.04 * ((i + j) % 10) as f64))
                .collect();
            for pair in w.windows(2) {
                t.add_child(
                    root,
                    format!("C{i}"),
                    Condition::from_literals([Literal::pos(pair[0]), Literal::pos(pair[1])]),
                );
            }
        }
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.components().len(), 4);
        let config = WorldEngineConfig::default();
        let sequential = engine.run_shards(&config, true, 14, 1).unwrap();
        let parallel = engine.run_shards(&config, true, 14, 4).unwrap();
        assert_eq!(sequential.states_enumerated(), 4 * (1 << 12));
        assert_eq!(sequential.states_enumerated(), parallel.states_enumerated());
        assert_eq!(sequential.shards().len(), parallel.shards().len());
        for (a, b) in sequential.shards().iter().zip(parallel.shards()) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.assignments.len(), b.assignments.len());
            for (x, y) in a.assignments.iter().zip(&b.assignments) {
                assert_eq!(x.valuation, y.valuation);
                assert!(prob_eq(x.probability, y.probability));
                assert_eq!(x.merged, y.merged);
            }
        }
    }

    #[test]
    fn condition_probability_folds_without_joint_materialization() {
        let mut t = ProbTree::new("A");
        let w: Vec<_> = [0.8, 0.7, 0.5, 0.4]
            .iter()
            .map(|&p| t.events_mut().fresh(p))
            .collect();
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w[0]), Literal::neg(w[1])]),
        );
        t.add_child(root, "C", Condition::of(Literal::pos(w[2])));
        let unused = t.events_mut().fresh(0.25);
        t.add_child(root, "D", Condition::of(Literal::pos(w[3])));
        let engine = WorldEngine::new(&t);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 20).unwrap();
        // Cross-component conjunction: independent events multiply.
        let cond =
            Condition::from_literals([Literal::pos(w[0]), Literal::neg(w[1]), Literal::pos(w[2])]);
        let expected = cond.probability(t.events());
        assert!(prob_eq(factorized.condition_probability(&cond), expected));
        // Literals on events no condition mentions fold analytically.
        let with_unused = Condition::from_literals([Literal::pos(w[2]), Literal::neg(unused)]);
        assert!(prob_eq(
            factorized.condition_probability(&with_unused),
            0.5 * 0.75
        ));
        // Contradictions are 0, even on unmentioned events.
        let contradiction = Condition::from_literals([Literal::pos(unused), Literal::neg(unused)]);
        assert!(prob_eq(
            factorized.condition_probability(&contradiction),
            0.0
        ));
        // The empty condition is certain.
        assert!(prob_eq(
            factorized.condition_probability(&Condition::always()),
            1.0
        ));
    }

    #[test]
    fn weighted_shards_pin_certain_events() {
        let mut t = ProbTree::new("A");
        let certain = t.events_mut().insert("certain", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(certain)));
        t.add_child(root, "C", Condition::of(Literal::pos(w)));
        let engine = WorldEngine::new(&t);
        let weighted = engine.sharded(&WorldEngineConfig::default(), 10).unwrap();
        // The certain component enumerates a single pinned state.
        assert_eq!(weighted.states_enumerated(), 1 + 2);
        assert!(weighted
            .joint_valuations()
            .unwrap()
            .all(|(v, _)| v.get(certain)));
        // The ∀-sweep keeps the dead branch.
        let all = engine
            .sharded_all(&WorldEngineConfig::default(), 10)
            .unwrap();
        assert_eq!(all.states_enumerated(), 2 + 2);
        assert_eq!(all.num_joint_assignments(), 4);
    }

    #[test]
    fn factorized_zero_components_yield_the_certain_world() {
        let mut t = ProbTree::new("A");
        for _ in 0..5 {
            t.events_mut().fresh(0.5);
        }
        let root = t.tree().root();
        t.add_child(root, "B", Condition::always());
        let engine = WorldEngine::new(&t);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 0).unwrap();
        assert_eq!(factorized.states_enumerated(), 0);
        assert_eq!(factorized.num_joint_assignments(), 1);
        let joint: Vec<_> = factorized.joint_valuations().unwrap().collect();
        assert_eq!(joint.len(), 1);
        assert!(prob_eq(joint[0].1, 1.0));
        let pw = factorized.normalized_worlds().unwrap();
        assert_eq!(pw.len(), 1);
    }

    #[test]
    fn weighted_enumeration_prunes_certain_events() {
        // π(w) = 1: the false branch has probability 0 and is pruned, so
        // two joint valuations remain and the node is always present.
        let mut t = ProbTree::new("A");
        let certain = t.events_mut().insert("certain", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(certain)));
        t.add_child(root, "C", Condition::of(Literal::pos(w)));
        let engine = WorldEngine::new(&t);
        let weighted = engine.sharded(&WorldEngineConfig::default(), 10).unwrap();
        let joint: Vec<_> = weighted.joint_valuations().unwrap().collect();
        assert_eq!(joint.len(), 2, "certain event pinned true");
        assert!(joint.iter().all(|(v, _)| v.get(certain)));
        let total: f64 = joint.iter().map(|(_, p)| p).sum();
        assert!(prob_eq(total, 1.0));
        // ∀-enumeration must keep the zero-probability branch.
        let all: Vec<_> = engine.all_valuations(10).unwrap().collect();
        assert_eq!(all.len(), 4);
        // Worlds: B always present, C half the time.
        let pw = weighted.normalized_worlds().unwrap();
        assert_eq!(pw.len(), 2);
        assert!(pw
            .iter()
            .all(|(world, _)| { world.iter().any(|n| world.label(n) == "B") }));
    }

    #[test]
    fn condition_free_tree_yields_the_single_certain_world() {
        let mut t = ProbTree::new("A");
        for _ in 0..30 {
            t.events_mut().fresh(0.5);
        }
        let root = t.tree().root();
        t.add_child(root, "B", Condition::always());
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.num_relevant(), 0);
        // 30 declared events would be 2^30 valuations for the legacy path.
        let pw = possible_worlds_normalized(&t, 0).unwrap();
        assert_eq!(pw.len(), 1);
        assert!(prob_eq(pw.total_probability(), 1.0));
    }

    #[test]
    fn guard_counts_relevant_events_only() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for i in 0..12 {
            let w = t.events_mut().fresh(0.5);
            t.add_child(root, format!("C{i}"), Condition::of(Literal::pos(w)));
        }
        // 8 declared events no condition mentions do not count.
        for _ in 0..8 {
            t.events_mut().fresh(0.5);
        }
        let err = possible_worlds_normalized(&t, 10).unwrap_err();
        assert_eq!(err.num_events, 12);
        assert_eq!(err.max_events, 10);
        assert!(possible_worlds_normalized(&t, 12).is_ok());
    }

    #[test]
    fn pair_engine_covers_both_trees_supports() {
        // Same declared distribution (the Definition 9 precondition), but
        // only b's conditions mention the third event.
        let mut a = figure1_example();
        a.events_mut().insert("w3", 0.5);
        let mut b = figure1_example();
        let w3 = b.events_mut().insert("w3", 0.5);
        let root = b.tree().root();
        b.add_child(root, "E", Condition::of(Literal::pos(w3)));
        assert!(a.events().same_distribution(b.events()));
        let engine = WorldEngine::for_pair(&a, &b);
        assert_eq!(engine.num_relevant(), 3);
        // Valuations are long enough for both trees' tables.
        let v = engine.all_valuations(10).unwrap().next().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(engine.all_valuations(10).unwrap().count(), 8);
    }

    #[test]
    fn long_cooccurrence_chains_do_not_overflow_the_stack() {
        // Pairwise-chained conditions declared root-last build a union-find
        // parent chain of depth ~n; the iterative find must absorb it (the
        // recursive version overflowed the test-thread stack around this
        // size).
        let mut t = ProbTree::new("A");
        let n = 50_000usize;
        let events: Vec<_> = (0..n).map(|_| t.events_mut().fresh(0.5)).collect();
        let root = t.tree().root();
        for i in (1..n).rev() {
            t.add_child(
                root,
                "B",
                Condition::from_literals([Literal::pos(events[i - 1]), Literal::pos(events[i])]),
            );
        }
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.num_relevant(), n);
        assert_eq!(engine.components().len(), 1);
        assert!(
            engine.sharded(&WorldEngineConfig::default(), 24).is_err(),
            "still guarded"
        );
    }

    #[test]
    #[should_panic(expected = "same event variables and distribution")]
    fn pair_engine_rejects_mismatched_distributions() {
        let a = figure1_example();
        let mut b = figure1_example();
        b.events_mut().insert("w3", 0.5);
        let _ = WorldEngine::for_pair(&a, &b);
    }

    #[test]
    fn streamed_accumulator_keeps_one_tree_per_class() {
        // Two children with complementary conditions and the same label
        // produce isomorphic worlds for both valuations of w.
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.3);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "B", Condition::of(Literal::neg(w)));
        let pw = possible_worlds_normalized(&t, 10).unwrap();
        assert_eq!(pw.len(), 1, "both valuations land in one class");
        assert!(prob_eq(pw.total_probability(), 1.0));
    }
}
