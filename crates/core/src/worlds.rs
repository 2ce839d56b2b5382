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
//! 2. **Streaming normalization without trees.** Instead of collecting one
//!    cloned world per valuation and canonicalizing in a second pass,
//!    worlds are streamed into an accumulator keyed by the AHU code of
//!    their root (`HashMap<root code, slot>`), so the *normalized* PW set is
//!    produced directly. A world is a sub-datatree of the prob-tree's data
//!    tree (Definitions 4 and 5), so no tree is built for it: each state's
//!    kept node set is marked over the source, read off the shard classes'
//!    condition signatures; every node's code is kept across states and
//!    recomputed only on the root paths of the nodes whose kept status
//!    changed; and each isomorphism class keeps only its node ids, over one
//!    source shared by every class ([`FactorizedWorlds::normalized_worlds`]).
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
//!    probability mass of its class. An assignment is a bit counter over
//!    the component's free events and a condition a pair of bit masks, so
//!    the walk builds no valuation per assignment. Components are
//!    enumerated in component order on the caller's thread, so the result
//!    is deterministic. Nothing is read from the environment, so the output
//!    is a function of the prob-tree, the configuration and the budget
//!    passed in.
//!
//! ## The shard-combine contract
//!
//! A [`FactorizedWorlds`] value answers two kinds of questions:
//!
//! * **Shard-local accounting** never touches the cross product:
//!   [`FactorizedWorlds::states_enumerated`] and
//!   [`FactorizedWorlds::num_joint_assignments`] are pure arithmetic over
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
//! (worlds and world probabilities). Consumers that distinguish valuations
//! beyond the tree's own conditions — the
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
use std::sync::Arc;

use pxml_events::valuation::{TooManyValuations, Valuations};
use pxml_events::{Condition, EventId, Valuation};
use pxml_tree::{AnnotatedCanonInterner, NodeId};

use crate::probtree::ProbTree;
use crate::pwset::{PossibleWorldSet, World};

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
        for condition in tree.all_conditions() {
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
    /// component-major, including zero-probability branches. Each is a
    /// full-length valuation (irrelevant events false), so
    /// [`ProbTree::value_in_world`] applies unchanged. Structural
    /// equivalence (Definition 9) and event independence quantify over
    /// every valuation `V ⊆ W` regardless of probability, so they must not
    /// prune — and they never read probabilities, so none are computed on
    /// this path.
    ///
    /// Fails when the relevant set exceeds `max_events` (the same
    /// exponential-work guard as the legacy full enumeration, counting
    /// only events that actually matter).
    pub fn all_valuations(&self, max_events: usize) -> Result<Valuations, TooManyValuations> {
        if self.relevant.len() > max_events {
            return Err(TooManyValuations {
                num_events: self.relevant.len(),
                max_events,
            });
        }
        Ok(Valuations::over(
            Valuation::empty(self.valuation_len),
            self.components.concat(),
        ))
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
    ) -> Valuations {
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
        Valuations::over(start, free)
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
        self.run_shards(config, true, max_events)
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
        self.run_shards(config, false, max_events)
    }

    /// Enumerates every component into a [`ComponentShard`] and wraps the
    /// result as [`FactorizedWorlds`]. `weighted` selects zero-probability
    /// pruning (the `JT K` semantics) vs the unpruned ∀-world sweep. The
    /// static [`ShardPlan`] supplies the budget guards.
    fn run_shards(
        &self,
        config: &WorldEngineConfig,
        weighted: bool,
        max_events: usize,
    ) -> Result<FactorizedWorlds<'a>, TooManyValuations> {
        self.shard_plan(weighted).check_budget(max_events)?;
        let shards = conditions_by_component(self)
            .into_iter()
            .enumerate()
            .map(|(i, conditions)| enumerate_component(self, i, conditions, weighted))
            .collect();
        Ok(FactorizedWorlds {
            engine: self.clone(),
            shards,
            max_joint_worlds: config.max_joint_worlds,
        })
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
    /// The component's distinct conditions: bit `i` of a class signature is
    /// the truth of condition `i`.
    conditions: Vec<Condition>,
    /// The classes' signatures, [`ComponentShard::words`] words each, in
    /// class order.
    signatures: Vec<u64>,
}

impl ComponentShard {
    /// Words in one class signature.
    fn words(&self) -> usize {
        self.conditions.len().div_ceil(64)
    }

    /// The signature of class `class`: which of the component's conditions
    /// its assignments satisfy.
    fn signature(&self, class: usize) -> &[u64] {
        let words = self.words();
        &self.signatures[class * words..(class + 1) * words]
    }
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
    /// more enumeration than the caller budgeted for the joint path. A
    /// component of 64 or more free events is refused at any budget: its
    /// `2^64` assignments overflow a shard's counter, and no budget could
    /// pay for them.
    pub fn check_budget(&self, max_events: usize) -> Result<(), TooManyValuations> {
        let largest = self.largest_free_component();
        if largest > max_events.min(MAX_FREE_EVENTS) {
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

/// The most free events a shard enumerates: an assignment is a `u64`
/// counter whose bit `j` is free event `j`.
const MAX_FREE_EVENTS: usize = 63;

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
/// them into signature-keyed classes.
///
/// Assignment `x` counts from `0` to `2^{|free|} − 1`, bit `j` being free
/// event `j`: the binary-counter order of
/// [`WorldEngine::component_valuations`]. Each condition is compiled once
/// to the free bits it needs set and the free bits it needs clear, so its
/// truth under `x` is two mask tests. Each class sums its raw assignments'
/// masses in enumeration order, each mass folded over the component's
/// events in order as [`Valuation::probability_over`] folds it, so every
/// class mass is bit-identical across runs. The signature is written into
/// one reused buffer and looked up by its words: only a new class
/// allocates, for its key, its representative valuation and its stored
/// signature.
fn enumerate_component(
    engine: &WorldEngine<'_>,
    component: usize,
    conditions: Vec<Condition>,
    weighted: bool,
) -> ComponentShard {
    let events = engine.tree.events();
    let component_events = engine.components[component].clone();
    let free: Vec<EventId> = component_events
        .iter()
        .copied()
        .filter(|&e| !(weighted && events.prob(e) >= 1.0))
        .collect();
    debug_assert!(
        free.len() <= MAX_FREE_EVENTS,
        "ShardPlan::check_budget bounds a shard's counter"
    );
    // The bit of a free event; a pinned event, always true, has none.
    let bit = |e: EventId| free.binary_search(&e).ok().map(|j| 1u64 << j);
    // Each condition as the bits it needs set and the bits it needs clear,
    // or `None` when it needs a pinned event false and so never holds.
    // `w ∧ ¬w` needs one bit both set and clear, which no `x` gives.
    let masks: Vec<Option<(u64, u64)>> = conditions
        .iter()
        .map(|condition| {
            condition
                .literals()
                .iter()
                .try_fold((0, 0), |(set, clear), literal| {
                    match (bit(literal.event), literal.positive) {
                        (Some(b), true) => Some((set | b, clear)),
                        (Some(b), false) => Some((set, clear | b)),
                        (None, true) => Some((set, clear)),
                        (None, false) => None,
                    }
                })
        })
        .collect();
    // Each component event, the bits that make it true (none for a pinned
    // event) and its factors when true and when false, as `Literal::prob`
    // gives them.
    let factors: Vec<(EventId, u64, f64, f64)> = component_events
        .iter()
        .map(|&e| {
            let p = events.prob(e);
            (e, bit(e).unwrap_or(0), p, 1.0 - p)
        })
        .collect();
    let mut signature = vec![0u64; conditions.len().div_ceil(64)];
    let mut classes: HashMap<Box<[u64]>, usize> = HashMap::new();
    let mut assignments: Vec<ShardAssignment> = Vec::new();
    let mut signatures: Vec<u64> = Vec::new();
    let states = 1u64 << free.len();
    for x in 0..states {
        let probability = factors.iter().fold(1.0, |acc, &(_, truth, p, q)| {
            acc * if x & truth == truth { p } else { q }
        });
        signature.fill(0);
        for (i, &mask) in masks.iter().enumerate() {
            if mask.is_some_and(|(set, clear)| x & set == set && x & clear == 0) {
                signature[i / 64] |= 1 << (i % 64);
            }
        }
        if let Some(&class) = classes.get(signature.as_slice()) {
            let class = &mut assignments[class];
            class.probability += probability;
            class.merged += 1;
            continue;
        }
        classes.insert(signature.as_slice().into(), assignments.len());
        signatures.extend_from_slice(&signature);
        let true_events = factors
            .iter()
            .filter(|&&(_, truth, ..)| x & truth == truth)
            .map(|&(e, ..)| e);
        assignments.push(ShardAssignment {
            valuation: Valuation::from_true_events(engine.valuation_len, true_events),
            probability,
            merged: 1,
        });
    }
    ComponentShard {
        events: component_events,
        free,
        assignments,
        states_enumerated: states,
        conditions,
        signatures,
    }
}

/// [`enumerate_component`] as it was before it counted on bit masks: it
/// walks [`WorldEngine::component_valuations`], one valuation per raw
/// assignment, and evaluates every condition on each. The oracle of the
/// shard property tests.
#[cfg(test)]
fn enumerate_component_by_valuations(
    engine: &WorldEngine<'_>,
    component: usize,
    conditions: Vec<Condition>,
    weighted: bool,
) -> ComponentShard {
    let events = engine.tree.events();
    let component_events = engine.components[component].clone();
    let mut classes: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut assignments: Vec<ShardAssignment> = Vec::new();
    let mut signatures: Vec<u64> = Vec::new();
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
                signatures.extend_from_slice(slot.key());
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
        conditions,
        signatures,
    }
}

/// The factorized possible-world computation of one prob-tree: one
/// [`ComponentShard`] per co-occurrence component, combinable by product
/// only where a consumer genuinely needs joint worlds (see the
/// *shard-combine contract* in the module docs).
#[derive(Clone, Debug)]
pub struct FactorizedWorlds<'a> {
    engine: WorldEngine<'a>,
    shards: Vec<ComponentShard>,
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

    /// Lazily walks the cross product of the shard classes, yielding the
    /// joint representative valuation (the union of the per-component
    /// representatives) with the product of the class masses. Refuses when
    /// the product of the class counts exceeds the configured
    /// [`WorldEngineConfig::max_joint_worlds`].
    pub fn joint_valuations(&self) -> Result<JointValuations<'_>, JointTooLarge> {
        self.check_joint()?;
        Ok(JointValuations {
            shards: &self.shards,
            valuation_len: self.engine.valuation_len,
            indices: vec![0; self.shards.len()],
            done: false,
        })
    }

    /// Refuses a combine whose cross product exceeds
    /// [`WorldEngineConfig::max_joint_worlds`].
    fn check_joint(&self) -> Result<(), JointTooLarge> {
        let joint = self.num_joint_assignments();
        if joint > self.max_joint_worlds {
            return Err(JointTooLarge {
                joint_assignments: joint,
                max_joint_worlds: self.max_joint_worlds,
            });
        }
        Ok(())
    }

    /// The normalized possible-world semantics `JT K` assembled from the
    /// shards. Each joint state carries a whole class of valuations (its
    /// probability is the product of class masses), so the walk visits
    /// `Π_c |classes_c|` states — never more, and usually far fewer, than
    /// the `2^{|free|}` valuations of the free events. Worlds are grouped
    /// under the paper's default multiset semantics.
    ///
    /// No tree and no valuation is built per state. The walk is an
    /// odometer over the shards' class indices, and the class a shard is
    /// at fixes the truth of each of its conditions: a node's condition is
    /// one bit of that class's signature. A world is the prob-tree's data
    /// tree restricted to the nodes whose condition and ancestors'
    /// conditions hold (Definition 4), so each state marks the kept nodes,
    /// walking the reachable nodes in ascending id order (parents first),
    /// and flags the nodes whose kept status flipped. Each node keeps its
    /// AHU code ([`AnnotatedCanonInterner`]: its label and its kept
    /// children's codes, sorted) across states; a reverse walk (children
    /// first) recomputes the code of each flagged kept node and, when the
    /// code changed, flags its parent, so a state recodes only the root
    /// paths of what changed. The root's code keys the world. Only a new class stores anything: its
    /// node ids, against one copy of the data tree that every class
    /// shares. Class masses are summed in odometer order and classes kept
    /// in first-seen order, so each class's probability is bit-identical to
    /// summing the worlds' masses one by one.
    pub fn normalized_worlds(&self) -> Result<PossibleWorldSet, JointTooLarge> {
        self.check_joint()?;
        let prob_tree = self.engine.tree;
        let tree = prob_tree.tree();
        // The shards' current class signatures lie back to back in
        // `current`, shard `s` from `offsets[s]`; each distinct condition
        // is one bit of one word there.
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut truth_bits: HashMap<&Condition, (usize, u64)> = HashMap::new();
        let mut words = 0;
        for shard in &self.shards {
            offsets.push(words);
            for (i, condition) in shard.conditions.iter().enumerate() {
                truth_bits.insert(condition, (words + i / 64, 1 << (i % 64)));
            }
            words += shard.words();
        }
        // At least one word: a node without a condition reads word 0 under
        // the empty mask, which always holds.
        let mut current = vec![0u64; words.max(1)];
        // The reachable nodes in ascending id order, root first, so every
        // parent has a lower step than its children.
        let mut nodes: Vec<NodeId> = tree.iter().collect();
        nodes[1..].sort_unstable();
        let mut step_of = vec![0usize; tree.arena_len()];
        for (step, node) in nodes.iter().enumerate() {
            step_of[node.index()] = step;
        }
        let mut interner: AnnotatedCanonInterner<()> = AnnotatedCanonInterner::new();
        let bare = interner.annotation(None);
        let steps: Vec<FoldStep> = nodes
            .iter()
            .map(|&node| {
                let (word, mask) = prob_tree
                    .condition_ref(node)
                    .map_or((0, 0), |condition| truth_bits[condition]);
                let label = interner.label(tree.label(node));
                FoldStep {
                    parent: tree.parent(node).map_or(0, |p| step_of[p.index()]),
                    label,
                    leaf: interner.intern(label, bare, []),
                    word,
                    mask,
                }
            })
            .collect();
        // Each step's children, as steps: `children[first_child[i]..first_child[i + 1]]`.
        let mut first_child = Vec::with_capacity(nodes.len() + 1);
        let mut children = Vec::new();
        for &node in &nodes {
            first_child.push(children.len());
            children.extend(tree.children(node).iter().map(|c| step_of[c.index()]));
        }
        first_child.push(children.len());

        let mut kept = vec![false; steps.len()];
        let mut flagged = vec![false; steps.len()];
        let mut codes = vec![NOT_KEPT; steps.len()];
        kept[0] = true;
        flagged[0] = true;
        let source = Arc::new(tree.clone());
        let mut ids: Vec<NodeId> = Vec::with_capacity(nodes.len());
        let mut slots: HashMap<u32, usize> = HashMap::new();
        let mut worlds: Vec<(World, f64)> = Vec::new();
        let mut indices = vec![0usize; self.shards.len()];
        // Shards below `moved` changed class since the last state (all of
        // them before the first).
        let mut moved = self.shards.len();
        loop {
            let mut p = 1.0;
            for (s, (shard, &class)) in self.shards.iter().zip(&indices).enumerate() {
                if s < moved {
                    let offset = offsets[s];
                    current[offset..offset + shard.words()].copy_from_slice(shard.signature(class));
                }
                p *= shard.assignments[class].probability;
            }
            // Mark the kept nodes, parents first, flagging each that flipped.
            for (i, step) in steps.iter().enumerate().skip(1) {
                let now = kept[step.parent] && current[step.word] & step.mask == step.mask;
                if now != kept[i] {
                    kept[i] = now;
                    flagged[i] = true;
                }
            }
            // Recode the flagged nodes, children first; a changed code flags
            // the parent.
            for i in (0..steps.len()).rev() {
                if !flagged[i] {
                    continue;
                }
                flagged[i] = false;
                let step = &steps[i];
                let code = if kept[i] {
                    let mut kept_children = children[first_child[i]..first_child[i + 1]]
                        .iter()
                        .filter(|&&c| kept[c])
                        .map(|&c| codes[c])
                        .peekable();
                    if kept_children.peek().is_none() {
                        step.leaf
                    } else {
                        interner.intern(step.label, bare, kept_children)
                    }
                } else {
                    NOT_KEPT
                };
                if code != codes[i] && i > 0 {
                    flagged[step.parent] = true;
                }
                codes[i] = code;
            }
            match slots.entry(codes[0]) {
                Entry::Occupied(slot) => worlds[*slot.get()].1 += p,
                Entry::Vacant(slot) => {
                    slot.insert(worlds.len());
                    ids.clear();
                    ids.extend(
                        nodes
                            .iter()
                            .zip(&kept)
                            .filter(|&(_, &k)| k)
                            .map(|(&node, _)| node),
                    );
                    worlds.push((World::within(Arc::clone(&source), &ids), p));
                }
            }
            match advance(&self.shards, &mut indices) {
                Some(top) => moved = top + 1,
                None => break,
            }
        }
        Ok(PossibleWorldSet::from_kept(worlds))
    }

    /// The fold as it was before [`FactorizedWorlds::normalized_worlds`]
    /// kept node lists: one [`ProbTree::value_in_world`] tree per joint
    /// state, keyed by its canonical string. The oracle of the fold's
    /// property tests.
    #[cfg(test)]
    fn normalized_worlds_by_trees(&self) -> Result<Vec<(pxml_tree::DataTree, f64)>, JointTooLarge> {
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut worlds: Vec<(pxml_tree::DataTree, f64)> = Vec::new();
        for (valuation, p) in self.joint_valuations()? {
            let world = self.engine.tree.value_in_world(&valuation);
            let key = pxml_tree::canonical_string(&world, pxml_tree::Semantics::MultiSet);
            match slots.entry(key) {
                Entry::Occupied(slot) => worlds[*slot.get()].1 += p,
                Entry::Vacant(slot) => {
                    slot.insert(worlds.len());
                    worlds.push((world, p));
                }
            }
        }
        Ok(worlds)
    }
}

/// One reachable node in the world fold's walk: its parent's step, its
/// label's code, its code while it keeps no child, and the word and mask of
/// its condition's truth bit (the empty mask for no condition).
struct FoldStep {
    parent: usize,
    label: u32,
    leaf: u32,
    word: usize,
    mask: u64,
}

/// The world fold's code for a node that is not kept: no interned shape
/// gets it before `2^32 − 1` shapes exist.
const NOT_KEPT: u32 = u32::MAX;

/// Advances an odometer over the shards' class indices, least significant
/// shard first. Returns the highest shard that moved, every lower one
/// having wrapped back to class 0, or `None` after the last joint state.
fn advance(shards: &[ComponentShard], indices: &mut [usize]) -> Option<usize> {
    for (s, (shard, index)) in shards.iter().zip(indices.iter_mut()).enumerate() {
        *index += 1;
        if *index < shard.assignments.len() {
            return Some(s);
        }
        *index = 0;
    }
    None
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
        self.done = advance(self.shards, &mut self.indices).is_none();
        Some((valuation, probability))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::{possible_worlds, possible_worlds_normalized};
    use proptest::prelude::*;
    use pxml_events::{prob_eq, Condition, Literal};
    use pxml_tree::canon::{canonical_string, isomorphic, Semantics};
    use pxml_tree::DataTree;

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
        assert!(pw.iter().all(|(world, _)| {
            let world = world.to_tree();
            world.iter().any(|n| world.label(n) == "B")
        }));
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

    /// A random prob-tree grown one step at a time over `events` events,
    /// event `i` in block `i % blocks`, events 2 and 4 with `π = 1`. A step
    /// hangs a node under any earlier node, detached and conditioned ones
    /// included, with a label from a 2- or 3-letter alphabet (so different
    /// kept sets often give isomorphic worlds) and a condition over one
    /// block drawn from `bits`, sometimes with both literals of the block's
    /// first event (`w ∧ ¬w`), or detaches a non-root node. With several
    /// blocks, each block's first event then conditions a last node under
    /// the root, so the tree has at least `blocks` components.
    fn probtree_strategy(
        events: std::ops::RangeInclusive<usize>,
        blocks: usize,
        max_steps: usize,
    ) -> impl Strategy<Value = ProbTree> {
        (
            events,
            2..=3usize,
            prop::collection::vec(
                (any::<usize>(), 0..3usize, 0..7u8, any::<u64>()),
                0..=max_steps,
            ),
        )
            .prop_map(move |(events, letters, steps)| {
                const LABELS: [&str; 3] = ["A", "B", "C"];
                const PROBABILITIES: [f64; 8] = [0.5, 0.3, 1.0, 0.8, 1.0, 0.6, 0.4, 0.7];
                let mut t = ProbTree::new("A");
                let w: Vec<EventId> = PROBABILITIES[..events]
                    .iter()
                    .map(|&p| t.events_mut().fresh(p))
                    .collect();
                for (pick, label, kind, bits) in steps {
                    let node = NodeId::from_index(pick % t.tree().arena_len());
                    if kind == 0 {
                        if node != t.tree().root() {
                            t.detach(node);
                        }
                        continue;
                    }
                    let block = (bits >> 60) as usize % blocks;
                    // Two bits per event: absent, absent, positive, negative.
                    let mut literals: Vec<Literal> = w
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i % blocks == block)
                        .filter_map(|(i, &e)| match (bits >> (2 * i)) & 3 {
                            2 => Some(Literal::pos(e)),
                            3 => Some(Literal::neg(e)),
                            _ => None,
                        })
                        .collect();
                    if kind == 6 {
                        literals.extend([Literal::pos(w[block]), Literal::neg(w[block])]);
                    }
                    let condition = if kind == 1 {
                        Condition::always()
                    } else {
                        Condition::from_literals(literals)
                    };
                    t.add_child(node, LABELS[label % letters], condition);
                }
                if blocks > 1 {
                    let root = t.tree().root();
                    for (block, &first) in w.iter().take(blocks).enumerate() {
                        t.add_child(
                            root,
                            LABELS[block % letters],
                            Condition::of(Literal::pos(first)),
                        );
                    }
                }
                t
            })
    }

    /// The fold that keeps node lists equals the tree-building oracle:
    /// class count and order, each class's size, canonical string under
    /// both semantics and probability bits. Each class's tree is the world
    /// of the valuation that opened it, with the same labels in pre-order.
    fn assert_fold_matches_the_oracle(tree: &ProbTree) {
        let engine = WorldEngine::new(tree);
        let factorized = engine.sharded(&WorldEngineConfig::default(), 16).unwrap();
        let fold = factorized.normalized_worlds().unwrap();
        let oracle = factorized.normalized_worlds_by_trees().unwrap();
        assert_eq!(fold.len(), oracle.len());
        // The valuation that opened each class, in first-seen order.
        let mut openers = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (valuation, _) in factorized.joint_valuations().unwrap() {
            let world = tree.value_in_world(&valuation);
            if seen.insert(canonical_string(&world, Semantics::MultiSet)) {
                openers.push(world);
            }
        }
        assert_eq!(openers.len(), fold.len());
        for (((world, p), (expected, q)), opener) in fold.iter().zip(&oracle).zip(&openers) {
            assert_eq!(world.len(), expected.len());
            assert_eq!(p.to_bits(), q.to_bits());
            for semantics in [Semantics::MultiSet, Semantics::Set] {
                assert_eq!(
                    world.canonical_string(semantics),
                    canonical_string(expected, semantics)
                );
            }
            let built = world.to_tree();
            assert_eq!(built.len(), world.len());
            assert!(isomorphic(&built, opener, Semantics::MultiSet));
            let labels =
                |t: &DataTree| t.iter().map(|n| t.label(n).to_string()).collect::<Vec<_>>();
            assert_eq!(labels(&built), labels(opener));
        }
    }

    /// Every shard of `tree`, weighted and unweighted, equals the
    /// valuation-stream oracle field by field: events, free events, class
    /// order, representative valuations, signatures, `merged`, probability
    /// bits and `states_enumerated`.
    fn assert_shards_match_the_oracle(tree: &ProbTree) {
        let engine = WorldEngine::new(tree);
        for weighted in [true, false] {
            for (i, conditions) in conditions_by_component(&engine).into_iter().enumerate() {
                let shard = enumerate_component(&engine, i, conditions.clone(), weighted);
                let oracle = enumerate_component_by_valuations(&engine, i, conditions, weighted);
                assert_eq!(shard.events, oracle.events);
                assert_eq!(shard.free, oracle.free);
                assert_eq!(shard.states_enumerated, oracle.states_enumerated);
                assert_eq!(shard.conditions, oracle.conditions);
                assert_eq!(shard.signatures, oracle.signatures);
                assert_eq!(shard.assignments.len(), oracle.assignments.len());
                for (class, expected) in shard.assignments.iter().zip(&oracle.assignments) {
                    assert_eq!(class.valuation, expected.valuation);
                    assert_eq!(class.merged, expected.merged);
                    assert_eq!(class.probability.to_bits(), expected.probability.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// [`assert_fold_matches_the_oracle`] on narrow trees (1–4 events)
        /// and on wide ones (6–8 events in at least 3 components), whose
        /// odometer carries reset several shards at once and whose
        /// subtrees under conditioned nodes enter and leave together.
        #[test]
        fn node_list_fold_matches_the_tree_building_oracle(
            narrow in probtree_strategy(1..=4, 1, 24),
            wide in probtree_strategy(6..=8, 3, 24),
        ) {
            assert_fold_matches_the_oracle(&narrow);
            assert_fold_matches_the_oracle(&wide);
        }

        /// [`assert_shards_match_the_oracle`] on the same narrow and wide
        /// trees, which hold `π = 1` events and `w ∧ ¬w` conditions.
        #[test]
        fn bit_mask_shards_match_the_valuation_oracle(
            narrow in probtree_strategy(1..=4, 1, 24),
            wide in probtree_strategy(6..=8, 3, 24),
        ) {
            assert_shards_match_the_oracle(&narrow);
            assert_shards_match_the_oracle(&wide);
        }
    }

    #[test]
    fn signatures_of_more_than_64_conditions_span_two_words() {
        // One component of 7 events, one of them certain, and 70 distinct
        // conditions, each `w0` and a base-3 pattern over `w1..w6`: every
        // signature has two words, and the combine reads truth bits from
        // both. Two labels and some nesting make worlds merge.
        let mut t = ProbTree::new("A");
        let w: Vec<_> = [0.5, 0.3, 0.6, 1.0, 0.4, 0.7, 0.2]
            .iter()
            .map(|&p| t.events_mut().fresh(p))
            .collect();
        let root = t.tree().root();
        let mut nodes = vec![root];
        for k in 0..70usize {
            let mut literals = vec![Literal::pos(w[0])];
            let mut digits = k;
            for &e in &w[1..] {
                match digits % 3 {
                    1 => literals.push(Literal::pos(e)),
                    2 => literals.push(Literal::neg(e)),
                    _ => {}
                }
                digits /= 3;
            }
            let parent = if k % 5 == 4 { nodes[k] } else { root };
            let node = t.add_child(
                parent,
                ["B", "C"][k % 2],
                Condition::from_literals(literals),
            );
            nodes.push(node);
        }
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.components().len(), 1);
        let conditions = conditions_by_component(&engine);
        assert_eq!(conditions[0].len(), 70);
        let shard = enumerate_component(&engine, 0, conditions[0].clone(), true);
        assert_eq!(shard.words(), 2);
        assert!(
            shard.signatures.chunks(2).any(|words| words[1] != 0),
            "some class satisfies a condition past the first word"
        );
        assert_shards_match_the_oracle(&t);
        assert_fold_matches_the_oracle(&t);
    }

    #[test]
    fn a_component_of_64_free_events_is_refused_at_any_budget() {
        // 64 events in one condition, the last certain: the weighted plan
        // enumerates 63 free events, the unweighted one all 64, which no
        // shard counter holds.
        let mut t = ProbTree::new("A");
        let w: Vec<_> = (0..64)
            .map(|i| t.events_mut().fresh(if i == 63 { 1.0 } else { 0.5 }))
            .collect();
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
        );
        let engine = WorldEngine::new(&t);
        assert_eq!(engine.shard_plan(true).check_budget(100), Ok(()));
        let err = engine
            .sharded_all(&WorldEngineConfig::default(), 100)
            .unwrap_err();
        assert_eq!(
            err,
            TooManyValuations {
                num_events: 64,
                max_events: 100
            }
        );
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
