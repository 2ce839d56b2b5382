//! # pxml-core — the probabilistic tree (prob-tree) model
//!
//! This crate implements the central contribution of Senellart & Abiteboul,
//! *"On the Complexity of Managing Probabilistic XML Data"* (PODS 2007):
//! **probabilistic trees** — unordered labeled trees whose nodes carry
//! conjunctions of possibly-negated, independently-distributed event
//! variables — together with the machinery the paper builds around them.
//!
//! | Paper section | Module |
//! |---|---|
//! | §2 syntax of prob-trees (Def. 2) | [`probtree`] |
//! | §2 possible-world semantics (Def. 3–4), expressiveness | [`pwset`], [`semantics`], [`worlds`] |
//! | §2 locally monotone queries, tree-pattern queries with joins (Def. 5–8, Thm. 1, Prop. 2) | [`query`] |
//! | §2 / Appendix A probabilistic updates (Def. 14–16, Thm. 3) | [`update`] |
//! | §3 cleaning, structural equivalence, the co-RP algorithm (Fig. 3, Thm. 2) | [`clean`], [`equivalence`] |
//! | §4 threshold restriction (Thm. 4) | [`threshold`] |
//! | §5 variants: simple model, set semantics, arbitrary formulas, semantic equivalence | [`variants`], [`equivalence::semantic_equivalent`] |
//! | ProXML on-disk format | [`proxml`] |
//!
//! ## Quick example (Figure 1 / Figure 2 of the paper)
//!
//! ```
//! use pxml_core::probtree::ProbTree;
//! use pxml_core::semantics::possible_worlds;
//! use pxml_events::{Condition, Literal};
//!
//! // Build the Figure 1 prob-tree:  A with children B [w1 ∧ ¬w2] and
//! // C [⊤] which has child D [w2];  π(w1)=0.8, π(w2)=0.7.
//! let mut t = ProbTree::new("A");
//! let w1 = t.events_mut().insert("w1", 0.8);
//! let w2 = t.events_mut().insert("w2", 0.7);
//! let root = t.tree().root();
//! t.add_child(root, "B", Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]));
//! let c = t.add_child(root, "C", Condition::always());
//! t.add_child(c, "D", Condition::of(Literal::pos(w2)));
//!
//! // Its possible-world semantics is the Figure 2 PW set.
//! let pw = possible_worlds(&t, 20).unwrap().normalized();
//! assert_eq!(pw.len(), 3);
//! let probs: Vec<f64> = pw.iter().map(|(_, p)| (p * 100.0).round() / 100.0).collect();
//! assert!(probs.contains(&0.06) && probs.contains(&0.70) && probs.contains(&0.24));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clean;
pub mod document;
pub mod equivalence;
pub mod probtree;
pub mod proxml;
pub mod pwset;
pub mod query;
pub mod semantics;
pub mod threshold;
pub mod update;
pub mod variants;
pub mod worlds;

pub use document::{
    Document, DocumentId, Epoch, StageConflict, StagedStep, UpdateDelta, DEFAULT_DELTA_LOG_CAPACITY,
};
pub use probtree::ProbTree;
pub use pwset::PossibleWorldSet;
pub use query::pattern::PatternQuery;
pub use query::{
    AnswerSet, FallbackReason, MaintainError, MaintainOutcome, MaintainStats,
    MonotonicityCertificate, PreparedQuery, QueryEngine, SemiringCacheStats, Theorem1Error,
};
pub use update::{
    DeletionForecast, ProbabilisticUpdate, SurvivorBudgetExceeded, UpdateAction, UpdateEngine,
    UpdateEngineConfig, UpdateOperation, UpdateScript,
};
pub use worlds::{FactorizedWorlds, ShardPlan, WorldEngine, WorldEngineConfig};

/// Default bound on the number of event variables accepted by APIs that
/// enumerate all `2^{|W|}` possible worlds. Re-exported from `pxml-events`.
pub use pxml_events::valuation::DEFAULT_MAX_EXHAUSTIVE_EVENTS;
