//! # pxml-events — probabilistic event variables and conditions
//!
//! The prob-tree model (Senellart & Abiteboul, PODS 2007, Section 2)
//! annotates tree nodes with *conditions*: conjunctions of possibly negated
//! **event variables**, in the style of the conditions of Imieliński &
//! Lipski's conditional tables. Each event variable `w` carries an
//! independent probability `π(w) ∈ (0, 1]`.
//!
//! This crate provides the building blocks shared by the rest of the
//! workspace:
//!
//! * [`EventId`], [`EventTable`] — the finite set `W` of event variables
//!   together with its probability distribution `π`.
//! * [`Literal`], [`Condition`] — atomic conditions `w` / `¬w` and their
//!   conjunctions, with consistency, implication, conjunction and
//!   probability evaluation (the `eval` of Definition 8).
//! * [`Valuation`] — a truth assignment `V ⊆ W`, with an iterator over all
//!   `2^{|W|}` assignments (used by the possible-world semantics and the
//!   exhaustive baselines; always bounded by the caller).
//! * [`Dnf`] — disjunctions of conditions and the *count-equivalence*
//!   relation of Definition 10, with the naive exponential decision
//!   procedure used as a baseline against the Schwartz–Zippel test of
//!   `pxml-poly`.
//! * [`Semiring`] — the commutative provenance semiring condition
//!   evaluation is parameterized over, with the [`Probability`] fast path
//!   plus the [`Possibility`] and [`Lineage`] instances (see the
//!   [`semiring`] module docs for the law table). Valuation weights and
//!   DNF sums fold probabilities directly.
//!
//! ## Quick example
//!
//! ```
//! use pxml_events::{Condition, EventTable, Literal};
//!
//! // Two independent events: π(w1) = 0.8, π(w2) = 0.7.
//! let mut events = EventTable::new();
//! let w1 = events.insert("w1", 0.8);
//! let w2 = events.insert("w2", 0.7);
//!
//! // The Figure 1 condition on node B: w1 ∧ ¬w2.
//! let cond = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
//! assert!(cond.is_consistent());
//! assert!((cond.probability(&events) - 0.8 * 0.3).abs() < pxml_events::PROB_EPS);
//!
//! // An inconsistent conjunction (w1 ∧ ¬w1) never holds.
//! let never = Condition::from_literals([Literal::pos(w1), Literal::neg(w1)]);
//! assert!(!never.is_consistent());
//! assert_eq!(never.probability(&events), 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod condition;
pub mod dnf;
pub mod event;
pub mod semiring;
pub mod valuation;

pub use condition::{Condition, Literal};
pub use dnf::Dnf;
pub use event::{is_condition_name, EventId, EventTable};
pub use semiring::{Lineage, Possibility, Probability, Semiring};
pub use valuation::Valuation;

/// Tolerance used throughout the workspace when comparing probabilities.
pub const PROB_EPS: f64 = 1e-9;

/// Compares two probabilities up to [`PROB_EPS`].
pub fn prob_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= PROB_EPS
}
