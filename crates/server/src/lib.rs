//! # pxml-server — a concurrent p-document warehouse
//!
//! The motivating application of the paper (Section 1) is a *warehouse*:
//! crawlers and extractors keep committing probabilistic updates while
//! applications keep querying the accumulated document. `pxml-core` gives
//! the single-document machinery — versioned [`pxml_core::Document`]s,
//! structured [`pxml_core::UpdateDelta`]s, incrementally-maintained
//! [`pxml_core::PreparedQuery`] views; this crate serves that machinery
//! **concurrently**, to many readers and writers at once:
//!
//! * [`Warehouse`] — a registry of named documents
//!   behind **epoch snapshots**: every committed epoch is an immutable
//!   `Arc<ProbTree>`, so readers pin an epoch and never block (and are
//!   never torn) while writers stage expensive update work under shared
//!   access and commit under a short exclusive swap;
//! * [`MaintenanceHub`](hub) — per-document lazy view maintenance over
//!   one prepared state per query: views registered with the same
//!   `Arc<dyn Query>` share a state, a commit only counts, and a read
//!   brings a stale state current with
//!   [`pxml_core::PreparedQuery::maintain`], which threads the state's
//!   whole pending span in one pass — distinct queries × stale reads
//!   passes instead of `views × deltas`;
//! * **scenario branches** ([`warehouse::Warehouse::branch`]) — O(1)
//!   copy-on-write forks for what-if update scripts, with answer-level
//!   [diff analyses](warehouse::Warehouse::diff) between branches.
//!
//! The one setting is the per-document delta-log capacity
//! ([`Warehouse::with_log_capacity`]); nothing is read from the
//! environment. The repository's `perfbench` package measures the serving
//! path (its `serve` workload) at fixed work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod warehouse;

pub use hub::HubStats;
pub use warehouse::{BranchDiff, ServerError, Snapshot, Warehouse};
