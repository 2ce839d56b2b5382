//! # pxml-tree — unordered labeled data trees
//!
//! This crate implements the *data tree* model of Senellart & Abiteboul,
//! "On the Complexity of Managing Probabilistic XML Data" (PODS 2007),
//! Definition 1: a data tree is a finite set of nodes arranged as a rooted
//! tree, each node carrying a label drawn from a countable set (character
//! strings here). The model is **unordered** (children form a multiset) and
//! deliberately ignores XML ordering, attributes, and the text/element
//! distinction.
//!
//! Provided here:
//!
//! * [`DataTree`]: an arena-backed rooted tree with index-based node
//!   access ([`NodeId`]) and O(pages) cloning. A tree may carry label
//!   postings ([`DataTree::index_labels`]): per label, its slots, linked
//!   newest first. A document's frames carry them, so a pattern match
//!   starts from a rare label's slots instead of scanning the tree.
//! * [`pages`]: [`Pages`], the copy-on-write paged sequence behind the
//!   arena and the other stores of a prob-tree frame.
//! * [`keyindex`]: [`KeyIndex`], the copy-on-write open-addressing table
//!   over keys stored elsewhere that indexes event names and the
//!   postings' labels.
//! * [`canon`]: linear-time isomorphism of unordered labeled trees via
//!   Aho–Hopcroft–Ullman canonical codes, under both the paper's default
//!   **multiset** semantics and the Section 5 **set** semantics.
//!   [`AnnotatedCanonInterner`] codes trees whose nodes carry an
//!   annotation too; prob-trees intern node conditions with it.
//! * [`subtree`]: *sub-datatrees* (Definition 5) — root-preserving,
//!   parent-closed node subsets — which are the result form of the paper's
//!   locally monotone queries.
//! * [`builder`]: a declarative way to construct trees in tests and
//!   examples.
//! * [`render`]: human-readable ASCII rendering.
//! * [`stats`]: size/shape statistics and the counting sequence of rooted
//!   unordered trees used by Proposition 1.
//!
//! ```
//! use pxml_tree::{DataTree, canon::{isomorphic, Semantics}};
//!
//! // The Figure 2 world with root A and children B, C.
//! let mut t = DataTree::new("A");
//! let root = t.root();
//! t.add_child(root, "B");
//! t.add_child(root, "C");
//!
//! // Order of insertion does not matter for isomorphism.
//! let mut u = DataTree::new("A");
//! let r = u.root();
//! u.add_child(r, "C");
//! u.add_child(r, "B");
//! assert!(isomorphic(&t, &u, Semantics::MultiSet));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod builder;
pub mod canon;
pub mod keyindex;
pub mod pages;
pub mod render;
pub mod stats;
pub mod subtree;
#[cfg(test)]
mod testing;

pub use arena::{DataTree, LabelPostings, NodeId};
pub use builder::TreeSpec;
pub use canon::{canonical_string, isomorphic, AnnotatedCanonInterner, Semantics};
pub use keyindex::KeyIndex;
pub use pages::Pages;
pub use subtree::SubDataTree;
