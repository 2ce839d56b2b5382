//! # pxml-xml — a minimal XML parser/serializer
//!
//! The paper's motivating system stores imprecise information extracted
//! from the hidden web in an XML warehouse. This crate provides the small
//! XML substrate the workspace needs, implemented from scratch (no external
//! XML dependency):
//!
//! * [`dom`] — a tiny DOM: elements with attributes, text and child
//!   elements.
//! * [`parser`] — a recursive-descent parser for the XML subset used by the
//!   ProXML format (elements, attributes, text, comments, XML declaration,
//!   the five predefined entities).
//! * [`writer`] — a pretty-printing serializer.
//!
//! The prob-tree-level document format (events table + annotated nodes)
//! lives in `pxml-core::proxml`, which builds on this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dom;
pub mod escape;
pub mod parser;
pub mod writer;

pub use dom::{Element, XmlNode};
pub use parser::{parse, ParseError};
pub use writer::write_element;
