//! XML substrate for the `xmlest` workspace.
//!
//! This crate provides everything the estimation layer needs from the
//! document side, built from scratch:
//!
//! * an arena-based node-labeled tree ([`XmlTree`]) built in document order,
//! * a streaming XML parser ([`parser`]) with entity handling,
//! * a DTD parser and structural analysis ([`dtd`]) used both for data
//!   generation and for the schema shortcuts of Section 4 of the paper,
//! * interval ("start/end position") labeling ([`label`]) as defined in
//!   Section 3.1 of *Estimating Answer Sizes for XML Queries* (EDBT 2002),
//! * a serializer and tree statistics.
//!
//! The labeling scheme is the load-bearing piece: every node receives a
//! `(start, end)` pair such that a node `u` is an ancestor of `v` iff
//! `u.start < v.start && u.end >= v.end`. Position histograms in
//! `xmlest-core` are built over exactly these pairs.

// Serving-crate rules (README "Lints"): no panics, and no clock, file,
// socket or lock call from clippy.toml's lists without an `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]

pub mod dtd;
pub mod error;
pub mod forest;
pub mod label;
pub mod parser;
pub mod serialize;
pub mod stats;
pub mod tag;
pub mod tree;

pub use error::{Error, Result};
pub use forest::{Forest, ForestBuilder, MEGA_ROOT_TAG};
pub use label::Interval;
pub use tag::{TagId, TagInterner};
pub use tree::{NodeId, NodeKind, TreeBuilder, XmlTree};
