//! Predicate framework — the set `P` of Section 2 of the paper.
//!
//! The estimation machinery is defined over *base predicates*: boolean
//! functions over nodes for which position histograms are precomputed.
//! The paper distinguishes (Section 3.4):
//!
//! * **element-tag predicates** (`elementtag = faculty`) — one per
//!   distinct tag, cheap to store;
//! * **element-content predicates** — exact/prefix matches on text
//!   content (`text start-with "conf"`), numeric values (years), etc.,
//!   built only for frequently-queried values;
//! * **compound predicates** — boolean combinations of base predicates
//!   (e.g. the paper's `1990's` = OR of ten year predicates), whose
//!   histograms are *estimated* from the base histograms in
//!   `xmlest-core`.
//!
//! This crate evaluates predicates exactly against a tree (the input to
//! histogram construction and to ground-truth counting); the estimation
//! layer never touches the tree again after that.

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

pub mod base;
pub mod catalog;
pub mod expr;
pub mod selection;

pub use base::BasePredicate;
pub use catalog::{Catalog, PredicateEntry};
pub use expr::PredExpr;
