//! Twig queries over labeled trees: a small path-expression language, an
//! exact match counter (the "Real Result" columns of the paper's tables),
//! and a stack-based structural-join operator used by the execution
//! engine.
//!
//! The estimation layer (`xmlest-core`) never sees the data after its
//! summaries are built; this crate is the other side of the experiment —
//! it computes *exact* answers so estimates can be scored, and provides
//! the physical join the optimizer schedules.

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

pub mod error;
pub mod matcher;
pub mod parse;
pub mod structural;

pub use error::{Error, Result};
pub use matcher::{count_matches, count_matches_brute_force};
pub use parse::parse_path;
