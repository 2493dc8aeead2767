//! `xmlest-core` — the paper's contribution: position histograms, the
//! pH-join estimation algorithm, and coverage histograms for predicates
//! with the no-overlap property.
//!
//! Pipeline:
//!
//! 1. Label the data tree with `(start, end)` intervals (`xmlest-xml`).
//! 2. For every base predicate in the catalog, build a
//!    [`PositionHistogram`] over the `(start, end)` plane
//!    ([`position_histogram`]), plus a [`CoverageHistogram`] when the
//!    predicate has the *no-overlap* property ([`coverage`]).
//! 3. Estimate twig-query answer sizes from the histograms alone:
//!    [`mod@ph_join`] implements the primitive estimation of Fig. 6/Fig. 9;
//!    [`no_overlap`] the refined formulas of Fig. 10; [`twig`] composes
//!    them over arbitrary query trees; [`compound`] synthesizes histograms
//!    for boolean predicate combinations (Section 3.4).
//!
//! Extensions beyond the paper (flagged in module docs): ordered-semantics
//! estimation ([`ordered`]), parent–child estimation with level histograms
//! ([`parent_child`]) and equi-depth grids ([`grid::Grid::equi_depth`]) —
//! the future-work items of Section 7.

// Serving-crate rules (README "Lints"): no panics, and no clock, file,
// socket or lock call from clippy.toml's lists without an `#[expect]`.
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]

pub mod catalog;
/// Compound-predicate estimation over boolean predicate expressions.
pub mod compound;
/// Coverage histograms for no-overlap predicates (Section 4.2).
pub mod coverage;
/// Core error and result types.
pub mod error;
/// Summary construction and the top-level estimation API.
pub mod estimator;
/// The 2-D position grid underlying every histogram.
pub mod grid;
/// Strict-invariants sanitizer: `validate()` checkpoints for the
/// structural invariants the kernels assume.
pub mod invariants;
/// Markov-table path estimation (related-work baseline).
pub mod markov;
/// Exact counting by tree traversal — the accuracy oracle.
pub mod naive;
/// Merge-based coverage joins and the twig evaluation workspace.
pub mod no_overlap;
/// Order-aware sibling estimation (extension).
pub mod ordered;
/// Level histograms for parent-child estimation (extension).
pub mod parent_child;
/// The position-histogram join kernels (Section 4.1).
pub mod ph_join;
/// Sparse CSR position histograms over grid cells.
pub mod position_histogram;
/// Grid maintenance policies: slack capacity and drift tracking for the
/// equi-depth refresh.
pub mod regrid;
/// Per-document summary shards and shard merging.
pub mod shard;
/// Crash-consistent catalog persistence (the only IO layer).
pub mod store;
/// Binary (de)serialization of summaries.
pub mod summary;
/// Twig query patterns: nodes, axes, canonical forms.
pub mod twig;

pub use catalog::{CatalogFile, CatalogShard, OpenReport, QuarantinedShard};
pub use coverage::{CoverageContext, CoverageHistogram};
pub use error::{Error, Result};
pub use estimator::{Estimate, EstimateMethod, Estimator, Summaries, SummaryConfig};
pub use grid::{Cell, Grid};
pub use no_overlap::{CoverageRef, NodeStats, StatsSlot, StatsView, TwigWorkspace};
pub use ph_join::{ph_join, ph_join_total, Basis, JoinWorkspace};
pub use position_histogram::{FlatHistogram, PositionHistogram};
pub use regrid::{DriftTracker, GridPolicy};
pub use store::{
    CatalogStore, CrashView, FaultPlan, FsBackend, MemBackend, SkippedGeneration, StorageBackend,
};
pub use twig::{Axis, TwigNode};
