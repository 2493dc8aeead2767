//! A miniature native XML query engine — the TIMBER stand-in.
//!
//! The paper's Section 1 motivates answer-size estimation with a query
//! optimizer choosing between join orders: `faculty ⋈ RA` first versus
//! `faculty ⋈ TA` first, "depending on the cardinalities of the
//! intermediate result set, one plan may be substantially better than
//! another". This crate closes that loop end-to-end, as a **prepared-
//! query pipeline**:
//!
//! ```text
//!   query string ──parse──▶ TwigNode ──canonicalize──▶ canonical twig
//!        │                                                  │ intern
//!        │                                            TwigId + Arc<TwigNode>
//!        │                                                  │ resolve leaves
//!        └────────────▶ PreparedQuery  ◀────────────────────┘
//!                        │        │
//!               estimate │        │ plan (lazy, memoized by TwigId)
//!                        ▼        ▼
//!                   Estimate   CostedPlan ──execute──▶ Execution
//! ```
//!
//! * **Canonicalize** — `TwigNode::canonicalize` normalizes predicates
//!   and sorts sibling branches, so trivially different spellings
//!   (`a[.//b][.//c]` vs `a[.//c][.//b]`, whitespace variants) become
//!   one value; [`prepared`] hash-conses that value to a stable
//!   `TwigId`. Because every evaluation then runs on the one canonical
//!   ordering, equivalent spellings estimate **bit-identically**.
//! * **Prepare** — [`prepared::PreparedQuery`] carries the canonical
//!   twig, the leaf summary-resolutions, and a slot for the memoized
//!   cheapest plan. The two-tier cache (query string → entry,
//!   `TwigId` → entry; CLOCK-bounded string tier) serves warm hits
//!   with zero allocations.
//! * **Estimate** — [`snapshot::Snapshot`] is the one code path that
//!   computes and counts an answer size: single paths, pre-parsed
//!   twigs and string-deduplicated batches. [`db::Database::estimate`]
//!   resolves through the prepared cache, then estimates on the current
//!   snapshot.
//! * **Plan** — [`planner::Planner`] owns the costing workspace,
//!   enumerates connected join orders ([`plan`]), prices them through
//!   the estimator-fed cost model ([`cost`]), memoizes the winner on the
//!   prepared entry, and is the EXPLAIN front door.
//! * **Execute** — [`exec`] runs a plan against the element indexes,
//!   recording *actual* intermediate cardinalities next to the
//!   estimates ([`planner::Planner::explain`] with `analyze`).
//!
//! ## The epoch-invalidation contract
//!
//! [`db::Database`] versions everything estimates derive from with a
//! monotonically increasing **epoch**, bumped by `add_document`,
//! `remove_document` and `attach_dtd`. Every `PreparedQuery` (and the
//! plan memoized on it) records the epoch it was derived under; every
//! cache lookup and every `refresh_prepared` validates it. On mismatch
//! the entry is re-prepared from its interned twig — no re-parse — and
//! re-planned on next use, so a stale plan or resolution is
//! **unreachable**: the caches survive collection mutations warm in
//! identity, never in state. The grid [`maintenance`] layer leans on the
//! same contract: an equi-depth refresh swaps the whole summary set to
//! a new grid and bumps the epoch, so every cached plan re-prepares
//! lazily — a stale-grid plan can never be served.
//!
//! ## Wait-free serving
//!
//! Every mutation commit additionally publishes an immutable,
//! epoch-stamped [`snapshot::Snapshot`] — summaries and a frozen
//! prepared-twig view behind `Arc`s — through the
//! database's [`snapshot::SnapshotCell`]. Readers load the current
//! snapshot with one lock-free pointer load and estimate entirely
//! against it, never blocking on (or being blocked by) maintenance;
//! [`maintenance::MaintenanceWorker`] moves the mutations themselves
//! off-thread. See [`snapshot`] for the read-vs-maintenance thread
//! contract.

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

pub mod cost;
/// The database object: documents, catalog, indexes, summaries.
pub mod db;
/// Engine error and result types.
pub mod error;
/// Plan execution against the element index.
pub mod exec;
/// Incremental maintenance: appends, removals, drift-tracked refresh.
pub mod maintenance;
/// Flattened twigs and structural-join plan enumeration.
pub mod plan;
/// The unified planner: costing, plan cache, EXPLAIN and execution.
pub mod planner;
/// Prepared queries: twig interning and the epoch-checked cache.
pub mod prepared;
/// Epoch-stamped serving snapshots and the RCU-style publication cell.
pub mod snapshot;
/// The unified telemetry surface and estimate provenance reports.
pub mod telemetry;

pub use db::{Database, RepairReport, StoreOpen};
pub use error::{Error, Result};
pub use maintenance::{MaintenanceStats, MaintenanceWorker, DEGRADED_AFTER_STRIKES};
pub use plan::{FlatTwig, Plan, PlanStep};
pub use planner::{ExplainedPlan, Planner};
pub use prepared::{CacheStats, CacheTier, LeafResolution, PreparedQuery, TwigId};
pub use snapshot::{Snapshot, SnapshotCell};
pub use telemetry::{EdgeKernel, StageLatency, Telemetry, TraceReport};
// The observability core's own types, re-exported so downstream code
// (examples, benches, tests) can consume telemetry without depending on
// `xmlest-xobs` directly.
pub use xmlest_xobs::{
    CounterSample, Event, EventKind, HistogramSnapshot, ObsSnapshot, Recorder, Stage,
};
