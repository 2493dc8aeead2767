//! # xmlest — answer-size estimation for XML twig queries
//!
//! A from-scratch Rust reproduction of *"Estimating Answer Sizes for XML
//! Queries"* (Wu, Patel, Jagadish — EDBT 2002): position histograms over
//! interval-labeled XML trees, the pH-join estimation algorithm, and
//! coverage histograms for no-overlap predicates, plus every substrate
//! the paper's evaluation needs (XML parser, DTD analysis, data
//! generators, an exact twig matcher and a mini query engine with a
//! cost-based optimizer).
//!
//! ## Quickstart
//!
//! ```
//! use xmlest::prelude::*;
//!
//! // The paper's Fig. 1 document: 3 faculty, 5 TAs.
//! let tree = xmlest::datagen::example::fig1_tree();
//!
//! // One predicate per element tag.
//! let mut catalog = Catalog::new();
//! catalog.define_all_tags(&tree);
//!
//! // Build the summary structure (position + coverage histograms).
//! let summaries =
//!     Summaries::build(&tree, &catalog, &SummaryConfig::paper_defaults()).unwrap();
//!
//! // Estimate //faculty//TA without touching the data again...
//! let twig = parse_path("//faculty//TA").unwrap();
//! let est = summaries.estimator().estimate_twig(&twig).unwrap();
//!
//! // ...and compare with the exact answer (2 in the paper's example).
//! let real = count_matches(&tree, &catalog, &twig).unwrap();
//! assert_eq!(real, 2);
//! assert!((est.value - real as f64).abs() < 1.5);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xml`] | `xmlest-xml` | arena tree, parser, DTD, interval labels |
//! | [`predicate`] | `xmlest-predicate` | base predicates, expressions, catalogs |
//! | [`core`] | `xmlest-core` | flat (CSR) position/coverage histograms, zero-allocation pH-join kernels, estimator, per-document summary shards, persistent catalog format |
//! | [`query`] | `xmlest-query` | path parser, exact matcher, structural joins |
//! | [`datagen`] | `xmlest-datagen` | DBLP/dept/XMark/Shakespeare generators |
//! | [`engine`] | `xmlest-engine` | indexes, plans, cost-based optimizer, sharded document collections, catalog open/save, wait-free snapshot serving |
//!
//! Benchmark workloads live in `xmlest-bench` (not re-exported), and
//! `crates/shims/` holds offline stand-ins for `rand`, `rayon`,
//! `criterion` and `proptest` — the build environment has no crates.io
//! access, so those names resolve to small in-repo implementations
//! wired up through `[workspace.dependencies]`.
//!
//! ## Performance substrate
//!
//! The estimation hot path is allocation-disciplined end to end:
//! histograms store their sparse cells in one flat sorted `Vec` with
//! CSR row offsets ([`core::FlatHistogram`]), the pH-join runs on
//! reusable dense scratch ([`core::JoinWorkspace`]; zero heap
//! allocations in steady state, enforced by test), summary construction
//! classifies every tree node against the whole catalog in a single
//! traversal and fans per-predicate builds out with `rayon`, and every
//! primitive join runs the streaming Fig. 9 sweep at the outer
//! operand's non-zero cells.
//!
//! ## Serving architecture
//!
//! Collections build **sharded**: each document is classified once and
//! summarized into its own [`core::Summaries`] shard on the shared grid
//! ([`core::shard`]); the mega-tree view is their exact merge, so
//! documents can be added or dropped without re-parsing or
//! re-classifying the rest. Everything estimation reads persists in a
//! versioned, checksummed catalog ([`core::catalog`]);
//! `Database::open_catalog` restores a serving-ready database with zero
//! tree traversal and byte-identical estimates. Queries run through a
//! **prepared-query pipeline** (parse → canonicalize → intern → plan, see
//! [`engine::prepared`] and [`engine::planner`]): equivalent spellings
//! share one hash-consed identity, cheapest plans memoize per canonical
//! twig, and a monotonic database *epoch* invalidates prepared state on
//! every collection mutation — a stale plan is never served. Every
//! estimate — single, batched, or from another thread under live
//! maintenance — runs on an epoch-stamped [`engine::Snapshot`], the one
//! read path; warm estimates are allocation-free. Plans, EXPLAIN and
//! execution go through [`engine::Planner`].

pub use xmlest_core as core;
pub use xmlest_datagen as datagen;
pub use xmlest_engine as engine;
pub use xmlest_predicate as predicate;
pub use xmlest_query as query;
pub use xmlest_xml as xml;

/// The most common imports in one place.
pub mod prelude {
    pub use xmlest_core::{
        Basis, Estimate, EstimateMethod, Estimator, Grid, PositionHistogram, Summaries,
        SummaryConfig, TwigNode,
    };
    pub use xmlest_engine::{Database, Planner};
    pub use xmlest_predicate::{BasePredicate, Catalog, PredExpr};
    pub use xmlest_query::{count_matches, parse_path};
    pub use xmlest_xml::{Interval, TreeBuilder, XmlTree};
}
