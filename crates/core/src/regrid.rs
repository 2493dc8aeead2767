//! Adaptive grid maintenance: the slack-capacity grid policy and the
//! drift statistics that decide when an equi-depth refresh pays off.
//!
//! The paper's accuracy results hinge on the position-histogram grid
//! matching the data distribution — its equi-depth grids beat uniform
//! ones exactly when the data is skewed (Section 7's "non-uniform grid
//! cells"). A *served* collection mutates, though, and a grid faces two
//! conflicting failure modes:
//!
//! * **it moves too eagerly** — re-deriving a tight grid on every
//!   `add_document` changes the bucket boundaries, which forces every
//!   existing shard summary to re-bucket (O(collection) per mutation);
//! * **it never moves** — a pinned grid slowly stops matching the data:
//!   bucket occupancy skews away from the equi-depth ideal and the
//!   accuracy degrades toward (or below) the uniform-grid regime.
//!
//! This module provides the two policy halves the engine's maintenance
//! layer (`xmlest-engine`'s `maintenance` module) composes:
//!
//! 1. [`GridPolicy`] — how grid boundaries relate to the occupied
//!    position span. [`GridPolicy::Static`] re-derives a tight grid on
//!    every collection change (the historical behavior).
//!    [`GridPolicy::Slack`] pads the final boundary past the current
//!    span by a configured percentage, so documents appended *within the
//!    slack* bucket onto the existing grid — no boundary moves, no
//!    re-bucketing of existing shards, O(new document) total.
//! 2. [`DriftTracker`] — bucket-occupancy statistics over the *stored
//!    classified interval lists* (never the trees). Each catalog
//!    predicate's match-start positions are counted per grid bucket; a
//!    predicate's skew is its total variation distance from the
//!    equi-depth ideal (every bucket holding `total/g` matches), and the
//!    aggregate [`DriftTracker::skew`] weights predicates by match
//!    count. The tracker remembers the skew observed when the grid was
//!    last derived ([`DriftTracker::baseline`]); the **drift** — how
//!    much worse the fit has become since — is `max(0, skew −
//!    baseline)`. When drift crosses the policy threshold, the
//!    maintenance layer re-derives equi-depth boundaries from the same
//!    classified lists and re-buckets every shard in parallel through
//!    the same build-and-merge step a cold load runs (an *equi-depth
//!    refresh*).
//!
//! An append ingests only the new document's match positions
//! (O(new document)); every removal rebuilds the tracker with the
//! collection. The tracker is session state: a catalog-opened database
//! serves estimates only, so it starts an empty one.

use crate::estimator::Summaries;
use crate::grid::Grid;
use crate::shard::{matches_mega_root, DocumentSummaryInput};
use std::collections::BTreeMap;
use xmlest_predicate::Catalog;

/// How grid boundaries relate to the occupied position span, and when
/// the maintenance layer refreshes them. Persisted in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GridPolicy {
    /// Re-derive a tight grid on every collection change (the
    /// historical behavior): maximal resolution, but every mutation
    /// moves the boundaries and re-buckets every shard.
    #[default]
    Static,
    /// Pad the final boundary past the current span so appends within
    /// the slack reuse the grid verbatim.
    Slack {
        /// Percent of the occupied span added past the grid edge (at
        /// least one position of slack is always reserved).
        slack_percent: u32,
        /// Drift (skew increase since the grid was derived, in `[0,1]`)
        /// above which a refresh fires.
        drift_threshold: f64,
        /// Fire the refresh automatically inside mutations; when false,
        /// drift is only reported and `refresh` is manual.
        auto_refresh: bool,
    },
}

impl GridPolicy {
    /// A slack policy with serviceable defaults: half the span of
    /// headroom, refresh at 0.15 drift, automatic.
    pub fn slack() -> Self {
        GridPolicy::Slack {
            slack_percent: 50,
            drift_threshold: 0.15,
            auto_refresh: true,
        }
    }

    /// Whether this policy pads the grid (stable-append eligible).
    pub fn is_slack(&self) -> bool {
        matches!(self, GridPolicy::Slack { .. })
    }

    /// The drift threshold, if this policy refreshes on drift.
    pub fn drift_threshold(&self) -> Option<f64> {
        match self {
            GridPolicy::Static => None,
            GridPolicy::Slack {
                drift_threshold, ..
            } => Some(*drift_threshold),
        }
    }

    /// Whether drift past the threshold refreshes inside mutations.
    pub fn auto_refresh(&self) -> bool {
        matches!(
            self,
            GridPolicy::Slack {
                auto_refresh: true,
                ..
            }
        )
    }

    /// Number of positions the grid must cover for an occupied span of
    /// `span` positions. Deterministic integer arithmetic: a refresh
    /// and a cold build over the same collection derive the same
    /// capacity, hence the same grid.
    pub fn capacity_for(&self, span: u64) -> u64 {
        match self {
            GridPolicy::Static => span,
            GridPolicy::Slack { slack_percent, .. } => {
                span + (span * *slack_percent as u64 / 100).max(1)
            }
        }
    }
}

/// One predicate's bucket-occupancy row.
#[derive(Debug, Clone, Default)]
struct DriftRow {
    /// Match-start positions per grid bucket.
    counts: Vec<u64>,
    /// Total matches (== sum of `counts`).
    total: u64,
}

impl DriftRow {
    /// Counts one match start in `bucket`, keeping `total` in sync.
    fn add(&mut self, bucket: u16) {
        self.counts[bucket as usize] += 1;
        self.total += 1;
    }

    /// Total variation distance of the occupancy from the equi-depth
    /// ideal (`total / g` per bucket), in `[0, 1)`.
    fn skew(&self, g: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let ideal = self.total as f64 / g as f64;
        let dev: f64 = self
            .counts
            .iter()
            .map(|&c| (c as f64 - ideal).abs())
            .sum::<f64>()
            + (g - self.counts.len()) as f64 * ideal;
        0.5 * dev / self.total as f64
    }
}

/// Per-predicate bucket-occupancy statistics over the classified
/// interval lists, with the aggregate skew recorded at grid-derivation
/// time. See the module docs for the skew/drift definitions.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    g: u16,
    rows: BTreeMap<String, DriftRow>,
    /// Aggregate skew observed when the grid was last derived.
    baseline: f64,
    /// Mutations since the last rebaseline.
    mutations: u64,
}

impl DriftTracker {
    /// An empty tracker for a `g`-bucket grid.
    pub fn new(g: u16) -> DriftTracker {
        DriftTracker {
            g: g.max(1),
            rows: BTreeMap::new(),
            baseline: 0.0,
            mutations: 0,
        }
    }

    /// Builds the tracker from a collection's classified inputs —
    /// exactly the position multiset the equi-depth grid derivation
    /// reads (catalog entries only, mega-root matches included) — and
    /// records the result as the baseline.
    pub fn from_inputs(
        grid: &Grid,
        catalog: &Catalog,
        inputs: &[(&DocumentSummaryInput, u32)],
    ) -> DriftTracker {
        let mut t = DriftTracker::new(grid.g());
        for entry in catalog.iter() {
            if matches_mega_root(&entry.predicate) {
                t.row_mut(&entry.name).add(grid.bucket_of(0));
            }
        }
        for &(input, offset) in inputs {
            t.ingest_document(grid, catalog, input, offset);
        }
        t.rebaseline();
        t
    }

    fn row_mut(&mut self, name: &str) -> &mut DriftRow {
        let g = self.g as usize;
        let row = self.rows.entry(name.to_owned()).or_default();
        if row.counts.len() < g {
            row.counts.resize(g, 0);
        }
        row
    }

    /// Ingests one document's classified match positions (O(matches in
    /// the document)). Counts one mutation.
    pub fn ingest_document(
        &mut self,
        grid: &Grid,
        catalog: &Catalog,
        input: &DocumentSummaryInput,
        offset: u32,
    ) {
        debug_assert_eq!(grid.g(), self.g, "tracker bound to a different grid");
        let builtins = Summaries::BUILTINS.len();
        for (entry, matches) in catalog.iter().zip(input.entries.iter().skip(builtins)) {
            if matches.intervals.is_empty() {
                continue;
            }
            let row = self.row_mut(&entry.name);
            for iv in &matches.intervals {
                row.add(grid.bucket_of(iv.start + offset));
            }
        }
        self.mutations += 1;
    }

    /// Aggregate occupancy skew: per-predicate total-variation distance
    /// from the equi-depth ideal, weighted by match count. `0` is a
    /// perfect equi-depth fit; `1` is everything piled into one bucket
    /// of many.
    pub fn skew(&self) -> f64 {
        let g = self.g as usize;
        let weight: u64 = self.rows.values().map(|r| r.total).sum();
        if weight == 0 {
            return 0.0;
        }
        let weighted: f64 = self.rows.values().map(|r| r.skew(g) * r.total as f64).sum();
        weighted / weight as f64
    }

    /// Aggregate skew recorded when the grid was last derived.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// How much worse the grid fit has become since the last
    /// derivation: `max(0, skew − baseline)`.
    pub fn drift(&self) -> f64 {
        (self.skew() - self.baseline).max(0.0)
    }

    /// Mutations since the last rebaseline.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Records the current skew as the new baseline (called after the
    /// grid is (re)derived) and zeroes the mutation counter.
    pub fn rebaseline(&mut self) {
        self.baseline = self.skew();
        self.mutations = 0;
    }

    /// Restores baseline continuity after a rebuild that *kept* the
    /// grid (e.g. a pinned-grid removal): the tracker was rebuilt from
    /// scratch, but the grid was not re-derived, so the old baseline —
    /// and the mutation count, plus the one mutation that triggered the
    /// rebuild — carry forward.
    pub fn restore_continuity(&mut self, baseline: f64, prior_mutations: u64) {
        self.baseline = baseline;
        self.mutations = prior_mutations + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::classify_document;
    use xmlest_xml::parser::parse_str;

    #[test]
    fn capacity_static_is_tight_and_slack_pads() {
        assert_eq!(GridPolicy::Static.capacity_for(100), 100);
        let p = GridPolicy::Slack {
            slack_percent: 50,
            drift_threshold: 0.2,
            auto_refresh: true,
        };
        assert_eq!(p.capacity_for(100), 150);
        // At least one position of slack, even for tiny spans.
        assert_eq!(p.capacity_for(1), 2);
        let none = GridPolicy::Slack {
            slack_percent: 0,
            drift_threshold: 0.2,
            auto_refresh: true,
        };
        assert_eq!(none.capacity_for(100), 101);
    }

    #[test]
    fn skew_zero_for_flat_and_high_for_piled() {
        let flat = DriftRow {
            counts: vec![10, 10, 10, 10],
            total: 40,
        };
        assert!(flat.skew(4).abs() < 1e-12);

        let piled = DriftRow {
            counts: vec![40, 0, 0, 0],
            total: 40,
        };
        // TV distance from uniform with everything in one of 4 buckets.
        assert!((piled.skew(4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn drift_is_relative_to_baseline() {
        let tree = parse_str("<a><b/><b/></a>").unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let input = classify_document(&tree, &catalog);
        let grid = Grid::uniform(4, 39).unwrap();

        let mut t = DriftTracker::from_inputs(&grid, &catalog, &[(&input, 1)]);
        assert_eq!(t.drift(), 0.0, "fresh tracker starts at its baseline");
        // Piling more matches into the same low buckets increases skew
        // past the baseline.
        t.ingest_document(&grid, &catalog, &input, 4);
        assert!(t.skew() >= t.baseline());
        t.rebaseline();
        assert_eq!(t.drift(), 0.0);
        assert_eq!(t.mutations(), 0);
    }
}
