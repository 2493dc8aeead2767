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
//! 2. [`DriftTracker`] — per-predicate bucket-occupancy statistics over
//!    the *stored classified interval lists* (never the trees). Each
//!    catalog predicate's match-start positions are counted per grid
//!    bucket; the [`DriftTracker::skew`] of a predicate is its total
//!    variation distance from the equi-depth ideal (every bucket holding
//!    `total/g` matches), and the aggregate skew weights predicates by
//!    match count. The tracker remembers the skew observed when the
//!    grid was last derived ([`DriftTracker::baseline`]); the
//!    **drift** — how much worse the fit has become since — is
//!    `max(0, skew − baseline)`. When drift crosses the policy
//!    threshold, the maintenance layer re-derives equi-depth boundaries
//!    from the same classified lists and re-buckets every shard in
//!    parallel through the same build-and-merge step a cold load runs
//!    (an *equi-depth refresh*).
//!
//! Updates are O(new document): appending ingests only the new
//! document's match positions, removal retracts them. The tracker is
//! persisted in the summary catalog (version 2 sections) so a reopened
//! database resumes maintenance with its history intact.

use crate::error::{Error, Result};
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
    /// This row's skew when the grid was last derived — the per-predicate
    /// analogue of the tracker-level baseline.
    baseline: f64,
}

impl DriftRow {
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
/// interval lists, with a baseline recorded at grid-derivation time.
/// See the module docs for the skew/drift definitions.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    g: u16,
    rows: BTreeMap<String, DriftRow>,
    /// Aggregate skew observed when the grid was last derived.
    baseline: f64,
    /// Mutations ingested/retracted since the last rebaseline.
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
                t.row_mut(&entry.name).add(grid.bucket_of(0), 1);
            }
        }
        for &(input, offset) in inputs {
            t.ingest_document(grid, catalog, input, offset);
        }
        t.rebaseline();
        t
    }

    fn row_mut(&mut self, name: &str) -> RowHandle<'_> {
        let g = self.g as usize;
        let row = self.rows.entry(name.to_owned()).or_default();
        if row.counts.len() < g {
            row.counts.resize(g, 0);
        }
        RowHandle { row }
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
        self.apply_document(grid, catalog, input, offset, false);
    }

    /// Retracts one document's classified match positions — the inverse
    /// of [`DriftTracker::ingest_document`]. Counts one mutation.
    pub fn retract_document(
        &mut self,
        grid: &Grid,
        catalog: &Catalog,
        input: &DocumentSummaryInput,
        offset: u32,
    ) {
        self.apply_document(grid, catalog, input, offset, true);
    }

    fn apply_document(
        &mut self,
        grid: &Grid,
        catalog: &Catalog,
        input: &DocumentSummaryInput,
        offset: u32,
        retract: bool,
    ) {
        debug_assert_eq!(grid.g(), self.g, "tracker bound to a different grid");
        let builtins = Summaries::BUILTINS.len();
        for (entry, matches) in catalog.iter().zip(input.entries.iter().skip(builtins)) {
            if matches.intervals.is_empty() {
                continue;
            }
            let mut handle = self.row_mut(&entry.name);
            for iv in &matches.intervals {
                let b = grid.bucket_of(iv.start + offset);
                if retract {
                    handle.sub(b, 1);
                } else {
                    handle.add(b, 1);
                }
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

    /// Per-predicate `(name, skew, match count)` in name order — the
    /// observability surface for "which predicate outgrew the grid".
    pub fn entry_skews(&self) -> Vec<(String, f64, u64)> {
        let g = self.g as usize;
        self.rows
            .iter()
            .map(|(name, row)| (name.clone(), row.skew(g), row.total))
            .collect()
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

    /// Mutations ingested/retracted since the last rebaseline.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Per-predicate drift: how much worse this predicate's occupancy
    /// fit has become since the grid was last derived,
    /// `max(0, skew − row baseline)`. Returns `None` for a predicate the
    /// tracker holds no row for (no matches ever ingested).
    pub fn predicate_drift(&self, name: &str) -> Option<f64> {
        let g = self.g as usize;
        self.rows
            .get(name)
            .map(|row| (row.skew(g) - row.baseline).max(0.0))
    }

    /// Names of the predicates whose [`DriftTracker::predicate_drift`]
    /// strictly exceeds `threshold`, in name order — the per-predicate
    /// refinement of the aggregate [`DriftTracker::drift`] signal: which
    /// predicates actually outgrew the grid.
    pub fn drifted_predicates(&self, threshold: f64) -> Vec<String> {
        let g = self.g as usize;
        self.rows
            .iter()
            .filter(|(_, row)| (row.skew(g) - row.baseline).max(0.0) > threshold)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Records the current skew as the new baseline (called after the
    /// grid is (re)derived) and zeroes the mutation counter. Also
    /// re-records every per-predicate baseline, so
    /// [`DriftTracker::predicate_drift`] measures from the same
    /// derivation point as the aggregate.
    pub fn rebaseline(&mut self) {
        self.baseline = self.skew();
        let g = self.g as usize;
        for row in self.rows.values_mut() {
            row.baseline = row.skew(g);
        }
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

    /// Grid bucket count this tracker's rows are sized for.
    pub fn g(&self) -> u16 {
        self.g
    }

    /// Rows for persistence, name order: `(name, counts)`.
    pub fn rows_for_persist(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.rows
            .iter()
            .map(|(name, row)| (name.as_str(), row.counts.as_slice()))
    }

    /// Rebuilds a tracker from persisted parts. Row totals are
    /// recomputed from the counts; a row longer than the grid is
    /// corrupt.
    ///
    /// The persistence format carries only the aggregate baseline, so
    /// per-predicate baselines are re-seeded from each row's *current*
    /// skew: a freshly reopened database reports zero
    /// [`DriftTracker::predicate_drift`] everywhere and re-accumulates
    /// from there. The aggregate [`DriftTracker::drift`] signal is
    /// unaffected.
    pub fn from_parts(
        g: u16,
        rows: Vec<(String, Vec<u64>)>,
        baseline: f64,
        mutations: u64,
    ) -> Result<DriftTracker> {
        let mut t = DriftTracker::new(g);
        for (name, counts) in rows {
            if counts.len() > g as usize {
                return Err(Error::Corrupt(format!(
                    "drift row {name:?} has {} buckets on a g={g} grid",
                    counts.len()
                )));
            }
            let total = counts.iter().sum();
            let mut row = DriftRow {
                counts,
                total,
                baseline: 0.0,
            };
            row.baseline = row.skew(g as usize);
            t.rows.insert(name, row);
        }
        t.baseline = baseline;
        t.mutations = mutations;
        Ok(t)
    }
}

/// Mutable view of one row keeping `total` in sync with `counts`.
struct RowHandle<'a> {
    row: &'a mut DriftRow,
}

impl RowHandle<'_> {
    fn add(&mut self, bucket: u16, n: u64) {
        self.row.counts[bucket as usize] += n;
        self.row.total += n;
    }

    fn sub(&mut self, bucket: u16, n: u64) {
        let c = &mut self.row.counts[bucket as usize];
        *c = c.saturating_sub(n);
        self.row.total = self.row.total.saturating_sub(n);
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
            baseline: 0.0,
        };
        assert!(flat.skew(4).abs() < 1e-12);

        let piled = DriftRow {
            counts: vec![40, 0, 0, 0],
            total: 40,
            baseline: 0.0,
        };
        // TV distance from uniform with everything in one of 4 buckets.
        assert!((piled.skew(4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ingest_then_retract_round_trips() {
        let tree = parse_str("<a><b/><b/><c/></a>").unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let input = classify_document(&tree, &catalog);
        let grid = Grid::uniform(4, 19).unwrap();

        let mut t = DriftTracker::new(4);
        let empty_skew = t.skew();
        t.ingest_document(&grid, &catalog, &input, 1);
        assert!(t.skew() > 0.0, "small doc in a corner must skew");
        assert_eq!(t.mutations(), 1);
        t.retract_document(&grid, &catalog, &input, 1);
        assert_eq!(t.skew(), empty_skew);
        assert_eq!(t.mutations(), 2);
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

    #[test]
    fn predicate_drift_is_per_row_and_rebaselined() {
        // Two tags with different growth: after rebaselining, piling new
        // matches of only one tag into its existing buckets must move
        // that predicate's drift while leaving the other at zero.
        let tree = parse_str("<a><b/><b/><c/></a>").unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let input = classify_document(&tree, &catalog);
        let grid = Grid::uniform(4, 39).unwrap();
        // Spread the baseline across all four buckets so piling new
        // matches into one bucket genuinely worsens the fit (a
        // single-bucket row has maximal skew at any count).
        let mut t = DriftTracker::from_inputs(
            &grid,
            &catalog,
            &[(&input, 1), (&input, 11), (&input, 21), (&input, 31)],
        );

        // Fresh from derivation: every predicate sits at its baseline.
        for (name, _, _) in t.entry_skews() {
            assert_eq!(t.predicate_drift(&name), Some(0.0), "{name}");
        }
        assert!(t.drifted_predicates(0.0).is_empty());
        assert_eq!(t.predicate_drift("no-such-predicate"), None);

        // A lopsided follow-up document: only `b` matches, all in the
        // first bucket again.
        let skewed = parse_str("<a><b/><b/><b/><b/></a>").unwrap();
        let skewed_input = classify_document(&skewed, &catalog);
        t.ingest_document(&grid, &catalog, &skewed_input, 1);
        let drifted = t.drifted_predicates(0.0);
        assert!(drifted.contains(&"b".to_owned()), "{drifted:?}");
        assert!(!drifted.contains(&"c".to_owned()), "{drifted:?}");
        assert_eq!(t.predicate_drift("c"), Some(0.0));
        // A threshold above the observed drift filters it out.
        assert!(t.drifted_predicates(1.0).is_empty());

        // Rebaselining re-records every row.
        t.rebaseline();
        assert_eq!(t.predicate_drift("b"), Some(0.0));
        assert!(t.drifted_predicates(0.0).is_empty());
    }

    #[test]
    fn persistence_parts_round_trip() {
        let mut t = DriftTracker::new(3);
        let grid = Grid::uniform(3, 29).unwrap();
        let tree = parse_str("<a><b/></a>").unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let input = classify_document(&tree, &catalog);
        t.ingest_document(&grid, &catalog, &input, 1);
        t.rebaseline();
        t.ingest_document(&grid, &catalog, &input, 3);

        let rows: Vec<(String, Vec<u64>)> = t
            .rows_for_persist()
            .map(|(n, c)| (n.to_owned(), c.to_vec()))
            .collect();
        let back = DriftTracker::from_parts(3, rows, t.baseline(), t.mutations()).unwrap();
        assert_eq!(back.skew(), t.skew());
        assert_eq!(back.baseline(), t.baseline());
        assert_eq!(back.mutations(), t.mutations());
        assert_eq!(back.drift(), t.drift());

        // Oversized rows are corrupt.
        assert!(DriftTracker::from_parts(2, vec![("x".into(), vec![1, 2, 3])], 0.0, 0).is_err());
    }
}
