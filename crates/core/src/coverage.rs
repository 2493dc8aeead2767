//! Coverage histograms — the summary structure for *no-overlap*
//! predicates (Section 4.2 of the paper).
//!
//! For a predicate `P` with the no-overlap property (Definition 2: no two
//! `P`-nodes nest), `Cvg_P[(i,j)][(m,n)]` is the fraction of **all** nodes
//! in grid cell `(i, j)` that are descendants of some `P`-node in cell
//! `(m, n)`. Because each node has at most one `P`-ancestor, these
//! fractions are disjoint across `(m, n)`.
//!
//! Although defined over cell *pairs*, only `O(g)` entries need storing
//! (Theorem 2):
//!
//! * if `(m, n)` is populated by `P` and `(i, j)` is strictly to the right
//!   of and below it (`m < i && j < n`), every node in `(i, j)` is inside
//!   every `P`-interval of `(m, n)` — coverage is exactly 1, implicit;
//! * if `(i, j)` is not within the descendant range of `(m, n)`, coverage
//!   is 0, implicit;
//! * only *border* pairs (`i == m || j == n`) can have partial values and
//!   are stored explicitly.
//!
//! Storage is flat **and CSR-indexed**: the covering-cell set, the
//! partial-fraction table and the propagation scales are sorted `Vec`s.
//! The partial table is sorted by `(covered, covering)` and carries two
//! derived indexes rebuilt on construction and load:
//!
//! * `covered_rows` — row offsets (length `g + 1`, like
//!   [`crate::FlatHistogram`]'s) locating the run of entries whose
//!   covered cell starts in bucket `i`, so point lookups search one row
//!   and the descendant-based merge kernel walks covered cells in
//!   lockstep with a position histogram's row-major entries;
//! * `covering_order` — a permutation of entry indexes sorted by
//!   `(covering, covered)`, giving the ancestor-based merge kernel the
//!   same lockstep walk grouped by covering cell.
//!
//! Both merge kernels in [`crate::no_overlap`] consume these orders with
//! monotone cursors — no per-pair binary searches on the estimation hot
//! path.
//!
//! The estimation formulas of Fig. 10 rescale coverage as patterns grow
//! (participation shrinks the set of covering nodes); the rescaling is a
//! per-covering-cell multiplier, kept separately so the border storage
//! stays `O(g)` after propagation. During twig evaluation the kernels
//! never clone this structure: propagation accumulates in a small
//! *overlay* of `(cell, factor)` scales owned by the estimation arena
//! ([`crate::no_overlap::TwigWorkspace`]), composed on top of the
//! multipliers stored here; [`CoverageHistogram::with_overlay`]
//! materializes the composition only when an owned result is requested.

use crate::grid::{Cell, Grid};
use std::collections::{BTreeMap, BTreeSet};
use xmlest_xml::Interval;

/// Bytes charged per explicit (partial) coverage entry: four `u16` bucket
/// indexes plus an `f32` fraction.
pub const BYTES_PER_COVERAGE_ENTRY: usize = 12;

/// Coverage summary for one no-overlap predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageHistogram {
    grid: Grid,
    /// Cells populated by the predicate (the covering side), sorted.
    covering_cells: Vec<Cell>,
    /// Explicit fractions for border pairs, sorted by `(covered,
    /// covering)` key.
    partial: Vec<((Cell, Cell), f64)>,
    /// CSR offsets into `partial` by covered start bucket (length
    /// `g + 1`): `covered_rows[i]..covered_rows[i + 1]` indexes the
    /// entries whose covered cell is `(i, _)`.
    covered_rows: Vec<u32>,
    /// Permutation of `partial` indexes sorted by `(covering, covered)`
    /// — the iteration order of the ancestor-based merge kernel.
    covering_order: Vec<u32>,
    /// Per-covering-cell multiplier applied on lookup (participation
    /// propagation, Fig. 10 "Coverage Estimation"), sorted by cell.
    /// Empty = all 1.
    covering_scale: Vec<(Cell, f64)>,
}

/// Builds the two derived orders over a `(covered, covering)`-sorted
/// partial table: CSR row offsets by covered start bucket and the
/// covering-major permutation.
fn partial_indexes(partial: &[((Cell, Cell), f64)], g: u16) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(
        partial.windows(2).all(|w| w[0].0 < w[1].0),
        "partial sorted"
    );
    let mut covered_rows = vec![0u32; g as usize + 1];
    for &(((i, _), _), _) in partial {
        covered_rows[i as usize + 1] += 1;
    }
    for i in 0..g as usize {
        covered_rows[i + 1] += covered_rows[i];
    }
    let mut covering_order: Vec<u32> = (0..partial.len() as u32).collect();
    covering_order.sort_unstable_by_key(|&k| {
        let ((covered, covering), _) = partial[k as usize];
        (covering, covered)
    });
    (covered_rows, covering_order)
}

/// Precomputed denominator state shared by every coverage build over
/// the same node population: each node's grid cell in document order,
/// plus the sorted per-cell totals. Building it is one `O(n log n)`
/// pass; each predicate's [`CoverageHistogram::build_in`] then touches
/// only the nodes its own intervals actually cover instead of
/// re-bucketing the whole document — the all-entries shard build used
/// to pay `O(entries × nodes)` here.
pub struct CoverageContext {
    /// Node interval starts in document order (non-decreasing — a
    /// parent can share its start with its first child under the
    /// min-descendant labeling).
    starts: Vec<u32>,
    /// Node interval ends, parallel to `starts`.
    ends: Vec<u32>,
    /// Grid cell of each node, parallel to `starts`.
    cells: Vec<Cell>,
    /// Per-cell node totals, sorted by cell.
    totals: Vec<(Cell, u64)>,
    /// The grid the cells were bucketed on (consistency checks only).
    g: u16,
}

impl CoverageContext {
    /// Buckets `all_nodes` (every node of the tree, document order) on
    /// `grid` once, for any number of per-predicate coverage builds.
    pub fn new(grid: &Grid, all_nodes: &[Interval]) -> Self {
        debug_assert!(
            all_nodes.windows(2).all(|w| w[0].start <= w[1].start),
            "node intervals must be in document order"
        );
        let starts: Vec<u32> = all_nodes.iter().map(|iv| iv.start).collect();
        let ends: Vec<u32> = all_nodes.iter().map(|iv| iv.end).collect();
        let cells: Vec<Cell> = all_nodes.iter().map(|&iv| grid.cell_of(iv)).collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        let totals = run_lengths(&sorted);
        CoverageContext {
            starts,
            ends,
            cells,
            totals,
            g: grid.g(),
        }
    }
}

impl CoverageHistogram {
    /// Builds the coverage histogram from data.
    ///
    /// * `all_nodes` — intervals of **every** node in the tree (the TRUE
    ///   predicate), the denominator population;
    /// * `p_intervals` — intervals of the `P`-nodes, sorted by start and
    ///   pairwise disjoint (the caller guarantees no-overlap).
    ///
    /// One-shot convenience over [`CoverageHistogram::build_in`]; bulk
    /// builders (the shard path) hoist the
    /// [`CoverageContext`] and amortize the node pass across predicates.
    pub fn build(grid: Grid, all_nodes: &[Interval], p_intervals: &[Interval]) -> Self {
        let ctx = CoverageContext::new(&grid, all_nodes);
        Self::build_in(grid, &ctx, p_intervals)
    }

    /// [`CoverageHistogram::build`] against a prebuilt denominator
    /// context (same grid). Cost is `O(p log n + covered)` — the nodes
    /// under the predicate's intervals, not the whole document.
    pub fn build_in(grid: Grid, ctx: &CoverageContext, p_intervals: &[Interval]) -> Self {
        debug_assert_eq!(ctx.g, grid.g(), "context bucketed on another grid");
        debug_assert!(
            p_intervals.windows(2).all(|w| w[0].end < w[1].start),
            "predicate intervals must be disjoint and sorted (no-overlap)"
        );
        let mut covering_cells: Vec<Cell> =
            p_intervals.iter().map(|iv| grid.cell_of(*iv)).collect();
        covering_cells.sort_unstable();
        covering_cells.dedup();

        // A node's unique P-ancestor is the last P-interval starting
        // strictly before it that still encloses it; inverted, each
        // P-interval's descendants are a contiguous run of the
        // document-ordered starts. Walking only those runs yields the
        // same (node cell, ancestor cell) pair multiset the old
        // whole-document scan produced — disjointness makes the runs
        // non-overlapping and in document order.
        let mut pairs: Vec<(Cell, Cell)> = Vec::new();
        for p in p_intervals {
            let pcell = grid.cell_of(*p);
            let lo = ctx.starts.partition_point(|&s| s <= p.start);
            let hi = ctx.starts.partition_point(|&s| s <= p.end);
            for i in lo..hi {
                // The end check mirrors `is_ancestor_of` exactly; for
                // properly nested tree labels it never fails.
                if p.end >= ctx.ends[i] {
                    pairs.push((ctx.cells[i], pcell));
                }
            }
        }
        pairs.sort_unstable();

        let totals = &ctx.totals;
        let covered = run_lengths(&pairs);

        // Store only the border pairs; interior pairs must come out as
        // exactly 1 and are reconstructed geometrically.
        let mut partial = Vec::new();
        for ((dcell, acell), cnt) in covered {
            #[expect(
                clippy::expect_used,
                reason = "every covered pair's cell was pushed into dcells in the same pass; totals always contains it"
            )]
            let t_idx = totals
                .binary_search_by_key(&dcell, |&(c, _)| c)
                .expect("covered cell has population");
            let frac = cnt as f64 / totals[t_idx].1 as f64;
            let strictly_inside = acell.0 < dcell.0 && dcell.1 < acell.1;
            if strictly_inside {
                debug_assert!(
                    (frac - 1.0).abs() < 1e-12,
                    "interior coverage must be 1, got {frac} for {dcell:?} in {acell:?}"
                );
            } else {
                partial.push(((dcell, acell), frac));
            }
        }

        let (covered_rows, covering_order) = partial_indexes(&partial, grid.g());
        let out = CoverageHistogram {
            grid,
            covering_cells,
            partial,
            covered_rows,
            covering_order,
            covering_scale: Vec::new(),
        };
        crate::invariants::checkpoint("CoverageHistogram::build", || out.validate());
        out
    }

    /// The grid shared with the position histograms.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Coverage fraction of cell `covered` by predicate nodes in cell
    /// `covering`, including any propagation scaling. Point lookups
    /// search only the covered cell's CSR row; the estimation kernels
    /// avoid even that by walking the rows with merge cursors.
    pub fn coverage(&self, covered: Cell, covering: Cell) -> f64 {
        if covered.0 >= self.grid.g() {
            return 0.0;
        }
        let row = &self.partial[self.covered_rows[covered.0 as usize] as usize
            ..self.covered_rows[covered.0 as usize + 1] as usize];
        let base = if let Ok(k) = row.binary_search_by_key(&(covered, covering), |&(key, _)| key) {
            row[k].1
        } else if covering.0 < covered.0
            && covered.1 < covering.1
            && self.covering_cells.binary_search(&covering).is_ok()
        {
            1.0
        } else {
            0.0
        };
        base * self.scale_of(covering)
    }

    #[inline]
    fn scale_of(&self, covering: Cell) -> f64 {
        match self
            .covering_scale
            .binary_search_by_key(&covering, |&(c, _)| c)
        {
            Ok(k) => self.covering_scale[k].1,
            Err(_) => 1.0,
        }
    }

    /// Sum of coverage over every covering cell — the fraction of nodes
    /// in `covered` that have *some* covering ancestor. Under no-overlap
    /// the events are disjoint, so this is at most 1 (before scaling).
    pub fn total_coverage(&self, covered: Cell) -> f64 {
        self.covering_cells
            .iter()
            .map(|&a| self.coverage(covered, a))
            .sum()
    }

    /// Applies a per-covering-cell multiplier (participation ratio from
    /// Fig. 10's coverage-estimation step).
    pub fn scale_covering(&mut self, covering: Cell, factor: f64) {
        match self
            .covering_scale
            .binary_search_by_key(&covering, |&(c, _)| c)
        {
            Ok(k) => self.covering_scale[k].1 *= factor,
            Err(k) => self.covering_scale.insert(k, (covering, factor)),
        }
    }

    /// Covering cells (populated predicate cells) in order.
    pub fn covering_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.covering_cells.iter().copied()
    }

    /// Number of explicitly stored (partial) entries — the Theorem 2
    /// quantity.
    pub fn partial_entries(&self) -> usize {
        self.partial.len()
    }

    /// Sparse storage footprint in bytes, as plotted in Fig. 12.
    pub fn storage_bytes(&self) -> usize {
        self.partial.len() * BYTES_PER_COVERAGE_ENTRY
    }

    /// Iterates explicit entries `((covered, covering), fraction)`.
    pub fn iter_partial(&self) -> impl Iterator<Item = ((Cell, Cell), f64)> + '_ {
        self.partial.iter().copied()
    }

    /// Iterates propagation scales (covering cell, multiplier).
    pub(crate) fn iter_scales(&self) -> impl Iterator<Item = (Cell, f64)> + '_ {
        self.covering_scale.iter().copied()
    }

    /// Partial entries sorted by `(covered, covering)` — the
    /// descendant-based merge order.
    pub(crate) fn partial_slice(&self) -> &[((Cell, Cell), f64)] {
        &self.partial
    }

    /// Permutation of partial-entry indexes in `(covering, covered)`
    /// order — the ancestor-based merge order.
    pub(crate) fn covering_order(&self) -> &[u32] {
        &self.covering_order
    }

    /// Sorted covering cells as a slice (merge-cursor input).
    pub(crate) fn covering_cells_slice(&self) -> &[Cell] {
        &self.covering_cells
    }

    /// Sorted propagation scales as a slice (merge-cursor input).
    pub(crate) fn scales_slice(&self) -> &[(Cell, f64)] {
        &self.covering_scale
    }

    /// An owned copy with an overlay of per-covering-cell factors
    /// multiplied into the stored scales — how the estimation arena's
    /// borrowed propagation state materializes into a standalone
    /// histogram (e.g. for an owned [`crate::no_overlap::NodeStats`]).
    pub fn with_overlay(&self, overlay: &[(Cell, f64)]) -> CoverageHistogram {
        let mut out = self.clone();
        for &(cell, factor) in overlay {
            out.scale_covering(cell, factor);
        }
        out
    }

    /// Checks every structural invariant of the flat coverage storage:
    /// a valid grid; covering cells sorted, deduplicated,
    /// upper-triangular and in range; the partial table strictly sorted
    /// by `(covered, covering)` with finite fractions in `(0, 1]`,
    /// **border pairs only** (a strictly-interior pair stored
    /// explicitly would be double-counted — the merge kernels account
    /// interior coverage geometrically as exactly 1), every covering
    /// side present in `covering_cells`; both derived merge orders
    /// (`covered_rows` CSR offsets, the `covering_order` permutation)
    /// exactly as a rebuild from the partial table produces them; and
    /// propagation scales sorted with finite non-negative factors.
    /// Returns the first violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        self.grid.validate()?;
        let g = self.grid.g();
        let in_range = |c: Cell| -> bool { c.0 < g && c.1 < g && c.0 <= c.1 };
        for w in self.covering_cells.windows(2) {
            invariant!(
                w[0] < w[1],
                "covering cells not strictly sorted: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        for &c in &self.covering_cells {
            invariant!(in_range(c), "covering cell {c:?} invalid for g={g}");
        }
        for w in self.partial.windows(2) {
            invariant!(
                w[0].0 < w[1].0,
                "partial table not strictly sorted: {:?} then {:?}",
                w[0].0,
                w[1].0
            );
        }
        for &((covered, covering), frac) in &self.partial {
            invariant!(
                in_range(covered) && in_range(covering),
                "partial pair ({covered:?}, {covering:?}) invalid for g={g}"
            );
            invariant!(
                frac.is_finite() && frac > 0.0 && frac <= 1.0 + 1e-9,
                "fraction {frac} for ({covered:?}, {covering:?}) outside (0, 1]"
            );
            invariant!(
                !(covering.0 < covered.0 && covered.1 < covering.1),
                "strictly-interior pair ({covered:?} inside {covering:?}) stored explicitly"
            );
            invariant!(
                covered.0 == covering.0 || covered.1 == covering.1,
                "non-border pair ({covered:?}, {covering:?}) stored explicitly"
            );
            invariant!(
                self.covering_cells.binary_search(&covering).is_ok(),
                "partial references covering cell {covering:?} absent from the covering set"
            );
        }
        let (covered_rows, covering_order) = partial_indexes(&self.partial, g);
        invariant!(
            self.covered_rows == covered_rows,
            "covered_rows CSR offsets disagree with the partial table"
        );
        invariant!(
            self.covering_order == covering_order,
            "covering_order permutation disagrees with the partial table"
        );
        for w in self.covering_scale.windows(2) {
            invariant!(
                w[0].0 < w[1].0,
                "propagation scales not strictly sorted: {:?} then {:?}",
                w[0].0,
                w[1].0
            );
        }
        for &(c, f) in &self.covering_scale {
            invariant!(
                f.is_finite() && f >= 0.0,
                "propagation scale {f} for {c:?} not a finite non-negative factor"
            );
        }
        Ok(())
    }

    /// Reconstructs from persisted parts. Partial entries must describe
    /// border pairs only (`covered.0 == covering.0 || covered.1 ==
    /// covering.1`), the invariant [`Self::build`] guarantees — the
    /// merge kernels account interior pairs geometrically and would
    /// double-count an interior entry stored explicitly.
    pub(crate) fn from_parts(
        grid: Grid,
        covering_cells: BTreeSet<Cell>,
        partial: BTreeMap<(Cell, Cell), f64>,
        covering_scale: BTreeMap<Cell, f64>,
    ) -> Self {
        // The ordered collections arrive sorted; collecting keeps the
        // binary-search invariants. The derived merge orders are rebuilt
        // rather than persisted.
        let partial: Vec<((Cell, Cell), f64)> = partial.into_iter().collect();
        let (covered_rows, covering_order) = partial_indexes(&partial, grid.g());
        CoverageHistogram {
            grid,
            covering_cells: covering_cells.into_iter().collect(),
            partial,
            covered_rows,
            covering_order,
            covering_scale: covering_scale.into_iter().collect(),
        }
    }
}

/// Run-length encodes a sorted slice into `(value, count)` pairs.
fn run_lengths<T: Copy + PartialEq>(sorted: &[T]) -> Vec<(T, u64)> {
    let mut out: Vec<(T, u64)> = Vec::new();
    for &v in sorted {
        match out.last_mut() {
            Some((last, n)) if *last == v => *n += 1,
            _ => out.push((v, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u32, e: u32) -> Interval {
        Interval::new(s, e)
    }

    /// All 31 node intervals of the Fig. 1 document (see xml crate tests).
    fn fig1_nodes() -> Vec<Interval> {
        let mut v = vec![iv(0, 30)];
        v.push(iv(1, 3)); // faculty1
        v.extend([iv(2, 2), iv(3, 3)]);
        v.push(iv(4, 5)); // staff
        v.push(iv(5, 5));
        v.push(iv(6, 11)); // faculty2
        v.extend((7..=11).map(|p| iv(p, p)));
        v.push(iv(12, 16)); // lecturer
        v.extend((13..=16).map(|p| iv(p, p)));
        v.push(iv(17, 23)); // faculty3
        v.extend((18..=23).map(|p| iv(p, p)));
        v.push(iv(24, 30)); // research_scientist
        v.extend((25..=30).map(|p| iv(p, p)));
        v
    }

    fn faculty() -> Vec<Interval> {
        vec![iv(1, 3), iv(6, 11), iv(17, 23)]
    }

    #[test]
    fn fig8_coverage_for_faculty() {
        // The paper's Fig. 8 walkthrough: coverage stored per cell pair.
        // With our numbering: cell (0,0) has 14 nodes, 7 covered -> 0.5;
        // cell (1,1) has 15 nodes, 6 covered -> 0.4.
        let grid = Grid::uniform(2, 30).unwrap();
        let cvg = CoverageHistogram::build(grid, &fig1_nodes(), &faculty());
        assert!((cvg.coverage((0, 0), (0, 0)) - 0.5).abs() < 1e-12);
        assert!((cvg.coverage((1, 1), (1, 1)) - 0.4).abs() < 1e-12);
        assert_eq!(
            cvg.coverage((0, 0), (1, 1)),
            0.0,
            "later cell cannot cover earlier"
        );
        assert_eq!(
            cvg.coverage((0, 1), (0, 0)),
            0.0,
            "wider cell not covered by narrower"
        );
        assert_eq!(cvg.partial_entries(), 2);
        assert_eq!(cvg.storage_bytes(), 2 * BYTES_PER_COVERAGE_ENTRY);
    }

    #[test]
    fn interior_cells_reconstruct_to_one() {
        // A single big P-interval covering nearly everything, fine grid:
        // interior cells are implicitly 1 and not stored.
        let grid = Grid::uniform(8, 63).unwrap();
        let p = vec![iv(0, 63)];
        let mut nodes = vec![iv(0, 63)];
        nodes.extend((1..=63).map(|x| iv(x, x)));
        let cvg = CoverageHistogram::build(grid, &nodes, &p);
        // Cell (3,3) is strictly inside P's cell (0,7).
        assert_eq!(cvg.coverage((3, 3), (0, 7)), 1.0);
        // Column-border cell (0,0) holds the leaves at positions 1..7,
        // all covered (P itself lives in cell (0,7)): stored explicitly
        // as 1 because the geometry alone cannot prove it.
        assert_eq!(cvg.coverage((0, 0), (0, 7)), 1.0);
        // Row border: cell (7,7) nodes are covered (end bucket == P's);
        // stored explicitly as 1.
        assert_eq!(cvg.coverage((7, 7), (0, 7)), 1.0);
        // Only border pairs are stored.
        for ((d, a), _) in cvg.iter_partial() {
            assert!(
                d.0 == a.0 || d.1 == a.1,
                "non-border pair stored: {d:?} in {a:?}"
            );
        }
    }

    #[test]
    fn validate_accepts_built_coverage() {
        for g in [1u16, 2, 4, 8, 16] {
            let grid = Grid::uniform(g, 30).unwrap();
            let mut cvg = CoverageHistogram::build(grid, &fig1_nodes(), &faculty());
            cvg.validate().unwrap();
            cvg.scale_covering((0, 0), 0.5);
            cvg.validate().unwrap();
        }
        // The interior-heavy shape: one covering interval spanning all.
        let grid = Grid::uniform(8, 63).unwrap();
        let mut nodes = vec![iv(0, 63)];
        nodes.extend((1..=63).map(|x| iv(x, x)));
        CoverageHistogram::build(grid, &nodes, &[iv(0, 63)])
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_single_field_mutations() {
        // A single P-interval in cell (0, 7): interior pairs exist
        // geometrically, so an explicitly stored one is expressible.
        let grid = Grid::uniform(8, 63).unwrap();
        let mut nodes = vec![iv(0, 63)];
        nodes.extend((1..=63).map(|x| iv(x, x)));
        let good = CoverageHistogram::build(grid, &nodes, &[iv(0, 63)]);
        good.validate().unwrap();
        assert!(good.partial.len() >= 2, "test needs a few partial entries");

        // An interior pair stored explicitly, with the derived indexes
        // consistently rebuilt — only the border-pair rule can object.
        let mut c = good.clone();
        c.partial.push((((3, 3), (0, 7)), 1.0));
        c.partial.sort_unstable_by_key(|a| a.0);
        let (rows, order) = partial_indexes(&c.partial, c.grid.g());
        c.covered_rows = rows;
        c.covering_order = order;
        let err = c.validate().unwrap_err();
        assert!(err.contains("interior"), "wrong rejection: {err}");

        let mut c = good.clone();
        c.partial.swap(0, 1);
        assert!(c.validate().is_err(), "unsorted partial table accepted");

        let mut c = good.clone();
        c.partial[0].1 = 0.0;
        assert!(c.validate().is_err(), "zero fraction accepted");

        let mut c = good.clone();
        c.partial[0].1 = 1.5;
        assert!(c.validate().is_err(), "fraction above 1 accepted");

        let mut c = good.clone();
        c.covering_order.reverse();
        assert!(c.validate().is_err(), "stale covering_order accepted");

        let mut c = good.clone();
        c.covered_rows[1] += 1;
        assert!(c.validate().is_err(), "corrupt covered_rows accepted");

        let mut c = good.clone();
        c.covering_cells.clear();
        assert!(c.validate().is_err(), "orphan partial entries accepted");

        let mut c = good.clone();
        c.covering_scale.push(((0, 7), -1.0));
        assert!(c.validate().is_err(), "negative propagation scale accepted");
    }

    #[test]
    fn total_coverage_bounded_by_one() {
        let grid = Grid::uniform(4, 30).unwrap();
        let cvg = CoverageHistogram::build(grid.clone(), &fig1_nodes(), &faculty());
        for i in 0..4u16 {
            for j in i..4u16 {
                let t = cvg.total_coverage((i, j));
                assert!((0.0..=1.0 + 1e-12).contains(&t), "cell ({i},{j}) total {t}");
            }
        }
    }

    #[test]
    fn scaling_multiplies_lookups() {
        let grid = Grid::uniform(2, 30).unwrap();
        let mut cvg = CoverageHistogram::build(grid, &fig1_nodes(), &faculty());
        cvg.scale_covering((0, 0), 0.5);
        assert!((cvg.coverage((0, 0), (0, 0)) - 0.25).abs() < 1e-12);
        // Other covering cells unaffected.
        assert!((cvg.coverage((1, 1), (1, 1)) - 0.4).abs() < 1e-12);
        // Scaling composes.
        cvg.scale_covering((0, 0), 0.5);
        assert!((cvg.coverage((0, 0), (0, 0)) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn empty_predicate_covers_nothing() {
        let grid = Grid::uniform(4, 30).unwrap();
        let cvg = CoverageHistogram::build(grid, &fig1_nodes(), &[]);
        for i in 0..4u16 {
            for j in i..4u16 {
                assert_eq!(cvg.total_coverage((i, j)), 0.0);
            }
        }
        assert_eq!(cvg.partial_entries(), 0);
    }

    #[test]
    fn theorem2_storage_linear_in_g() {
        // A comb tree: many disjoint P-intervals, each with a few
        // children. Partial entries should grow ~linearly with g, not g².
        let mut p = Vec::new();
        let mut nodes = vec![iv(0, 9999)];
        let mut pos = 1;
        while pos + 4 < 10000 {
            p.push(iv(pos, pos + 3));
            nodes.push(iv(pos, pos + 3));
            for k in 1..=3 {
                nodes.push(iv(pos + k, pos + k));
            }
            pos += 5;
        }
        let mut per_g = Vec::new();
        for g in [10u16, 20, 40] {
            let grid = Grid::uniform(g, 9999).unwrap();
            let cvg = CoverageHistogram::build(grid, &nodes, &p);
            per_g.push((g as usize, cvg.partial_entries()));
        }
        for (g, entries) in per_g {
            assert!(
                entries <= 6 * g,
                "g={g}: {entries} partial entries is superlinear"
            );
        }
    }
}
