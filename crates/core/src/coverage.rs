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
use crate::position_histogram::{CellAccumulator, PositionHistogram};
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

/// Denominator state shared by every coverage build over one node
/// population: each node's grid cell, and the per-cell node totals (the
/// population's TRUE histogram), counted in the same single pass. Each
/// predicate's [`CoverageHistogram::build_in`] then touches only the
/// nodes under its own intervals instead of re-bucketing the document,
/// and reads its own intervals' cells from here.
///
/// Node ids are pre-order positions, so in a tree's labeling node `k`
/// starts at position `base + k`, and the descendants of a covering
/// interval are the index range its positions name — found by
/// arithmetic, with no search. A population not numbered that way
/// (hand-built inputs where a parent shares its first child's start) is
/// walked with a monotone cursor instead.
pub struct CoverageContext<'a> {
    /// Node intervals in document order.
    nodes: &'a [Interval],
    /// Whether node `k` starts at position `nodes[0].start + k`.
    numbered: bool,
    /// Shift from node positions to grid positions.
    offset: u32,
    /// Grid cell of each node, parallel to `nodes`.
    cells: Vec<Cell>,
    /// Per-cell node totals: the population's TRUE histogram.
    totals: PositionHistogram,
}

impl<'a> CoverageContext<'a> {
    /// Buckets `all_nodes` (every node of the tree, document order) on
    /// `grid` once, for any number of per-predicate coverage builds.
    pub fn new(grid: &Grid, all_nodes: &'a [Interval]) -> Self {
        Self::shifted(grid, all_nodes, 0, &mut CellAccumulator::default())
    }

    /// [`CoverageContext::new`] over a shard's local intervals, bucketed
    /// at their mega-tree positions `offset` further on. Builds against
    /// it take intervals in the same local positions.
    pub(crate) fn shifted(
        grid: &Grid,
        nodes: &'a [Interval],
        offset: u32,
        acc: &mut CellAccumulator,
    ) -> Self {
        debug_assert!(
            nodes.windows(2).all(|w| w[0].start <= w[1].start),
            "node intervals must be in document order"
        );
        let numbered = nodes.first().is_some_and(|first| {
            let base = first.start as u64;
            nodes
                .iter()
                .enumerate()
                .all(|(k, iv)| iv.start as u64 == base + k as u64)
        });
        acc.start(grid.g());
        // Document order makes start buckets non-decreasing, and an end
        // never precedes its start: both searches start from a known
        // bucket and usually stop there.
        let (mut last_start, mut last_bucket) = (0u32, 0u16);
        let cells = nodes
            .iter()
            .map(|iv| {
                let (start, end) = (iv.start + offset, iv.end + offset);
                let i = if start >= last_start {
                    grid.bucket_from(start, last_bucket)
                } else {
                    grid.bucket_of(start)
                };
                (last_start, last_bucket) = (start, i);
                let cell = (i, grid.bucket_from(end, i));
                acc.add(cell, 1.0);
                cell
            })
            .collect();
        CoverageContext {
            nodes,
            numbered,
            offset,
            cells,
            totals: PositionHistogram::from_counted(grid.clone(), acc),
        }
    }

    /// Consumes the context, keeping its per-cell node totals: the
    /// population's TRUE histogram.
    pub fn into_totals(self) -> PositionHistogram {
        self.totals
    }

    /// The grid cell of `iv`, read from the node it labels when it is
    /// one of the population's nodes, bucketed otherwise.
    #[inline]
    pub(crate) fn cell(&self, grid: &Grid, iv: Interval) -> Cell {
        if self.numbered {
            let k = iv.start.wrapping_sub(self.nodes[0].start) as usize;
            if self.nodes.get(k) == Some(&iv) {
                return self.cells[k];
            }
        }
        grid.cell_of(Interval::new(iv.start + self.offset, iv.end + self.offset))
    }

    /// Index of the first node at or after index `from` that starts
    /// after position `pos`.
    #[inline]
    fn first_after(&self, pos: u32, from: usize) -> usize {
        let n = self.nodes.len();
        if self.numbered {
            let base = self.nodes.first().map_or(0, |iv| iv.start as u64);
            let k = (pos as u64 + 1).saturating_sub(base).min(n as u64) as usize;
            k.max(from)
        } else {
            let mut k = from;
            while k < n && self.nodes[k].start <= pos {
                k += 1;
            }
            k
        }
    }
}

/// Reusable scratch for coverage builds (see [`CellAccumulator`] for
/// why builds share one).
#[derive(Debug, Default)]
pub(crate) struct CoverageScratch {
    /// Border counts under the current covering cell `(m, n)`: slot
    /// `j - m` for the row border `(m, j)`, slot `n - m + i - m` for the
    /// column border `(i, n)` with `i > m`. The covering cells of
    /// disjoint intervals span bucket ranges that share at most an end
    /// bucket, so the arrays one build zeroes add up to O(g) slots.
    border: Vec<u32>,
    /// Border pairs `((covered, covering), nodes)`.
    pairs: Vec<((Cell, Cell), u32)>,
    /// Covering cells in the order their intervals arrived.
    covering: Vec<Cell>,
}

impl CoverageScratch {
    /// Moves the current covering cell's non-zero border counts into
    /// `pairs`, in covered-cell order.
    fn flush(&mut self, (m, n): Cell) {
        let w = (n - m) as usize;
        for (slot, &count) in self.border.iter().enumerate() {
            if count > 0 {
                let covered = if slot <= w {
                    (m, m + slot as u16)
                } else {
                    (m + (slot - w) as u16, n)
                };
                self.pairs.push(((covered, (m, n)), count));
            }
        }
    }
}

impl CoverageHistogram {
    /// Builds the coverage histogram from data.
    ///
    /// * `all_nodes` — intervals of **every** node in the tree (the TRUE
    ///   predicate), the denominator population, in document order;
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
    /// context (same grid, intervals in the same positions as its
    /// nodes). Cost is `O(p + covered)` — the nodes under the
    /// predicate's intervals, not the whole document.
    pub fn build_in(grid: Grid, ctx: &CoverageContext, p_intervals: &[Interval]) -> Self {
        Self::count_in(grid, ctx, p_intervals, &mut CoverageScratch::default())
    }

    /// [`CoverageHistogram::build_in`] with caller-owned scratch.
    ///
    /// Counts, not sorts. Disjoint intervals in document order have
    /// non-decreasing cells (each ends before the next starts), so the
    /// intervals of one covering cell arrive together and the covering
    /// set comes out sorted. Each interval's descendants are its index
    /// range in the context; only nodes on the covering cell's row or
    /// column border are counted — Theorem 2's stored pairs — while a
    /// node strictly inside the span is covered exactly once, which the
    /// kernels account as an implicit 1. Only the `O(g)` distinct border
    /// pairs are then put in `(covered, covering)` order.
    pub(crate) fn count_in(
        grid: Grid,
        ctx: &CoverageContext,
        p_intervals: &[Interval],
        scratch: &mut CoverageScratch,
    ) -> Self {
        debug_assert_eq!(
            ctx.totals.grid().g(),
            grid.g(),
            "context bucketed on another grid"
        );
        debug_assert!(
            p_intervals.windows(2).all(|w| w[0].end < w[1].start),
            "predicate intervals must be disjoint and sorted (no-overlap)"
        );
        scratch.pairs.clear();
        scratch.covering.clear();
        let mut current: Option<Cell> = None;
        let (mut cursor, mut last_start) = (0usize, 0u32);
        for &p in p_intervals {
            let acell = ctx.cell(&grid, p);
            if current != Some(acell) {
                if let Some(prev) = current {
                    scratch.flush(prev);
                }
                current = Some(acell);
                scratch.covering.push(acell);
                scratch.border.clear();
                scratch
                    .border
                    .resize(2 * (acell.1 - acell.0) as usize + 1, 0);
            }
            let (m, n) = acell;
            let w = (n - m) as usize;
            if p.start < last_start {
                cursor = 0;
            }
            last_start = p.start;
            let lo = ctx.first_after(p.start, cursor);
            let hi = ctx.first_after(p.end, lo);
            cursor = lo;
            for d in lo..hi {
                // The end check mirrors `is_ancestor_of`; for properly
                // nested tree labels it never fails.
                if ctx.nodes[d].end > p.end {
                    continue;
                }
                let (i, j) = ctx.cells[d];
                if i == m {
                    scratch.border[(j - m) as usize] += 1;
                } else if j == n {
                    scratch.border[w + (i - m) as usize] += 1;
                }
            }
        }
        if let Some(prev) = current {
            scratch.flush(prev);
        }

        // A covering cell seen in two separate runs (only intervals out
        // of document order do that) repeats its cell and border pairs.
        let pairs = &mut scratch.pairs;
        pairs.sort_unstable_by_key(|&(key, _)| key);
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        if !scratch.covering.windows(2).all(|w| w[0] < w[1]) {
            scratch.covering.sort_unstable();
            scratch.covering.dedup();
        }

        let partial: Vec<((Cell, Cell), f64)> = pairs
            .iter()
            .map(|&((covered, covering), count)| {
                ((covered, covering), count as f64 / ctx.totals.get(covered))
            })
            .collect();
        let out = Self::from_sorted(grid, scratch.covering.to_vec(), partial, Vec::new());
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
        Self::from_sorted(
            grid,
            covering_cells.into_iter().collect(),
            partial.into_iter().collect(),
            covering_scale.into_iter().collect(),
        )
    }

    /// [`Self::from_parts`] from parts already in their storage order:
    /// covering cells and scales sorted by cell, the partial table by
    /// `(covered, covering)`. The derived merge orders are rebuilt
    /// rather than persisted.
    pub(crate) fn from_sorted(
        grid: Grid,
        covering_cells: Vec<Cell>,
        partial: Vec<((Cell, Cell), f64)>,
        covering_scale: Vec<(Cell, f64)>,
    ) -> Self {
        let (covered_rows, covering_order) = partial_indexes(&partial, grid.g());
        CoverageHistogram {
            grid,
            covering_cells,
            partial,
            covered_rows,
            covering_order,
            covering_scale,
        }
    }
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
