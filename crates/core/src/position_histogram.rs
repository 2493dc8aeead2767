//! The position histogram (Section 3.1) — the paper's summary structure.
//!
//! A two-dimensional `g × g` grid over the `(start, end)` plane holding,
//! per cell, the number of predicate-matching nodes whose interval falls
//! in that cell. Values are `f64`: data-built histograms hold exact
//! integer counts (exactly representable below 2^53), while *derived*
//! histograms (estimates, compound predicates) hold fractional values —
//! one type serves both roles.
//!
//! Storage is sparse **and flat**. By Theorem 1 only `O(g)` of the `g²`
//! cells can be non-zero: the containment property forbids cells below
//! the diagonal outright, and Lemma 1's forbidden regions thin out the
//! rest. The backing store is a [`FlatHistogram`] — a single `Vec` of
//! `(cell, value)` entries sorted in row-major `(start-bucket,
//! end-bucket)` order, plus a CSR-style `row_offsets` table (length
//! `g + 1`) locating each start-bucket's run of entries. Compared to the
//! `BTreeMap` it replaced this keeps every hot estimation loop on one
//! contiguous allocation: point lookups are a binary search within one
//! row's slice, iteration is a linear scan, `plus` is a sorted merge,
//! and the pH-join's dense scatter reads straight through the entry
//! array. The per-cell byte accounting of the paper's Fig. 11/12
//! ([`BYTES_PER_CELL`]) is unchanged: entries are logically two `u16`
//! bucket indexes plus a count.
//!
//! Explicit zeros are never stored (a `set` to ~0 removes the entry), so
//! two histograms with equal cell contents compare equal structurally.

use crate::error::{Error, Result};
use crate::grid::{Cell, Grid};
use xmlest_xml::Interval;

/// Bytes we charge per non-zero cell when reporting storage: two `u16`
/// bucket indexes plus a `u32` count, matching the paper's "a few bytes
/// per cell, linear in g" accounting.
pub const BYTES_PER_CELL: usize = 8;

/// Flat sparse storage for one `g × g` upper-triangular grid of `f64`
/// cells: row-major sorted entries plus per-row offsets (CSR with the
/// column index stored inline in the entry).
///
/// This is the allocation the whole estimation stack runs on; it is
/// exposed (rather than private to [`PositionHistogram`]) so property
/// tests can drive it directly against a map-based reference model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatHistogram {
    /// `(cell, value)` sorted by cell in row-major order; no zeros.
    entries: Vec<(Cell, f64)>,
    /// `row_offsets[i]..row_offsets[i + 1]` indexes row `i`'s entries.
    /// Length `g + 1`.
    row_offsets: Vec<u32>,
}

impl FlatHistogram {
    /// An empty store for a `g`-row grid.
    pub fn new(g: u16) -> Self {
        FlatHistogram {
            entries: Vec::new(),
            row_offsets: vec![0; g as usize + 1],
        }
    }

    /// Number of rows (`g`).
    pub fn rows(&self) -> u16 {
        (self.row_offsets.len() - 1) as u16
    }

    /// Drops all entries, keeping capacity, and re-sizes to `g` rows.
    pub fn clear(&mut self, g: u16) {
        self.entries.clear();
        self.row_offsets.clear();
        self.row_offsets.resize(g as usize + 1, 0);
    }

    /// The entries of row `i` (start bucket `i`), sorted by end bucket.
    #[inline]
    pub fn row(&self, i: u16) -> &[(Cell, f64)] {
        let lo = self.row_offsets[i as usize] as usize;
        let hi = self.row_offsets[i as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// All entries in row-major order.
    #[inline]
    pub fn entries(&self) -> &[(Cell, f64)] {
        &self.entries
    }

    /// Value at `cell` (0 when absent). One binary search over the
    /// cell's row slice.
    #[inline]
    pub fn get(&self, cell: Cell) -> f64 {
        let row = self.row(cell.0);
        match row.binary_search_by_key(&cell.1, |&((_, j), _)| j) {
            Ok(k) => row[k].1,
            Err(_) => 0.0,
        }
    }

    /// Sets `cell` to `value` with a single position lookup, returning
    /// the previous value. Values indistinguishable from zero remove the
    /// entry (no explicit zeros are ever stored).
    pub fn set(&mut self, cell: Cell, value: f64) -> f64 {
        let lo = self.row_offsets[cell.0 as usize] as usize;
        let hi = self.row_offsets[cell.0 as usize + 1] as usize;
        let keep = value.abs() > f64::EPSILON;
        match self.entries[lo..hi].binary_search_by_key(&cell.1, |&((_, j), _)| j) {
            Ok(k) => {
                let old = self.entries[lo + k].1;
                if keep {
                    self.entries[lo + k].1 = value;
                } else {
                    self.entries.remove(lo + k);
                    for o in &mut self.row_offsets[cell.0 as usize + 1..] {
                        *o -= 1;
                    }
                }
                old
            }
            Err(k) => {
                if keep {
                    self.entries.insert(lo + k, (cell, value));
                    for o in &mut self.row_offsets[cell.0 as usize + 1..] {
                        *o += 1;
                    }
                }
                0.0
            }
        }
    }

    /// Adds `delta` to `cell`, returning the previous value.
    pub fn add(&mut self, cell: Cell, delta: f64) -> f64 {
        let old = self.get(cell);
        self.set(cell, old + delta);
        old
    }

    /// Appends an entry that sorts after every existing one (builder
    /// path — no search, no shifting). Panics in debug builds if order
    /// is violated.
    pub fn push(&mut self, cell: Cell, value: f64) {
        debug_assert!(
            self.entries.last().is_none_or(|&(c, _)| c < cell),
            "push out of order: {:?} after {:?}",
            cell,
            self.entries.last()
        );
        if value.abs() > f64::EPSILON {
            self.entries.push((cell, value));
            for o in &mut self.row_offsets[cell.0 as usize + 1..] {
                *o += 1;
            }
        }
    }

    /// Rebuilds `row_offsets` from sorted `entries` in one pass.
    fn rebuild_offsets(&mut self) {
        let g = self.rows() as usize;
        self.row_offsets.iter_mut().for_each(|o| *o = 0);
        for &((i, _), _) in &self.entries {
            self.row_offsets[i as usize + 1] += 1;
        }
        for i in 0..g {
            self.row_offsets[i + 1] += self.row_offsets[i];
        }
    }

    /// Multiplies every entry by `factor` in place. Entries that land
    /// within the zero threshold are dropped (offsets rebuilt only
    /// then), preserving the no-explicit-zeros invariant without
    /// allocating.
    pub fn scale(&mut self, factor: f64) {
        for (_, v) in &mut self.entries {
            *v *= factor;
        }
        if self.entries.iter().any(|&(_, v)| v.abs() <= f64::EPSILON) {
            self.entries.retain(|&(_, v)| v.abs() > f64::EPSILON);
            self.rebuild_offsets();
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cell holds mass.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// Checks every structural invariant of the CSR storage: entries
    /// strictly sorted row-major with in-range bucket indexes, no
    /// stored zeros or non-finite values, and row offsets that exactly
    /// index the entry runs (length `g + 1`, starting at 0, ending at
    /// `entries.len()`, each entry inside its declared row). Returns
    /// the first violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        invariant!(!self.row_offsets.is_empty(), "row_offsets empty");
        let g = self.rows();
        invariant!(self.row_offsets[0] == 0, "row_offsets[0] != 0");
        invariant!(
            *self.row_offsets.last().unwrap_or(&0) as usize == self.entries.len(),
            "row_offsets end {} != entry count {}",
            self.row_offsets.last().unwrap_or(&0),
            self.entries.len()
        );
        for (i, w) in self.row_offsets.windows(2).enumerate() {
            invariant!(
                w[0] <= w[1],
                "row_offsets not monotone at row {i}: {} then {}",
                w[0],
                w[1]
            );
        }
        for w in self.entries.windows(2) {
            invariant!(
                w[0].0 < w[1].0,
                "entries not strictly sorted: {:?} then {:?}",
                w[0].0,
                w[1].0
            );
        }
        for (k, &((i, j), v)) in self.entries.iter().enumerate() {
            invariant!(i < g && j < g, "cell ({i}, {j}) outside {g}x{g} grid");
            invariant!(v.is_finite(), "cell ({i}, {j}) holds non-finite {v}");
            invariant!(
                v.abs() > f64::EPSILON,
                "cell ({i}, {j}) stores an explicit zero ({v})"
            );
            let lo = self.row_offsets[i as usize] as usize;
            let hi = self.row_offsets[i as usize + 1] as usize;
            invariant!(
                lo <= k && k < hi,
                "entry {k} (cell ({i}, {j})) outside its row's offset run {lo}..{hi}"
            );
        }
        Ok(())
    }
}

/// Counts `(cell, value)` items into a [`FlatHistogram`], with no sort.
///
/// Items of one start-bucket row add into a dense per-column array, and
/// a bitset of the touched columns emits the row's cells in column order
/// when the row changes. A document-ordered interval list has
/// non-decreasing start buckets, and so do the shards of a collection
/// taken in position order, so for them that one pass is the whole
/// build. Rows that arrive out of order are regrouped by
/// [`Self::finish`]: a counting sort of the finished runs on their row,
/// stable so that each cell's values still add in arrival order, and one
/// more counting pass. Either way the result's entry list has exactly the
/// capacity it needs.
///
/// One accumulator serves any number of builds; the shard builder and
/// the merge reuse theirs, which keeps each build to the allocations of
/// its result.
#[derive(Debug, Default)]
pub(crate) struct CellAccumulator {
    /// Per-column sums of the current row; all zero between rows.
    cols: Vec<f64>,
    /// Bitset over the columns the current row touched.
    touched: Vec<u64>,
    /// The row items are adding into.
    row: Option<u16>,
    /// Whether rows have arrived in non-decreasing order so far.
    in_order: bool,
    /// Finished rows' cells, in arrival order.
    staged: Vec<(Cell, f64)>,
}

impl CellAccumulator {
    /// Starts a build on a `g`-row grid.
    pub(crate) fn start(&mut self, g: u16) {
        let g = g as usize;
        self.cols.clear();
        self.cols.resize(g, 0.0);
        self.touched.clear();
        self.touched.resize(g.div_ceil(64), 0);
        self.row = None;
        self.in_order = true;
        self.staged.clear();
    }

    /// Adds `value` to `cell`.
    #[inline]
    pub(crate) fn add(&mut self, (i, j): Cell, value: f64) {
        match self.row {
            Some(r) if r == i => {}
            Some(r) => {
                self.flush_row(r);
                self.in_order &= r < i;
                self.row = Some(i);
            }
            None => self.row = Some(i),
        }
        self.cols[j as usize] += value;
        self.touched[j as usize / 64] |= 1 << (j % 64);
    }

    /// Emits row `i`'s touched columns in order and zeroes them.
    fn flush_row(&mut self, i: u16) {
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = std::mem::take(&mut self.cols[j]);
                if v.abs() > f64::EPSILON {
                    self.staged.push(((i, j as u16), v));
                }
            }
        }
    }

    /// Ends the build: the counted cells as exact-capacity storage.
    pub(crate) fn finish(&mut self) -> FlatHistogram {
        if let Some(r) = self.row.take() {
            self.flush_row(r);
        }
        if !self.in_order {
            self.regroup();
        }
        let mut row_offsets = vec![0u32; self.cols.len() + 1];
        for &((i, _), _) in &self.staged {
            row_offsets[i as usize + 1] += 1;
        }
        for i in 1..row_offsets.len() {
            row_offsets[i] += row_offsets[i - 1];
        }
        FlatHistogram {
            entries: self.staged.as_slice().to_vec(),
            row_offsets,
        }
    }

    /// Stable counting sort of the staged cells on their row, then a
    /// second count that adds a cell's runs in their arrival order.
    fn regroup(&mut self) {
        let mut next = vec![0usize; self.cols.len() + 1];
        for &((i, _), _) in &self.staged {
            next[i as usize + 1] += 1;
        }
        for i in 1..next.len() {
            next[i] += next[i - 1];
        }
        let mut regrouped = vec![((0, 0), 0.0); self.staged.len()];
        for &item in &self.staged {
            let slot = &mut next[item.0 .0 as usize];
            regrouped[*slot] = item;
            *slot += 1;
        }
        self.staged.clear();
        self.in_order = true;
        for (cell, v) in regrouped {
            self.add(cell, v);
        }
        if let Some(r) = self.row.take() {
            self.flush_row(r);
        }
    }
}

/// A sparse 2-D histogram over `(start-bucket, end-bucket)` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionHistogram {
    grid: Grid,
    flat: FlatHistogram,
    total: f64,
}

impl PositionHistogram {
    /// An empty histogram on `grid`.
    pub fn empty(grid: Grid) -> Self {
        let g = grid.g();
        PositionHistogram {
            grid,
            flat: FlatHistogram::new(g),
            total: 0.0,
        }
    }

    /// Builds the histogram for a list of node intervals (the nodes
    /// matching one predicate), in any order. Counted, not sorted: a
    /// document-ordered list is one pass (see `CellAccumulator`).
    pub fn from_intervals(grid: Grid, intervals: &[Interval]) -> Self {
        let cells = intervals.iter().map(|&iv| grid.cell_of(iv));
        Self::count_cells(grid.clone(), cells, &mut CellAccumulator::default())
    }

    /// Counts one node per cell of `cells` into a histogram on `grid`,
    /// with a caller-owned accumulator.
    pub(crate) fn count_cells(
        grid: Grid,
        cells: impl Iterator<Item = Cell>,
        acc: &mut CellAccumulator,
    ) -> Self {
        acc.start(grid.g());
        for cell in cells {
            acc.add(cell, 1.0);
        }
        let out = Self::from_counted(grid, acc);
        crate::invariants::checkpoint("PositionHistogram::from_intervals", || out.validate());
        out
    }

    /// Finishes `acc`'s build as a histogram on `grid`.
    pub(crate) fn from_counted(grid: Grid, acc: &mut CellAccumulator) -> Self {
        let flat = acc.finish();
        PositionHistogram {
            grid,
            total: flat.total(),
            flat,
        }
    }

    /// The grid this histogram is bucketed on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The flat backing store (read-only; kernels index rows directly).
    #[inline]
    pub fn flat(&self) -> &FlatHistogram {
        &self.flat
    }

    /// Resets to an empty histogram on `grid`, keeping the entry
    /// capacity — the reuse hook for allocation-free estimation loops.
    pub fn clear_to(&mut self, grid: &Grid) {
        if &self.grid != grid {
            self.grid = grid.clone();
        }
        self.flat.clear(grid.g());
        self.total = 0.0;
    }

    /// Appends a cell that sorts after every cell already present (the
    /// zero-shift path used by kernels that emit in row-major order).
    #[inline]
    pub(crate) fn push_sorted(&mut self, cell: Cell, value: f64) {
        debug_assert!(cell.0 <= cell.1, "below-diagonal cell {cell:?}");
        self.flat.push(cell, value);
        if value.abs() > f64::EPSILON {
            self.total += value;
        }
    }

    /// Cell count lookup (zero for absent cells).
    #[inline]
    pub fn get(&self, cell: Cell) -> f64 {
        self.flat.get(cell)
    }

    /// Sets a cell value, maintaining the running total with a single
    /// store lookup. Values very close to zero are dropped to keep the
    /// store sparse.
    pub fn set(&mut self, cell: Cell, value: f64) {
        debug_assert!(cell.0 <= cell.1, "below-diagonal cell {cell:?}");
        let old = self.flat.set(cell, value);
        self.total -= old;
        if value.abs() > f64::EPSILON {
            self.total += value;
        }
    }

    /// Adds to a cell value.
    pub fn add(&mut self, cell: Cell, delta: f64) {
        let old = self.get(cell);
        self.set(cell, old + delta);
    }

    /// Sum over all cells.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of non-zero cells (the quantity bounded by Theorem 1).
    pub fn non_zero_cells(&self) -> usize {
        self.flat.len()
    }

    /// Sparse storage footprint in bytes, as plotted in Fig. 11/12.
    pub fn storage_bytes(&self) -> usize {
        self.flat.len() * BYTES_PER_CELL
    }

    /// Iterates non-zero cells in `(start-bucket, end-bucket)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Cell, f64)> + '_ {
        self.flat.entries().iter().copied()
    }

    /// Dense `g × g` matrix (row = start bucket, column = end bucket);
    /// used where the pH-join needs O(1) random access.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut m = Vec::new();
        self.write_dense(&mut m);
        m
    }

    /// [`Self::to_dense`] into a caller-owned buffer (resized and
    /// zeroed here) — the allocation-free path for join workspaces.
    pub fn write_dense(&self, buf: &mut Vec<f64>) {
        let g = self.grid.g() as usize;
        buf.clear();
        buf.resize(g * g, 0.0);
        for &((i, j), v) in self.flat.entries() {
            buf[i as usize * g + j as usize] = v;
        }
    }

    /// Elementwise product with a per-cell factor map (used to weight a
    /// participation histogram by its join factors).
    pub fn scaled_by(&self, factor: impl Fn(Cell) -> f64) -> PositionHistogram {
        let mut out = PositionHistogram::empty(self.grid.clone());
        self.scaled_by_into(factor, &mut out);
        out
    }

    /// Uniform in-place scaling — the allocation-free counterpart of
    /// [`Self::scaled_by`] with a constant factor (used by the
    /// parent–child correction on the twig hot path).
    pub fn scale_in_place(&mut self, factor: f64) {
        self.flat.scale(factor);
        self.total = self.flat.total();
    }

    /// [`Self::scaled_by`] into a reused output histogram.
    pub fn scaled_by_into(&self, factor: impl Fn(Cell) -> f64, out: &mut PositionHistogram) {
        out.clear_to(&self.grid);
        for &(cell, v) in self.flat.entries() {
            out.push_sorted(cell, v * factor(cell));
        }
    }

    /// Elementwise sum; grids must match. Single sorted merge — `O(n +
    /// m)` rather than per-cell lookups.
    pub fn plus(&self, other: &PositionHistogram) -> Result<PositionHistogram> {
        if self.grid != other.grid {
            return Err(Error::GridMismatch);
        }
        let mut out = PositionHistogram::empty(self.grid.clone());
        let (a, b) = (self.flat.entries(), other.flat.entries());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
            let take_b = i >= a.len() || (j < b.len() && b[j].0 <= a[i].0);
            if take_a && take_b {
                out.push_sorted(a[i].0, a[i].1 + b[j].1);
                i += 1;
                j += 1;
            } else if take_a {
                out.push_sorted(a[i].0, a[i].1);
                i += 1;
            } else {
                out.push_sorted(b[j].0, b[j].1);
                j += 1;
            }
        }
        crate::invariants::checkpoint("PositionHistogram::plus", || out.validate());
        Ok(out)
    }

    /// Checks Lemma 1: a non-zero cell `(i, j)` forbids non-zero counts
    /// in cells `(k, l)` with (a) `i < k < j` and `l > j` (starts strictly
    /// inside the span, ends beyond it) or (b) `k < i` and `i < l < j`
    /// (starts before, ends strictly inside) — both describe partial
    /// interval overlap, impossible under containment. Returns `true`
    /// when consistent. Data-built histograms always satisfy this; the
    /// check exists for tests and hand-constructed histograms.
    pub fn satisfies_lemma1(&self) -> bool {
        let cells = self.flat.entries();
        for &((i, j), _) in cells {
            for &((k, l), _) in cells {
                if i < k && k < j && l > j {
                    return false;
                }
                if k < i && i < l && l < j {
                    return false;
                }
            }
        }
        true
    }

    /// Verifies no cell lies below the diagonal (start bucket > end
    /// bucket). Construction guarantees this; exposed for property tests.
    pub fn upper_triangular(&self) -> bool {
        self.flat.entries().iter().all(|&((i, j), _)| i <= j)
    }

    /// Checks every structural invariant: a valid grid, valid CSR
    /// storage sized to it, upper-triangularity (an interval cannot end
    /// in an earlier bucket than it starts), and agreement between the
    /// incrementally maintained running total and the stored entries.
    /// Returns the first violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        self.grid.validate()?;
        self.flat.validate()?;
        invariant!(
            self.flat.rows() == self.grid.g(),
            "flat store has {} rows, grid has {} buckets",
            self.flat.rows(),
            self.grid.g()
        );
        invariant!(self.upper_triangular(), "below-diagonal cell stored");
        let sum = self.flat.total();
        invariant!(
            (self.total - sum).abs() <= 1e-6 * (1.0 + sum.abs()),
            "running total {} drifted from entry sum {}",
            self.total,
            sum
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u32, e: u32) -> Interval {
        Interval::new(s, e)
    }

    /// Intervals of the three faculty nodes in the Fig. 1 document under
    /// our labeling (see `xmlest-xml::tree` tests).
    fn faculty_intervals() -> Vec<Interval> {
        vec![iv(1, 3), iv(6, 11), iv(17, 23)]
    }

    fn ta_intervals() -> Vec<Interval> {
        vec![iv(14, 14), iv(15, 15), iv(16, 16), iv(20, 20), iv(23, 23)]
    }

    #[test]
    fn fig7_histograms_reproduced() {
        // The paper's 2x2 histograms for the Fig. 1 example document.
        let grid = Grid::uniform(2, 30).unwrap();
        let fac = PositionHistogram::from_intervals(grid.clone(), &faculty_intervals());
        assert_eq!(fac.get((0, 0)), 2.0);
        assert_eq!(fac.get((1, 1)), 1.0);
        assert_eq!(fac.total(), 3.0);

        let ta = PositionHistogram::from_intervals(grid, &ta_intervals());
        assert_eq!(ta.get((0, 0)), 2.0);
        assert_eq!(ta.get((1, 1)), 3.0);
        assert_eq!(ta.total(), 5.0);
    }

    #[test]
    fn validate_accepts_histograms_through_every_legal_operation() {
        for g in [1u16, 2, 3, 5, 8, 16] {
            let grid = Grid::uniform(g, 30).unwrap();
            let fac = PositionHistogram::from_intervals(grid.clone(), &faculty_intervals());
            fac.validate().unwrap();
            let ta = PositionHistogram::from_intervals(grid.clone(), &ta_intervals());
            ta.validate().unwrap();
            fac.plus(&ta).unwrap().validate().unwrap();
            fac.scaled_by(|(i, _)| 0.5 + i as f64).validate().unwrap();
            let mut m = fac.clone();
            m.scale_in_place(0.25);
            m.validate().unwrap();
            m.set((0, g - 1), 3.5);
            m.add((0, 0), 1.0);
            m.set((0, g - 1), 0.0); // removal keeps offsets consistent
            m.validate().unwrap();
            PositionHistogram::empty(grid).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_single_field_mutations() {
        let grid = Grid::uniform(4, 30).unwrap();
        let mut ivs = faculty_intervals();
        ivs.extend(ta_intervals());
        let good = PositionHistogram::from_intervals(grid, &ivs);
        good.validate().unwrap();
        assert!(good.flat.len() >= 3, "test needs a few distinct cells");

        let mut h = good.clone();
        h.flat.entries.swap(0, 1);
        assert!(h.validate().is_err(), "swapped entries accepted");

        let mut h = good.clone();
        h.flat.entries[0].1 = 0.0;
        assert!(h.validate().is_err(), "explicit zero accepted");

        let mut h = good.clone();
        h.flat.entries[0].1 = f64::NAN;
        assert!(h.validate().is_err(), "NaN mass accepted");

        let mut h = good.clone();
        let last = *h.flat.row_offsets.last().unwrap();
        h.flat.row_offsets[1] = last + 1;
        assert!(h.validate().is_err(), "non-monotone offsets accepted");

        let mut h = good.clone();
        h.flat.entries.last_mut().unwrap().0 .1 = 99;
        assert!(h.validate().is_err(), "out-of-range column accepted");

        let mut h = good.clone();
        let k = h
            .flat
            .entries
            .iter()
            .position(|&((i, j), _)| i < j)
            .expect("an off-diagonal cell exists");
        h.flat.entries[k].0 = (h.flat.entries[k].0 .1, h.flat.entries[k].0 .0);
        assert!(h.validate().is_err(), "below-diagonal cell accepted");

        let mut h = good.clone();
        h.total += 5.0;
        assert!(h.validate().is_err(), "drifted running total accepted");

        let mut h = good.clone();
        h.flat.row_offsets.pop();
        assert!(h.validate().is_err(), "truncated offset table accepted");
    }

    #[test]
    fn set_add_and_total() {
        let grid = Grid::uniform(4, 99).unwrap();
        let mut h = PositionHistogram::empty(grid);
        h.set((0, 1), 5.0);
        h.add((0, 1), 2.5);
        h.set((2, 3), 1.0);
        assert_eq!(h.get((0, 1)), 7.5);
        assert_eq!(h.total(), 8.5);
        h.set((0, 1), 0.0);
        assert_eq!(h.non_zero_cells(), 1);
        assert_eq!(h.total(), 1.0);
    }

    #[test]
    fn storage_accounting() {
        let grid = Grid::uniform(10, 999).unwrap();
        let ivs: Vec<Interval> = (0..100).map(|i| iv(i * 10, i * 10)).collect();
        let h = PositionHistogram::from_intervals(grid, &ivs);
        assert_eq!(h.storage_bytes(), h.non_zero_cells() * BYTES_PER_CELL);
        // Leaves land on the diagonal: at most g cells.
        assert!(h.non_zero_cells() <= 10);
    }

    #[test]
    fn dense_round_trip() {
        let grid = Grid::uniform(3, 29).unwrap();
        let h = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 29), iv(1, 5), iv(12, 14)]);
        let m = h.to_dense();
        let g = 3usize;
        for i in 0..g {
            for j in 0..g {
                assert_eq!(m[i * g + j], h.get((i as u16, j as u16)));
            }
        }
    }

    #[test]
    fn scaled_by_and_plus() {
        let grid = Grid::uniform(2, 9).unwrap();
        let a = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 1), iv(6, 7)]);
        let doubled = a.scaled_by(|_| 2.0);
        assert_eq!(doubled.total(), 4.0);
        let sum = a.plus(&doubled).unwrap();
        assert_eq!(sum.get((0, 0)), 3.0);

        let other_grid = Grid::uniform(3, 9).unwrap();
        let b = PositionHistogram::empty(other_grid);
        assert_eq!(a.plus(&b).unwrap_err(), Error::GridMismatch);
    }

    #[test]
    fn plus_merges_disjoint_and_shared_cells() {
        let grid = Grid::uniform(4, 39).unwrap();
        let mut a = PositionHistogram::empty(grid.clone());
        a.set((0, 0), 1.0);
        a.set((1, 2), 2.0);
        let mut b = PositionHistogram::empty(grid);
        b.set((0, 3), 4.0);
        b.set((1, 2), 8.0);
        b.set((3, 3), 16.0);
        let sum = a.plus(&b).unwrap();
        assert_eq!(sum.get((0, 0)), 1.0);
        assert_eq!(sum.get((0, 3)), 4.0);
        assert_eq!(sum.get((1, 2)), 10.0);
        assert_eq!(sum.get((3, 3)), 16.0);
        assert_eq!(sum.total(), 31.0);
        assert_eq!(sum.non_zero_cells(), 4);
    }

    #[test]
    fn lemma1_holds_for_tree_data() {
        // Build from a real nesting structure.
        let grid = Grid::uniform(5, 30).unwrap();
        let h = PositionHistogram::from_intervals(
            grid,
            &[iv(0, 30), iv(1, 3), iv(6, 11), iv(17, 23), iv(20, 20)],
        );
        assert!(h.satisfies_lemma1());
        assert!(h.upper_triangular());
    }

    #[test]
    fn lemma1_detects_violation() {
        let grid = Grid::uniform(4, 39).unwrap();
        let mut h = PositionHistogram::empty(grid);
        // (0, 2) populated: forbids cells starting in buckets 1..=2 that
        // end after bucket 2.
        h.set((0, 2), 1.0);
        h.set((1, 3), 1.0);
        assert!(!h.satisfies_lemma1());
    }

    #[test]
    fn from_intervals_on_equi_depth_grid() {
        let starts: Vec<u32> = (0..100).collect();
        let grid = Grid::equi_depth(4, &starts, 99).unwrap();
        let h = PositionHistogram::from_intervals(grid, &[iv(0, 99), iv(10, 12), iv(80, 80)]);
        assert_eq!(h.total(), 3.0);
        assert!(h.upper_triangular());
    }

    #[test]
    fn flat_rows_partition_entries() {
        let grid = Grid::uniform(4, 39).unwrap();
        let h = PositionHistogram::from_intervals(
            grid,
            &[iv(0, 39), iv(0, 5), iv(12, 14), iv(13, 13), iv(30, 31)],
        );
        let flat = h.flat();
        let by_rows: Vec<_> = (0..4u16).flat_map(|i| flat.row(i).to_vec()).collect();
        assert_eq!(by_rows, flat.entries().to_vec());
        for i in 0..4u16 {
            assert!(flat.row(i).iter().all(|&((r, _), _)| r == i));
        }
    }

    #[test]
    fn clear_to_reuses_capacity() {
        let grid = Grid::uniform(8, 79).unwrap();
        let mut h = PositionHistogram::from_intervals(
            grid.clone(),
            &(0..40).map(|p| iv(p, p)).collect::<Vec<_>>(),
        );
        assert!(h.non_zero_cells() > 0);
        h.clear_to(&grid);
        assert_eq!(h.total(), 0.0);
        assert_eq!(h.non_zero_cells(), 0);
        h.push_sorted((1, 2), 3.0);
        h.push_sorted((1, 3), 1.0);
        h.push_sorted((2, 2), 2.0);
        assert_eq!(h.total(), 6.0);
        assert_eq!(h.get((1, 3)), 1.0);
    }
}
