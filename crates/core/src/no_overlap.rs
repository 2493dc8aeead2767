//! Estimation with no-overlap ancestors — the formulas of Fig. 10.
//!
//! The primitive pH-join assumes uniformity inside cells, which badly
//! overestimates joins whose ancestor predicate has the *no-overlap*
//! property (each descendant can pair with at most one ancestor). The
//! refined estimator tracks, per pattern node:
//!
//! * `hist` — the **participation histogram** `Hist_AB_Px`: how many
//!   distinct data nodes at this pattern node take part in at least one
//!   match of the pattern built so far;
//! * `jn_fct` — the **join factor** `Jn_Fct_AB_Px`: matches of the
//!   pattern per participating node, per cell;
//! * coverage — the predicate's [`CoverageHistogram`], rescaled as
//!   participation shrinks, when the predicate is no-overlap.
//!
//! ## Merge-based kernels
//!
//! The Fig. 10 sums range over *pairs* of cells (every covering cell ×
//! every covered cell in its descendant range). Instead of nested loops
//! with a per-pair probe into the coverage table, the kernels here run
//! as a single co-merge over three sorted runs that all share row-major
//! cell order: the outer operand's flat histogram entries, the coverage
//! table in the matching order ([`CoverageHistogram`]'s CSR rows for the
//! descendant-based case, its covering-major permutation for the
//! ancestor-based case), and the covering-cell/scale runs. Interior
//! pairs — where coverage is geometrically 1 — are answered by a
//! row-sweep dominance structure: as the merge walks the outer rows, a
//! Fenwick tree over end buckets ingests (or retires) the inner
//! operand's rows, so each outer cell reads its strict-quadrant sum in
//! O(log g). Border pairs read the inner operand through a
//! lazily-zeroed dense scatter (only previously written cells are
//! cleared). Total work is O((entries + partials) · log g) cursor
//! advances and Fenwick taps — by Theorem 1/2 that is O(g log g) per
//! join, with no per-pair binary searches and no O(g²) passes at all.
//!
//! The pre-merge nested-loop implementations are retained as
//! [`ancestor_join_no_overlap_reference`] /
//! [`descendant_join_no_overlap_reference`] for cross-validation (a
//! property test holds the kernels to within 1e-9 of them) and as the
//! benchmark baseline of `coverage_join_scaling`.
//!
//! ## The estimation arena
//!
//! [`TwigWorkspace`] owns every scratch buffer a whole-twig estimate
//! needs: the dense pH-join buffers, match-histogram staging, the
//! coverage kernels' scatter/dominance planes, and a pool of
//! [`StatsSlot`]s — reusable participation/join-factor/coverage-overlay
//! buffers that hold each intermediate pattern node's state. Evaluation
//! takes slots from the pool ([`TwigWorkspace::take_slot`]), joins
//! borrowed [`StatsView`]s into them, and returns them
//! ([`TwigWorkspace::put_slot`]) once consumed, so steady-state
//! whole-twig estimation performs **zero heap allocations** (enforced by
//! `tests/alloc_discipline.rs`). Coverage propagation never clones the
//! coverage histogram: each slot carries an *overlay* of per-covering-
//! cell scale factors composed over the borrowed base.
//!
//! [`NodeStats`] remains the owned form of the same state for callers
//! that want standalone results; the `NodeStats`-typed join functions
//! are thin wrappers that run the kernels and materialize.
//!
//! One deviation, documented: Fig. 10's printed coverage-propagation
//! formula for the descendant-based case scales by the participation
//! ratio of the *covered* cell; we normalize both cases to scale by the
//! participation ratio of the **covering** cell, which keeps the
//! propagation consistent with case 1 and keeps coverage a property of
//! the covering predicate. For two-node queries (all the paper's
//! experiments) the two readings coincide. A second deviation is a fix:
//! the participation exponent `M` counts only descendants with non-zero
//! coverage — descendants positioned in the covering cell's range but
//! never actually covered (sparse predicates) no longer inflate
//! `N × (1 − ((N−1)/N)^M)`.

use crate::coverage::CoverageHistogram;
use crate::error::{Error, Result};
use crate::grid::{Cell, Grid};
use crate::ph_join::{Basis, JoinWorkspace};
use crate::position_histogram::PositionHistogram;

/// Estimation state for one pattern node (see module docs).
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Participation histogram (`Hist_AB_Px`).
    pub hist: PositionHistogram,
    /// Join factor per cell (`Jn_Fct_AB_Px`); meaningful on `hist` cells.
    pub jn_fct: PositionHistogram,
    /// Coverage histogram when the predicate is no-overlap.
    pub cvg: Option<CoverageHistogram>,
    /// Whether the node's predicate has the no-overlap property.
    pub no_overlap: bool,
}

impl NodeStats {
    /// Stats for a single-node pattern: every matching node participates
    /// and contributes exactly one match.
    pub fn leaf(hist: PositionHistogram, cvg: Option<CoverageHistogram>, no_overlap: bool) -> Self {
        let mut ones = PositionHistogram::empty(hist.grid().clone());
        for (cell, _) in hist.iter() {
            ones.push_sorted(cell, 1.0);
        }
        NodeStats {
            hist,
            jn_fct: ones,
            cvg,
            no_overlap,
        }
    }

    /// A borrowed view of this state for the allocation-free kernels.
    pub fn view(&self) -> StatsView<'_> {
        StatsView {
            hist: &self.hist,
            jn_fct: Some(&self.jn_fct),
            cvg: self.cvg.as_ref().map(CoverageRef::full),
            no_overlap: self.no_overlap,
        }
    }

    /// The match-count histogram: participation × join factor per cell
    /// (`Hist ⊙ Jn_Fct`), i.e. matches of the pattern positioned at this
    /// node's cells.
    pub fn match_hist(&self) -> PositionHistogram {
        let mut out = PositionHistogram::empty(self.hist.grid().clone());
        self.match_hist_into(&mut out);
        out
    }

    /// [`Self::match_hist`] into a reused output histogram.
    pub fn match_hist_into(&self, out: &mut PositionHistogram) {
        self.hist.scaled_by_into(|c| self.jn_fct.get(c), out);
    }

    /// Total estimated matches of the pattern. Computed directly from
    /// the flat entries — no intermediate histogram is materialized.
    pub fn match_total(&self) -> f64 {
        self.hist
            .iter()
            .map(|(cell, v)| v * self.jn_fct.get(cell))
            .sum()
    }
}

/// Borrowed coverage state: the immutable base histogram plus an
/// overlay of per-covering-cell scale factors (empty = base scales
/// only). The overlay is how joins propagate participation ratios
/// without cloning the base.
#[derive(Debug, Clone, Copy)]
pub struct CoverageRef<'a> {
    /// The stored coverage histogram.
    pub base: &'a CoverageHistogram,
    /// Per-covering-cell scale factors applied on top of `base`.
    pub overlay: &'a [(Cell, f64)],
}

impl<'a> CoverageRef<'a> {
    /// A view of a standalone coverage histogram (no overlay).
    pub fn full(base: &'a CoverageHistogram) -> Self {
        CoverageRef { base, overlay: &[] }
    }
}

/// Borrowed estimation state for one pattern node — what the join
/// kernels actually consume. Leaves borrow their summary's histograms
/// directly (`jn_fct: None` means unit join factors everywhere), so the
/// hot path never clones summary state.
#[derive(Debug, Clone, Copy)]
pub struct StatsView<'a> {
    /// Position histogram of the node's matches.
    pub hist: &'a PositionHistogram,
    /// `None` = unit join factors (a leaf: one match per node).
    pub jn_fct: Option<&'a PositionHistogram>,
    /// Coverage of the node's matches, when it is a no-overlap node.
    pub cvg: Option<CoverageRef<'a>>,
    /// No match of this node is an ancestor of another.
    pub no_overlap: bool,
}

impl<'a> StatsView<'a> {
    /// Leaf view over a predicate summary's histograms.
    pub fn leaf(
        hist: &'a PositionHistogram,
        cvg: Option<&'a CoverageHistogram>,
        no_overlap: bool,
    ) -> Self {
        StatsView {
            hist,
            jn_fct: None,
            cvg: cvg.map(CoverageRef::full),
            no_overlap,
        }
    }
}

/// Owned, reusable result buffers for one pattern node: the arena slot
/// the join kernels write into. Slots live in the
/// [`TwigWorkspace`] pool and keep their capacity across estimates.
#[derive(Debug)]
pub struct StatsSlot {
    hist: PositionHistogram,
    jn_fct: PositionHistogram,
    /// True when the join factor is implicitly 1 on every `hist` cell
    /// (`jn_fct` contents are then meaningless) — primitive-join results
    /// and compound leaves avoid materializing the ones.
    unit_jf: bool,
    /// Coverage-scale overlay over a borrowed base (see
    /// [`CoverageRef`]); meaningful when `has_cvg`.
    overlay: Vec<(Cell, f64)>,
    has_cvg: bool,
    no_overlap: bool,
}

impl Default for StatsSlot {
    fn default() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constant 1x1 grid over span 1 always validates"
        )]
        let unit = Grid::uniform(1, 0).expect("unit grid is valid");
        StatsSlot {
            hist: PositionHistogram::empty(unit.clone()),
            jn_fct: PositionHistogram::empty(unit),
            unit_jf: true,
            overlay: Vec::new(),
            has_cvg: false,
            no_overlap: false,
        }
    }
}

impl StatsSlot {
    /// A fresh slot over the unit grid.
    pub fn new() -> Self {
        StatsSlot::default()
    }

    /// Participation histogram of the joined pattern.
    pub fn hist(&self) -> &PositionHistogram {
        &self.hist
    }

    /// Whether the result still carries (overlay-scaled) coverage.
    pub fn carries_coverage(&self) -> bool {
        self.has_cvg
    }

    /// Whether the joined pattern's base predicate is no-overlap.
    pub fn is_no_overlap(&self) -> bool {
        self.no_overlap
    }

    /// Total estimated matches (`Σ hist ⊙ jn_fct`), allocation-free.
    pub fn match_total(&self) -> f64 {
        if self.unit_jf {
            return self.hist.total();
        }
        let jf = self.jn_fct.flat().entries();
        let mut c = 0usize;
        self.hist
            .iter()
            .map(|(cell, v)| v * cursor_get(jf, &mut c, cell).unwrap_or(0.0))
            .sum()
    }

    /// A borrowed view of this slot's state. `cvg_base` is the base
    /// coverage histogram the overlay applies to (tracked by the caller
    /// because it outlives the slot); ignored unless the slot carries
    /// coverage.
    pub fn view<'s>(&'s self, cvg_base: Option<&'s CoverageHistogram>) -> StatsView<'s> {
        StatsView {
            hist: &self.hist,
            jn_fct: (!self.unit_jf).then_some(&self.jn_fct),
            cvg: if self.has_cvg {
                cvg_base.map(|base| CoverageRef {
                    base,
                    overlay: &self.overlay,
                })
            } else {
                None
            },
            no_overlap: self.no_overlap,
        }
    }

    /// Converts into owned [`NodeStats`], materializing unit join
    /// factors and composing the coverage overlay onto a clone of its
    /// base. This is the only place the compat API clones coverage.
    pub fn into_node_stats(self, cvg_base: Option<&CoverageHistogram>) -> NodeStats {
        let StatsSlot {
            hist,
            jn_fct,
            unit_jf,
            overlay,
            has_cvg,
            no_overlap,
        } = self;
        let jn_fct = if unit_jf {
            let mut ones = PositionHistogram::empty(hist.grid().clone());
            for (cell, _) in hist.iter() {
                ones.push_sorted(cell, 1.0);
            }
            ones
        } else {
            jn_fct
        };
        let cvg = has_cvg
            .then(|| cvg_base.map(|base| base.with_overlay(&overlay)))
            .flatten();
        NodeStats {
            hist,
            jn_fct,
            cvg,
            no_overlap,
        }
    }

    /// Replaces the slot contents with a synthesized leaf histogram
    /// (compound predicate expressions): unit join factors, no coverage.
    pub(crate) fn set_compound(&mut self, hist: PositionHistogram) {
        self.hist = hist;
        self.unit_jf = true;
        self.overlay.clear();
        self.has_cvg = false;
        self.no_overlap = false;
    }

    /// Multiplies the join factor by a constant (the parent–child
    /// level correction), materializing it from the unit form if needed.
    pub(crate) fn scale_join_factor(&mut self, factor: f64) {
        if self.unit_jf {
            self.jn_fct.clear_to(self.hist.grid());
            for &(cell, _) in self.hist.flat().entries() {
                self.jn_fct.push_sorted(cell, factor);
            }
            self.unit_jf = false;
        } else {
            self.jn_fct.scale_in_place(factor);
        }
    }
}

/// Scratch state for the merge-based coverage kernels: two lazily
/// zeroed dense scatter planes (O(1) border-pair reads), the paired
/// Fenwick arrays of the row-sweep dominance structure, and the staged
/// overlay ratios. Grown once to the working size, then reused
/// allocation-free.
#[derive(Debug, Default)]
struct CoverageScratch {
    /// Match-mass plane (`v · jn_fct`, scaled on the covering side).
    dense_m: Vec<f64>,
    /// Participation-mass plane (`v`, or the bare scale).
    dense_h: Vec<f64>,
    /// Plane indexes written by the previous scatter — zeroed at the
    /// start of the next join instead of memsetting `g²` cells.
    written: Vec<usize>,
    /// Fenwick (binary indexed) trees over end buckets, one per plane.
    /// Only ever *added to* within a join — the sweeps are structured so
    /// cells with no contributing pairs read an exact 0.0, never a
    /// cancellation residue that would fabricate a sparse cell.
    fen_m: Vec<f64>,
    fen_h: Vec<f64>,
    ratios: Vec<(Cell, f64)>,
    /// Staged per-cell results of the ancestor kernel's descending
    /// sweep: `(cell, participation, estimate, composed ratio)`.
    results: Vec<(Cell, f64, f64, f64)>,
}

impl CoverageScratch {
    /// Prepares the planes and Fenwick arrays for a `g × g` join:
    /// grows capacity if needed and zeroes exactly what the previous
    /// join dirtied.
    fn reset(&mut self, g: usize) {
        if self.dense_m.len() < g * g {
            self.dense_m.resize(g * g, 0.0);
            self.dense_h.resize(g * g, 0.0);
        }
        for &idx in &self.written {
            self.dense_m[idx] = 0.0;
            self.dense_h[idx] = 0.0;
        }
        self.written.clear();
        self.fen_m.clear();
        self.fen_m.resize(g + 1, 0.0);
        self.fen_h.clear();
        self.fen_h.resize(g + 1, 0.0);
        self.ratios.clear();
        self.results.clear();
    }

    /// Adds `(vm, vh)` at end bucket `j` to both Fenwick trees.
    #[inline]
    fn fen_add(&mut self, j: usize, vm: f64, vh: f64) {
        let mut p = j + 1;
        while p < self.fen_m.len() {
            self.fen_m[p] += vm;
            self.fen_h[p] += vh;
            p += p & p.wrapping_neg();
        }
    }

    /// Sums both trees over end buckets strictly below `j`.
    #[inline]
    fn fen_prefix_exclusive(&self, j: usize) -> (f64, f64) {
        let (mut sm, mut sh) = (0.0, 0.0);
        let mut p = j;
        while p > 0 {
            sm += self.fen_m[p];
            sh += self.fen_h[p];
            p -= p & p.wrapping_neg();
        }
        (sm, sh)
    }
}

/// The estimation arena: every scratch buffer a twig evaluation needs.
/// Steady-state estimates reuse all of it — kernels, match-histogram
/// staging, coverage scratch, and the [`StatsSlot`] pool — and perform
/// zero heap allocations.
#[derive(Debug)]
pub struct TwigWorkspace {
    /// Scratch for the pH-join kernels.
    pub join: JoinWorkspace,
    match_x: PositionHistogram,
    match_y: PositionHistogram,
    cvg: CoverageScratch,
    slots: Vec<StatsSlot>,
}

impl Default for TwigWorkspace {
    fn default() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constant 1x1 grid over span 1 always validates"
        )]
        let unit = Grid::uniform(1, 0).expect("unit grid is valid");
        TwigWorkspace {
            join: JoinWorkspace::new(),
            match_x: PositionHistogram::empty(unit.clone()),
            match_y: PositionHistogram::empty(unit),
            cvg: CoverageScratch::default(),
            slots: Vec::new(),
        }
    }
}

impl TwigWorkspace {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        TwigWorkspace::default()
    }

    /// Takes a result slot from the pool (allocating a fresh one only
    /// while the pool is still warming up).
    pub fn take_slot(&mut self) -> StatsSlot {
        self.slots.pop().unwrap_or_default()
    }

    /// Returns a consumed slot to the pool, keeping its capacity for
    /// the next estimate.
    pub fn put_slot(&mut self, slot: StatsSlot) {
        self.slots.push(slot);
    }
}

/// Advances a monotone cursor over a cell-sorted slice to `cell`,
/// returning that entry's value if present. Amortized O(1) per call
/// across an ascending scan.
#[inline]
fn cursor_get(items: &[(Cell, f64)], pos: &mut usize, cell: Cell) -> Option<f64> {
    while *pos < items.len() && items[*pos].0 < cell {
        *pos += 1;
    }
    (*pos < items.len() && items[*pos].0 == cell).then(|| items[*pos].1)
}

/// Like [`cursor_get`] over a plain sorted cell list (membership only).
#[inline]
fn cursor_contains(items: &[Cell], pos: &mut usize, cell: Cell) -> bool {
    while *pos < items.len() && items[*pos] < cell {
        *pos += 1;
    }
    *pos < items.len() && items[*pos] == cell
}

/// [`cursor_get`] for a *descending* scan: `pos` counts the unpassed
/// prefix (initialize to `items.len()`).
#[inline]
fn cursor_get_rev(items: &[(Cell, f64)], pos: &mut usize, cell: Cell) -> Option<f64> {
    while *pos > 0 && items[*pos - 1].0 > cell {
        *pos -= 1;
    }
    (*pos > 0 && items[*pos - 1].0 == cell).then(|| items[*pos - 1].1)
}

/// [`cursor_contains`] for a descending scan.
#[inline]
fn cursor_contains_rev(items: &[Cell], pos: &mut usize, cell: Cell) -> bool {
    while *pos > 0 && items[*pos - 1] > cell {
        *pos -= 1;
    }
    *pos > 0 && items[*pos - 1] == cell
}

/// Writes a view's match histogram (`hist ⊙ jn_fct`) into a reused
/// buffer with one merge pass.
fn view_match_into(v: StatsView, out: &mut PositionHistogram) {
    out.clear_to(v.hist.grid());
    match v.jn_fct {
        None => {
            for &(cell, val) in v.hist.flat().entries() {
                out.push_sorted(cell, val);
            }
        }
        Some(jf) => {
            let entries = jf.flat().entries();
            let mut c = 0usize;
            for &(cell, val) in v.hist.flat().entries() {
                let f = cursor_get(entries, &mut c, cell).unwrap_or(0.0);
                out.push_sorted(cell, val * f);
            }
        }
    }
}

/// Merges a previous overlay with this join's per-cell updates (already
/// composed with the previous factor) into `out`. Cells present only in
/// `prev` pass through; cells present in `updates` take the update.
fn merge_overlay(prev: &[(Cell, f64)], updates: &[(Cell, f64)], out: &mut Vec<(Cell, f64)>) {
    out.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < prev.len() || b < updates.len() {
        let take_update = a >= prev.len() || (b < updates.len() && updates[b].0 <= prev[a].0);
        if take_update {
            if a < prev.len() && prev[a].0 == updates[b].0 {
                a += 1;
            }
            out.push(updates[b]);
            b += 1;
        } else {
            out.push(prev[a]);
            a += 1;
        }
    }
}

/// Joins pattern `x` (ancestor side) with pattern `y` (descendant side),
/// producing stats for the combined pattern *based at `x`'s node*.
///
/// Uses the no-overlap formulas when `x` is no-overlap and has coverage;
/// otherwise the primitive pH-join ("case 1": participation = estimate).
pub fn ancestor_join(x: &NodeStats, y: &NodeStats) -> Result<NodeStats> {
    ancestor_join_with(&mut TwigWorkspace::new(), x, y)
}

/// [`ancestor_join`] with reused scratch buffers.
pub fn ancestor_join_with(
    ws: &mut TwigWorkspace,
    x: &NodeStats,
    y: &NodeStats,
) -> Result<NodeStats> {
    let mut out = StatsSlot::default();
    ancestor_join_into(ws, x.view(), y.view(), &mut out)?;
    Ok(out.into_node_stats(x.cvg.as_ref()))
}

/// Joins pattern `x` (ancestor side) with pattern `y` (descendant side),
/// producing stats for the combined pattern *based at `y`'s node*.
pub fn descendant_join(x: &NodeStats, y: &NodeStats) -> Result<NodeStats> {
    descendant_join_with(&mut TwigWorkspace::new(), x, y)
}

/// [`descendant_join`] with reused scratch buffers.
pub fn descendant_join_with(
    ws: &mut TwigWorkspace,
    x: &NodeStats,
    y: &NodeStats,
) -> Result<NodeStats> {
    let mut out = StatsSlot::default();
    descendant_join_into(ws, x.view(), y.view(), &mut out)?;
    Ok(out.into_node_stats(y.cvg.as_ref()))
}

/// View-level ancestor-based join into an arena slot — the
/// allocation-free primitive the estimator composes twigs from. The
/// result's coverage base (when [`StatsSlot::carries_coverage`]) is
/// `x`'s base; the caller threads it to [`StatsSlot::view`].
pub fn ancestor_join_into(
    ws: &mut TwigWorkspace,
    x: StatsView,
    y: StatsView,
    out: &mut StatsSlot,
) -> Result<()> {
    match (x.cvg, x.no_overlap) {
        (Some(cvg), true) => ancestor_merge_kernel(&mut ws.cvg, x, y, cvg, out),
        _ => primitive_join_into(ws, x, y, Basis::AncestorBased, out),
    }
}

/// View-level descendant-based join into an arena slot. The result's
/// coverage base (when carried) is `y`'s base.
pub fn descendant_join_into(
    ws: &mut TwigWorkspace,
    x: StatsView,
    y: StatsView,
    out: &mut StatsSlot,
) -> Result<()> {
    match (x.cvg, x.no_overlap) {
        (Some(cvg), true) => descendant_merge_kernel(&mut ws.cvg, x, y, cvg, out),
        _ => primitive_join_into(ws, x, y, Basis::DescendantBased, out),
    }
}

/// Fig. 10, ancestor-based, no-overlap ancestor predicate (case 2), as
/// a co-merge over flat rows (see module docs).
fn ancestor_merge_kernel(
    scr: &mut CoverageScratch,
    x: StatsView,
    y: StatsView,
    cvg: CoverageRef,
    out: &mut StatsSlot,
) -> Result<()> {
    let grid = x.hist.grid();
    if y.hist.grid() != grid || cvg.base.grid() != grid {
        return Err(Error::GridMismatch);
    }
    let g = grid.g() as usize;
    scr.reset(g);

    // Scatter the descendant side: match mass (v · jn_fct) for the
    // estimate, raw participation mass (v) for the exponent M. Border
    // pairs read these planes directly; the Fenwick trees ingest rows
    // during the sweep.
    let y_entries = y.hist.flat().entries();
    let y_jf = y.jn_fct.map(|h| h.flat().entries());
    let mut yc = 0usize;
    for &(cell, v) in y_entries {
        let jf = match y_jf {
            None => 1.0,
            Some(e) => cursor_get(e, &mut yc, cell).unwrap_or(0.0),
        };
        let idx = cell.0 as usize * g + cell.1 as usize;
        scr.dense_m[idx] = v * jf;
        scr.dense_h[idx] = v;
        scr.written.push(idx);
    }

    out.hist.clear_to(grid);
    out.jn_fct.clear_to(grid);
    out.unit_jf = false;
    out.has_cvg = true;
    out.no_overlap = true;

    // Descending sweep over the covering cells: walking rows high→low
    // lets the Fenwick trees *ingest* descendant rows as they enter the
    // strict interior (`m > i`) — additions only, so an empty quadrant
    // reads an exact zero. Results are staged and emitted ascending.
    let x_jf = x.jn_fct.map(|h| h.flat().entries());
    let covering = cvg.base.covering_cells_slice();
    let scales = cvg.base.scales_slice();
    let order = cvg.base.covering_order();
    let partial = cvg.base.partial_slice();
    let x_entries = x.hist.flat().entries();
    let (mut xc, mut cc, mut sc, mut oc, mut pc) = (
        x_jf.map_or(0, <[_]>::len),
        covering.len(),
        scales.len(),
        cvg.overlay.len(),
        order.len(),
    );
    let mut ingest = y_entries.len();

    for &(cell, n) in x_entries.iter().rev() {
        let jf = match x_jf {
            None => 1.0,
            Some(e) => cursor_get_rev(e, &mut xc, cell).unwrap_or(0.0),
        };
        let s_base = cursor_get_rev(scales, &mut sc, cell).unwrap_or(1.0);
        let s_over = cursor_get_rev(cvg.overlay, &mut oc, cell).unwrap_or(1.0);
        let s = s_base * s_over;

        // Border pairs: the covering-major run of explicit fractions.
        let mut border_m = 0.0;
        let mut border_h = 0.0;
        while pc > 0 && partial[order[pc - 1] as usize].0 .1 > cell {
            pc -= 1;
        }
        let mut k = pc;
        while k > 0 && partial[order[k - 1] as usize].0 .1 == cell {
            let ((covered, _), frac) = partial[order[k - 1] as usize];
            let idx = covered.0 as usize * g + covered.1 as usize;
            border_m += frac * scr.dense_m[idx];
            if frac > 0.0 {
                border_h += scr.dense_h[idx];
            }
            k -= 1;
        }
        // Interior pairs (coverage geometrically 1): ingest descendant
        // rows strictly below this covering row, then read the strict
        // quadrant Σ_{m > i, n < j} as a pure Fenwick prefix over
        // end buckets — valid only if this cell holds covering nodes.
        while ingest > 0 && (y_entries[ingest - 1].0).0 > cell.0 {
            let (y_cell, _) = y_entries[ingest - 1];
            let idx = y_cell.0 as usize * g + y_cell.1 as usize;
            let (vm, vh) = (scr.dense_m[idx], scr.dense_h[idx]);
            if vm != 0.0 || vh != 0.0 {
                scr.fen_add(y_cell.1 as usize, vm, vh);
            }
            ingest -= 1;
        }
        let (interior_m, interior_h) = if cursor_contains_rev(covering, &mut cc, cell) {
            scr.fen_prefix_exclusive(cell.1 as usize)
        } else {
            (0.0, 0.0)
        };

        // Est_AB[i][j] = Jn_Fct_A[i][j] ×
        //   Σ_{(m,n) in desc range} Cvg_A[(m,n)][(i,j)] × match_B[(m,n)]
        let covered_matches = s * (interior_m + border_m);
        // Participation: N × (1 − ((N−1)/N)^M) with M counting only
        // coverage-reachable descendants (see module docs).
        let m_total = if s > 0.0 { interior_h + border_h } else { 0.0 };
        let part = if n > 0.0 && m_total > 0.0 {
            n * (1.0 - ((n - 1.0) / n).powf(m_total))
        } else {
            0.0
        };
        // Coverage propagation: this covering cell now covers with the
        // participation fraction of its nodes, composed onto any
        // existing overlay factor.
        let ratio = if n > 0.0 { part / n } else { 0.0 };
        scr.results
            .push((cell, part, jf * covered_matches, s_over * ratio));
    }

    // Emit in ascending cell order (the staged results are descending).
    for &(cell, part, est, composed) in scr.results.iter().rev() {
        if part > 0.0 {
            out.hist.push_sorted(cell, part);
            out.jn_fct.push_sorted(cell, est / part);
        }
        scr.ratios.push((cell, composed));
    }
    merge_overlay(cvg.overlay, &scr.ratios, &mut out.overlay);
    Ok(())
}

/// Fig. 10, descendant-based, no-overlap ancestor predicate (case 3 for
/// participation; the descendant-based estimate formula for `Est`), as
/// a co-merge over flat rows.
fn descendant_merge_kernel(
    scr: &mut CoverageScratch,
    x: StatsView,
    y: StatsView,
    cvg: CoverageRef,
    out: &mut StatsSlot,
) -> Result<()> {
    let grid = y.hist.grid();
    if x.hist.grid() != grid || cvg.base.grid() != grid {
        return Err(Error::GridMismatch);
    }
    let g = grid.g() as usize;
    scr.reset(g);

    // Scatter the covering side, gated on covering-cell membership and
    // pre-scaled: jn_fct · scale (for Est) and scale (for participation).
    // The Fenwick trees start empty; the sweep below ingests covering
    // rows as the covered cursor passes them.
    let x_entries = x.hist.flat().entries();
    let x_jf = x.jn_fct.map(|h| h.flat().entries());
    let covering = cvg.base.covering_cells_slice();
    let scales = cvg.base.scales_slice();
    let (mut xc, mut cc, mut sc, mut oc) = (0usize, 0usize, 0usize, 0usize);
    for &(cell, _) in x_entries {
        let jf = match x_jf {
            None => 1.0,
            Some(e) => cursor_get(e, &mut xc, cell).unwrap_or(0.0),
        };
        let s_base = cursor_get(scales, &mut sc, cell).unwrap_or(1.0);
        let s_over = cursor_get(cvg.overlay, &mut oc, cell).unwrap_or(1.0);
        if cursor_contains(covering, &mut cc, cell) {
            let idx = cell.0 as usize * g + cell.1 as usize;
            scr.dense_m[idx] = jf * s_base * s_over;
            scr.dense_h[idx] = s_base * s_over;
            scr.written.push(idx);
        }
    }

    out.hist.clear_to(grid);
    out.jn_fct.clear_to(grid);
    out.unit_jf = false;
    out.has_cvg = y.cvg.is_some();
    out.no_overlap = y.no_overlap;

    let partial = cvg.base.partial_slice();
    let y_jf = y.jn_fct.map(|h| h.flat().entries());
    let y_overlay = y.cvg.map(|c| c.overlay).unwrap_or(&[]);
    let (mut yc, mut pc, mut yoc) = (0usize, 0usize, 0usize);
    let mut ingested = 0usize;

    for &(cell, y_n) in y.hist.flat().entries() {
        let jf = match y_jf {
            None => 1.0,
            Some(e) => cursor_get(e, &mut yc, cell).unwrap_or(0.0),
        };
        // Border pairs: this covered cell's CSR run of the partial table.
        let mut border_w = 0.0;
        let mut border_c = 0.0;
        while pc < partial.len() && partial[pc].0 .0 < cell {
            pc += 1;
        }
        while pc < partial.len() && partial[pc].0 .0 == cell {
            let ((_, cov), frac) = partial[pc];
            let idx = cov.0 as usize * g + cov.1 as usize;
            border_w += frac * scr.dense_m[idx];
            border_c += frac * scr.dense_h[idx];
            pc += 1;
        }
        // Interior pairs: ingest covering rows strictly above this
        // covered row (`m < i`), then read the strict quadrant
        // Σ_{m < i, n > j} as a pure prefix over *reversed* end buckets
        // (`n > j  ⇔  g−1−n < g−1−j`) — additions only, exact zeros.
        while ingested < x_entries.len() && (x_entries[ingested].0).0 < cell.0 {
            let (xc_cell, _) = x_entries[ingested];
            let idx = xc_cell.0 as usize * g + xc_cell.1 as usize;
            let (vm, vh) = (scr.dense_m[idx], scr.dense_h[idx]);
            if vm != 0.0 || vh != 0.0 {
                scr.fen_add(g - 1 - xc_cell.1 as usize, vm, vh);
            }
            ingested += 1;
        }
        let (above_m, above_h) = scr.fen_prefix_exclusive(g - 1 - cell.1 as usize);
        let weighted = above_m + border_w; // Σ Cvg × Jn_Fct_A
        let covered = above_h + border_c; // Σ Cvg
        let est = y_n * jf * weighted;
        let part = y_n * covered;
        if part > 0.0 {
            out.hist.push_sorted(cell, part);
            out.jn_fct.push_sorted(cell, est / part);
        }
        // If y itself is no-overlap, its coverage survives scaled by the
        // per-covering-cell participation ratio (see module docs).
        if out.has_cvg {
            let y_over = cursor_get(y_overlay, &mut yoc, cell).unwrap_or(1.0);
            let ratio = if y_n > 0.0 { part / y_n } else { 0.0 };
            scr.ratios.push((cell, y_over * ratio));
        }
    }

    if out.has_cvg {
        merge_overlay(y_overlay, &scr.ratios, &mut out.overlay);
    } else {
        out.overlay.clear();
    }
    Ok(())
}

/// Case 1: the relevant predicate can overlap — primitive pH-join over
/// match-count histograms; participation = estimate, join factor = 1.
fn primitive_join_into(
    ws: &mut TwigWorkspace,
    x: StatsView,
    y: StatsView,
    basis: Basis,
    out: &mut StatsSlot,
) -> Result<()> {
    let TwigWorkspace {
        join,
        match_x,
        match_y,
        ..
    } = ws;
    view_match_into(x, match_x);
    view_match_into(y, match_y);
    join.ph_join_into(match_x, match_y, basis, &mut out.hist)?;
    // When based at the descendant and the descendant is no-overlap, its
    // coverage could still serve later joins, scaled by participation.
    // With participation = estimate there is no meaningful ratio; drop
    // coverage conservatively (this path no longer tracks distinct
    // nodes).
    out.unit_jf = true;
    out.overlay.clear();
    out.has_cvg = false;
    out.no_overlap = false;
    Ok(())
}

/// Pre-merge nested-loop implementation of the ancestor-based Fig. 10
/// join — O(cells²) with a per-pair coverage probe. Retained to
/// cross-validate the merge kernel (property-tested to 1e-9) and as the
/// `coverage_join_scaling` benchmark baseline.
pub fn ancestor_join_no_overlap_reference(
    x: &NodeStats,
    y: &NodeStats,
    cvg_x: &CoverageHistogram,
) -> Result<NodeStats> {
    if y.hist.grid() != x.hist.grid() || cvg_x.grid() != x.hist.grid() {
        return Err(Error::GridMismatch);
    }
    let grid = x.hist.grid().clone();
    let mut part = PositionHistogram::empty(grid.clone());
    let mut jn_fct = PositionHistogram::empty(grid);
    let mut new_cvg = cvg_x.clone();

    for ((i, j), n) in x.hist.iter() {
        // Est_AB[i][j] = Jn_Fct_A[i][j] ×
        //   Σ_{(m,n) in desc range} Cvg_A[(m,n)][(i,j)] × match_B[(m,n)]
        let mut covered_matches = 0.0;
        let mut covered_participants = 0.0; // M[i][j] over Hist_B
        for ((m, nn), v) in y.hist.iter() {
            if m >= i && nn <= j {
                let c = cvg_x.coverage((m, nn), (i, j));
                if c > 0.0 {
                    covered_matches += c * v * y.jn_fct.get((m, nn));
                    // Only coverage-reachable descendants count toward
                    // the participation exponent (see module docs).
                    covered_participants += v;
                }
            }
        }
        let est_ij = x.jn_fct.get((i, j)) * covered_matches;

        // Participation: N × (1 − ((N−1)/N)^M), the expected number of
        // distinct ancestors hit by M descendants spread over N bins.
        let m_total = covered_participants;
        let part_ij = if n > 0.0 && m_total > 0.0 {
            n * (1.0 - ((n - 1.0) / n).powf(m_total))
        } else {
            0.0
        };

        if part_ij > 0.0 {
            part.push_sorted((i, j), part_ij);
            jn_fct.push_sorted((i, j), est_ij / part_ij);
        }
        // Coverage propagation: covering cell (i, j) now covers with the
        // participation fraction of its nodes.
        let ratio = if n > 0.0 { part_ij / n } else { 0.0 };
        new_cvg.scale_covering((i, j), ratio);
    }

    Ok(NodeStats {
        hist: part,
        jn_fct,
        cvg: Some(new_cvg),
        no_overlap: true,
    })
}

/// Pre-merge nested-loop implementation of the descendant-based Fig. 10
/// join; see [`ancestor_join_no_overlap_reference`].
pub fn descendant_join_no_overlap_reference(
    x: &NodeStats,
    y: &NodeStats,
    cvg_x: &CoverageHistogram,
) -> Result<NodeStats> {
    if x.hist.grid() != y.hist.grid() || cvg_x.grid() != y.hist.grid() {
        return Err(Error::GridMismatch);
    }
    let grid = y.hist.grid().clone();
    let mut part = PositionHistogram::empty(grid.clone());
    let mut jn_fct = PositionHistogram::empty(grid);

    for ((i, j), y_n) in y.hist.iter() {
        // Σ over ancestor cells (m, n) ⊇ (i, j).
        let mut weighted = 0.0; // Σ Cvg × Jn_Fct_A   (for Est)
        let mut covered = 0.0; //  Σ Cvg × notzero    (for participation)
        for ((m, nn), _) in x.hist.iter() {
            if m <= i && nn >= j {
                let c = cvg_x.coverage((i, j), (m, nn));
                if c > 0.0 {
                    weighted += c * x.jn_fct.get((m, nn));
                    covered += c;
                }
            }
        }
        let est_ij = y_n * y.jn_fct.get((i, j)) * weighted;
        let part_ij = y_n * covered;
        if part_ij > 0.0 {
            part.push_sorted((i, j), part_ij);
            jn_fct.push_sorted((i, j), est_ij / part_ij);
        }
    }

    // If y itself is no-overlap, its coverage survives scaled by the
    // per-covering-cell participation ratio (see module docs).
    let new_cvg = y.cvg.as_ref().map(|cy| {
        let mut c = cy.clone();
        for ((i, j), y_n) in y.hist.iter() {
            let ratio = if y_n > 0.0 {
                part.get((i, j)) / y_n
            } else {
                0.0
            };
            c.scale_covering((i, j), ratio);
        }
        c
    });

    Ok(NodeStats {
        hist: part,
        jn_fct,
        cvg: new_cvg,
        no_overlap: y.no_overlap,
    })
}

/// Convenience: total estimate for a two-node `anc // desc` pattern using
/// the best available method for the given basis.
pub fn estimate_pair(anc: &NodeStats, desc: &NodeStats, basis: Basis) -> Result<f64> {
    let joined = match basis {
        Basis::AncestorBased => ancestor_join(anc, desc)?,
        Basis::DescendantBased => descendant_join(anc, desc)?,
    };
    Ok(joined.match_total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use xmlest_xml::Interval;

    fn iv(s: u32, e: u32) -> Interval {
        Interval::new(s, e)
    }

    fn fig1_nodes() -> Vec<Interval> {
        let mut v = vec![
            iv(0, 30),
            iv(1, 3),
            iv(2, 2),
            iv(3, 3),
            iv(4, 5),
            iv(5, 5),
            iv(6, 11),
        ];
        v.extend((7..=11).map(|p| iv(p, p)));
        v.push(iv(12, 16));
        v.extend((13..=16).map(|p| iv(p, p)));
        v.push(iv(17, 23));
        v.extend((18..=23).map(|p| iv(p, p)));
        v.push(iv(24, 30));
        v.extend((25..=30).map(|p| iv(p, p)));
        v
    }

    fn faculty_stats(g: u16) -> NodeStats {
        let grid = Grid::uniform(g, 30).unwrap();
        let fac = vec![iv(1, 3), iv(6, 11), iv(17, 23)];
        let hist = PositionHistogram::from_intervals(grid.clone(), &fac);
        let cvg = CoverageHistogram::build(grid, &fig1_nodes(), &fac);
        NodeStats::leaf(hist, Some(cvg), true)
    }

    fn ta_stats(g: u16) -> NodeStats {
        let grid = Grid::uniform(g, 30).unwrap();
        let ta = vec![iv(14, 14), iv(15, 15), iv(16, 16), iv(20, 20), iv(23, 23)];
        NodeStats::leaf(PositionHistogram::from_intervals(grid, &ta), None, true)
    }

    #[test]
    fn mismatched_coverage_grid_rejected() {
        // A coverage table on a different grid than the operand
        // histograms must fail loudly: the kernels size their scatter
        // planes from the operand grid but index them with coverage
        // cells, so a silent pass-through would read out of bounds or
        // return a wrong estimate.
        let fac4 = faculty_stats(4);
        let ta4 = ta_stats(4);
        let mixed = NodeStats::leaf(fac4.hist.clone(), faculty_stats(8).cvg.clone(), true);
        for (f, basis) in [
            (
                ancestor_join as fn(&NodeStats, &NodeStats) -> Result<NodeStats>,
                Basis::AncestorBased,
            ),
            (descendant_join, Basis::DescendantBased),
        ] {
            assert!(matches!(f(&mixed, &ta4), Err(Error::GridMismatch)));
            // Matched grids still work.
            assert!(f(&fac4, &ta4).is_ok(), "{basis:?}");
        }
        let cvg8 = faculty_stats(8);
        assert!(matches!(
            ancestor_join_no_overlap_reference(&fac4, &ta4, cvg8.cvg.as_ref().unwrap()),
            Err(Error::GridMismatch)
        ));
        assert!(matches!(
            descendant_join_no_overlap_reference(&fac4, &ta4, cvg8.cvg.as_ref().unwrap()),
            Err(Error::GridMismatch)
        ));
    }

    #[test]
    fn leaf_stats_have_unit_join_factor() {
        let s = faculty_stats(2);
        assert_eq!(s.hist.total(), 3.0);
        for (cell, v) in s.jn_fct.iter() {
            assert_eq!(v, 1.0, "cell {cell:?}");
        }
        assert_eq!(s.match_total(), 3.0);
    }

    #[test]
    fn paper_example_no_overlap_estimate_close_to_two() {
        // Section 4.2 walkthrough: primitive estimate was ~0.6; with the
        // coverage histogram the paper gets ~1.9 (their numbering), we
        // get 2.2 with ours; the real answer is 2. Either way the
        // no-overlap estimate must be far closer than the primitive one.
        let fac = faculty_stats(2);
        let ta = ta_stats(2);
        let est = estimate_pair(&fac, &ta, Basis::AncestorBased).unwrap();
        assert!((est - 2.2).abs() < 1e-9, "got {est}");
        let primitive = crate::ph_join::ph_join_total(
            &fac.match_hist(),
            &ta.match_hist(),
            Basis::AncestorBased,
        )
        .unwrap();
        assert!((est - 2.0).abs() < (primitive - 2.0).abs());
    }

    #[test]
    fn descendant_based_agrees_on_example() {
        let fac = faculty_stats(2);
        let ta = ta_stats(2);
        let est = estimate_pair(&fac, &ta, Basis::DescendantBased).unwrap();
        assert!((est - 2.2).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn participation_is_bounded_by_counts() {
        let fac = faculty_stats(4);
        let ta = ta_stats(4);
        let joined = ancestor_join(&fac, &ta).unwrap();
        // Participating faculty can't exceed total faculty.
        assert!(joined.hist.total() <= fac.hist.total() + 1e-9);
        // Estimated matches can't exceed TA count (each TA joins at most
        // one faculty under no-overlap).
        assert!(joined.match_total() <= ta.hist.total() + 1e-9);
    }

    #[test]
    fn no_overlap_estimate_upper_bounded_by_descendant_count() {
        // Strong property of the coverage method: with disjoint ancestors,
        // estimate <= descendant participation, whatever the grid.
        for g in [2u16, 3, 7, 15] {
            let fac = faculty_stats(g);
            let ta = ta_stats(g);
            let est = estimate_pair(&fac, &ta, Basis::AncestorBased).unwrap();
            assert!(est <= 5.0 + 1e-9, "g={g}: est {est} exceeds TA count");
            let est = estimate_pair(&fac, &ta, Basis::DescendantBased).unwrap();
            assert!(est <= 5.0 + 1e-9, "g={g} descendant-based: est {est}");
        }
    }

    #[test]
    fn merge_kernels_match_reference_on_example() {
        for g in [2u16, 3, 5, 8, 13] {
            let fac = faculty_stats(g);
            let ta = ta_stats(g);
            let cvg = fac.cvg.as_ref().unwrap();
            let merged = ancestor_join(&fac, &ta).unwrap();
            let reference = ancestor_join_no_overlap_reference(&fac, &ta, cvg).unwrap();
            assert_hists_close(&merged.hist, &reference.hist, g);
            assert_hists_close(&merged.jn_fct, &reference.jn_fct, g);
            assert!((merged.match_total() - reference.match_total()).abs() < 1e-9);
            let merged = descendant_join(&fac, &ta).unwrap();
            let reference = descendant_join_no_overlap_reference(&fac, &ta, cvg).unwrap();
            assert_hists_close(&merged.hist, &reference.hist, g);
            assert!((merged.match_total() - reference.match_total()).abs() < 1e-9);
        }
    }

    fn assert_hists_close(a: &PositionHistogram, b: &PositionHistogram, g: u16) {
        assert_eq!(a.non_zero_cells(), b.non_zero_cells(), "g={g}");
        for ((c1, v1), (c2, v2)) in a.iter().zip(b.iter()) {
            assert_eq!(c1, c2, "g={g}");
            assert!((v1 - v2).abs() < 1e-9, "g={g} cell {c1:?}: {v1} vs {v2}");
        }
    }

    #[test]
    fn uncovered_in_range_descendants_do_not_participate() {
        // Regression (participation inflation): one covering node (0, 15)
        // in cell (0, 1) of a 4-bucket grid over 0..=39. The descendant
        // population sits at 16..18 — cell (1, 1), inside the covering
        // cell's descendant range but with zero coverage — and far
        // outside at 35..37 (cell (3, 3)). Nothing is covered, so the
        // participation histogram must be empty: the old per-range count
        // reported one phantom participating ancestor.
        let grid = Grid::uniform(4, 39).unwrap();
        let p = vec![iv(0, 15)];
        let mut nodes = vec![iv(0, 39), iv(0, 15)];
        nodes.extend((16..=18).map(|q| iv(q, q)));
        nodes.extend((35..=37).map(|q| iv(q, q)));
        let cvg = CoverageHistogram::build(grid.clone(), &nodes, &p);
        let x = NodeStats::leaf(
            PositionHistogram::from_intervals(grid.clone(), &p),
            Some(cvg),
            true,
        );
        let desc: Vec<Interval> = (16..=18).chain(35..=37).map(|q| iv(q, q)).collect();
        let y = NodeStats::leaf(PositionHistogram::from_intervals(grid, &desc), None, true);
        let joined = ancestor_join(&x, &y).unwrap();
        assert_eq!(joined.hist.total(), 0.0, "phantom participation");
        assert_eq!(joined.match_total(), 0.0);
        // The reference implementation agrees (the fix lives in both).
        let reference =
            ancestor_join_no_overlap_reference(&x, &y, x.cvg.as_ref().unwrap()).unwrap();
        assert_eq!(reference.hist.total(), 0.0);
    }

    #[test]
    fn overlap_fallback_uses_primitive_join() {
        // Without coverage, ancestor_join degrades to the pH-join.
        let grid = Grid::uniform(2, 30).unwrap();
        let fac = NodeStats::leaf(
            PositionHistogram::from_intervals(grid.clone(), &[iv(1, 3), iv(6, 11), iv(17, 23)]),
            None,
            false,
        );
        let ta = ta_stats(2);
        let joined = ancestor_join(&fac, &ta).unwrap();
        assert!((joined.match_total() - 7.0 / 12.0).abs() < 1e-12);
        // Case 1: participation = estimate, join factor 1.
        assert_eq!(joined.hist, joined.match_hist());
        assert!(!joined.no_overlap);
        assert!(joined.cvg.is_none());
    }

    #[test]
    fn chained_joins_keep_coverage_scaled() {
        // faculty // TA, then the result joined with RA descendants:
        // participation of faculty shrinks after the first join, and the
        // second join must use the rescaled coverage.
        let g = 4;
        let grid = Grid::uniform(g, 30).unwrap();
        let fac = faculty_stats(g);
        let ta = ta_stats(g);
        let ra = NodeStats::leaf(
            PositionHistogram::from_intervals(
                grid,
                &[
                    iv(3, 3),
                    iv(9, 9),
                    iv(10, 10),
                    iv(11, 11),
                    iv(21, 21),
                    iv(22, 22),
                    iv(27, 27),
                    iv(28, 28),
                    iv(29, 29),
                    iv(30, 30),
                ],
            ),
            None,
            true,
        );
        let with_ta = ancestor_join(&fac, &ta).unwrap();
        assert!(with_ta.no_overlap);
        assert!(with_ta.cvg.is_some());
        let with_both = ancestor_join(&with_ta, &ra).unwrap();
        // Real answer for faculty[//TA][//RA]: faculty3 has 2 TA x 2 RA
        // = 4 matches; faculty1/2 have no TA. Estimate should be within
        // a small factor (not exact — composition compounds assumptions).
        let est = with_both.match_total();
        assert!(est > 0.5 && est < 12.0, "est {est}");
        // Participating faculty after both joins can only shrink.
        assert!(with_both.hist.total() <= with_ta.hist.total() + 1e-9);
    }

    #[test]
    fn slot_chain_matches_owned_chain() {
        // The arena path (views + overlays, no coverage clones) must give
        // the same numbers as the owned NodeStats path that materializes
        // coverage between joins.
        let g = 8;
        let fac = faculty_stats(g);
        let ta = ta_stats(g);
        let grid = Grid::uniform(g, 30).unwrap();
        let ra = NodeStats::leaf(
            PositionHistogram::from_intervals(grid, &[iv(3, 3), iv(9, 9), iv(21, 21), iv(28, 28)]),
            None,
            true,
        );
        // Owned chain.
        let owned1 = ancestor_join(&fac, &ta).unwrap();
        let owned2 = ancestor_join(&owned1, &ra).unwrap();

        // Arena chain: views all the way down.
        let mut ws = TwigWorkspace::new();
        let mut s1 = ws.take_slot();
        let x = StatsView::leaf(&fac.hist, fac.cvg.as_ref(), true);
        ancestor_join_into(&mut ws, x, ta.view(), &mut s1).unwrap();
        let mut s2 = ws.take_slot();
        let x2 = s1.view(fac.cvg.as_ref());
        ancestor_join_into(&mut ws, x2, ra.view(), &mut s2).unwrap();
        assert!((s1.match_total() - owned1.match_total()).abs() < 1e-9);
        assert!((s2.match_total() - owned2.match_total()).abs() < 1e-9);
        assert_eq!(s2.hist().non_zero_cells(), owned2.hist.non_zero_cells());
        let materialized = s2.into_node_stats(fac.cvg.as_ref());
        assert_eq!(materialized.hist, owned2.hist);
        assert_eq!(materialized.cvg, owned2.cvg);
    }

    #[test]
    fn empty_operands_estimate_zero() {
        let grid = Grid::uniform(4, 30).unwrap();
        let empty = NodeStats::leaf(PositionHistogram::empty(grid.clone()), None, true);
        let fac = faculty_stats(4);
        assert_eq!(
            estimate_pair(&fac, &empty, Basis::AncestorBased).unwrap(),
            0.0
        );
        let empty = NodeStats::leaf(PositionHistogram::empty(grid), None, true);
        assert_eq!(
            estimate_pair(&empty, &fac, Basis::AncestorBased).unwrap(),
            0.0
        );
    }

    #[test]
    fn single_ancestor_participation_formula() {
        // N=1 ancestor with M descendants: participation = 1 exactly
        // (1 × (1 - 0^M)).
        let grid = Grid::uniform(8, 63).unwrap();
        let anc_ivs = vec![iv(0, 63)];
        let mut nodes = vec![iv(0, 63)];
        nodes.extend((1..=63).map(|x| iv(x, x)));
        let cvg = CoverageHistogram::build(grid.clone(), &nodes, &anc_ivs);
        let anc = NodeStats::leaf(
            PositionHistogram::from_intervals(grid.clone(), &anc_ivs),
            Some(cvg),
            true,
        );
        let desc = NodeStats::leaf(
            PositionHistogram::from_intervals(
                grid,
                &(10..30).map(|p| iv(p, p)).collect::<Vec<_>>(),
            ),
            None,
            true,
        );
        let joined = ancestor_join(&anc, &desc).unwrap();
        assert!((joined.hist.total() - 1.0).abs() < 1e-12);
        // All 20 descendants are covered: estimate = 20.
        assert!((joined.match_total() - 20.0).abs() < 1e-9);
    }
}
