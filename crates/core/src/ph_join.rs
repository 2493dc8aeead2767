//! The pH-join — primitive estimation for an ancestor–descendant pair
//! (Sections 3.2–3.3, Fig. 6 and Fig. 9 of the paper).
//!
//! Given position histograms for predicates `P1` (ancestor) and `P2`
//! (descendant), estimate the number of node pairs `(u, v)` with `u`
//! satisfying `P1`, `v` satisfying `P2` and `u` an ancestor of `v`,
//! assuming uniform distribution inside each grid cell after excluding
//! the geometrically *forbidden* regions (Lemma 1).
//!
//! Region coefficients for an off-diagonal ancestor cell `A = (i, j)`
//! (Fig. 5/6): cells strictly inside `A`'s span count fully (regions
//! B/C/E); the two diagonal border cells `(i, i)` and `(j, j)` count half
//! (regions F/D — half their area is forbidden); `A` itself counts a
//! quarter. An on-diagonal cell is a triangle, and the within-cell pairing
//! probability integrates to 1/12.
//!
//! Both the **ancestor-based** and **descendant-based** variants are
//! implemented, each in two forms: the three-pass partial-sum algorithm of
//! Fig. 9 (O(g²) total work) and a direct region-sum reference (O(g⁴))
//! used to cross-validate it. Section 3.3's space–time tradeoff
//! (precomputing per-cell coefficients from the inner operand) is not
//! implemented: the sweep evaluates coefficients only at the outer
//! operand's non-zero cells, and on the served query mix a memoized
//! table cost more per estimate than the sweep itself.
//!
//! ## Allocation discipline and working set
//!
//! The kernel streams over the operands' CSR rows with an **O(g)
//! working set**: one length-`g` column-sum array, one length-`g`
//! diagonal cache, and an output staging buffer sized by the result's
//! non-zero cells. (The original implementation materialized five dense
//! `g × g` planes per call — ~655 KB at `g = 128` — whose allocation
//! and zeroing dominated the free-function path and blew the L1/L2
//! cache on every join.) The partial sums of Fig. 9 are equivalent to
//! per-row running accumulators over the column sums, so they never
//! need materializing:
//!
//! * **Ancestor-based** sweeps outer rows `i` descending, maintaining
//!   `colsum[n] = Σ_{m>i} b[m][n]` by scattering each inner CSR row as
//!   the sweep passes it. For a row's outer cells (ascending `j`),
//!   `interior(i,j) = Σ_{n<j} colsum[n]` and `down(i,j)` are running
//!   prefixes; `right(i,j) = colsum[j]` is a single read.
//! * **Descendant-based** sweeps ascending with `colsum[n] = Σ_{m<i}
//!   b[m][n]` and walks each row's cells descending `j`, so the suffix
//!   sums `f` and `gsum` are running accumulators too.
//!
//! Results are staged per row and emitted in ascending row-major order
//! (the sweep visits rows out of output order in exactly one of the two
//! bases). All buffers live in a [`JoinWorkspace`], which the estimator
//! threads through every join of a twig evaluation: after they have
//! grown to the working grid size once, repeated joins perform **zero
//! heap allocations** (verified by an allocation-counting integration
//! test). The free functions [`ph_join`]/[`ph_join_total`] remain as
//! convenience wrappers that stand up a workspace per call — now ~O(g)
//! bytes instead of five dense planes.

use crate::error::{Error, Result};
use crate::grid::Cell;
use crate::position_histogram::PositionHistogram;

/// Which operand's cells the per-cell estimate is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// Estimate positioned at ancestor cells (first formula of Fig. 6).
    AncestorBased,
    /// Estimate positioned at descendant cells (second formula of Fig. 6).
    DescendantBased,
}

/// Reusable scratch buffers for the pH-join kernels. One workspace
/// serves any grid size: buffers grow to the largest size seen and are
/// then reused allocation-free. Working set is O(g) plus the staged
/// output cells.
#[derive(Debug, Default)]
pub struct JoinWorkspace {
    /// Column sums of the inner operand over the rows the sweep has
    /// passed: `Σ_{m>i} b[m][n]` (ancestor-based, descending sweep) or
    /// `Σ_{m<i} b[m][n]` (descendant-based, ascending sweep).
    colsum: Vec<f64>,
    /// Inner diagonal cells `b[i][i]` (the half-weighted border terms).
    diag: Vec<f64>,
    /// Staged `(cell, value)` output pairs, in sweep order.
    staged: Vec<(Cell, f64)>,
    /// Per swept row, the staged range it produced.
    spans: Vec<(u32, u32)>,
}

impl JoinWorkspace {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        JoinWorkspace::default()
    }

    /// One full sweep: stages `v · coeff(i, j)` for every outer cell
    /// with a non-zero coefficient, recording per-row spans. The sweep
    /// reads each outer CSR row in place. The coefficient algebra
    /// matches Fig. 9's three-pass formulas term by term (see the module
    /// docs); only the *grouping* of the interior sum differs, which
    /// cross-validation tests cover with tolerances.
    fn sweep(&mut self, inner: &PositionHistogram, outer: &PositionHistogram, basis: Basis) {
        let g = inner.grid().g() as usize;
        let flat = inner.flat();
        let outer = outer.flat();
        self.colsum.clear();
        self.colsum.resize(g, 0.0);
        self.diag.clear();
        self.diag.resize(g, 0.0);
        for i in 0..g {
            if let Some(&((_, c), v)) = flat.row(i as u16).first() {
                if c as usize == i {
                    self.diag[i] = v;
                }
            }
        }
        self.staged.clear();
        self.spans.clear();

        match basis {
            // Descending sweep: colsum accumulates the rows *below* i.
            Basis::AncestorBased => {
                for i in (0..g).rev() {
                    let row_inner = flat.row(i as u16);
                    let start = self.staged.len() as u32;
                    // Running prefixes, advanced monotonically as j
                    // ascends: `n_acc = Σ_{n<j} colsum[n]` (interior) and
                    // `r_acc = Σ_{n<j} b[i][n]` (same-start region).
                    let mut n_acc = 0.0;
                    let mut n_ptr = 0usize;
                    let mut r_acc = 0.0;
                    let mut cur = 0usize;
                    for &((_, j), v) in outer.row(i as u16) {
                        let ju = j as usize;
                        while n_ptr < ju {
                            n_acc += self.colsum[n_ptr];
                            n_ptr += 1;
                        }
                        while cur < row_inner.len() && (row_inner[cur].0 .1 as usize) < ju {
                            r_acc += row_inner[cur].1;
                            cur += 1;
                        }
                        let bij = if cur < row_inner.len() && row_inner[cur].0 .1 as usize == ju {
                            row_inner[cur].1
                        } else {
                            0.0
                        };
                        let c = if i == ju {
                            self.diag[i] / 12.0
                        } else {
                            n_acc + bij / 4.0 + r_acc - self.diag[i] / 2.0 + self.colsum[ju]
                                - self.diag[ju] / 2.0
                        };
                        if c != 0.0 {
                            self.staged.push(((i as u16, j), v * c));
                        }
                    }
                    self.spans.push((start, self.staged.len() as u32));
                    for &((_, n), v) in row_inner {
                        self.colsum[n as usize] += v;
                    }
                }
            }
            // Ascending sweep: colsum accumulates the rows *above* i;
            // each row's cells walk descending j so the suffix sums are
            // running accumulators.
            Basis::DescendantBased => {
                for i in 0..g {
                    let row_inner = flat.row(i as u16);
                    let start = self.staged.len() as u32;
                    // `s_acc = Σ_{n>j} colsum[n]` (region G) and
                    // `f_acc = Σ_{n>j} b[i][n]` (region F), advanced as
                    // j descends.
                    let mut s_acc = 0.0;
                    let mut s_ptr = g;
                    let mut f_acc = 0.0;
                    let mut r = row_inner.len();
                    for &((_, j), v) in outer.row(i as u16).iter().rev() {
                        let ju = j as usize;
                        while s_ptr > ju + 1 {
                            s_ptr -= 1;
                            s_acc += self.colsum[s_ptr];
                        }
                        while r > 0 && (row_inner[r - 1].0 .1 as usize) > ju {
                            r -= 1;
                            f_acc += row_inner[r].1;
                        }
                        let bij = if r > 0 && row_inner[r - 1].0 .1 as usize == ju {
                            row_inner[r - 1].1
                        } else {
                            0.0
                        };
                        let self_factor = if i == ju { 1.0 / 12.0 } else { 0.25 };
                        let c = f_acc + self.colsum[ju] + s_acc + self_factor * bij;
                        if c != 0.0 {
                            self.staged.push(((i as u16, j), v * c));
                        }
                    }
                    self.spans.push((start, self.staged.len() as u32));
                    for &((_, n), v) in row_inner {
                        self.colsum[n as usize] += v;
                    }
                }
            }
        }
    }

    /// Replays the staged cells in ascending row-major order. The
    /// ancestor sweep visits rows descending (spans reversed, cells
    /// forward); the descendant sweep visits cells within a row
    /// descending (spans forward, cells reversed).
    fn emit(&self, basis: Basis, mut sink: impl FnMut(Cell, f64)) {
        match basis {
            Basis::AncestorBased => {
                for &(start, end) in self.spans.iter().rev() {
                    for &(cell, v) in &self.staged[start as usize..end as usize] {
                        sink(cell, v);
                    }
                }
            }
            Basis::DescendantBased => {
                for &(start, end) in &self.spans {
                    for &(cell, v) in self.staged[start as usize..end as usize].iter().rev() {
                        sink(cell, v);
                    }
                }
            }
        }
    }

    /// Runs the pH-join into a reused output histogram. `out` is cleared
    /// to the operands' grid; its entry capacity is kept, so steady-state
    /// calls allocate nothing.
    pub fn ph_join_into(
        &mut self,
        anc: &PositionHistogram,
        desc: &PositionHistogram,
        basis: Basis,
        out: &mut PositionHistogram,
    ) -> Result<()> {
        if anc.grid() != desc.grid() {
            return Err(Error::GridMismatch);
        }
        let (inner, outer) = match basis {
            Basis::AncestorBased => (desc, anc),
            Basis::DescendantBased => (anc, desc),
        };
        self.sweep(inner, outer, basis);
        out.clear_to(outer.grid());
        self.emit(basis, |cell, v| out.push_sorted(cell, v));
        Ok(())
    }

    /// Total estimated join size without materializing the per-cell
    /// output at all. Sums in emission order, so the total is
    /// bit-identical to the materialized histogram's running total.
    pub fn ph_join_total(
        &mut self,
        anc: &PositionHistogram,
        desc: &PositionHistogram,
        basis: Basis,
    ) -> Result<f64> {
        if anc.grid() != desc.grid() {
            return Err(Error::GridMismatch);
        }
        let (inner, outer) = match basis {
            Basis::AncestorBased => (desc, anc),
            Basis::DescendantBased => (anc, desc),
        };
        self.sweep(inner, outer, basis);
        let mut total = 0.0;
        self.emit(basis, |_, v| total += v);
        Ok(total)
    }
}

/// Runs the pH-join, returning the per-cell estimate histogram
/// (`Est_P12` in the paper). Cells are those of the basis operand.
/// Convenience wrapper over [`JoinWorkspace::ph_join_into`].
pub fn ph_join(
    anc: &PositionHistogram,
    desc: &PositionHistogram,
    basis: Basis,
) -> Result<PositionHistogram> {
    let mut ws = JoinWorkspace::new();
    let mut out = PositionHistogram::empty(anc.grid().clone());
    ws.ph_join_into(anc, desc, basis, &mut out)?;
    Ok(out)
}

/// Total estimated join size (sum of the per-cell estimates).
pub fn ph_join_total(
    anc: &PositionHistogram,
    desc: &PositionHistogram,
    basis: Basis,
) -> Result<f64> {
    JoinWorkspace::new().ph_join_total(anc, desc, basis)
}

/// Direct region-sum implementation of Fig. 6 — O(g⁴), used only to
/// cross-validate the partial-sum algorithm in tests and benches.
pub fn ph_join_reference(
    anc: &PositionHistogram,
    desc: &PositionHistogram,
    basis: Basis,
) -> Result<PositionHistogram> {
    if anc.grid() != desc.grid() {
        return Err(Error::GridMismatch);
    }
    let g = anc.grid().g() as usize;
    let mut est = PositionHistogram::empty(anc.grid().clone());
    match basis {
        Basis::AncestorBased => {
            for ((i, j), a) in anc.iter() {
                let (i, j) = (i as usize, j as usize);
                let mut c = 0.0;
                if i == j {
                    c += desc.get((i as u16, i as u16)) / 12.0;
                } else {
                    // Strict interior (includes inner diagonal cells).
                    for m in i + 1..=j {
                        for n in m..j {
                            c += desc.get((m as u16, n as u16));
                        }
                    }
                    // Same start bucket, ends inside (region E)...
                    for n in i + 1..j {
                        c += desc.get((i as u16, n as u16));
                    }
                    // ...with the column diagonal cell at half (region F).
                    c += desc.get((i as u16, i as u16)) / 2.0;
                    // Same end bucket, starts inside (region C)...
                    for m in i + 1..j {
                        c += desc.get((m as u16, j as u16));
                    }
                    // ...with the row diagonal cell at half (region D).
                    c += desc.get((j as u16, j as u16)) / 2.0;
                    // Same cell: quarter.
                    c += desc.get((i as u16, j as u16)) / 4.0;
                }
                if c != 0.0 {
                    est.set((i as u16, j as u16), a * c);
                }
            }
        }
        Basis::DescendantBased => {
            for ((i, j), d) in desc.iter() {
                let (iu, ju) = (i as usize, j as usize);
                let mut c = 0.0;
                // F: same start bucket, later end bucket.
                for n in ju + 1..g {
                    c += anc.get((i, n as u16));
                }
                // H: earlier start bucket, same end bucket.
                for m in 0..iu {
                    c += anc.get((m as u16, j));
                }
                // G: strictly up-left.
                for m in 0..iu {
                    for n in ju + 1..g {
                        c += anc.get((m as u16, n as u16));
                    }
                }
                // Self cell.
                let self_factor = if i == j { 1.0 / 12.0 } else { 0.25 };
                c += self_factor * anc.get((i, j));
                if c != 0.0 {
                    est.set((i, j), d * c);
                }
            }
        }
    }
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use xmlest_xml::Interval;

    fn iv(s: u32, e: u32) -> Interval {
        Interval::new(s, e)
    }

    fn fig1_histograms(g: u16) -> (PositionHistogram, PositionHistogram) {
        let grid = Grid::uniform(g, 30).unwrap();
        let fac =
            PositionHistogram::from_intervals(grid.clone(), &[iv(1, 3), iv(6, 11), iv(17, 23)]);
        let ta = PositionHistogram::from_intervals(
            grid,
            &[iv(14, 14), iv(15, 15), iv(16, 16), iv(20, 20), iv(23, 23)],
        );
        (fac, ta)
    }

    #[test]
    fn paper_worked_example_estimates_point_six() {
        // Section 3.2: with the 2x2 histograms of Fig. 7 the primitive
        // algorithm estimates ~0.6 (the exact value is 7/12).
        let (fac, ta) = fig1_histograms(2);
        let total = ph_join_total(&fac, &ta, Basis::AncestorBased).unwrap();
        assert!((total - 7.0 / 12.0).abs() < 1e-12, "got {total}");
        // Descendant-based agrees exactly here (all mass on the diagonal).
        let total_d = ph_join_total(&fac, &ta, Basis::DescendantBased).unwrap();
        assert!((total_d - 7.0 / 12.0).abs() < 1e-12, "got {total_d}");
    }

    #[test]
    fn finer_grid_improves_the_example() {
        // Real answer for faculty//TA in Fig. 1 is 2. The estimate should
        // move toward it as g grows (paper: "by refining the histogram to
        // use more buckets, we can get a more accurate estimate").
        let coarse = {
            let (f, t) = fig1_histograms(2);
            ph_join_total(&f, &t, Basis::AncestorBased).unwrap()
        };
        let fine = {
            let (f, t) = fig1_histograms(16);
            ph_join_total(&f, &t, Basis::AncestorBased).unwrap()
        };
        assert!(
            (fine - 2.0).abs() < (coarse - 2.0).abs(),
            "coarse {coarse} fine {fine}"
        );
    }

    #[test]
    fn matches_reference_on_example() {
        for g in [2u16, 3, 5, 8, 13] {
            let (f, t) = fig1_histograms(g);
            for basis in [Basis::AncestorBased, Basis::DescendantBased] {
                let fast = ph_join(&f, &t, basis).unwrap();
                let slow = ph_join_reference(&f, &t, basis).unwrap();
                for ((c, v), (c2, v2)) in fast.iter().zip(slow.iter()) {
                    assert_eq!(c, c2);
                    assert!((v - v2).abs() < 1e-9, "g={g} cell {c:?}: {v} vs {v2}");
                }
                assert!((fast.total() - slow.total()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // One workspace across many joins, mixed bases and grid sizes,
        // must give the same results as fresh allocations every time.
        let mut ws = JoinWorkspace::new();
        let mut out = PositionHistogram::empty(Grid::uniform(2, 30).unwrap());
        for g in [2u16, 8, 5, 13, 3] {
            let (f, t) = fig1_histograms(g);
            for basis in [Basis::AncestorBased, Basis::DescendantBased] {
                ws.ph_join_into(&f, &t, basis, &mut out).unwrap();
                let fresh = ph_join(&f, &t, basis).unwrap();
                assert_eq!(out, fresh, "g={g} {basis:?}");
                let total = ws.ph_join_total(&f, &t, basis).unwrap();
                assert!((total - fresh.total()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_root_ancestor_counts_all_descendants() {
        // One ancestor spanning everything, many leaf descendants far from
        // the root's cell: every descendant is guaranteed, so the estimate
        // should equal the exact count.
        let grid = Grid::uniform(8, 63).unwrap();
        let anc = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 63)]);
        let descendants: Vec<Interval> = (10..30).map(|p| iv(p, p)).collect();
        let desc = PositionHistogram::from_intervals(grid, &descendants);
        let est = ph_join_total(&anc, &desc, Basis::AncestorBased).unwrap();
        // Root is in cell (0, 7); leaves in buckets 1..3 are strictly
        // interior -> coefficient 1. Leaves in bucket 0 sit in the column
        // diagonal cell -> 1/2. Positions 10..16 are bucket 1+... width is
        // 8, so 10..16 in bucket 1, 16..24 bucket 2, 24..30 bucket 3: all
        // interior. Estimate = 20.
        assert!((est - 20.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn disjoint_predicates_estimate_zero() {
        let grid = Grid::uniform(8, 79).unwrap();
        // Ancestors entirely in the first buckets, descendants in the last.
        let anc = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 5), iv(2, 3)]);
        let desc = PositionHistogram::from_intervals(grid, &[iv(70, 75), iv(78, 78)]);
        let est = ph_join_total(&anc, &desc, Basis::AncestorBased).unwrap();
        assert_eq!(est, 0.0);
        let est = ph_join_total(&anc, &desc, Basis::DescendantBased).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn single_bucket_grid_is_all_on_diagonal() {
        // g=1: every node lands in cell (0,0); the only term is the
        // 1/12 within-cell coefficient.
        let grid = Grid::uniform(1, 99).unwrap();
        let anc = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 99), iv(1, 50)]);
        let desc = PositionHistogram::from_intervals(grid, &[iv(3, 3), iv(7, 9), iv(60, 61)]);
        for basis in [Basis::AncestorBased, Basis::DescendantBased] {
            let est = ph_join_total(&anc, &desc, basis).unwrap();
            assert!((est - 2.0 * 3.0 / 12.0).abs() < 1e-12, "{basis:?}: {est}");
        }
    }

    #[test]
    fn empty_operands_yield_zero() {
        let grid = Grid::uniform(6, 59).unwrap();
        let empty = PositionHistogram::empty(grid.clone());
        let some = PositionHistogram::from_intervals(grid, &[iv(0, 59), iv(5, 8)]);
        for basis in [Basis::AncestorBased, Basis::DescendantBased] {
            assert_eq!(ph_join_total(&empty, &some, basis).unwrap(), 0.0);
            assert_eq!(ph_join_total(&some, &empty, basis).unwrap(), 0.0);
            assert_eq!(ph_join_total(&empty, &empty, basis).unwrap(), 0.0);
        }
    }

    #[test]
    fn self_join_counts_nesting_pairs() {
        // Joining a predicate with itself estimates (ancestor, descendant)
        // pairs among its own nodes — meaningful for recursive tags.
        let grid = Grid::uniform(4, 39).unwrap();
        // Three nested intervals spanning distinct cells.
        let h = PositionHistogram::from_intervals(grid, &[iv(0, 39), iv(1, 20), iv(2, 5)]);
        let est = ph_join_total(&h, &h, Basis::AncestorBased).unwrap();
        // Real nesting pairs: (0-39,1-20), (0-39,2-5), (1-20,2-5) = 3.
        assert!(est > 0.5 && est < 6.0, "{est}");
    }

    #[test]
    fn grid_mismatch_rejected() {
        let g1 = Grid::uniform(4, 99).unwrap();
        let g2 = Grid::uniform(5, 99).unwrap();
        let a = PositionHistogram::from_intervals(g1, &[iv(0, 10)]);
        let b = PositionHistogram::from_intervals(g2, &[iv(0, 10)]);
        assert_eq!(
            ph_join(&a, &b, Basis::AncestorBased).unwrap_err(),
            Error::GridMismatch
        );
        assert_eq!(
            ph_join_reference(&a, &b, Basis::DescendantBased).unwrap_err(),
            Error::GridMismatch
        );
        let mut ws = JoinWorkspace::new();
        assert_eq!(
            ws.ph_join_total(&a, &b, Basis::AncestorBased).unwrap_err(),
            Error::GridMismatch
        );
    }

    #[test]
    fn off_diagonal_regions_weighted_correctly() {
        // Hand-checkable configuration on a 4x4 grid (positions 0..39,
        // width 10): one ancestor cell (0, 3) with 1 node; descendants
        // placed one per region.
        let grid = Grid::uniform(4, 39).unwrap();
        let anc = PositionHistogram::from_intervals(grid.clone(), &[iv(0, 39)]);
        let mut desc = PositionHistogram::empty(grid);
        desc.set((1, 2), 10.0); // strict interior -> 1
        desc.set((0, 1), 100.0); // same start bucket, inside -> 1 (region E)
        desc.set((0, 0), 1000.0); // column diagonal -> 1/2 (region F)
        desc.set((1, 3), 10000.0); // same end bucket, inside -> 1 (region C)
        desc.set((3, 3), 100000.0); // row diagonal -> 1/2 (region D)
        desc.set((0, 3), 1000000.0); // same cell -> 1/4
        desc.set((2, 2), 7.0); // inner diagonal cell -> 1 (interior)
        let est = ph_join_total(&anc, &desc, Basis::AncestorBased).unwrap();
        let expected =
            10.0 + 100.0 + 1000.0 / 2.0 + 10000.0 + 100000.0 / 2.0 + 1000000.0 / 4.0 + 7.0;
        assert!((est - expected).abs() < 1e-9, "got {est}, want {expected}");
    }

    #[test]
    fn descendant_based_regions_weighted_correctly() {
        // One descendant in cell (1, 2) on a 4x4 grid; ancestors in each
        // of its regions.
        let grid = Grid::uniform(4, 39).unwrap();
        let mut anc = PositionHistogram::empty(grid.clone());
        anc.set((1, 3), 10.0); // F: same start bucket, later end -> 1
        anc.set((0, 2), 100.0); // H: earlier start, same end -> 1
        anc.set((0, 3), 1000.0); // G: strictly up-left -> 1
        anc.set((1, 2), 10000.0); // self, off-diagonal -> 1/4
        anc.set((2, 3), 5.0); // starts after the descendant: not an ancestor
        let desc = PositionHistogram::from_intervals(grid, &[iv(12, 25)]); // cell (1,2)
        let est = ph_join_total(&anc, &desc, Basis::DescendantBased).unwrap();
        let expected = 10.0 + 100.0 + 1000.0 + 10000.0 / 4.0;
        assert!((est - expected).abs() < 1e-9, "got {est}, want {expected}");
    }
}
