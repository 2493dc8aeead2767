//! The `g × g` bucketing of the `(start, end)` position plane.
//!
//! Both axes share one set of bucket boundaries (start and end positions
//! are drawn from the same 0..=max_pos space), so Definition 1 of the
//! paper simplifies: a grid cell `(i, j)` is *on-diagonal* iff `i == j`.
//!
//! Two bucketing strategies are provided:
//! * [`Grid::uniform`] — fixed-width buckets, the paper's default;
//! * [`Grid::equi_depth`] — quantile boundaries over the node-start
//!   distribution, the "non-uniform grid cells" future-work item of
//!   Section 7.

use crate::error::{Error, Result};
use xmlest_xml::Interval;

/// A `(start-bucket, end-bucket)` pair addressing one histogram cell.
pub type Cell = (u16, u16);

/// Bucket boundaries shared by the start (X) and end (Y) axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// `boundaries[i]..boundaries[i+1]` is bucket `i` (half-open);
    /// `boundaries[0] == 0` and `boundaries[g] == max_pos + 1`.
    boundaries: Vec<u32>,
    /// Fast path for uniform grids: fixed bucket width.
    uniform_width: Option<u32>,
}

impl Grid {
    /// Uniform bucketing of positions `0..=max_pos` into `g` buckets of
    /// width `ceil((max_pos + 1) / g)`. The last bucket may be narrower,
    /// and `g` is capped at the number of positions (extra buckets would
    /// be permanently empty and produce degenerate boundaries).
    pub fn uniform(g: u16, max_pos: u32) -> Result<Grid> {
        if g == 0 {
            return Err(Error::EmptyGrid);
        }
        let span = max_pos as u64 + 1;
        let g = (g as u64).min(span) as u16;
        let width = span.div_ceil(g as u64).max(1) as u32;
        // With ceil rounding the last bucket may collapse entirely (e.g.
        // span 10, g 6 -> width 2 covers it in 5); shrink g accordingly.
        let g = (span.div_ceil(width as u64)) as u16;
        let mut boundaries = Vec::with_capacity(g as usize + 1);
        for i in 0..=g as u64 {
            boundaries.push(((i * width as u64).min(span)) as u32);
        }
        Ok(Grid {
            boundaries,
            uniform_width: Some(width),
        })
    }

    /// Equi-depth bucketing: boundaries are quantiles of `positions`
    /// (which must be sorted ascending; typically every node's start).
    /// Buckets then hold roughly equal numbers of nodes, concentrating
    /// resolution where the data is.
    pub fn equi_depth(g: u16, positions: &[u32], max_pos: u32) -> Result<Grid> {
        if g == 0 || positions.is_empty() {
            return Err(Error::EmptyGrid);
        }
        // Like `uniform`, cap g at the number of positions: more buckets
        // than positions cannot have strictly increasing boundaries (the
        // duplicate-repair pass below would wedge at zero and emit a
        // degenerate grid that the persistence layer rightly rejects).
        let g = (g as u64).min(max_pos as u64 + 1) as u16;
        debug_assert!(
            positions.windows(2).all(|w| w[0] <= w[1]),
            "positions must be sorted"
        );
        let n = positions.len();
        let mut boundaries = Vec::with_capacity(g as usize + 1);
        boundaries.push(0);
        for i in 1..g {
            let rank = (i as usize * n) / g as usize;
            let b = positions[rank.min(n - 1)];
            // Boundaries must be strictly increasing; skip duplicates by
            // nudging forward (bucket becomes empty rather than invalid).
            #[expect(
                clippy::expect_used,
                reason = "boundaries starts with the 0 pushed above; never empty here"
            )]
            let prev = *boundaries.last().expect("non-empty");
            boundaries.push(b.max(prev + 1));
        }
        let span = max_pos + 1;
        boundaries.push(span);
        // Clamp any boundary that overran the span (can happen with many
        // duplicate positions near the end).
        for b in boundaries.iter_mut() {
            *b = (*b).min(span);
        }
        // Re-impose strict monotonicity from the right.
        for i in (1..boundaries.len() - 1).rev() {
            if boundaries[i] >= boundaries[i + 1] {
                boundaries[i] = boundaries[i + 1].saturating_sub(1);
            }
        }
        Ok(Grid {
            boundaries,
            uniform_width: None,
        })
    }

    /// Number of buckets per axis.
    pub fn g(&self) -> u16 {
        (self.boundaries.len() - 1) as u16
    }

    /// Largest position representable (inclusive).
    pub fn max_pos(&self) -> u32 {
        self.boundaries[self.boundaries.len() - 1] - 1
    }

    /// Bucket index of a position.
    pub fn bucket_of(&self, pos: u32) -> u16 {
        if let Some(w) = self.uniform_width {
            return ((pos / w) as u16).min(self.g() - 1);
        }
        // partition_point gives the first boundary > pos; bucket is one less.
        let idx = self.boundaries.partition_point(|&b| b <= pos);
        (idx.saturating_sub(1) as u16).min(self.g() - 1)
    }

    /// The cell an interval falls into.
    pub fn cell_of(&self, iv: Interval) -> Cell {
        (self.bucket_of(iv.start), self.bucket_of(iv.end))
    }

    /// Half-open position range `[lo, hi)` of bucket `i`.
    pub fn bucket_range(&self, i: u16) -> (u32, u32) {
        (self.boundaries[i as usize], self.boundaries[i as usize + 1])
    }

    /// Number of positions in bucket `i`.
    pub fn bucket_width(&self, i: u16) -> u32 {
        let (lo, hi) = self.bucket_range(i);
        hi - lo
    }

    /// Definition 1: with shared axis boundaries a cell is on-diagonal
    /// iff its start and end buckets coincide.
    pub fn on_diagonal(&self, cell: Cell) -> bool {
        cell.0 == cell.1
    }

    /// Raw boundaries (length `g + 1`).
    pub fn boundaries(&self) -> &[u32] {
        &self.boundaries
    }

    /// True when built by [`Grid::uniform`].
    pub fn is_uniform(&self) -> bool {
        self.uniform_width.is_some()
    }

    /// Raw parts for persistence.
    pub(crate) fn uniform_width(&self) -> Option<u32> {
        self.uniform_width
    }

    /// Checks every structural invariant of the bucketing: at least one
    /// bucket, `boundaries[0] == 0`, strict monotonicity, and — for
    /// uniform grids — agreement between the stored width and the
    /// boundary spacing (all buckets exactly `width` wide except a
    /// possibly narrower final one). Returns the first violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        let b = &self.boundaries;
        invariant!(b.len() >= 2, "grid has {} boundaries, need >= 2", b.len());
        invariant!(b[0] == 0, "boundaries[0] is {}, must be 0", b[0]);
        for w in b.windows(2) {
            invariant!(
                w[0] < w[1],
                "boundaries not strictly increasing: {} then {}",
                w[0],
                w[1]
            );
        }
        if let Some(width) = self.uniform_width {
            invariant!(width >= 1, "uniform width 0");
            for (i, w) in b.windows(2).enumerate() {
                let got = w[1] - w[0];
                let last = i + 2 == b.len();
                invariant!(
                    if last { got <= width } else { got == width },
                    "uniform bucket {i} has width {got}, declared {width}"
                );
            }
        }
        Ok(())
    }

    /// Reconstructs a grid from persisted parts (trusted input from our
    /// own serializer; boundaries are validated for monotonicity).
    pub(crate) fn from_parts(boundaries: Vec<u32>, uniform_width: Option<u32>) -> Result<Grid> {
        if boundaries.len() < 2 || !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::EmptyGrid);
        }
        Ok(Grid {
            boundaries,
            uniform_width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_buckets_cover_space() {
        let g = Grid::uniform(2, 30).unwrap(); // paper's 2x2 example: width 16
        assert_eq!(g.g(), 2);
        assert_eq!(g.bucket_of(0), 0);
        assert_eq!(g.bucket_of(15), 0);
        assert_eq!(g.bucket_of(16), 1);
        assert_eq!(g.bucket_of(30), 1);
        assert_eq!(g.max_pos(), 30);
    }

    #[test]
    fn uniform_cell_of_interval() {
        let g = Grid::uniform(2, 30).unwrap();
        assert_eq!(g.cell_of(Interval::new(1, 3)), (0, 0));
        assert_eq!(g.cell_of(Interval::new(0, 30)), (0, 1));
        assert_eq!(g.cell_of(Interval::new(17, 23)), (1, 1));
    }

    #[test]
    fn uniform_handles_non_dividing_sizes() {
        // 10 positions into 3 buckets: width 4 -> buckets [0,4) [4,8) [8,10)
        let g = Grid::uniform(3, 9).unwrap();
        assert_eq!(g.bucket_range(0), (0, 4));
        assert_eq!(g.bucket_range(1), (4, 8));
        assert_eq!(g.bucket_range(2), (8, 10));
        assert_eq!(g.bucket_of(9), 2);
    }

    #[test]
    fn more_buckets_than_positions_caps_g() {
        let g = Grid::uniform(10, 3).unwrap();
        assert_eq!(g.g(), 4, "only 4 positions exist");
        for p in 0..=3 {
            assert_eq!(g.bucket_of(p), p as u16);
        }
        // Boundaries stay strictly increasing for any (g, span) combo.
        for gg in 1u16..12 {
            for max_pos in 0u32..12 {
                let grid = Grid::uniform(gg, max_pos).unwrap();
                assert!(
                    grid.boundaries().windows(2).all(|w| w[0] < w[1]),
                    "g={gg} max={max_pos}: {:?}",
                    grid.boundaries()
                );
            }
        }
    }

    #[test]
    fn zero_buckets_rejected() {
        assert_eq!(Grid::uniform(0, 10).unwrap_err(), Error::EmptyGrid);
        assert_eq!(Grid::equi_depth(0, &[1], 10).unwrap_err(), Error::EmptyGrid);
        assert_eq!(Grid::equi_depth(4, &[], 10).unwrap_err(), Error::EmptyGrid);
    }

    #[test]
    fn diagonal_test() {
        let g = Grid::uniform(4, 99).unwrap();
        assert!(g.on_diagonal((2, 2)));
        assert!(!g.on_diagonal((1, 2)));
    }

    #[test]
    fn equi_depth_concentrates_resolution() {
        // 90% of starts are in [0, 10); the rest spread to 100.
        let mut positions: Vec<u32> = (0..90).map(|i| i % 10).collect();
        positions.extend([20, 40, 50, 60, 70, 80, 85, 90, 95, 99]);
        positions.sort_unstable();
        let g = Grid::equi_depth(4, &positions, 99).unwrap();
        assert_eq!(g.g(), 4);
        // Boundaries strictly increasing and covering the space.
        let b = g.boundaries();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 100);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // Most boundaries land inside the dense region.
        assert!(b[1] <= 10 && b[2] <= 10, "boundaries {:?}", b);
        // Every position maps to a valid bucket.
        for p in 0..=99 {
            assert!(g.bucket_of(p) < 4);
        }
    }

    #[test]
    fn equi_depth_with_heavy_duplicates_is_valid() {
        let positions = vec![5u32; 1000];
        let g = Grid::equi_depth(8, &positions, 9).unwrap();
        let b = g.boundaries();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "boundaries {:?}", b);
        assert_eq!(*b.last().unwrap(), 10);
        for p in 0..=9 {
            assert!(g.bucket_of(p) < 8);
        }
    }

    #[test]
    fn validate_accepts_every_constructed_grid() {
        for g in 1u16..12 {
            for max_pos in 0u32..12 {
                Grid::uniform(g, max_pos).unwrap().validate().unwrap();
            }
        }
        let positions: Vec<u32> = (0..=100).collect();
        for g in 1u16..12 {
            Grid::equi_depth(g, &positions, 100)
                .unwrap()
                .validate()
                .unwrap();
        }
        Grid::equi_depth(8, &vec![5u32; 1000], 9)
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_single_field_mutations() {
        let good = Grid::uniform(4, 99).unwrap();
        good.validate().unwrap();

        let mut g = good.clone();
        g.boundaries[0] = 1;
        assert!(g.validate().is_err(), "nonzero origin accepted");

        let mut g = good.clone();
        g.boundaries[2] = g.boundaries[1];
        assert!(g.validate().is_err(), "non-monotone boundaries accepted");

        let mut g = good.clone();
        g.uniform_width = Some(g.uniform_width.unwrap() + 1);
        assert!(g.validate().is_err(), "wrong uniform width accepted");

        let mut g = good.clone();
        g.boundaries.truncate(1);
        assert!(g.validate().is_err(), "bucketless grid accepted");
    }

    #[test]
    fn bucket_of_agrees_with_ranges() {
        for grid in [
            Grid::uniform(7, 100).unwrap(),
            Grid::equi_depth(7, &(0..=100).collect::<Vec<_>>(), 100).unwrap(),
        ] {
            for p in 0..=100 {
                let b = grid.bucket_of(p);
                let (lo, hi) = grid.bucket_range(b);
                assert!(lo <= p && p < hi, "pos {p} bucket {b} range {lo}..{hi}");
            }
        }
    }
}
