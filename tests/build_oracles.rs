//! Summary construction against naive oracles written here, not in the
//! library: a map of cell counts for position histograms, and a nested
//! loop over node × covering interval for coverage histograms.
//!
//! Random trees sit at random offsets on random grids (uniform and
//! equi-depth, g up to 128), built through the shard path that shifts
//! local intervals as it buckets them, and through the public builders
//! with shuffled or thinned inputs.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use xmlest::core::shard::{build_shard_summaries, classify_document};
use xmlest::core::{Cell, CoverageHistogram, Grid, PositionHistogram, SummaryConfig};
use xmlest::prelude::*;

/// Builds a random well-formed tree from an op tape: 0..=3 open tag
/// `t{op}`, 4..=5 close, 6 a text leaf.
fn build_tree(ops: &[u8]) -> XmlTree {
    let mut b = TreeBuilder::new();
    b.open("t0");
    let mut depth = 1usize;
    for &op in ops {
        match op % 7 {
            o @ 0..=3 => {
                b.open(&format!("t{o}"));
                depth += 1;
            }
            4 | 5 => {
                if depth > 1 {
                    b.close().unwrap();
                    depth -= 1;
                }
            }
            _ => {
                b.text("x");
            }
        }
    }
    while depth > 0 {
        b.close().unwrap();
        depth -= 1;
    }
    b.finish().unwrap()
}

/// xorshift64*, for the test's own shuffles and thinning.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn shift(iv: Interval, offset: u32) -> Interval {
    Interval::new(iv.start + offset, iv.end + offset)
}

/// A uniform grid, or an equi-depth one over every second start.
fn grid_for(g: u16, equi: bool, starts: &[u32], max_pos: u32) -> Grid {
    if equi {
        let sample: Vec<u32> = starts.iter().step_by(2).copied().collect();
        Grid::equi_depth(g, &sample, max_pos).unwrap()
    } else {
        Grid::uniform(g, max_pos).unwrap()
    }
}

/// Oracle: one count per interval, in a map.
fn cell_counts(grid: &Grid, intervals: &[Interval]) -> BTreeMap<Cell, u64> {
    let mut counts = BTreeMap::new();
    for &iv in intervals {
        *counts.entry(grid.cell_of(iv)).or_insert(0) += 1;
    }
    counts
}

fn assert_hist_matches(
    h: &PositionHistogram,
    grid: &Grid,
    intervals: &[Interval],
) -> Result<(), TestCaseError> {
    let want: Vec<(Cell, f64)> = cell_counts(grid, intervals)
        .into_iter()
        .map(|(cell, n)| (cell, n as f64))
        .collect();
    let got: Vec<(Cell, f64)> = h.iter().collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(h.total(), intervals.len() as f64);
    prop_assert!(h.validate().is_ok(), "{:?}", h.validate());
    Ok(())
}

/// Oracle: for every population node and every covering interval that
/// is its ancestor, one covered node for (its cell, the interval's
/// cell). Also returns each cell's population.
type CoverageOracle = (BTreeMap<(Cell, Cell), u64>, BTreeMap<Cell, u64>);

fn covered_counts(grid: &Grid, population: &[Interval], covering: &[Interval]) -> CoverageOracle {
    let mut covered = BTreeMap::new();
    for &d in population {
        for &p in covering {
            if p.is_ancestor_of(d) {
                *covered
                    .entry((grid.cell_of(d), grid.cell_of(p)))
                    .or_insert(0) += 1;
            }
        }
    }
    (covered, cell_counts(grid, population))
}

/// Border pairs are stored with their exact fraction; interior pairs are
/// fully covered and absent from storage; nothing else is stored.
fn assert_coverage_matches(
    cvg: &CoverageHistogram,
    grid: &Grid,
    population: &[Interval],
    covering: &[Interval],
) -> Result<(), TestCaseError> {
    let (covered, totals) = covered_counts(grid, population, covering);
    let stored: BTreeMap<(Cell, Cell), f64> = cvg.iter_partial().collect();
    let mut want = BTreeMap::new();
    for (&(d, a), &n) in &covered {
        let total = totals[&d];
        if d.0 == a.0 || d.1 == a.1 {
            want.insert((d, a), n as f64 / total as f64);
        } else {
            prop_assert_eq!(
                n,
                total,
                "interior pair {:?} in {:?} not fully covered",
                d,
                a
            );
            prop_assert!(!stored.contains_key(&(d, a)), "interior pair {d:?} stored");
            prop_assert_eq!(cvg.coverage(d, a), 1.0);
        }
    }
    prop_assert_eq!(stored, want);
    let cells: BTreeSet<Cell> = covering.iter().map(|&p| grid.cell_of(p)).collect();
    prop_assert_eq!(
        cvg.covering_cells().collect::<Vec<_>>(),
        cells.into_iter().collect::<Vec<_>>()
    );
    prop_assert!(cvg.validate().is_ok(), "{:?}", cvg.validate());
    Ok(())
}

/// A disjoint subset of `intervals` in document order: each kept with
/// probability ½ when it starts after the last kept one ends.
fn disjoint_subset(intervals: &[Interval], rng: &mut Rng) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    for &iv in intervals {
        if rng.below(2) == 0 && out.last().is_none_or(|p| p.end < iv.start) {
            out.push(iv);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shard_builds_match_oracles(
        ops in prop::collection::vec(0u8..7, 0..160),
        offset in 0u32..5_000,
        slack in 0u32..200,
        g in 1u16..129,
        equi in 0u8..2,
    ) {
        let tree = build_tree(&ops);
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let input = classify_document(&tree, &catalog);
        let all: Vec<Interval> = input.all_intervals.iter().map(|&iv| shift(iv, offset)).collect();
        let starts: Vec<u32> = all.iter().map(|iv| iv.start).collect();
        let max_pos = offset + tree.len() as u32 - 1 + slack;
        let grid = grid_for(g, equi == 1, &starts, max_pos);
        let config = SummaryConfig::paper_defaults();
        let shard = build_shard_summaries(&input, offset, &grid, &catalog, &config);

        assert_hist_matches(shard.true_hist(), &grid, &all)?;
        let mut coverage_checked = 0;
        for (k, name) in xmlest::core::shard::entry_names(&catalog).iter().enumerate() {
            let p = shard.get(name).unwrap();
            let matches: Vec<Interval> =
                input.entries[k].intervals.iter().map(|&iv| shift(iv, offset)).collect();
            assert_hist_matches(&p.hist, &grid, &matches)?;
            prop_assert_eq!(p.no_overlap, xmlest::xml::label::no_overlap(&matches));
            prop_assert_eq!(p.cvg.is_some(), p.no_overlap && !matches.is_empty());
            if let Some(cvg) = &p.cvg {
                assert_coverage_matches(cvg, &grid, &all, &matches)?;
                coverage_checked += 1;
            }
        }
        // A predicate with one match is no-overlap, and `#element`
        // always matches the root.
        prop_assert!(coverage_checked > 0);
    }

    #[test]
    fn from_intervals_counts_any_order(
        ops in prop::collection::vec(0u8..7, 0..160),
        seed in 1u64..u64::MAX,
        g in 1u16..129,
        equi in 0u8..2,
    ) {
        let tree = build_tree(&ops);
        let mut rng = Rng(seed);
        let all: Vec<Interval> = tree.iter().map(|n| tree.interval(n)).collect();
        let starts: Vec<u32> = all.iter().map(|iv| iv.start).collect();
        let grid = grid_for(g, equi == 1, &starts, tree.max_pos());
        // A random subset, with repeats, in random order.
        let mut picked: Vec<Interval> =
            (0..rng.below(2 * all.len() + 1)).map(|_| all[rng.below(all.len())]).collect();
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.below(i + 1));
        }
        let h = PositionHistogram::from_intervals(grid.clone(), &picked);
        assert_hist_matches(&h, &grid, &picked)?;
        // Document order gives the same histogram.
        picked.sort();
        prop_assert_eq!(&PositionHistogram::from_intervals(grid, &picked), &h);
    }

    #[test]
    fn coverage_over_any_population_matches_oracle(
        ops in prop::collection::vec(0u8..7, 0..160),
        seed in 1u64..u64::MAX,
        g in 1u16..129,
        equi in 0u8..2,
        thin in 0u8..2,
    ) {
        let tree = build_tree(&ops);
        let mut rng = Rng(seed);
        let all: Vec<Interval> = tree.iter().map(|n| tree.interval(n)).collect();
        // A thinned population is not numbered by position, so its
        // descendants are found by the cursor walk instead of arithmetic.
        let population: Vec<Interval> = if thin == 1 {
            all.iter().copied().filter(|_| rng.below(3) != 0).collect()
        } else {
            all.clone()
        };
        let starts: Vec<u32> = all.iter().map(|iv| iv.start).collect();
        let grid = grid_for(g, equi == 1, &starts, tree.max_pos());
        let covering = disjoint_subset(&all, &mut rng);
        let cvg = CoverageHistogram::build(grid.clone(), &population, &covering);
        assert_coverage_matches(&cvg, &grid, &population, &covering)?;
    }
}
