//! Persistence of the summary structure.
//!
//! The problem statement (Section 2) asks for a summary `T'` whose size
//! is a small percentage of `T` and which alone answers estimation
//! queries. This module serializes [`Summaries`] to a compact
//! little-endian binary format so the structure can live in a database
//! catalog file, and reports the honest serialized size (the
//! `storage_bytes` accessors report the *logical* per-cell accounting
//! used for Fig. 11/12; the file format adds small framing overheads).
//!
//! Format: magic `XEST`, version u16, then length-prefixed sections. The
//! optional DTD analysis is *not* persisted — it is derivable from the
//! schema and is re-attached on load by the caller if desired.

use crate::coverage::CoverageHistogram;
use crate::error::{Error, Result};
use crate::estimator::{PredicateSummary, Summaries};
use crate::grid::{Cell, Grid};
use crate::parent_child::LevelHistogram;
use crate::position_histogram::PositionHistogram;
use std::collections::{BTreeMap, BTreeSet};
use xmlest_predicate::BasePredicate;

const MAGIC: &[u8; 4] = b"XEST";
const VERSION: u16 = 1;

/// Serializes summaries to bytes.
pub fn to_bytes(s: &Summaries) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(VERSION);
    write_grid(&mut w, &s.grid);
    w.u64(s.tree_nodes);
    write_hist(&mut w, &s.true_hist);
    w.u32(s.preds.len() as u32);
    for p in s.preds.values() {
        write_pred_summary(&mut w, p);
    }
    w.out
}

/// Deserializes summaries from bytes. The DTD analysis field is `None`
/// after loading.
pub fn from_bytes(data: &[u8]) -> Result<Summaries> {
    let mut r = Reader { data, pos: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(Error::Corrupt("bad magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(Error::Corrupt(format!("unsupported version {version}")));
    }
    let grid = read_grid(&mut r)?;
    let tree_nodes = r.u64()?;
    let true_hist = read_hist(&mut r, &grid)?;
    let n = r.count(MIN_PRED_SUMMARY_LEN)?;
    let mut preds = BTreeMap::new();
    for _ in 0..n {
        let p = read_pred_summary(&mut r, &grid)?;
        preds.insert(p.name.clone(), p);
    }
    if r.pos != data.len() {
        return Err(Error::Corrupt("trailing bytes".into()));
    }
    Ok(Summaries {
        grid,
        true_hist,
        preds,
        dtd: None,
        tree_nodes,
        build_id: crate::estimator::next_build_id(),
    })
}

#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) out: Vec<u8>,
}

impl Writer {
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    pub(crate) fn cell(&mut self, c: Cell) {
        self.u16(c.0);
        self.u16(c.1);
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

/// Smallest encoding of one predicate summary: name length, base
/// predicate tag, histogram cell count, coverage/levels/no-overlap
/// flags, match count and average width.
const MIN_PRED_SUMMARY_LEN: usize = 4 + 1 + 4 + 1 + 1 + 1 + 8 + 8;

impl Reader<'_> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&[u8]> {
        if n > self.data.len() - self.pos {
            return Err(Error::Corrupt("unexpected end of data".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    #[expect(clippy::expect_used, reason = "take(2) returned exactly 2 bytes")]
    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes")]
    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| Error::Corrupt("invalid UTF-8".into()))
    }
    pub(crate) fn cell(&mut self) -> Result<Cell> {
        Ok((self.u16()?, self.u16()?))
    }
    /// Reads a `u32` element count for a list whose elements encode in
    /// at least `elem_len` bytes each, rejecting any count the remaining
    /// input cannot hold. Every length-prefixed list goes through here
    /// (strings are bounded by [`Reader::take`] before they copy), so a
    /// hostile count can never size an allocation beyond a small
    /// multiple of the input length.
    pub(crate) fn count(&mut self, elem_len: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.data.len() - self.pos;
        if n.saturating_mul(elem_len) > remaining {
            return Err(Error::Corrupt(format!(
                "length prefix {n} overruns the {remaining} bytes left"
            )));
        }
        Ok(n)
    }
}

pub(crate) fn write_grid(w: &mut Writer, g: &Grid) {
    let b = g.boundaries();
    w.u32(b.len() as u32);
    for &x in b {
        w.u32(x);
    }
    match g.uniform_width() {
        Some(width) => {
            w.u8(1);
            w.u32(width);
        }
        None => w.u8(0),
    }
}

pub(crate) fn read_grid(r: &mut Reader) -> Result<Grid> {
    let n = r.count(4)?;
    let mut boundaries = Vec::with_capacity(n);
    for _ in 0..n {
        boundaries.push(r.u32()?);
    }
    let uniform_width = if r.u8()? == 1 { Some(r.u32()?) } else { None };
    Grid::from_parts(boundaries, uniform_width)
}

pub(crate) fn write_hist(w: &mut Writer, h: &PositionHistogram) {
    w.u32(h.non_zero_cells() as u32);
    for (cell, v) in h.iter() {
        w.cell(cell);
        w.f64(v);
    }
}

pub(crate) fn read_hist(r: &mut Reader, grid: &Grid) -> Result<PositionHistogram> {
    let n = r.count(4 + 8)?;
    let mut h = PositionHistogram::empty(grid.clone());
    for _ in 0..n {
        let cell = r.cell()?;
        let v = r.f64()?;
        if cell.0 > cell.1 || cell.1 >= grid.g() {
            return Err(Error::Corrupt(format!("invalid cell {cell:?}")));
        }
        h.set(cell, v);
    }
    Ok(h)
}

fn write_cvg(w: &mut Writer, c: &CoverageHistogram) {
    let covering: Vec<Cell> = c.covering_cells().collect();
    w.u32(covering.len() as u32);
    for cell in covering {
        w.cell(cell);
    }
    let partial: Vec<_> = c.iter_partial().collect();
    w.u32(partial.len() as u32);
    for ((d, a), v) in partial {
        w.cell(d);
        w.cell(a);
        w.f64(v);
    }
    let scales: Vec<_> = c.iter_scales().collect();
    w.u32(scales.len() as u32);
    for (cell, v) in scales {
        w.cell(cell);
        w.f64(v);
    }
}

fn read_cvg(r: &mut Reader, grid: &Grid) -> Result<CoverageHistogram> {
    let check = |cell: Cell| -> Result<Cell> {
        if cell.0 > cell.1 || cell.1 >= grid.g() {
            return Err(Error::Corrupt(format!("invalid coverage cell {cell:?}")));
        }
        Ok(cell)
    };
    let n = r.count(4)?;
    let mut covering = BTreeSet::new();
    for _ in 0..n {
        covering.insert(check(r.cell()?)?);
    }
    let n = r.count(4 + 4 + 8)?;
    let mut partial = BTreeMap::new();
    for _ in 0..n {
        let d = check(r.cell()?)?;
        let a = check(r.cell()?)?;
        // `CoverageHistogram::build` stores border pairs only; a
        // strictly-interior entry would be double-counted by the merge
        // kernels, which account interior pairs geometrically.
        if a.0 < d.0 && d.1 < a.1 {
            return Err(Error::Corrupt(format!(
                "interior coverage pair stored explicitly: {d:?} in {a:?}"
            )));
        }
        partial.insert((d, a), r.f64()?);
    }
    let n = r.count(4 + 8)?;
    let mut scales = BTreeMap::new();
    for _ in 0..n {
        let cell = check(r.cell()?)?;
        scales.insert(cell, r.f64()?);
    }
    Ok(CoverageHistogram::from_parts(
        grid.clone(),
        covering,
        partial,
        scales,
    ))
}

fn write_levels(w: &mut Writer, l: &LevelHistogram) {
    let c = l.counts();
    w.u32(c.len() as u32);
    for &v in c {
        w.f64(v);
    }
}

fn read_levels(r: &mut Reader) -> Result<LevelHistogram> {
    let n = r.count(8)?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.f64()?);
    }
    Ok(LevelHistogram::from_counts(counts))
}

pub(crate) fn write_base_pred(w: &mut Writer, p: &BasePredicate) {
    match p {
        BasePredicate::Tag(s) => {
            w.u8(0);
            w.str(s);
        }
        BasePredicate::ContentEquals(s) => {
            w.u8(1);
            w.str(s);
        }
        BasePredicate::ContentPrefix(s) => {
            w.u8(2);
            w.str(s);
        }
        BasePredicate::ContentSuffix(s) => {
            w.u8(3);
            w.str(s);
        }
        BasePredicate::ContentContains(s) => {
            w.u8(4);
            w.str(s);
        }
        BasePredicate::ContentIntRange(lo, hi) => {
            w.u8(5);
            w.i64(*lo);
            w.i64(*hi);
        }
        BasePredicate::Level(l) => {
            w.u8(6);
            w.u32(*l);
        }
        BasePredicate::AnyElement => w.u8(7),
        BasePredicate::AnyText => w.u8(8),
        BasePredicate::True => w.u8(9),
    }
}

pub(crate) fn read_base_pred(r: &mut Reader) -> Result<BasePredicate> {
    Ok(match r.u8()? {
        0 => BasePredicate::Tag(r.str()?),
        1 => BasePredicate::ContentEquals(r.str()?),
        2 => BasePredicate::ContentPrefix(r.str()?),
        3 => BasePredicate::ContentSuffix(r.str()?),
        4 => BasePredicate::ContentContains(r.str()?),
        5 => BasePredicate::ContentIntRange(r.i64()?, r.i64()?),
        6 => BasePredicate::Level(r.u32()?),
        7 => BasePredicate::AnyElement,
        8 => BasePredicate::AnyText,
        9 => BasePredicate::True,
        t => return Err(Error::Corrupt(format!("unknown predicate tag {t}"))),
    })
}

fn write_pred_summary(w: &mut Writer, p: &PredicateSummary) {
    w.str(&p.name);
    write_base_pred(w, &p.pred);
    write_hist(w, &p.hist);
    match &p.cvg {
        Some(c) => {
            w.u8(1);
            write_cvg(w, c);
        }
        None => w.u8(0),
    }
    match &p.levels {
        Some(l) => {
            w.u8(1);
            write_levels(w, l);
        }
        None => w.u8(0),
    }
    w.u8(p.no_overlap as u8);
    w.u64(p.count);
    w.f64(p.avg_width);
}

fn read_pred_summary(r: &mut Reader, grid: &Grid) -> Result<PredicateSummary> {
    let name = r.str()?;
    let pred = read_base_pred(r)?;
    let hist = read_hist(r, grid)?;
    let cvg = if r.u8()? == 1 {
        Some(read_cvg(r, grid)?)
    } else {
        None
    };
    let levels = if r.u8()? == 1 {
        Some(read_levels(r)?)
    } else {
        None
    };
    let no_overlap = r.u8()? == 1;
    let count = r.u64()?;
    let avg_width = r.f64()?;
    Ok(PredicateSummary {
        name,
        pred,
        hist,
        cvg,
        levels,
        no_overlap,
        count,
        avg_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimateMethod, SummaryConfig};
    use crate::ph_join::Basis;
    use xmlest_predicate::Catalog;
    use xmlest_xml::parser::parse_str;

    fn sample_summaries() -> Summaries {
        let tree = parse_str(
            "<dept><fac><name/><RA/></fac><fac><name/><TA/><TA/></fac><staff><name/></staff></dept>",
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        catalog.define("any", xmlest_predicate::BasePredicate::AnyElement);
        Summaries::build(
            &tree,
            &catalog,
            &SummaryConfig::paper_defaults().with_grid_size(4),
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let s = sample_summaries();
        let bytes = to_bytes(&s);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.tree_nodes(), s.tree_nodes());
        assert_eq!(back.grid(), s.grid());
        for p in s.iter() {
            let q = back.get(&p.name).unwrap();
            assert_eq!(q.pred, p.pred);
            assert_eq!(q.hist, p.hist);
            assert_eq!(q.cvg, p.cvg);
            assert_eq!(q.levels, p.levels);
            assert_eq!(q.no_overlap, p.no_overlap);
            assert_eq!(q.count, p.count);
        }
    }

    #[test]
    fn loaded_summaries_estimate_identically() {
        let s = sample_summaries();
        let back = from_bytes(&to_bytes(&s)).unwrap();
        for method in [
            EstimateMethod::Auto,
            EstimateMethod::Primitive(Basis::AncestorBased),
            EstimateMethod::Primitive(Basis::DescendantBased),
        ] {
            let a = s
                .estimator()
                .estimate_pair("fac", "TA", method)
                .unwrap()
                .value;
            let b = back
                .estimator()
                .estimate_pair("fac", "TA", method)
                .unwrap()
                .value;
            assert_eq!(a, b, "method {method:?}");
        }
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let s = sample_summaries();
        let bytes = to_bytes(&s);
        assert!(matches!(from_bytes(&[]), Err(Error::Corrupt(_))));
        assert!(matches!(from_bytes(b"NOPE"), Err(Error::Corrupt(_))));
        // Truncation anywhere must fail, never panic.
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(from_bytes(&bytes[..cut]), Err(Error::Corrupt(_))),
                "cut at {cut}"
            );
        }
        // Trailing garbage detected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(from_bytes(&extended), Err(Error::Corrupt(_))));
        // Wrong version.
        let mut wrong = bytes;
        wrong[4] = 99;
        assert!(matches!(from_bytes(&wrong), Err(Error::Corrupt(_))));
    }

    #[test]
    fn interior_coverage_pairs_rejected_on_load() {
        // Covering cell (0, 7) strictly contains covered cell (2, 3):
        // build() never stores such a pair, and the merge kernels would
        // double-count it, so loading one must fail.
        let grid = crate::grid::Grid::uniform(8, 64).unwrap();
        let mut w = Writer::default();
        w.u32(1); // covering cells
        w.cell((0, 7));
        w.u32(1); // partial entries
        w.cell((2, 3)); // covered
        w.cell((0, 7)); // covering — strictly interior
        w.f64(0.5);
        w.u32(0); // scales
        let mut r = Reader {
            data: &w.out,
            pos: 0,
        };
        assert!(matches!(read_cvg(&mut r, &grid), Err(Error::Corrupt(_))));
        // The same section with a border pair loads fine.
        let mut w = Writer::default();
        w.u32(1);
        w.cell((0, 7));
        w.u32(1);
        w.cell((0, 3)); // shares the start bucket: border
        w.cell((0, 7));
        w.f64(0.5);
        w.u32(0);
        let mut r = Reader {
            data: &w.out,
            pos: 0,
        };
        let cvg = read_cvg(&mut r, &grid).unwrap();
        assert!((cvg.coverage((0, 3), (0, 7)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serialized_size_is_reasonable() {
        let s = sample_summaries();
        let bytes = to_bytes(&s);
        // Framing overhead should stay within a small factor of the
        // logical storage accounting.
        assert!(bytes.len() < 40 * s.storage_bytes().max(64));
    }
}
