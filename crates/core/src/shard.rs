//! Per-document summary shards and their exact merge into the mega-tree
//! view.
//!
//! The paper's Section 3.1 merges a document collection into one
//! *mega-tree* (synthetic root, one numbering space) and summarizes that.
//! A monolithic build re-classifies every document whenever the
//! collection changes. This module splits the pipeline at the document
//! boundary instead:
//!
//! 1. **Classify once per document** ([`classify_document`]): a single
//!    traversal of one document's tree evaluates every catalog predicate
//!    (tag predicates through the interner in O(1) per node) and records
//!    the results as position-space-*local* interval lists plus per-depth
//!    counts — a [`DocumentSummaryInput`]. This is the only step that
//!    ever touches a tree, and it never needs to be repeated for a
//!    document that is already in the collection.
//! 2. **Build one shard per document** ([`build_shard_summaries`]): given
//!    the document's global *position offset* and the collection-wide
//!    grid, the classified lists are bucketed at their mega-tree
//!    positions and build a full [`Summaries`] for just that document (histograms,
//!    coverage, levels) — pure functions of the interval lists, fanned
//!    out across documents with `rayon` by the engine.
//! 3. **Merge the shards** ([`merge_shards`]): per-predicate
//!    [`PositionHistogram::plus`]-style combination reconstructs the
//!    mega-tree summaries *exactly* (integer cell counts add losslessly;
//!    coverage fractions merge by reconstructing per-document covered
//!    counts from each shard's TRUE histogram). The synthetic mega-root
//!    is accounted analytically — which predicates match it is statically
//!    decidable ([`matches_mega_root`]) because content predicates only
//!    ever match text nodes.
//!
//! ## Position arithmetic
//!
//! Node ids equal pre-order positions, so a document whose tree has `n`
//! nodes occupies the contiguous global position range
//! `[offset, offset + n)`; the mega-root sits at position 0 with interval
//! `(0, T − 1)` for `T` total nodes. Document intervals never straddle
//! each other, which is what makes every merge rule exact:
//!
//! * histograms and TRUE histograms add cell-wise ([`PositionHistogram::plus`]);
//! * the *no-overlap* property holds globally iff it holds in every
//!   document (cross-document nesting is geometrically impossible), with
//!   the mega-root overlapping everything it matches alongside;
//! * coverage interior pairs (implicit 1) stay interior — a node in a
//!   cell strictly inside a covering cell's span is nested in that
//!   covering interval, which cannot happen across documents;
//! * border-pair fractions merge by counts: each shard's fraction times
//!   its TRUE-histogram cell population recovers the covered-node count,
//!   and the merged fraction divides by the merged population.
//!
//! The engine (`xmlest-engine`'s `Database`) keeps the classified inputs
//! alongside the shard summaries, so `add_document`/`remove_document`
//! only classify the new document, rebuild shards from stored lists on
//! the new grid, and re-merge — never re-parsing or re-classifying the
//! rest of the collection.

use crate::coverage::{CoverageContext, CoverageHistogram};
use crate::error::{Error, Result};
use crate::estimator::{
    build_one_from_intervals, BuildScratch, PredicateSummary, Summaries, SummaryConfig,
};
use crate::grid::{Cell, Grid};
use crate::parent_child::LevelHistogram;
use crate::position_histogram::{CellAccumulator, PositionHistogram};
use std::collections::BTreeMap;
use xmlest_predicate::{BasePredicate, Catalog};
use xmlest_xml::{Interval, XmlTree};

use xmlest_xml::MEGA_ROOT_TAG;

/// Whether a base predicate matches the synthetic mega-root element.
/// Statically decidable: the mega-root is an element with tag `#root` at
/// depth 0 and no text of its own, and content predicates only match
/// text nodes.
pub fn matches_mega_root(pred: &BasePredicate) -> bool {
    match pred {
        BasePredicate::Tag(name) => name == MEGA_ROOT_TAG,
        BasePredicate::Level(l) => *l == 0,
        BasePredicate::AnyElement | BasePredicate::True => true,
        BasePredicate::ContentEquals(_)
        | BasePredicate::ContentPrefix(_)
        | BasePredicate::ContentSuffix(_)
        | BasePredicate::ContentContains(_)
        | BasePredicate::ContentIntRange(..)
        | BasePredicate::AnyText => false,
    }
}

/// Entry names in the order classification and shard builds use them:
/// the built-in structural predicates first, then the catalog in name
/// order. The engine realigns stored classifications against this list
/// when a catalog grows (a new document introducing new tags).
pub fn entry_names(catalog: &Catalog) -> Vec<String> {
    Summaries::entry_list(catalog)
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// Number of built-in structural entries preceding catalog entries in
/// every entry-ordered list ([`entry_names`],
/// [`DocumentSummaryInput::entries`]).
pub fn builtin_entry_count() -> usize {
    Summaries::BUILTINS.len()
}

/// One catalog entry's classified data for one document, in the
/// document's local position space.
#[derive(Debug, Clone, Default)]
pub struct EntryMatches {
    /// Matching node intervals in document order (local coordinates).
    pub intervals: Vec<Interval>,
    /// Node counts per local depth (document root = 0).
    pub level_counts: Vec<f64>,
}

/// The classification of one document against a catalog: everything a
/// shard build needs, none of it requiring the tree again. Entries are
/// ordered exactly like the monolithic build's entry list: the built-in
/// structural predicates (`#element`, `#text`, `#true`) first, then the
/// catalog in name order.
#[derive(Debug, Clone)]
pub struct DocumentSummaryInput {
    /// Total nodes in the document (== its position-space span).
    pub node_count: u32,
    /// Interval of every node, document order, local coordinates.
    pub all_intervals: Vec<Interval>,
    /// Per catalog entry (builtins first), the classified matches.
    pub entries: Vec<EntryMatches>,
}

impl DocumentSummaryInput {
    /// Approximate heap footprint (bytes) of the classified lists —
    /// reported by diagnostics, not used for estimation.
    pub fn storage_bytes(&self) -> usize {
        let per_iv = std::mem::size_of::<Interval>();
        self.all_intervals.len() * per_iv
            + self
                .entries
                .iter()
                .map(|e| e.intervals.len() * per_iv + e.level_counts.len() * 8)
                .sum::<usize>()
    }
}

/// Classifies one document tree against `catalog` in a single traversal
/// — the per-document half of [`Summaries::build`]'s classification
/// pass. Tag predicates dispatch through the interner; `Level`
/// predicates are evaluated against *mega-tree* depths (local depth + 1)
/// so shard results agree with the monolithic mega-tree build.
pub fn classify_document(tree: &XmlTree, catalog: &Catalog) -> DocumentSummaryInput {
    let entry_list = Summaries::entry_list(catalog);
    let tag_count = tree.tags().len();
    let mut by_tag: Vec<Vec<usize>> = vec![Vec::new(); tag_count];
    let mut general: Vec<(usize, &BasePredicate)> = Vec::new();
    for (k, (_, pred)) in entry_list.iter().enumerate() {
        match pred {
            BasePredicate::Tag(name) => {
                if let Some(tag) = tree.tags().get(name) {
                    by_tag[tag.index()].push(k);
                }
            }
            _ => general.push((k, pred)),
        }
    }

    let mut entries: Vec<EntryMatches> = vec![EntryMatches::default(); entry_list.len()];
    let mut all_intervals = Vec::with_capacity(tree.len());
    for node in tree.iter() {
        let iv = tree.interval(node);
        all_intervals.push(iv);
        let depth = tree.depth(node) as usize;
        let mut record = |k: usize| {
            let e = &mut entries[k];
            e.intervals.push(iv);
            if e.level_counts.len() <= depth + 1 {
                e.level_counts.resize(depth + 2, 0.0);
            }
            // Mega-tree depth: the document root hangs off the synthetic
            // root, so every local depth shifts by one.
            e.level_counts[depth + 1] += 1.0;
        };
        if let Some(tag) = tree.tag(node) {
            for &k in &by_tag[tag.index()] {
                record(k);
            }
        }
        for &(k, pred) in &general {
            // `Level` compares against the mega-tree depth; every other
            // predicate is position-independent and evaluates locally.
            let hit = match pred {
                BasePredicate::Level(l) => depth as u32 + 1 == *l,
                _ => pred.eval(tree, node),
            };
            if hit {
                record(k);
            }
        }
    }

    // The lists grew by doubling, and the engine keeps them for the
    // document's lifetime: give back the slack.
    for e in &mut entries {
        e.intervals.shrink_to_fit();
        e.level_counts.shrink_to_fit();
    }
    DocumentSummaryInput {
        node_count: tree.len() as u32,
        all_intervals,
        entries,
    }
}

/// Builds one document's summary shard on the collection-wide grid:
/// the classified local lists are bucketed with `offset` applied (their
/// mega-tree positions) and run through the same per-predicate build as
/// the monolithic path. The result is a complete [`Summaries`] over just
/// this document's nodes (its TRUE histogram counts only them), directly
/// usable for per-document estimation and as a [`merge_shards`] operand.
pub fn build_shard_summaries(
    input: &DocumentSummaryInput,
    offset: u32,
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Summaries {
    let entry_list = Summaries::entry_list(catalog);
    debug_assert_eq!(entry_list.len(), input.entries.len(), "catalog drift");
    let mut scratch = BuildScratch::default();
    // One denominator pass for every predicate's coverage build — the
    // per-entry cost below is proportional to each predicate's own
    // matches, not the whole document. It also counts the TRUE
    // histogram.
    let cvg_ctx = CoverageContext::shifted(grid, &input.all_intervals, offset, &mut scratch.cells);

    let mut preds = BTreeMap::new();
    for (k, (name, pred)) in entry_list.iter().enumerate() {
        let e = &input.entries[k];
        let levels = config
            .build_levels
            .then(|| LevelHistogram::from_counts(e.level_counts.clone()));
        let summary = build_one_from_intervals(
            grid,
            &cvg_ctx,
            name,
            pred,
            &e.intervals,
            levels,
            config,
            &mut scratch,
        );
        preds.insert(name.clone(), summary);
    }

    let out = Summaries {
        grid: grid.clone(),
        true_hist: cvg_ctx.into_totals(),
        preds,
        dtd: config.dtd.clone(),
        tree_nodes: input.node_count as u64,
        build_id: crate::estimator::next_build_id(),
    };
    crate::invariants::checkpoint("build_shard_summaries", || out.validate());
    out
}

/// The collection-wide grid for a set of classified documents with the
/// given offsets: uniform over the mega-tree position space by default,
/// equi-depth over the shifted catalog-match positions when configured —
/// byte-identical to the grid the monolithic mega-tree build derives.
/// The grid policy (`crate::regrid`) may pad the final boundary past the
/// occupied span (slack capacity); the derivation is deterministic, so a
/// refresh and a cold build over the same collection agree exactly.
pub fn make_collection_grid(
    inputs: &[(&DocumentSummaryInput, u32)],
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Result<Grid> {
    let g = if config.grid_size == 0 {
        10
    } else {
        config.grid_size
    };
    let total: u64 = 1 + inputs.iter().map(|(i, _)| i.node_count as u64).sum::<u64>();
    let max_pos = (config.policy.capacity_for(total) - 1) as u32;
    if config.equi_depth {
        let builtins = Summaries::BUILTINS.len();
        let entry_list = Summaries::entry_list(catalog);
        let mut positions: Vec<u32> = Vec::new();
        // The mega-root's position for entries that match it — the
        // monolithic classification includes it in the match lists.
        for (name, pred) in entry_list.iter().skip(builtins) {
            let _ = name;
            if matches_mega_root(pred) {
                positions.push(0);
            }
        }
        for (input, offset) in inputs {
            for e in input.entries.iter().skip(builtins) {
                positions.extend(e.intervals.iter().map(|iv| iv.start + offset));
            }
        }
        positions.sort_unstable();
        if !positions.is_empty() {
            return Grid::equi_depth(g, &positions, max_pos);
        }
    }
    Grid::uniform(g, max_pos)
}

/// The fold accumulators a full merge threads through its per-shard
/// left fold, captured so [`merge_delta`] can resume the fold with one
/// more shard instead of re-running it over the whole collection.
///
/// Everything else a delta step needs survives inside the merged
/// [`Summaries`] (cell counts, match counts and level counts are exact
/// integers in `f64`, so extending their sums is bit-identical no matter
/// where the fold restarts). Two accumulators do **not** round-trip
/// through the merged view and are carried here explicitly:
///
/// * the per-entry *width sum* — the merged view only stores
///   `width_sum / count`, and the division is not invertible in
///   floating point;
/// * the per-entry *coverage numerators* — the merged view stores
///   `covered / total` fractions whose denominators change with every
///   merge, so the raw covered-count fold is kept and the division pass
///   re-runs from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeState {
    /// Per entry name, the fold accumulators for that predicate.
    pub(crate) entries: BTreeMap<String, EntryMergeState>,
}

/// One predicate's carried fold accumulators (see [`MergeState`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EntryMergeState {
    /// `Σ avg_width × count` over the merged shards, in shard order,
    /// **excluding** the mega-root's term (which is re-applied last on
    /// every merge, exactly as the full merge does).
    width_sum: f64,
    /// Union of the shards' covering cells (coverage fold), sorted.
    covering: Vec<Cell>,
    /// Raw covered-node counts per border pair, sorted by `(covered,
    /// covering)` and accumulated in shard order — the numerators the
    /// merged coverage fractions are divided from. Maintained only while
    /// the merged entry is no-overlap (once the flag drops it can never
    /// rise again, except under a DTD override, where it is constant).
    covered_counts: Vec<((Cell, Cell), f64)>,
}

/// Merges per-document shard summaries (all built by
/// [`build_shard_summaries`] on the same `grid`) into the mega-tree
/// view, adding the synthetic root's contributions analytically. See the
/// module docs for why every rule is exact; the engine's agreement test
/// holds the result to the monolithic build within 1e-6.
///
/// Per-predicate merges are independent (each reads only its own
/// entry's shard state plus the shared TRUE histogram), so they fan out
/// across cores with `rayon` — bit-identical to the sequential
/// [`merge_shards_serial`] reference, which `tests/sharding.rs` pins.
pub fn merge_shards(
    shards: &[&Summaries],
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Result<Summaries> {
    Ok(merge_shards_impl(shards, grid, catalog, config, true, None)?.0)
}

/// [`merge_shards`], additionally returning the [`MergeState`] that lets
/// [`merge_delta`] extend this merge by one shard bit-identically.
pub fn merge_shards_stateful(
    shards: &[&Summaries],
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Result<(Summaries, MergeState)> {
    merge_shards_impl(shards, grid, catalog, config, true, None)
}

/// [`merge_shards`] with an explicit mega-tree node total, for degraded
/// opens that re-merge the *surviving* shards of a partially corrupt
/// catalog: quarantined documents leave holes in the position space, but
/// the surviving shards' offsets — and the mega-root's interval — were
/// assigned under the original total and must not shift. `total_nodes`
/// counts the mega-root, so it is at least `1 + Σ shard nodes`.
pub fn merge_shards_with_total(
    shards: &[&Summaries],
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
    total_nodes: u64,
) -> Result<Summaries> {
    Ok(merge_shards_impl(shards, grid, catalog, config, true, Some(total_nodes))?.0)
}

/// The sequential reference path of [`merge_shards`]: same per-entry
/// kernel, plain loop. Exposed so tests can pin the parallel output
/// byte-identical to it.
#[doc(hidden)]
pub fn merge_shards_serial(
    shards: &[&Summaries],
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Result<Summaries> {
    Ok(merge_shards_impl(shards, grid, catalog, config, false, None)?.0)
}

fn merge_shards_impl(
    shards: &[&Summaries],
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
    parallel: bool,
    total_override: Option<u64>,
) -> Result<(Summaries, MergeState)> {
    use rayon::prelude::*;

    let entry_list = Summaries::entry_list(catalog);
    let shard_total: u64 = 1 + shards.iter().map(|s| s.tree_nodes()).sum::<u64>();
    let total_nodes = total_override.unwrap_or(shard_total).max(shard_total);
    let root_iv = Interval::new(0, (total_nodes - 1) as u32);
    let root_cell = grid.cell_of(root_iv);

    // TRUE histogram: root + cell-wise sums. Built first — every
    // per-predicate coverage merge normalizes against it.
    let true_hist = fold_hists(
        grid,
        &[(root_cell, 1.0)],
        shards.iter().map(|s| s.true_hist()),
    )?;

    type MergedEntry = (String, PredicateSummary, EntryMergeState);
    let merge_one = |entry: &(String, BasePredicate)| -> Result<MergedEntry> {
        let (name, pred) = entry;
        let (summary, entry_state) = merge_entry(
            name, pred, shards, grid, config, &true_hist, root_iv, root_cell,
        )?;
        Ok((name.clone(), summary, entry_state))
    };
    let merged: Result<Vec<MergedEntry>> = if parallel {
        entry_list.par_iter().map(merge_one).collect()
    } else {
        entry_list.iter().map(merge_one).collect()
    };
    let mut preds: BTreeMap<String, PredicateSummary> = BTreeMap::new();
    let mut state = MergeState::default();
    for (name, summary, entry_state) in merged? {
        preds.insert(name.clone(), summary);
        state.entries.insert(name, entry_state);
    }

    let out = Summaries {
        grid: grid.clone(),
        true_hist,
        preds,
        dtd: config.dtd.clone(),
        tree_nodes: total_nodes,
        build_id: crate::estimator::next_build_id(),
    };
    crate::invariants::checkpoint("merge_shards", || out.validate());
    Ok((out, state))
}

/// Extends a previous merge result by **one** new shard in O(new-doc
/// cells + g) per predicate, bit-identically to re-running
/// [`merge_shards`] over the whole shard list with `new_shard` appended.
///
/// Why this is exact (and not merely close): every full-merge rule is a
/// left fold in shard order, and all folded quantities are either exact
/// integers in `f64` (cell counts, match counts, level counts — addition
/// is associative below 2^53) or carried verbatim in `state` (width
/// sums, coverage numerators). The synthetic root's contributions are
/// the one part of the fold's *initial value* that changes between
/// merges — its interval grows with the node total — so its exact
/// `1.0` moves cells by an integer subtract/add, and its width and
/// coverage terms are re-derived from the new total, exactly as the full
/// merge derives them.
///
/// `prev` and `state` must come from [`merge_shards_stateful`] (or a
/// previous [`merge_delta`]) over the same shard sequence; `new_shard`
/// must be built on the same `grid`.
pub fn merge_delta(
    prev: &Summaries,
    state: &MergeState,
    new_shard: &Summaries,
    grid: &Grid,
    catalog: &Catalog,
    config: &SummaryConfig,
) -> Result<(Summaries, MergeState)> {
    if prev.grid() != grid || new_shard.grid() != grid {
        return Err(crate::error::Error::GridMismatch);
    }
    let entry_list = Summaries::entry_list(catalog);
    let total_nodes = prev.tree_nodes() + new_shard.tree_nodes();
    let root_iv = Interval::new(0, (total_nodes - 1) as u32);
    let root_cell = grid.cell_of(root_iv);
    let old_root_cell = grid.cell_of(Interval::new(0, (prev.tree_nodes() - 1) as u32));

    // TRUE histogram: the previous fold already holds the root's 1.0 at
    // the old root cell; move it (exact integer subtract/add) and fold
    // in the new shard.
    let root_move = root_move(old_root_cell, root_cell);
    let true_hist = fold_hists(grid, &root_move, [prev.true_hist(), new_shard.true_hist()])?;

    let mut preds: BTreeMap<String, PredicateSummary> = BTreeMap::new();
    let mut out_state = MergeState::default();
    for (name, pred) in &entry_list {
        let (summary, entry_state) = delta_entry(
            name,
            pred,
            prev,
            state,
            new_shard,
            grid,
            config,
            &true_hist,
            root_iv,
            root_cell,
            old_root_cell,
        )?;
        preds.insert(name.clone(), summary);
        out_state.entries.insert(name.clone(), entry_state);
    }

    let out = Summaries {
        grid: grid.clone(),
        true_hist,
        preds,
        dtd: config.dtd.clone(),
        tree_nodes: total_nodes,
        build_id: crate::estimator::next_build_id(),
    };
    crate::invariants::checkpoint("merge_delta", || out.validate());
    Ok((out, out_state))
}

/// One predicate's delta-merge step: resume the entry's fold from the
/// previous merged summary (plus its carried [`EntryMergeState`]) and
/// fold in `new_shard`'s part. An entry absent from `prev` (a predicate
/// the catalog gained with this very document) starts from the fold's
/// initial value — exactly what the full merge computes when every older
/// shard lacks the entry.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is a distinct merge input; a struct would only rename them"
)]
fn delta_entry(
    name: &str,
    pred: &BasePredicate,
    prev: &Summaries,
    state: &MergeState,
    new_shard: &Summaries,
    grid: &Grid,
    config: &SummaryConfig,
    true_hist: &PositionHistogram,
    root_iv: Interval,
    root_cell: Cell,
    old_root_cell: Cell,
) -> Result<(PredicateSummary, EntryMergeState)> {
    let root_match = matches_mega_root(pred);
    let new_part = new_shard.get(name);

    // Resume the fold: previous accumulators, or the fold's initial
    // value for an entry the previous merge did not have.
    struct Resumed<'p> {
        hist: Option<&'p PositionHistogram>,
        count: u64,
        width_sum: f64,
        no_overlap: bool,
        level_counts: Vec<f64>,
        covering: Vec<Cell>,
        covered_counts: Vec<((Cell, Cell), f64)>,
    }
    let (resumed, root_cells) = match prev.get(name) {
        Some(pp) => {
            let Some(es) = state.entries.get(name) else {
                return Err(Error::Corrupt(format!(
                    "merge state lacks entry {name:?} present in the merged view"
                )));
            };
            let resumed = Resumed {
                hist: Some(&pp.hist),
                count: pp.count,
                width_sum: es.width_sum,
                no_overlap: pp.no_overlap,
                level_counts: pp
                    .levels
                    .as_ref()
                    .map(|l| l.counts().to_vec())
                    .unwrap_or_default(),
                covering: es.covering.clone(),
                covered_counts: es.covered_counts.clone(),
            };
            (resumed, root_move(old_root_cell, root_cell))
        }
        None => {
            let mut level_counts = vec![0.0; usize::from(root_match)];
            if root_match {
                level_counts[0] = 1.0;
            }
            let resumed = Resumed {
                hist: None,
                count: u64::from(root_match),
                width_sum: 0.0,
                // Vacuously true: `all` over no parts (and a shard count
                // of zero for root-matching entries).
                no_overlap: true,
                level_counts,
                covering: Vec::new(),
                covered_counts: Vec::new(),
            };
            (resumed, vec![(root_cell, 1.0)])
        }
    };

    // Histogram: the resumed fold (with the root moved), then the new
    // part, in one counting pass.
    let hist = fold_hists(
        grid,
        if root_match { &root_cells } else { &[] },
        resumed.hist.into_iter().chain(new_part.map(|p| &p.hist)),
    )?;
    let count = resumed.count + new_part.map_or(0, |p| p.count);
    let width_sum = resumed.width_sum + new_part.map_or(0.0, |p| p.avg_width * p.count as f64);
    let avg_width = if count == 0 {
        0.0
    } else {
        let full = width_sum
            + if root_match {
                root_iv.width() as f64
            } else {
                0.0
            };
        full / count as f64
    };

    // Overlap property: the DTD override is a constant; otherwise the
    // merged flag is the previous `all(...)` fold AND the new part's
    // conjunct (for root-matching entries the fold is "no shard
    // matches", so the new part must be empty).
    let no_overlap = match (&config.dtd, pred) {
        (Some(dtd), BasePredicate::Tag(t)) if dtd.tags().any(|known| known == t) => {
            dtd.no_overlap(t)
        }
        _ => {
            resumed.no_overlap
                && match new_part {
                    Some(p) => {
                        if root_match {
                            p.count == 0
                        } else {
                            p.no_overlap || p.count == 0
                        }
                    }
                    None => true,
                }
        }
    };

    // Coverage fold state (general entries only; root-matching coverage
    // is re-derived from the merged TRUE histogram below).
    let (covering, covered_counts) = if config.build_coverage && no_overlap && !root_match {
        let mut covering = resumed.covering;
        let mut counts = resumed.covered_counts;
        let new_cvg = new_part.and_then(|p| p.cvg.as_ref());
        fold_coverage(
            &mut covering,
            &mut counts,
            new_cvg.map(|cvg| (new_shard, cvg)),
        );
        (covering, counts)
    } else {
        (Vec::new(), Vec::new())
    };

    let cvg = (config.build_coverage && no_overlap && count > 0)
        .then(|| {
            if root_match {
                root_coverage(grid, true_hist, root_cell)
            } else {
                coverage_from_state(grid, true_hist, &covering, &covered_counts)
            }
        })
        .flatten();

    let levels = config.build_levels.then(|| {
        let mut counts = resumed.level_counts;
        if let Some(l) = new_part.and_then(|p| p.levels.as_ref()) {
            let lc = l.counts();
            if counts.len() < lc.len() {
                counts.resize(lc.len(), 0.0);
            }
            for (d, &c) in lc.iter().enumerate() {
                counts[d] += c;
            }
        }
        LevelHistogram::from_counts(counts)
    });

    Ok((
        PredicateSummary {
            name: name.to_owned(),
            pred: pred.clone(),
            hist,
            cvg,
            levels,
            no_overlap,
            count,
            avg_width,
        },
        EntryMergeState {
            width_sum,
            covering,
            covered_counts,
        },
    ))
}

/// Merges one predicate's entry across all shards — a pure function of
/// its inputs, safe to run on any thread. Returns the merged summary
/// plus the fold accumulators [`merge_delta`] resumes from.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is a distinct merge input; a struct would only rename them"
)]
fn merge_entry(
    name: &str,
    pred: &BasePredicate,
    shards: &[&Summaries],
    grid: &Grid,
    config: &SummaryConfig,
    true_hist: &PositionHistogram,
    root_iv: Interval,
    root_cell: Cell,
) -> Result<(PredicateSummary, EntryMergeState)> {
    let root_match = matches_mega_root(pred);
    // A shard built before this entry entered the catalog simply lacks
    // it — the predicate matches nothing in that document (new tags
    // arrive with the document that defines them), so the shard
    // contributes exactly what an explicitly empty entry would: nothing.
    // This is what lets the stable-grid append path reuse old shard
    // summaries verbatim when a new document introduces new tags.
    let parts: Vec<(&Summaries, &PredicateSummary)> = shards
        .iter()
        .filter_map(|s| s.get(name).map(|p| (*s, p)))
        .collect();

    // Histogram: root contribution + cell-wise sums, in one counting
    // pass over the parts.
    let root: &[(Cell, f64)] = if root_match { &[(root_cell, 1.0)] } else { &[] };
    let hist = fold_hists(grid, root, parts.iter().map(|(_, p)| &p.hist))?;

    let shard_count: u64 = parts.iter().map(|(_, p)| p.count).sum();
    let count = shard_count + u64::from(root_match);
    let shard_width_sum: f64 = parts
        .iter()
        .map(|(_, p)| p.avg_width * p.count as f64)
        .sum::<f64>();
    let width_sum = shard_width_sum
        + if root_match {
            root_iv.width() as f64
        } else {
            0.0
        };
    let avg_width = if count == 0 {
        0.0
    } else {
        width_sum / count as f64
    };

    // Overlap property: the DTD override mirrors the monolithic
    // build; otherwise no-overlap holds globally iff it holds in
    // every document (cross-document intervals are disjoint), and a
    // matching mega-root nests every other match.
    let no_overlap = match (&config.dtd, pred) {
        (Some(dtd), BasePredicate::Tag(t)) if dtd.tags().any(|known| known == t) => {
            dtd.no_overlap(t)
        }
        _ => {
            if root_match {
                shard_count == 0
            } else {
                parts.iter().all(|(_, p)| p.no_overlap || p.count == 0)
            }
        }
    };

    // Coverage fold state (general entries only; root-matching coverage
    // is derived from the merged TRUE histogram, not folded). Maintained
    // whenever the merged entry is no-overlap so a later delta step can
    // resume it — once the flag drops it never rises again (the DTD
    // override is constant), so no state is lost by skipping.
    let (mut covering, mut covered_counts) = (Vec::new(), Vec::new());
    if config.build_coverage && no_overlap && !root_match {
        let cvgs = parts
            .iter()
            .filter_map(|&(s, p)| p.cvg.as_ref().map(|cvg| (s, cvg)));
        fold_coverage(&mut covering, &mut covered_counts, cvgs);
    }

    let cvg = (config.build_coverage && no_overlap && count > 0)
        .then(|| {
            if root_match {
                root_coverage(grid, true_hist, root_cell)
            } else {
                coverage_from_state(grid, true_hist, &covering, &covered_counts)
            }
        })
        .flatten();

    let levels = config.build_levels.then(|| {
        let mut counts: Vec<f64> = vec![0.0; usize::from(root_match)];
        if root_match {
            counts[0] = 1.0;
        }
        for (_, p) in &parts {
            if let Some(l) = &p.levels {
                let lc = l.counts();
                if counts.len() < lc.len() {
                    counts.resize(lc.len(), 0.0);
                }
                for (d, &c) in lc.iter().enumerate() {
                    counts[d] += c;
                }
            }
        }
        LevelHistogram::from_counts(counts)
    });

    Ok((
        PredicateSummary {
            name: name.to_owned(),
            pred: pred.clone(),
            hist,
            cvg,
            levels,
            no_overlap,
            count,
            avg_width,
        },
        EntryMergeState {
            width_sum: shard_width_sum,
            covering,
            covered_counts,
        },
    ))
}

/// Counts a histogram fold in one pass: the mega-root's cells first
/// (they sit in row 0), then each part's cells in part order. Shards in
/// position order arrive with non-decreasing rows, so the
/// [`CellAccumulator`] needs no regrouping; cell counts are integers, so
/// any order gives the same bits.
fn fold_hists<'h>(
    grid: &Grid,
    root: &[(Cell, f64)],
    parts: impl IntoIterator<Item = &'h PositionHistogram>,
) -> Result<PositionHistogram> {
    let mut acc = CellAccumulator::default();
    acc.start(grid.g());
    for &(cell, v) in root {
        acc.add(cell, v);
    }
    for h in parts {
        if h.grid() != grid {
            return Err(Error::GridMismatch);
        }
        for &(cell, v) in h.flat().entries() {
            acc.add(cell, v);
        }
    }
    Ok(PositionHistogram::from_counted(grid.clone(), &mut acc))
}

/// The mega-root's cell move as histogram deltas: none when the root
/// keeps its cell.
fn root_move(old: Cell, new: Cell) -> Vec<(Cell, f64)> {
    if old == new {
        Vec::new()
    } else {
        vec![(old, -1.0), (new, 1.0)]
    }
}

/// The coverage fold: extends the sorted covering union and the sorted
/// raw covered-node counts per border pair with each part, in part
/// order. A shard's stored value is a fraction of its *own* population;
/// its TRUE histogram recovers the covered count exactly. The counts are
/// floating point, so each pair's terms add in shard order: the stable
/// sort keeps them in arrival order, which is shard order.
fn fold_coverage<'s>(
    covering: &mut Vec<Cell>,
    counts: &mut Vec<((Cell, Cell), f64)>,
    parts: impl IntoIterator<Item = (&'s Summaries, &'s CoverageHistogram)>,
) {
    for (shard, cvg) in parts {
        covering.extend(cvg.covering_cells());
        for ((covered, acell), frac) in cvg.iter_partial() {
            let shard_total = shard.true_hist().get(covered);
            counts.push(((covered, acell), frac * shard_total));
        }
    }
    covering.sort_unstable();
    covering.dedup();
    counts.sort_by_key(|&(key, _)| key);
    counts.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

/// The coverage division pass: collection-wide fractions from folded
/// covered counts, normalized by the merged TRUE histogram. Returns
/// `None` when no shard built coverage (predicate matches nothing
/// anywhere), mirroring the monolithic rule of skipping empty
/// predicates.
fn coverage_from_state(
    grid: &Grid,
    merged_true: &PositionHistogram,
    covering: &[Cell],
    counts: &[((Cell, Cell), f64)],
) -> Option<CoverageOut> {
    if covering.is_empty() {
        return None;
    }
    let mut partial = Vec::with_capacity(counts.len());
    for &((covered, acell), cnt) in counts {
        debug_assert!(covered.1 < grid.g() && acell.1 < grid.g());
        let total = merged_true.get(covered);
        if total > 0.0 && cnt > 0.0 {
            partial.push(((covered, acell), cnt / total));
        }
    }
    Some(CoverageHistogram::from_sorted(
        grid.clone(),
        covering.to_vec(),
        partial,
        Vec::new(),
    ))
}

/// Coverage for a predicate matching the mega-root alone (the only
/// root-matching configuration that can still be no-overlap): every
/// non-root node is covered by the root's cell, so the whole structure
/// is derived from the merged TRUE histogram. Interior cells are
/// implicit; border cells (sharing the root cell's start or end bucket)
/// store their exact fraction.
fn root_coverage(
    grid: &Grid,
    merged_true: &PositionHistogram,
    root_cell: Cell,
) -> Option<CoverageOut> {
    let mut partial = Vec::new();
    for (cell, total) in merged_true.iter() {
        let border = cell.0 == root_cell.0 || cell.1 == root_cell.1;
        if !border {
            continue;
        }
        let covered = if cell == root_cell {
            total - 1.0
        } else {
            total
        };
        if covered > 0.0 {
            partial.push(((cell, root_cell), covered / total));
        }
    }
    Some(CoverageHistogram::from_sorted(
        grid.clone(),
        vec![root_cell],
        partial,
        Vec::new(),
    ))
}

type CoverageOut = CoverageHistogram;

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_xml::parser::parse_str;

    const DOCS: &[&str] = &[
        "<a><b><c/><c/></b><b><c/></b></a>",
        "<a><b>hi</b><d><c/><c/><c/></d></a>",
        "<a><d><d><b/></d></d><c>x</c></a>",
        "<a><b/><b/><b/><b/><b/><b/><b/></a>",
    ];

    /// Classifies `DOCS`, assigns mega-tree offsets (root at 0), and
    /// builds one shard per document on a fixed uniform grid small
    /// enough that the mega-root's cell moves as documents append.
    fn fixture(config: &SummaryConfig) -> (Catalog, Grid, Vec<Summaries>) {
        let trees: Vec<_> = DOCS.iter().map(|s| parse_str(s).unwrap()).collect();
        let mut catalog = Catalog::new();
        for t in &trees {
            catalog.define_all_tags(t);
        }
        let grid = Grid::uniform(4, 59).unwrap();
        let mut shards = Vec::new();
        let mut offset = 1u32;
        for t in &trees {
            let input = classify_document(t, &catalog);
            shards.push(build_shard_summaries(
                &input, offset, &grid, &catalog, config,
            ));
            offset += input.node_count;
        }
        (catalog, grid, shards)
    }

    /// Asserts the delta path reproduces the full merge bit-for-bit at
    /// every prefix length: state equality plus `Summaries::bit_identical`.
    fn assert_delta_tracks_full(
        catalog: &Catalog,
        grid: &Grid,
        shards: &[Summaries],
        config: &SummaryConfig,
    ) {
        let refs: Vec<&Summaries> = shards.iter().collect();
        let (mut merged, mut state) =
            merge_shards_stateful(&refs[..1], grid, catalog, config).unwrap();
        for n in 2..=shards.len() {
            let (full, full_state) =
                merge_shards_stateful(&refs[..n], grid, catalog, config).unwrap();
            let (delta, delta_state) =
                merge_delta(&merged, &state, &shards[n - 1], grid, catalog, config).unwrap();
            delta
                .bit_identical(&full)
                .unwrap_or_else(|why| panic!("prefix {n}: {why}"));
            assert_eq!(delta_state, full_state, "prefix {n}: fold state diverged");
            merged = delta;
            state = delta_state;
        }
    }

    #[test]
    fn delta_merge_matches_full_merge_over_appends() {
        let config = SummaryConfig::paper_defaults();
        let (catalog, grid, shards) = fixture(&config);
        // The fixture's doc sizes walk the mega-root's end across bucket
        // boundaries, exercising the root-cell move in every delta step.
        let ends: Vec<_> = {
            let mut t = 1u64;
            shards
                .iter()
                .map(|s| {
                    t += s.tree_nodes();
                    grid.cell_of(Interval::new(0, (t - 1) as u32))
                })
                .collect()
        };
        assert!(
            ends.windows(2).any(|w| w[0] != w[1]),
            "fixture must move the root cell: {ends:?}"
        );
        assert_delta_tracks_full(&catalog, &grid, &shards, &config);
    }

    #[test]
    fn delta_merge_matches_full_merge_without_coverage_or_levels() {
        let config = SummaryConfig {
            build_coverage: false,
            build_levels: false,
            ..SummaryConfig::paper_defaults()
        };
        let (catalog, grid, shards) = fixture(&config);
        assert_delta_tracks_full(&catalog, &grid, &shards, &config);
    }

    #[test]
    fn delta_merge_handles_catalog_growth() {
        // Old shards are classified under a smaller catalog; the new
        // document introduces tags `d` and a text child, so its entries
        // are absent from both the previous merged view and its state.
        let config = SummaryConfig::paper_defaults();
        let old_trees: Vec<_> = DOCS[..1].iter().map(|s| parse_str(s).unwrap()).collect();
        let new_tree = parse_str(DOCS[1]).unwrap();

        let mut small = Catalog::new();
        for t in &old_trees {
            small.define_all_tags(t);
        }
        let mut grown = small.clone();
        grown.define_all_tags(&new_tree);

        let grid = Grid::uniform(4, 59).unwrap();
        let mut offset = 1u32;
        let mut shards = Vec::new();
        for t in &old_trees {
            let input = classify_document(t, &small);
            shards.push(build_shard_summaries(
                &input, offset, &grid, &small, &config,
            ));
            offset += input.node_count;
        }
        let new_input = classify_document(&new_tree, &grown);
        let new_shard = build_shard_summaries(&new_input, offset, &grid, &grown, &config);

        // Previous merge ran under the old catalog — its view and state
        // genuinely lack the new entries, like the engine's append path.
        let refs: Vec<&Summaries> = shards.iter().collect();
        let (prev, state) = merge_shards_stateful(&refs, &grid, &small, &config).unwrap();

        let mut all: Vec<&Summaries> = refs.clone();
        all.push(&new_shard);
        let (full, full_state) = merge_shards_stateful(&all, &grid, &grown, &config).unwrap();
        let (delta, delta_state) =
            merge_delta(&prev, &state, &new_shard, &grid, &grown, &config).unwrap();
        delta.bit_identical(&full).unwrap();
        assert_eq!(delta_state, full_state);
    }

    #[test]
    fn delta_merge_rejects_foreign_grid() {
        let config = SummaryConfig::paper_defaults();
        let (catalog, grid, shards) = fixture(&config);
        let refs: Vec<&Summaries> = shards.iter().collect();
        let (merged, state) = merge_shards_stateful(&refs[..2], &grid, &catalog, &config).unwrap();
        let other = Grid::uniform(5, 59).unwrap();
        let err = merge_delta(&merged, &state, &shards[2], &other, &catalog, &config);
        assert!(matches!(err, Err(crate::error::Error::GridMismatch)));
    }
}
