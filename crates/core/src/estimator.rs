//! Summary construction and the top-level estimation API.
//!
//! [`Summaries`] is the paper's summary structure `T'`: one position
//! histogram per catalog predicate, the TRUE histogram, coverage
//! histograms for no-overlap predicates, and (extension) level
//! histograms. [`Estimator`] answers twig-size questions from the
//! summaries alone — the data tree is never consulted after the build.
//!
//! Construction is **single-pass**: one traversal of the data tree
//! classifies every node against all catalog predicates at once (tag
//! predicates dispatch through the interner in O(1) per node), and the
//! per-predicate histogram/coverage/level builds then fan out across
//! cores with `rayon`. Estimation reuses a thread-local
//! [`TwigWorkspace`] so the join kernels run allocation-free in steady
//! state; every primitive pH-join runs the streaming Fig. 9 sweep of
//! [`crate::ph_join::JoinWorkspace`] directly.

use crate::compound::{estimate_expr_histogram, HistResolver};
use crate::coverage::{CoverageContext, CoverageHistogram, CoverageScratch};
use crate::error::{Error, Result};
use crate::grid::Grid;
use crate::naive;
use crate::no_overlap::{
    ancestor_join_into, descendant_join_into, NodeStats, StatsSlot, StatsView, TwigWorkspace,
};
use crate::parent_child::{parent_child_correction, LevelHistogram};
use crate::ph_join::Basis;
use crate::position_histogram::{CellAccumulator, PositionHistogram};
use crate::regrid::GridPolicy;
use crate::twig::{Axis, TwigNode};
use rayon::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xmlest_predicate::{BasePredicate, Catalog, PredExpr};
use xmlest_xml::dtd::DtdAnalysis;
use xmlest_xml::{label, NodeId, XmlTree};

thread_local! {
    /// Per-thread scratch for the estimation hot path. Grown once to the
    /// working grid size, then reused by every estimate on this thread.
    static TWIG_WS: RefCell<TwigWorkspace> = RefCell::new(TwigWorkspace::new());
}

/// Knobs for summary construction.
#[derive(Debug, Clone, Default)]
pub struct SummaryConfig {
    /// Grid buckets per axis (the paper uses 10 except in sweeps).
    pub grid_size: u16,
    /// Use equi-depth bucket boundaries computed over predicate-match
    /// positions (extension; Section 7's "non-uniform grid cells").
    pub equi_depth: bool,
    /// Build coverage histograms for no-overlap predicates (Section 4.2).
    pub build_coverage: bool,
    /// Build level histograms for parent–child estimation (extension).
    pub build_levels: bool,
    /// Consult this DTD analysis for overlap properties and schema
    /// shortcuts; tags it does not know fall back to data detection.
    pub dtd: Option<DtdAnalysis>,
    /// How grid boundaries relate to the occupied span and when the
    /// maintenance layer refreshes them ([`crate::regrid`]). The
    /// default, [`GridPolicy::Static`], derives a tight grid on every
    /// build — the historical behavior.
    pub policy: GridPolicy,
}

impl SummaryConfig {
    /// The paper's defaults: 10×10 uniform grid, coverage on.
    pub fn paper_defaults() -> Self {
        SummaryConfig {
            grid_size: 10,
            equi_depth: false,
            build_coverage: true,
            build_levels: true,
            dtd: None,
            policy: GridPolicy::Static,
        }
    }

    /// Sets the grid size (buckets per axis).
    pub fn with_grid_size(mut self, g: u16) -> Self {
        self.grid_size = g;
        self
    }

    /// Attaches a DTD analysis for overlap properties and shortcuts.
    pub fn with_dtd(mut self, dtd: DtdAnalysis) -> Self {
        self.dtd = Some(dtd);
        self
    }

    /// Sets the grid maintenance policy.
    pub fn with_policy(mut self, policy: GridPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Toggles equi-depth bucket boundaries.
    pub fn with_equi_depth(mut self, on: bool) -> Self {
        self.equi_depth = on;
        self
    }
}

/// Everything stored for one catalog predicate.
#[derive(Debug, Clone)]
pub struct PredicateSummary {
    /// The predicate's name in the catalog.
    pub name: String,
    /// The predicate itself.
    pub pred: BasePredicate,
    /// Position histogram of the matching nodes (Section 3).
    pub hist: PositionHistogram,
    /// Coverage histogram (Section 4.2); built only for a non-empty
    /// no-overlap predicate when the config asks for coverage.
    pub cvg: Option<CoverageHistogram>,
    /// Per-depth histograms for parent–child estimation, when the config
    /// builds them.
    pub levels: Option<LevelHistogram>,
    /// No matching node is an ancestor of another (from the DTD when it
    /// knows the tag, otherwise detected from the data).
    pub no_overlap: bool,
    /// Number of matching nodes.
    pub count: u64,
    /// Mean interval width (subtree size in positions) of matching
    /// nodes; prices navigational joins in the engine's cost model.
    pub avg_width: f64,
}

impl PredicateSummary {
    /// Total bytes this predicate's summaries occupy.
    pub fn storage_bytes(&self) -> usize {
        self.hist.storage_bytes()
            + self
                .cvg
                .as_ref()
                .map_or(0, CoverageHistogram::storage_bytes)
            + self
                .levels
                .as_ref()
                .map_or(0, LevelHistogram::storage_bytes)
    }
}

/// The summary structure `T'` for one database.
#[derive(Debug, Clone)]
pub struct Summaries {
    pub(crate) grid: Grid,
    pub(crate) true_hist: PositionHistogram,
    pub(crate) preds: BTreeMap<String, PredicateSummary>,
    pub(crate) dtd: Option<DtdAnalysis>,
    /// Node count of the summarized tree.
    pub(crate) tree_nodes: u64,
    /// Process-unique generation id ([`Summaries::generation`]).
    pub(crate) build_id: u64,
}

/// Process-unique id for each constructed [`Summaries`] (clones share
/// their original's id — their histograms are identical).
pub(crate) fn next_build_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Summaries {
    /// Builds all summaries for `catalog` over `tree`.
    ///
    /// One traversal of the tree classifies every node against every
    /// catalog predicate: tag predicates are resolved to interned tag
    /// ids up front and dispatch in O(1) per node, so the traversal
    /// costs O(nodes × non-tag predicates) instead of one full scan per
    /// predicate. The independent per-predicate summary builds
    /// (histogram, coverage, levels) then run in parallel via `rayon`.
    /// Results are deterministic: per-predicate node lists come out in
    /// document order exactly as the per-predicate scans produced them.
    pub fn build(tree: &XmlTree, catalog: &Catalog, config: &SummaryConfig) -> Result<Summaries> {
        let entries = Self::entry_list(catalog);

        // Classification plan: tag predicates keyed by interned tag id,
        // everything else evaluated per node.
        let tag_count = tree.tags().len();
        let mut by_tag: Vec<Vec<usize>> = vec![Vec::new(); tag_count];
        let mut general: Vec<(usize, &BasePredicate)> = Vec::new();
        for (k, (_, pred)) in entries.iter().enumerate() {
            match pred {
                BasePredicate::Tag(name) => {
                    if let Some(tag) = tree.tags().get(name) {
                        by_tag[tag.index()].push(k);
                    }
                    // Unknown tag: the predicate matches nothing; its
                    // summary is built over an empty node list.
                }
                _ => general.push((k, pred)),
            }
        }

        // The single pass. Runs before grid construction so the
        // equi-depth grid can reuse the per-predicate match lists
        // instead of re-traversing the tree once per catalog entry.
        let mut all_intervals: Vec<xmlest_xml::Interval> = Vec::with_capacity(tree.len());
        let mut matches: Vec<Vec<NodeId>> = vec![Vec::new(); entries.len()];
        for node in tree.iter() {
            all_intervals.push(tree.interval(node));
            if let Some(tag) = tree.tag(node) {
                for &k in &by_tag[tag.index()] {
                    matches[k].push(node);
                }
            }
            for &(k, pred) in &general {
                if pred.eval(tree, node) {
                    matches[k].push(node);
                }
            }
        }
        let grid = Self::make_grid(tree, &matches, config)?;
        let cvg_ctx = CoverageContext::new(&grid, &all_intervals);

        // Fan the independent per-predicate builds out across cores.
        let jobs: Vec<(usize, &(String, BasePredicate))> = entries.iter().enumerate().collect();
        let preds: BTreeMap<String, PredicateSummary> = jobs
            .par_iter()
            .map(|&(k, (name, pred))| {
                let mut scratch = BuildScratch::default();
                let s = build_one(
                    tree,
                    &grid,
                    &cvg_ctx,
                    name,
                    pred,
                    &matches[k],
                    config,
                    &mut scratch,
                );
                (name.clone(), s)
            })
            .collect();

        let out = Summaries {
            grid,
            true_hist: cvg_ctx.into_totals(),
            preds,
            dtd: config.dtd.clone(),
            tree_nodes: tree.len() as u64,
            build_id: next_build_id(),
        };
        crate::invariants::checkpoint("Summaries::build", || out.validate());
        Ok(out)
    }

    /// Built-in structural predicates prepended by [`Self::entry_list`];
    /// they keep `*` and text-wildcard query nodes estimable even from a
    /// tags-only catalog. The `#` prefix cannot clash with parsed query
    /// names. The equi-depth grid skips exactly `BUILTINS.len()` match
    /// lists (bucketing on `#true` would smear resolution everywhere).
    pub(crate) const BUILTINS: [(&'static str, BasePredicate); 3] = [
        ("#element", BasePredicate::AnyElement),
        ("#text", BasePredicate::AnyText),
        ("#true", BasePredicate::True),
    ];

    /// Catalog entries plus the built-in structural predicates.
    pub(crate) fn entry_list(catalog: &Catalog) -> Vec<(String, BasePredicate)> {
        let mut entries: Vec<(String, BasePredicate)> = Self::BUILTINS
            .iter()
            .map(|(name, p)| ((*name).to_owned(), p.clone()))
            .collect();
        entries.extend(
            catalog
                .iter()
                .map(|e| (e.name.clone(), e.predicate.clone())),
        );
        entries
    }

    /// Shared grid construction: uniform by default, or equi-depth over
    /// the positions where catalog predicates match (extension). The
    /// equi-depth path reads the classification pass's match lists —
    /// no per-predicate tree traversals.
    fn make_grid(tree: &XmlTree, matches: &[Vec<NodeId>], config: &SummaryConfig) -> Result<Grid> {
        let g = if config.grid_size == 0 {
            10
        } else {
            config.grid_size
        };
        // The policy may pad the grid edge past the occupied span
        // (slack capacity, `crate::regrid`): appended positions then
        // bucket onto the existing boundaries instead of moving them.
        // The span is clamped to ≥1 so an empty (deserialized) tree
        // keeps the old saturated max_pos() == 0 behavior.
        let span = (tree.len() as u64).max(1);
        let max_pos = (config.policy.capacity_for(span) - 1) as u32;
        if config.equi_depth {
            // Concentrate buckets where catalog predicates actually match.
            let mut positions: Vec<u32> = matches
                .iter()
                .skip(Self::BUILTINS.len())
                .flat_map(|nodes| nodes.iter().map(|n| n.0))
                .collect();
            positions.sort_unstable();
            if !positions.is_empty() {
                return Grid::equi_depth(g, &positions, max_pos);
            }
        }
        Grid::uniform(g, max_pos)
    }

    /// The grid all these summaries share.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The TRUE histogram (every node of the tree).
    pub fn true_hist(&self) -> &PositionHistogram {
        &self.true_hist
    }

    /// Summary for a named predicate.
    pub fn get(&self, name: &str) -> Option<&PredicateSummary> {
        self.preds.get(name)
    }

    /// All summaries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &PredicateSummary> {
        self.preds.values()
    }

    /// Number of predicate summaries.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether no predicate summaries exist.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Node count of the tree these summaries describe.
    pub fn tree_nodes(&self) -> u64 {
        self.tree_nodes
    }

    /// Process-unique generation id, assigned at every (re)build —
    /// clones keep their original's id since their histograms are
    /// identical. Tests use it to observe that a summary value was
    /// *reused* rather than rebuilt (the stable-grid append path
    /// re-buckets zero existing shards).
    pub fn generation(&self) -> u64 {
        self.build_id
    }

    /// Structural bit-identity with `other`, ignoring the
    /// process-unique build id and any attached DTD analysis: same grid,
    /// node total, TRUE histogram, and per-predicate tables with
    /// bitwise-equal floats. Returns the first difference found.
    ///
    /// This is the equivalence oracle for the incremental maintenance
    /// paths: `tests` pin [`crate::shard::merge_delta`] to the full
    /// [`crate::shard::merge_shards_stateful`] fold with it.
    pub fn bit_identical(&self, other: &Summaries) -> std::result::Result<(), String> {
        if self.grid != other.grid {
            return Err("grids differ".into());
        }
        if self.tree_nodes != other.tree_nodes {
            return Err(format!(
                "node totals differ: {} vs {}",
                self.tree_nodes, other.tree_nodes
            ));
        }
        if self.true_hist != other.true_hist {
            return Err("TRUE histograms differ".into());
        }
        let mine: Vec<&String> = self.preds.keys().collect();
        let theirs: Vec<&String> = other.preds.keys().collect();
        if mine != theirs {
            return Err(format!("entry sets differ: {mine:?} vs {theirs:?}"));
        }
        for (name, a) in &self.preds {
            let b = &other.preds[name];
            if a.hist != b.hist {
                return Err(format!("{name}: histograms differ"));
            }
            if a.cvg != b.cvg {
                return Err(format!("{name}: coverage differs"));
            }
            if a.levels != b.levels {
                return Err(format!("{name}: level histograms differ"));
            }
            if a.no_overlap != b.no_overlap {
                return Err(format!("{name}: no-overlap flags differ"));
            }
            if a.count != b.count {
                return Err(format!("{name}: counts differ: {} vs {}", a.count, b.count));
            }
            if a.avg_width.to_bits() != b.avg_width.to_bits() {
                return Err(format!(
                    "{name}: avg widths differ: {} vs {}",
                    a.avg_width, b.avg_width
                ));
            }
        }
        Ok(())
    }

    /// Total summary footprint in bytes (all predicates + TRUE histogram).
    pub fn storage_bytes(&self) -> usize {
        self.true_hist.storage_bytes()
            + self
                .preds
                .values()
                .map(PredicateSummary::storage_bytes)
                .sum::<usize>()
    }

    /// Re-attaches a DTD analysis — the one piece persistence never
    /// carries (`summary::from_bytes` and the catalog format both load
    /// with `dtd = None` since the analysis is derivable from the
    /// schema). Schema shortcuts resume consulting it; the overlap
    /// properties baked in at build time are untouched, so re-attaching
    /// the same analysis the summaries were built with restores the
    /// original estimates exactly.
    pub fn attach_dtd(&mut self, dtd: DtdAnalysis) {
        self.dtd = Some(dtd);
    }

    /// Checks cross-structure consistency of the whole summary set:
    /// every histogram and coverage structure individually valid and on
    /// the shared grid, every predicate entry stored under its own
    /// name, match counts agreeing with histogram mass, the built-in
    /// structural predicates present, and node accounting consistent —
    /// the TRUE histogram holds at most `tree_nodes` mass (exactly that
    /// for monolithic builds; a degraded re-merge of surviving shards
    /// may hold less, never more). Returns the first violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        self.grid.validate()?;
        self.true_hist
            .validate()
            .map_err(|e| format!("TRUE histogram: {e}"))?;
        invariant!(
            self.true_hist.grid() == &self.grid,
            "TRUE histogram bucketed on a different grid"
        );
        let true_total = self.true_hist.total();
        invariant!(
            true_total <= self.tree_nodes as f64 * (1.0 + 1e-9) + 1e-6,
            "TRUE histogram holds {true_total} nodes, tree accounts for {}",
            self.tree_nodes
        );
        for (name, _) in Self::BUILTINS {
            invariant!(
                self.preds.contains_key(name),
                "built-in predicate {name} missing"
            );
        }
        for (key, s) in &self.preds {
            invariant!(
                &s.name == key,
                "summary named {:?} stored under key {key:?}",
                s.name
            );
            s.hist.validate().map_err(|e| format!("{key}: {e}"))?;
            invariant!(
                s.hist.grid() == &self.grid,
                "{key}: histogram bucketed on a different grid"
            );
            let mass = s.hist.total();
            invariant!(
                (mass - s.count as f64).abs() <= 1e-6 * (1.0 + s.count as f64),
                "{key}: count {} disagrees with histogram mass {mass}",
                s.count
            );
            if let Some(cvg) = &s.cvg {
                cvg.validate().map_err(|e| format!("{key} coverage: {e}"))?;
                invariant!(
                    cvg.grid() == &self.grid,
                    "{key}: coverage bucketed on a different grid"
                );
                invariant!(
                    s.no_overlap,
                    "{key}: coverage stored for an overlapping predicate"
                );
            }
        }
        Ok(())
    }

    /// An estimator reading from these summaries.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator { summaries: self }
    }
}

/// Scratch one thread reuses across per-predicate builds, so a build
/// allocates only what its summary keeps.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    /// Position-histogram cell counts.
    pub(crate) cells: CellAccumulator,
    /// Coverage border counts.
    pub(crate) coverage: CoverageScratch,
}

/// Builds one predicate's complete summary (histogram, overlap property,
/// coverage, levels) from its already-classified node list (document
/// order). Pure function of its inputs — safe to run on any thread.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is a distinct build input; a struct would only rename them"
)]
fn build_one(
    tree: &XmlTree,
    grid: &Grid,
    cvg_ctx: &CoverageContext,
    name: &str,
    pred: &BasePredicate,
    nodes: &[NodeId],
    config: &SummaryConfig,
    scratch: &mut BuildScratch,
) -> PredicateSummary {
    let intervals: Vec<_> = nodes.iter().map(|&n| tree.interval(n)).collect();
    let levels = config
        .build_levels
        .then(|| LevelHistogram::from_nodes(tree, nodes));
    build_one_from_intervals(
        grid, cvg_ctx, name, pred, &intervals, levels, config, scratch,
    )
}

/// The tree-free core of [`build_one`]: everything after classification
/// is a function of interval lists alone, which is what lets the shard
/// layer ([`crate::shard`]) rebuild per-document summaries on a new
/// shared grid without touching any tree. `cvg_ctx` is the whole-tree
/// node population bucketed on `grid` (hoisted by the caller so its
/// cost amortizes across every predicate); `intervals` must be in
/// document order, in the same positions as the context's nodes (a
/// shard's local positions); `levels`, when provided, must already use
/// the target tree's depth numbering.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is a distinct build input; a struct would only rename them"
)]
pub(crate) fn build_one_from_intervals(
    grid: &Grid,
    cvg_ctx: &CoverageContext,
    name: &str,
    pred: &BasePredicate,
    intervals: &[xmlest_xml::Interval],
    levels: Option<LevelHistogram>,
    config: &SummaryConfig,
    scratch: &mut BuildScratch,
) -> PredicateSummary {
    let hist = PositionHistogram::count_cells(
        grid.clone(),
        intervals.iter().map(|&iv| cvg_ctx.cell(grid, iv)),
        &mut scratch.cells,
    );

    // Overlap property: DTD knowledge for tag predicates when available,
    // otherwise detected from the data (exact).
    let no_overlap = match (&config.dtd, pred) {
        (Some(dtd), BasePredicate::Tag(t)) if dtd.tags().any(|known| known == t) => {
            dtd.no_overlap(t)
        }
        _ => label::no_overlap(intervals),
    };

    let cvg = (config.build_coverage && no_overlap && !intervals.is_empty()).then(|| {
        CoverageHistogram::count_in(grid.clone(), cvg_ctx, intervals, &mut scratch.coverage)
    });
    let avg_width = if intervals.is_empty() {
        0.0
    } else {
        intervals.iter().map(|iv| iv.width() as f64).sum::<f64>() / intervals.len() as f64
    };

    PredicateSummary {
        name: name.to_owned(),
        pred: pred.clone(),
        hist,
        cvg,
        levels,
        no_overlap,
        count: intervals.len() as u64,
        avg_width,
    }
}

impl HistResolver for Summaries {
    fn resolve_named(&self, name: &str) -> Option<&PositionHistogram> {
        self.preds.get(name).map(|s| &s.hist)
    }

    fn resolve_base(&self, pred: &BasePredicate) -> Option<&PositionHistogram> {
        self.preds
            .values()
            .find(|s| &s.pred == pred)
            .map(|s| &s.hist)
    }
}

/// How to estimate a two-node pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateMethod {
    /// Schema shortcuts, then no-overlap when coverage exists, then the
    /// primitive pH-join — the paper's recommended cascade.
    Auto,
    /// Force the primitive pH-join (Fig. 6) with the given basis.
    Primitive(Basis),
    /// Force the no-overlap estimation (Fig. 10) with the given basis.
    NoOverlap(Basis),
}

/// An estimation result with provenance.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Estimated number of matches.
    pub value: f64,
    /// Wall-clock time the estimation took (histogram math only).
    pub elapsed: Duration,
    /// Which path produced the value ("schema", "no-overlap", "primitive",
    /// "twig").
    pub method: &'static str,
}

/// Read-only estimation interface over [`Summaries`].
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    summaries: &'a Summaries,
}

/// Evaluation state of one (sub-)twig during arena-based estimation:
/// either a borrowed leaf straight off the summaries or a pooled slot
/// holding a join result, plus the borrowed coverage base its overlay
/// applies to. `'a` is the summaries' lifetime.
enum EvalStats<'a> {
    Leaf {
        hist: &'a PositionHistogram,
        cvg: Option<&'a CoverageHistogram>,
        no_overlap: bool,
    },
    Derived {
        slot: StatsSlot,
        cvg_base: Option<&'a CoverageHistogram>,
    },
}

impl<'a> EvalStats<'a> {
    fn view(&self) -> StatsView<'_> {
        match self {
            EvalStats::Leaf {
                hist,
                cvg,
                no_overlap,
            } => StatsView::leaf(hist, *cvg, *no_overlap),
            EvalStats::Derived { slot, cvg_base } => slot.view(*cvg_base),
        }
    }

    /// The coverage base a join *based at this node* would thread on.
    fn cvg_base(&self) -> Option<&'a CoverageHistogram> {
        match self {
            EvalStats::Leaf { cvg, .. } => *cvg,
            EvalStats::Derived { cvg_base, .. } => *cvg_base,
        }
    }

    fn match_total(&self) -> f64 {
        match self {
            // A leaf has unit join factors: matches = participation.
            EvalStats::Leaf { hist, .. } => hist.total(),
            EvalStats::Derived { slot, .. } => slot.match_total(),
        }
    }

    /// Returns any pooled slot to the workspace.
    fn release(self, ws: &mut TwigWorkspace) {
        if let EvalStats::Derived { slot, .. } = self {
            ws.put_slot(slot);
        }
    }

    /// Materializes owned [`NodeStats`] (the allocating, public-API
    /// form); consumes the slot without returning it to the pool.
    fn into_node_stats(self) -> NodeStats {
        match self {
            EvalStats::Leaf {
                hist,
                cvg,
                no_overlap,
            } => NodeStats::leaf(hist.clone(), cvg.cloned(), no_overlap),
            EvalStats::Derived { slot, cvg_base } => slot.into_node_stats(cvg_base),
        }
    }
}

impl<'a> Estimator<'a> {
    /// The summaries this estimator answers from.
    pub fn summaries(&self) -> &'a Summaries {
        self.summaries
    }

    fn summary(&self, name: &str) -> Result<&'a PredicateSummary> {
        self.summaries
            .get(name)
            .ok_or_else(|| Error::UnknownPredicate(name.to_owned()))
    }

    /// Resolves an expression to its predicate summary when it names one
    /// (`Named` by key, `Base` by linear scan). `Ok(None)` marks a
    /// compound expression, which has no single summary — the one
    /// resolution rule shared by every leaf-state accessor below.
    fn leaf_summary(&self, expr: &PredExpr) -> Result<Option<&'a PredicateSummary>> {
        match expr {
            PredExpr::Named(name) => self.summary(name).map(Some),
            PredExpr::Base(p) => self
                .summaries
                .preds
                .values()
                .find(|s| &s.pred == p)
                .map(Some)
                .ok_or_else(|| Error::UnknownPredicate(p.describe())),
            _ => Ok(None),
        }
    }

    /// Leaf estimation state for a predicate expression: named/base
    /// predicates read their summary; compound expressions synthesize a
    /// histogram (Section 3.4) and carry no coverage.
    pub fn node_stats(&self, expr: &PredExpr) -> Result<NodeStats> {
        match self.leaf_summary(expr)? {
            Some(s) => Ok(NodeStats::leaf(s.hist.clone(), s.cvg.clone(), s.no_overlap)),
            None => {
                let hist =
                    estimate_expr_histogram(expr, self.summaries, &self.summaries.true_hist)?;
                Ok(NodeStats::leaf(hist, None, false))
            }
        }
    }

    /// Total match count of a single pattern node — the view-based
    /// counterpart of `node_stats(expr)?.hist.total()`. Named and base
    /// predicates read the stored total directly (no histogram clone,
    /// no allocation); compound expressions synthesize their histogram
    /// into a pooled workspace slot.
    pub fn node_total(&self, expr: &PredExpr) -> Result<f64> {
        match self.leaf_summary(expr)? {
            Some(s) => Ok(s.hist.total()),
            None => {
                let hist =
                    estimate_expr_histogram(expr, self.summaries, &self.summaries.true_hist)?;
                Ok(hist.total())
            }
        }
    }

    /// Total estimated matches of a whole (sub-)twig — the view-based
    /// counterpart of `twig_stats(twig)?.match_total()`. Evaluation runs
    /// entirely on the thread-local arena and releases every slot; no
    /// owned [`NodeStats`] is materialized, so warm plan costing
    /// allocates nothing (enforced by `tests/alloc_discipline.rs`).
    pub fn twig_match_total(&self, twig: &TwigNode) -> Result<f64> {
        TWIG_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let stats = self.twig_eval(ws, twig)?;
            let value = stats.match_total();
            stats.release(ws);
            Ok(value)
        })
    }

    /// Level histogram for an expression when it resolves to a single
    /// summarized predicate.
    fn levels_for(&self, expr: &PredExpr) -> Option<&'a LevelHistogram> {
        self.leaf_summary(expr).ok().flatten()?.levels.as_ref()
    }

    /// Mean subtree width (in positions) of the nodes matching a
    /// single-predicate expression; `None` for compound expressions.
    /// Used by navigational-join cost models.
    pub fn avg_width(&self, expr: &PredExpr) -> Option<f64> {
        Some(self.leaf_summary(expr).ok().flatten()?.avg_width)
    }

    /// Schema shortcut for a tag pair (Section 4 intro): impossible
    /// relationships estimate 0; required-sole-parent relationships with a
    /// no-overlap ancestor estimate exactly the descendant count.
    pub fn schema_shortcut(&self, anc: &str, desc: &str) -> Option<f64> {
        let dtd = self.summaries.dtd.as_ref()?;
        let (BasePredicate::Tag(anc_tag), desc_summary) =
            (&self.summary(anc).ok()?.pred, self.summary(desc).ok()?)
        else {
            return None;
        };
        let BasePredicate::Tag(desc_tag) = &desc_summary.pred else {
            return None;
        };
        if dtd.tags().any(|t| t == anc_tag) && !dtd.can_descend(anc_tag, desc_tag) {
            return Some(0.0);
        }
        if dtd.sole_parent(desc_tag) == Some(anc_tag.as_str()) && dtd.no_overlap(anc_tag) {
            return Some(desc_summary.count as f64);
        }
        None
    }

    /// Total primitive pH-join estimate over two predicates' histograms,
    /// on the thread-local workspace's streaming kernel.
    fn primitive_total(
        &self,
        anc: &PositionHistogram,
        desc: &PositionHistogram,
        basis: Basis,
    ) -> Result<f64> {
        TWIG_WS.with(|ws| ws.borrow_mut().join.ph_join_total(anc, desc, basis))
    }

    /// No-overlap pair estimate over borrowed summary state: leaf views
    /// straight off the summaries, one arena slot for the result —
    /// no histogram or coverage clones, either basis on the
    /// thread-local workspace.
    fn no_overlap_pair_total(
        &self,
        a: &PredicateSummary,
        d: &PredicateSummary,
        basis: Basis,
    ) -> Result<f64> {
        TWIG_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let x = StatsView::leaf(&a.hist, a.cvg.as_ref(), true);
            let y = StatsView::leaf(&d.hist, None, d.no_overlap);
            let mut out = ws.take_slot();
            let res = match basis {
                Basis::AncestorBased => ancestor_join_into(ws, x, y, &mut out),
                Basis::DescendantBased => descendant_join_into(ws, x, y, &mut out),
            };
            let value = res.map(|()| out.match_total());
            ws.put_slot(out);
            value
        })
    }

    /// Estimates a two-node pattern `anc // desc` over named predicates.
    pub fn estimate_pair(&self, anc: &str, desc: &str, method: EstimateMethod) -> Result<Estimate> {
        let a = self.summary(anc)?;
        let d = self.summary(desc)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock for the Estimate.elapsed report only; never feeds estimation math"
        )]
        let start = Instant::now();
        let (value, tag) = match method {
            EstimateMethod::Auto => {
                if let Some(v) = self.schema_shortcut(anc, desc) {
                    (v, "schema")
                } else if a.no_overlap && a.cvg.is_some() {
                    (
                        self.no_overlap_pair_total(a, d, Basis::AncestorBased)?,
                        "no-overlap",
                    )
                } else {
                    (
                        self.primitive_total(&a.hist, &d.hist, Basis::AncestorBased)?,
                        "primitive",
                    )
                }
            }
            EstimateMethod::Primitive(basis) => {
                (self.primitive_total(&a.hist, &d.hist, basis)?, "primitive")
            }
            EstimateMethod::NoOverlap(basis) => {
                if a.cvg.is_none() {
                    return Err(Error::MissingCoverage(anc.to_owned()));
                }
                (self.no_overlap_pair_total(a, d, basis)?, "no-overlap")
            }
        };
        Ok(Estimate {
            value,
            elapsed: start.elapsed(),
            method: tag,
        })
    }

    /// The structure-free baseline: product of node counts (Tables 2/4
    /// "Naive").
    pub fn naive_pair(&self, anc: &str, desc: &str) -> Result<f64> {
        Ok(naive::naive_product(&[
            self.summary(anc)?.count as f64,
            self.summary(desc)?.count as f64,
        ]))
    }

    /// Schema-only upper bound (Table 2 "Desc Num"): descendant count when
    /// the ancestor is no-overlap.
    pub fn upper_bound_pair(&self, anc: &str, desc: &str) -> Result<f64> {
        let a = self.summary(anc)?;
        let d = self.summary(desc)?;
        Ok(naive::pair_upper_bound(
            a.count as f64,
            d.count as f64,
            a.no_overlap,
        ))
    }

    /// Estimates an arbitrary twig by composing ancestor-based joins
    /// bottom-up. Parent–child edges apply the level-histogram correction
    /// when both endpoint predicates have level summaries. Runs on the
    /// thread-local [`TwigWorkspace`]; see [`Self::estimate_twig_with`]
    /// for explicit workspace control.
    pub fn estimate_twig(&self, twig: &TwigNode) -> Result<Estimate> {
        TWIG_WS.with(|ws| self.estimate_twig_with(&mut ws.borrow_mut(), twig))
    }

    /// [`Self::estimate_twig`] on a caller-owned workspace — the
    /// zero-allocation steady-state path for services that estimate in a
    /// loop (enforced by `tests/alloc_discipline.rs`).
    pub fn estimate_twig_with(&self, ws: &mut TwigWorkspace, twig: &TwigNode) -> Result<Estimate> {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock for the Estimate.elapsed report only; never feeds estimation math"
        )]
        let start = Instant::now();
        let stats = self.twig_eval(ws, twig)?;
        let value = stats.match_total();
        stats.release(ws);
        Ok(Estimate {
            value,
            elapsed: start.elapsed(),
            method: "twig",
        })
    }

    /// Estimation state for a whole sub-twig (exposes intermediate-result
    /// estimates for the optimizer). Materializes an owned result; the
    /// evaluation itself runs on the thread-local arena.
    pub fn twig_stats(&self, twig: &TwigNode) -> Result<NodeStats> {
        TWIG_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let stats = self.twig_eval(ws, twig)?;
            Ok(stats.into_node_stats())
        })
    }

    /// Bottom-up twig evaluation over the arena: leaves are borrowed
    /// views of summary state, every join writes into a pooled
    /// [`StatsSlot`], and coverage propagates through overlays — no
    /// summary histogram or coverage structure is cloned.
    fn twig_eval(&self, ws: &mut TwigWorkspace, twig: &TwigNode) -> Result<EvalStats<'a>> {
        let mut acc = self.leaf_eval(ws, &twig.pred)?;
        for child in &twig.children {
            let child_stats = match self.twig_eval(ws, child) {
                Ok(s) => s,
                Err(e) => {
                    acc.release(ws);
                    return Err(e);
                }
            };
            let mut out = ws.take_slot();
            let res = ancestor_join_into(ws, acc.view(), child_stats.view(), &mut out);
            let acc_base = acc.cvg_base();
            child_stats.release(ws);
            acc.release(ws);
            if let Err(e) = res {
                ws.put_slot(out);
                return Err(e);
            }
            if child.axis == Axis::Child {
                if let (Some(la), Some(lb)) =
                    (self.levels_for(&twig.pred), self.levels_for(&child.pred))
                {
                    out.scale_join_factor(parent_child_correction(la, lb));
                }
            }
            let cvg_base = out.carries_coverage().then_some(acc_base).flatten();
            acc = EvalStats::Derived {
                slot: out,
                cvg_base,
            };
        }
        Ok(acc)
    }

    /// Leaf estimation state as a borrowed view where possible: named
    /// and base predicates borrow their summary directly; compound
    /// expressions synthesize a histogram (Section 3.4) into a pooled
    /// slot and carry no coverage.
    fn leaf_eval(&self, ws: &mut TwigWorkspace, expr: &PredExpr) -> Result<EvalStats<'a>> {
        match self.leaf_summary(expr)? {
            Some(s) => Ok(EvalStats::Leaf {
                hist: &s.hist,
                cvg: s.cvg.as_ref(),
                no_overlap: s.no_overlap,
            }),
            None => {
                let hist =
                    estimate_expr_histogram(expr, self.summaries, &self.summaries.true_hist)?;
                let mut slot = ws.take_slot();
                slot.set_compound(hist);
                Ok(EvalStats::Derived {
                    slot,
                    cvg_base: None,
                })
            }
        }
    }

    /// Naive product over every node of a twig.
    pub fn naive_twig(&self, twig: &TwigNode) -> Result<f64> {
        let mut counts = Vec::new();
        for pred in twig.predicates() {
            let stats = self.node_stats(pred)?;
            counts.push(stats.hist.total());
        }
        Ok(naive::naive_product(&counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_predicate::Catalog;
    use xmlest_xml::parser::parse_str;

    /// The Fig. 1 document as XML text.
    fn fig1_xml() -> String {
        let mut s = String::from("<department>");
        s.push_str("<faculty><name/><RA/></faculty>");
        s.push_str("<staff><name/></staff>");
        s.push_str("<faculty><name/><secretary/><RA/><RA/><RA/></faculty>");
        s.push_str("<lecturer><name/><TA/><TA/><TA/></lecturer>");
        s.push_str("<faculty><name/><secretary/><TA/><RA/><RA/><TA/></faculty>");
        s.push_str(
            "<research_scientist><name/><secretary/><RA/><RA/><RA/><RA/></research_scientist>",
        );
        s.push_str("</department>");
        s
    }

    fn build(g: u16) -> Summaries {
        let tree = parse_str(&fig1_xml()).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let config = SummaryConfig::paper_defaults().with_grid_size(g);
        Summaries::build(&tree, &catalog, &config).unwrap()
    }

    #[test]
    fn build_detects_overlap_properties_from_data() {
        let s = build(2);
        assert!(s.get("faculty").unwrap().no_overlap);
        assert!(s.get("TA").unwrap().no_overlap);
        // department has a single node: vacuously no-overlap in data.
        assert!(s.get("department").unwrap().no_overlap);
        assert_eq!(s.get("faculty").unwrap().count, 3);
        assert_eq!(s.get("TA").unwrap().count, 5);
        assert!(s.get("faculty").unwrap().cvg.is_some());
    }

    #[test]
    fn validate_accepts_builds_and_rejects_mutations() {
        for g in [1u16, 2, 4, 8] {
            build(g).validate().unwrap();
        }
        let good = build(4);

        // Node undercount: the TRUE histogram then holds more mass than
        // the tree accounts for.
        let mut s = good.clone();
        s.tree_nodes -= 1;
        assert!(s.validate().is_err(), "node undercount accepted");

        // Count out of step with the histogram mass.
        let mut s = good.clone();
        s.preds.get_mut("faculty").unwrap().count += 1;
        assert!(s.validate().is_err(), "count drift accepted");

        // A predicate summary bucketed on a foreign grid.
        let mut s = good.clone();
        let foreign = Grid::uniform(3, 999).unwrap();
        s.preds.get_mut("TA").unwrap().hist = PositionHistogram::empty(foreign);
        assert!(s.validate().is_err(), "foreign grid accepted");

        // A summary filed under the wrong name.
        let mut s = good.clone();
        let ta = s.preds.remove("TA").unwrap();
        s.preds.insert("RA2".into(), ta);
        assert!(s.validate().is_err(), "misfiled summary accepted");

        // A built-in structural predicate gone missing.
        let mut s = good.clone();
        s.preds.remove("#true");
        assert!(s.validate().is_err(), "missing built-in accepted");
    }

    #[test]
    fn paper_example_pipeline() {
        let s = build(2);
        let est = s.estimator();
        // Primitive: 7/12.
        let p = est
            .estimate_pair(
                "faculty",
                "TA",
                EstimateMethod::Primitive(Basis::AncestorBased),
            )
            .unwrap();
        assert!((p.value - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(p.method, "primitive");
        // No-overlap: 2.2 with our numbering (paper: 1.9; real: 2).
        let n = est
            .estimate_pair(
                "faculty",
                "TA",
                EstimateMethod::NoOverlap(Basis::AncestorBased),
            )
            .unwrap();
        assert!((n.value - 2.2).abs() < 1e-9, "got {}", n.value);
        // Auto picks the no-overlap path.
        let a = est
            .estimate_pair("faculty", "TA", EstimateMethod::Auto)
            .unwrap();
        assert_eq!(a.method, "no-overlap");
        assert!((a.value - n.value).abs() < 1e-12);
        // Naive and upper bound match Section 2's narrative.
        assert_eq!(est.naive_pair("faculty", "TA").unwrap(), 15.0);
        assert_eq!(est.upper_bound_pair("faculty", "TA").unwrap(), 5.0);
    }

    #[test]
    fn twig_estimation_runs_and_is_positive() {
        let s = build(4);
        let est = s.estimator();
        let twig = TwigNode::named("department").descendant(
            TwigNode::named("faculty")
                .descendant(TwigNode::named("TA"))
                .descendant(TwigNode::named("RA")),
        );
        let e = est.estimate_twig(&twig).unwrap();
        // Real answer: faculty3 contributes 2 TA x 2 RA = 4 (department
        // is the single root). Estimate should be in a sane band.
        assert!(e.value > 0.2 && e.value < 40.0, "estimate {}", e.value);
        assert_eq!(e.method, "twig");
        let naive = est.naive_twig(&twig).unwrap();
        assert_eq!(naive, 1.0 * 3.0 * 5.0 * 10.0);
        assert!(e.value < naive);
    }

    #[test]
    fn unknown_predicates_error() {
        let s = build(2);
        let est = s.estimator();
        assert!(matches!(
            est.estimate_pair("ghost", "TA", EstimateMethod::Auto),
            Err(Error::UnknownPredicate(_))
        ));
        assert!(matches!(
            est.estimate_twig(&TwigNode::named("ghost")),
            Err(Error::UnknownPredicate(_))
        ));
    }

    #[test]
    fn missing_coverage_is_reported() {
        let tree = parse_str(&fig1_xml()).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let mut config = SummaryConfig::paper_defaults();
        config.build_coverage = false;
        let s = Summaries::build(&tree, &catalog, &config).unwrap();
        let est = s.estimator();
        assert!(matches!(
            est.estimate_pair(
                "faculty",
                "TA",
                EstimateMethod::NoOverlap(Basis::AncestorBased)
            ),
            Err(Error::MissingCoverage(_))
        ));
        // Auto degrades to primitive.
        let a = est
            .estimate_pair("faculty", "TA", EstimateMethod::Auto)
            .unwrap();
        assert_eq!(a.method, "primitive");
    }

    #[test]
    fn compound_expression_estimation() {
        let s = build(4);
        let est = s.estimator();
        let ta_or_ra = PredExpr::named("TA").or(PredExpr::named("RA"));
        let stats = est.node_stats(&ta_or_ra).unwrap();
        // Disjoint tags: estimate should be close to 15 (5 TA + 10 RA),
        // minus the small per-cell independence overlap charge.
        assert!(stats.hist.total() > 12.0 && stats.hist.total() <= 15.0);
        let twig = TwigNode::named("faculty").descendant(TwigNode::with_pred(ta_or_ra));
        let e = est.estimate_twig(&twig).unwrap();
        assert!(e.value > 0.0);
    }

    #[test]
    fn storage_is_small_fraction_of_tree() {
        let s = build(10);
        // 31-node tree: summaries are small but non-zero.
        assert!(s.storage_bytes() > 0);
        assert!(s.len() >= 7);
        assert_eq!(s.tree_nodes(), 31);
    }

    #[test]
    fn equi_depth_grid_build() {
        let tree = parse_str(&fig1_xml()).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let mut config = SummaryConfig::paper_defaults().with_grid_size(4);
        config.equi_depth = true;
        let s = Summaries::build(&tree, &catalog, &config).unwrap();
        assert!(!s.grid().is_uniform());
        let est = s.estimator();
        let e = est
            .estimate_pair("faculty", "TA", EstimateMethod::Auto)
            .unwrap();
        assert!(e.value > 0.0 && e.value <= 5.0);
    }

    #[test]
    fn build_is_deterministic() {
        let tree = parse_str(&fig1_xml()).unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let config = SummaryConfig::paper_defaults().with_grid_size(6);
        let first = Summaries::build(&tree, &catalog, &config).unwrap();
        let second = Summaries::build(&tree, &catalog, &config).unwrap();
        assert_eq!(second.len(), first.len());
        assert_eq!(second.grid(), first.grid());
        assert_eq!(second.true_hist(), first.true_hist());
        for s in first.iter() {
            let p = second.get(&s.name).unwrap();
            assert_eq!(p.hist, s.hist, "{}", s.name);
            assert_eq!(p.cvg, s.cvg);
            assert_eq!(p.no_overlap, s.no_overlap);
            assert_eq!(p.count, s.count);
        }
    }

    #[test]
    fn builtin_structural_summaries_enable_wildcards() {
        let s = build(4);
        assert!(s.get("#element").is_some());
        assert!(s.get("#text").is_some());
        assert_eq!(s.get("#true").unwrap().count, 31);
        let est = s.estimator();
        // `*` resolves through the built-in AnyElement summary.
        let stats = est
            .node_stats(&PredExpr::Base(BasePredicate::AnyElement))
            .unwrap();
        assert_eq!(stats.hist.total(), 31.0, "Fig. 1 has no text nodes");
        let twig = TwigNode::with_pred(PredExpr::Base(BasePredicate::AnyElement))
            .descendant(TwigNode::named("TA"));
        let e = est.estimate_twig(&twig).unwrap();
        assert!(e.value > 0.0);
    }

    #[test]
    fn schema_shortcuts_from_dtd() {
        let tree = parse_str(&fig1_xml()).unwrap();
        let dtd_text = r#"
            <!ELEMENT department (faculty|staff|lecturer|research_scientist)+>
            <!ELEMENT faculty (name, secretary?, (TA|RA)*)>
            <!ELEMENT staff (name)>
            <!ELEMENT lecturer (name, TA*)>
            <!ELEMENT research_scientist (name, secretary?, RA*)>
            <!ELEMENT name (#PCDATA)>
            <!ELEMENT secretary (#PCDATA)>
            <!ELEMENT TA (#PCDATA)>
            <!ELEMENT RA (#PCDATA)>
        "#;
        let dtd = xmlest_xml::dtd::parse_dtd(dtd_text).unwrap().analyze();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let config = SummaryConfig::paper_defaults()
            .with_grid_size(4)
            .with_dtd(dtd);
        let s = Summaries::build(&tree, &catalog, &config).unwrap();
        let est = s.estimator();
        // TA cannot appear under staff: shortcut to 0.
        assert_eq!(est.schema_shortcut("staff", "TA"), Some(0.0));
        let e = est
            .estimate_pair("staff", "TA", EstimateMethod::Auto)
            .unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.method, "schema");
        // No sole-parent shortcut for TA (faculty and lecturer both allow it).
        assert_eq!(est.schema_shortcut("faculty", "TA"), None);
        // secretary's parents: faculty and research_scientist -> no shortcut;
        // but RA under research_scientist? RA also under faculty -> none.
        assert_eq!(est.schema_shortcut("research_scientist", "RA"), None);
    }
}
