//! The database object: document collection + catalog + indexes +
//! summaries, in a three-layer serving architecture.
//!
//! * **Data layer** — the (mega-)tree and the element index, used by
//!   exact counting and plan execution. Optional: a database opened from
//!   a persisted catalog ([`Database::open_catalog`]) has summaries but
//!   no data tree, and serves estimates only.
//! * **Shard layer** — per-document summary shards
//!   (`xmlest_core::shard`): each document is classified once, its shard
//!   summaries build on the shared grid in parallel, and the merged
//!   mega-tree view is an exact [`PositionHistogram::plus`]-style
//!   combination. [`Database::add_document`] / [`Database::remove_document`]
//!   re-merge from the stored classified lists — they never re-parse or
//!   re-classify the rest of the collection.
//! * **Serving layer** — the estimator over the merged summaries, the
//!   prepared-query cache (repeated queries hit a canonical
//!   [`crate::prepared::PreparedQuery`] carrying the parsed twig, leaf
//!   resolutions and the memoized plan), and the published [`Snapshot`]
//!   every estimate runs on.
//!
//! Every state a cache can derive from — summaries, grid, plans — is
//! versioned by the database **epoch**: a monotonically increasing
//! counter bumped by every collection mutation
//! ([`Database::add_document`], [`Database::remove_document`]) and by
//! [`Database::attach_dtd`] (which changes estimates in place). Cached
//! plans and prepared state carry the epoch they were derived under and
//! are transparently re-prepared on mismatch.
//!
//! [`PositionHistogram::plus`]: xmlest_core::PositionHistogram::plus

use crate::error::{Error, Result};
use crate::maintenance::{
    MaintenanceState, MaintenanceStats, DEGRADED_AFTER_STRIKES, MAX_BACKOFF_SHIFT,
};
use crate::prepared::{CacheTier, LeafResolution, PreparedCache, PreparedQuery, TwigId};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::telemetry::{edge_kernels, Metrics, Telemetry, TraceReport};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use xmlest_core::catalog::{CatalogFile, CatalogShard, OpenReport, QuarantinedShard};
use xmlest_core::shard::{
    build_shard_summaries, builtin_entry_count, classify_document, entry_names,
    make_collection_grid, matches_mega_root, merge_delta, merge_shards_stateful,
    DocumentSummaryInput, MergeState,
};
use xmlest_core::store::{CatalogStore, SkippedGeneration};
use xmlest_core::{DriftTracker, Estimate, Grid, Summaries, SummaryConfig, TwigNode};
use xmlest_predicate::{BasePredicate, Catalog, PredExpr};
use xmlest_query::structural::Item;
use xmlest_query::{count_matches, parse_path};
use xmlest_xml::parser::parse_str;
use xmlest_xml::{ForestBuilder, Interval, NodeId, XmlTree};
use xmlest_xobs::{EventKind, Recorder, Stage};

/// Test-only fault injection: lets unit tests force a collection
/// rebuild to fail so the mutation rollback path is exercisable (no
/// valid input reaches the fallible steps' error arms naturally).
#[cfg(test)]
pub(crate) mod test_faults {
    use std::cell::Cell;

    thread_local! {
        /// Number of upcoming [`super::derive_collection`] calls on this
        /// thread to fail artificially (multi-shot: each failure
        /// decrements, so a test can arm a whole losing streak to
        /// exercise the backoff and degraded-flag escalation).
        /// Thread-local because mutations run on the calling thread:
        /// an armed count can never leak into a test running in
        /// parallel.
        static FAIL_REBUILDS: Cell<u32> = const { Cell::new(0) };
    }

    /// Arms the next `n` rebuilds on this thread to fail (1 for the
    /// classic one-shot, 0 to disarm).
    pub(crate) fn arm(n: u32) {
        FAIL_REBUILDS.with(|c| c.set(n));
    }

    /// Consumes one armed failure, if any.
    pub(crate) fn take_rebuild_failure() -> bool {
        FAIL_REBUILDS.with(|c| match c.get() {
            0 => false,
            n => {
                c.set(n - 1);
                true
            }
        })
    }
}

/// Element index: per catalog predicate, the matching nodes with their
/// intervals in document order — the input lists for structural joins.
#[derive(Debug, Default)]
pub struct ElementIndex {
    lists: BTreeMap<String, Vec<Item<NodeId>>>,
}

impl ElementIndex {
    /// Builds per-predicate interval lists over `tree` in document order.
    pub fn build(tree: &XmlTree, catalog: &Catalog) -> ElementIndex {
        let mut lists = BTreeMap::new();
        for entry in catalog.iter() {
            let items: Vec<Item<NodeId>> = entry
                .predicate
                .matches(tree)
                .into_iter()
                .map(|n| Item::new(tree.interval(n), n))
                .collect();
            lists.insert(entry.name.clone(), items);
        }
        ElementIndex { lists }
    }

    /// Builds the index for a collection from its classified lists
    /// without touching any tree: each entry concatenates every
    /// document's matches shifted by its offset (node ids equal
    /// positions, so the shifted start *is* the mega-tree id), after the
    /// mega-root's item where the entry matches it. Valid for the
    /// tag-derived catalogs every collection has.
    fn build_sharded(catalog: &Catalog, inputs: &[(&DocumentSummaryInput, u32)]) -> ElementIndex {
        let builtins = builtin_entry_count();
        let total: u64 = 1 + inputs
            .iter()
            .map(|(input, _)| input.node_count as u64)
            .sum::<u64>();
        let mut lists = BTreeMap::new();
        for (pos, entry) in catalog.iter().enumerate() {
            let mut items: Vec<Item<NodeId>> = Vec::new();
            if matches_mega_root(&entry.predicate) {
                let iv = Interval::new(0, (total - 1) as u32);
                items.push(Item::new(iv, NodeId(0)));
            }
            for &(input, offset) in inputs {
                for iv in &input.entries[builtins + pos].intervals {
                    let shifted = Interval::new(iv.start + offset, iv.end + offset);
                    items.push(Item::new(shifted, NodeId(shifted.start)));
                }
            }
            lists.insert(entry.name.clone(), items);
        }
        ElementIndex { lists }
    }

    /// Appends one document's classified matches to the lists —
    /// O(matches in the new document). Valid for the tag-derived
    /// catalogs every collection has: the new document occupies the
    /// tail of the position space, so its items append in document
    /// order, and the only existing item that changes is the
    /// mega-root's, whose interval end grows to the new total.
    fn append_document(
        &mut self,
        catalog: &Catalog,
        input: &DocumentSummaryInput,
        offset: u32,
        new_total: u64,
    ) {
        let builtins = builtin_entry_count();
        for (pos, entry) in catalog.iter().enumerate() {
            let list = self.lists.entry(entry.name.clone()).or_default();
            if matches_mega_root(&entry.predicate) {
                if let Some(root_item) = list.first_mut() {
                    if root_item.interval.start == 0 {
                        root_item.interval.end = (new_total - 1) as u32;
                    }
                }
            }
            for iv in &input.entries[builtins + pos].intervals {
                let shifted = Interval::new(iv.start + offset, iv.end + offset);
                list.push(Item::new(shifted, NodeId(shifted.start)));
            }
        }
    }

    /// The sorted interval list for a named predicate.
    pub fn get(&self, name: &str) -> Option<&[Item<NodeId>]> {
        self.lists.get(name).map(Vec::as_slice)
    }

    /// Number of indexed predicates.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether no predicate is indexed.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// The data half of one document shard — retained for collections built
/// from documents so the collection can change without re-parsing; a
/// catalog-opened database has summaries only.
#[derive(Debug)]
struct ShardSource {
    tree: XmlTree,
    input: DocumentSummaryInput,
}

/// One document's shard: its summaries on the shared grid plus (when
/// available) the parsed tree and classified lists.
#[derive(Debug)]
struct DocShard {
    name: String,
    /// Global position offset of the document root in the mega-tree.
    offset: u32,
    summaries: Summaries,
    source: Option<ShardSource>,
}

/// What [`Database::open_store`] recovered: the generation served, the
/// (possibly degraded) open report for it, and any newer generations
/// that had to be skipped as unreadable.
#[derive(Debug, Clone, Default)]
pub struct StoreOpen {
    /// The generation number the database was opened from.
    pub generation: u64,
    /// Per-section damage report for that generation (clean when the
    /// strict open succeeded).
    pub report: OpenReport,
    /// Newer generations skipped because they failed validation, with
    /// reasons — evidence of torn or corrupted saves worth reporting.
    pub skipped: Vec<SkippedGeneration>,
}

/// Outcome of a [`Database::repair`] pass over re-supplied sources.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Documents rebuilt and released from quarantine.
    pub repaired: Vec<String>,
    /// `(document, reason)` for sources that could not repair their
    /// quarantine entry (wrong name, parse failure, node-count drift).
    pub rejected: Vec<(String, String)>,
}

/// A loaded database.
pub struct Database {
    /// The data tree (mega-tree for collections); `None` for databases
    /// opened from a persisted catalog, which serve estimates only.
    tree: Option<XmlTree>,
    catalog: Catalog,
    config: SummaryConfig,
    /// The merged serving view. `Arc`d so a published [`Snapshot`]
    /// shares it with zero copies; mutations install a successor `Arc`
    /// at their commit point, never mutate through this one (the one
    /// in-place writer, [`Database::attach_dtd`], goes through
    /// `Arc::make_mut`, which copies exactly when a snapshot still
    /// holds the previous view).
    summaries: Arc<Summaries>,
    /// Per-document shards (empty for single-document [`Database::load_str`]).
    shards: Vec<DocShard>,
    /// Whether this database was built as a mutable document collection
    /// (sources retained). Stays true when the collection is emptied, so
    /// `remove_document` down to zero then `add_document` works.
    collection: bool,
    index: ElementIndex,
    /// Monotonic version of everything estimates derive from. Bumped by
    /// collection mutations and [`Database::attach_dtd`]; prepared
    /// queries and their memoized plans validate against it.
    epoch: u64,
    /// Prepared-query cache (canonical twig interner + two-tier cache,
    /// CLOCK-bounded string tier) serving [`Database::estimate`],
    /// [`Database::count`] and the planner.
    /// Survives collection mutations — the epoch check re-prepares
    /// entries lazily.
    prepared: PreparedCache,
    /// Grid maintenance: drift accounting over the classified lists and
    /// the stable/moving path counters ([`crate::maintenance`]).
    maintenance: MaintenanceState,
    /// Documents whose shard sections were quarantined by a degraded
    /// catalog open ([`Database::open_catalog_degraded`]): the rest of
    /// the collection serves, these estimate as absent until
    /// [`Database::repair`] rebuilds them from re-supplied sources.
    quarantine: Vec<QuarantinedShard>,
    /// The merge-fold accumulators behind `summaries`
    /// ([`xmlest_core::shard::MergeState`]): lets the stable-append path
    /// extend the merged view by the new shard alone
    /// ([`merge_delta`] — O(new-doc cells)) instead of re-merging every
    /// shard. `None` when the serving view did not come from a stateful
    /// merge over exactly `shards` (monolithic builds, catalog opens,
    /// degraded re-merges); those fall back to the full merge, which
    /// re-establishes the state.
    merge_state: Option<MergeState>,
    /// The wait-free serving cell: every mutation commit publishes an
    /// immutable epoch-stamped [`Snapshot`] here by pointer swap.
    /// Concurrent readers ([`Database::serving`] holders — the
    /// maintenance worker's clients) estimate against the
    /// cell without ever taking a lock; rebuilds commit in place
    /// ([`Database::rebuild`]), so the cell's identity survives them and
    /// a handle captured once stays live for the database's lifetime.
    serving: Arc<SnapshotCell>,
    /// The observability core ([`xmlest_xobs`]): typed metric registry,
    /// per-stage latency histograms, and the structured event journal.
    /// One recorder per database, shared (by handle clone) with every
    /// published snapshot and the prepared cache —
    /// so [`Database::telemetry`] is one coherent view no matter which
    /// entry point did the work. Survives rebuilds like `serving` does.
    obs: Recorder,
    /// Engine counter handles registered in `obs` (estimates, errors,
    /// batches, publishes).
    metrics: Metrics,
}

/// Builds the initial serving cell for a freshly constructed database:
/// epoch-1 snapshot over the just-built summaries, empty frozen twig
/// view (nothing is prepared yet).
fn initial_serving(
    degraded: bool,
    summaries: &Arc<Summaries>,
    obs: &Recorder,
    metrics: &Metrics,
) -> Arc<SnapshotCell> {
    SnapshotCell::initial(Snapshot::new(
        1,
        degraded,
        summaries.clone(),
        Arc::default(),
        obs.clone(),
        metrics.clone(),
    ))
}

/// What a collection rebuild derives from the classified inputs: each
/// document's offset and shard summaries (input order), their merged
/// view and fold state, and the drift tracker anchored to their grid.
struct Derived {
    placed: Vec<(u32, Summaries)>,
    merged: Summaries,
    state: MergeState,
    tracker: DriftTracker,
}

/// The derive step every collection rebuild shares — the cold load, the
/// refresh, an interior removal and an overflowing append: the grid
/// (`pinned`, or re-derived under the config's policy), every shard
/// summary built on it in parallel, their stateful merge, and the drift
/// tracker. It only reads the classified inputs, so a failure leaves
/// the caller's state untouched. The grid derivation is deterministic,
/// so a refresh and a cold load of the same collection agree exactly.
fn derive_collection(
    inputs: &[(&DocumentSummaryInput, u32)],
    catalog: &Catalog,
    config: &SummaryConfig,
    pinned: Option<Grid>,
) -> Result<Derived> {
    #[cfg(test)]
    if test_faults::take_rebuild_failure() {
        return Err(Error::Plan("injected rebuild failure (test)".into()));
    }
    let grid = match pinned {
        Some(g) => g,
        None => make_collection_grid(inputs, catalog, config)?,
    };
    let tracker = DriftTracker::from_inputs(&grid, catalog, inputs);
    // Per-document shard builds fan out across cores.
    let placed: Vec<(u32, Summaries)> = inputs
        .par_iter()
        .map(|&(input, off)| {
            let shard = build_shard_summaries(input, off, &grid, catalog, config);
            (off, shard)
        })
        .collect();
    let refs: Vec<&Summaries> = placed.iter().map(|(_, s)| s).collect();
    let (merged, state) = merge_shards_stateful(&refs, &grid, catalog, config)?;
    Ok(Derived {
        placed,
        merged,
        state,
        tracker,
    })
}

/// Lays documents out contiguously after the mega-root (position 0):
/// each input paired with its global position offset.
fn layout<'a>(
    inputs: impl IntoIterator<Item = &'a DocumentSummaryInput>,
) -> Vec<(&'a DocumentSummaryInput, u32)> {
    let mut offset = 1u32;
    inputs
        .into_iter()
        .map(|input| {
            let at = offset;
            offset += input.node_count;
            (input, at)
        })
        .collect()
}

/// The mega-tree: the stored document trees replayed under one
/// synthetic root (document-order cost, no XML parsing). Exact counting
/// and plan execution read it; estimation never does.
fn mega_tree(docs: &[(&str, &ShardSource)]) -> Result<XmlTree> {
    let mut fb = ForestBuilder::new();
    for &(name, src) in docs {
        fb.add_tree(name, &src.tree)?;
    }
    Ok(fb.finish()?.into_tree())
}

/// How a collection rebuild ([`Database::rebuild`]) changes the
/// document list.
enum Rebuild {
    /// The same documents on a re-derived grid (the equi-depth refresh).
    Refresh,
    /// Drops the document at this index (every removal).
    Remove(usize),
    /// Appends a document (an append the slack cannot hold, or any
    /// append under the static policy).
    Append(String, Box<ShardSource>),
}

impl Database {
    /// Builds a database from an existing tree and catalog (monolithic:
    /// one document, no shards).
    pub fn new(tree: XmlTree, catalog: Catalog, config: &SummaryConfig) -> Result<Database> {
        let summaries = Arc::new(Summaries::build(&tree, &catalog, config)?);
        let index = ElementIndex::build(&tree, &catalog);
        let maintenance = MaintenanceState::new(summaries.grid().g());
        let obs = Recorder::new();
        let metrics = Metrics::register(&obs);
        let serving = initial_serving(false, &summaries, &obs, &metrics);
        Ok(Database {
            tree: Some(tree),
            catalog,
            config: config.clone(),
            summaries,
            shards: Vec::new(),
            collection: false,
            index,
            epoch: 1,
            prepared: PreparedCache::with_recorder(crate::prepared::PREPARED_CACHE_CAP, &obs),
            maintenance,
            quarantine: Vec::new(),
            merge_state: None,
            serving,
            obs,
            metrics,
        })
    }

    /// Parses an XML string, defines one predicate per element tag, and
    /// builds summaries with the given config.
    pub fn load_str(xml: &str, config: &SummaryConfig) -> Result<Database> {
        let tree = parse_str(xml)?;
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        Database::new(tree, catalog, config)
    }

    /// Loads a *collection* of documents, merged into the paper's
    /// mega-tree (Section 3.1): one synthetic root, each document a
    /// child subtree, one numbering space, one histogram set.
    ///
    /// Built **sharded**: each document is parsed and classified once,
    /// per-document summary shards build in parallel on the shared grid,
    /// and the serving view is their exact merge (within 1e-6 of the
    /// monolithic mega-tree build; the shards stay available through
    /// [`Database::shard_summaries`] and make [`Database::add_document`] /
    /// [`Database::remove_document`] incremental).
    pub fn load_documents<'a>(
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
        config: &SummaryConfig,
    ) -> Result<Database> {
        let named: Vec<(&str, &str)> = docs.into_iter().collect();
        // Parse every document in parallel (each into its own tree).
        let parsed: Vec<xmlest_xml::Result<XmlTree>> =
            named.par_iter().map(|&(_, xml)| parse_str(xml)).collect();
        let mut catalog = Catalog::new();
        let mut trees = Vec::with_capacity(parsed.len());
        for tree in parsed {
            let tree = tree?;
            catalog.define_all_tags(&tree);
            trees.push(tree);
        }
        // The synthetic root is part of the mega-tree's tag set.
        catalog.define(
            xmlest_xml::MEGA_ROOT_TAG,
            BasePredicate::Tag(xmlest_xml::MEGA_ROOT_TAG.to_owned()),
        );

        // Classify each document once, in parallel.
        let inputs: Vec<DocumentSummaryInput> = trees
            .par_iter()
            .map(|tree| classify_document(tree, &catalog))
            .collect();

        let sources = named
            .iter()
            .zip(trees.into_iter().zip(inputs))
            .map(|(&(name, _), (tree, input))| (name.to_owned(), ShardSource { tree, input }))
            .collect();
        Database::from_collection(catalog, config.clone(), sources)
    }

    /// Builds a collection database from per-document state: offsets,
    /// the [`derive_collection`] step (grid, shard summaries in
    /// parallel, merged view, drift tracker), the mega-tree (replayed
    /// from the already-parsed document trees — no XML re-parse) and the
    /// element index (concatenated from the classified lists).
    /// Classification is never repeated.
    fn from_collection(
        catalog: Catalog,
        config: SummaryConfig,
        sources: Vec<(String, ShardSource)>,
    ) -> Result<Database> {
        let (derived, tree, index) = {
            let docs: Vec<(&str, &ShardSource)> =
                sources.iter().map(|(n, src)| (n.as_str(), src)).collect();
            let inputs = layout(docs.iter().map(|(_, src)| &src.input));
            let derived = derive_collection(&inputs, &catalog, &config, None)?;
            let index = ElementIndex::build_sharded(&catalog, &inputs);
            (derived, mega_tree(&docs)?, index)
        };
        let shards: Vec<DocShard> = sources
            .into_iter()
            .zip(derived.placed)
            .map(|((name, src), (offset, summaries))| DocShard {
                name,
                offset,
                summaries,
                source: Some(src),
            })
            .collect();
        let summaries = Arc::new(derived.merged);
        let obs = Recorder::new();
        let metrics = Metrics::register(&obs);
        let serving = initial_serving(false, &summaries, &obs, &metrics);
        Ok(Database {
            tree: Some(tree),
            catalog,
            config,
            summaries,
            shards,
            collection: true,
            index,
            epoch: 1,
            prepared: PreparedCache::with_recorder(crate::prepared::PREPARED_CACHE_CAP, &obs),
            maintenance: MaintenanceState::with_tracker(derived.tracker),
            quarantine: Vec::new(),
            merge_state: Some(derived.state),
            serving,
            obs,
            metrics,
        })
    }

    /// Borrows every shard's stored source, in collection order. Fails
    /// with [`Error::ServingOnly`] when any shard lacks one
    /// (catalog-opened or repaired shards): a rebuild has nothing to
    /// rebuild those documents from.
    fn sources(&self) -> Result<Vec<(&str, &ShardSource)>> {
        self.shards
            .iter()
            .map(|s| match &s.source {
                Some(src) => Ok((s.name.as_str(), src)),
                None => Err(Error::ServingOnly(format!(
                    "document {:?} has summaries but no source tree; \
                     rebuilds need every document's source (re-ingest the collection to mutate)",
                    s.name
                ))),
            })
            .collect()
    }

    /// The one collection rebuild, committed in place. Applies `change`
    /// to the borrowed document list, lays the documents out
    /// contiguously, runs the [`derive_collection`] step (on `pinned`,
    /// or a re-derived grid) and — when documents moved — replays the
    /// mega-tree and re-derives the element index from the classified
    /// lists. Only then does it commit: shards take their new offsets
    /// and summaries; the merged view, fold state, drift tracker,
    /// mega-tree and index are replaced. The epoch bumps and the
    /// successor snapshot publishes. The prepared cache, counters,
    /// serving cell and recorder carry over untouched.
    ///
    /// A refresh moves no document, so it keeps the mega-tree and the
    /// element index. A failure returns before the commit and changes
    /// nothing.
    fn rebuild(&mut self, change: Rebuild, pinned: Option<Grid>) -> Result<()> {
        let (derived, data) = {
            let mut docs = self.sources()?;
            match &change {
                Rebuild::Refresh => {}
                Rebuild::Remove(pos) => {
                    docs.remove(*pos);
                }
                Rebuild::Append(name, src) => docs.push((name.as_str(), &**src)),
            }
            let inputs = layout(docs.iter().map(|(_, src)| &src.input));
            let derived = derive_collection(&inputs, &self.catalog, &self.config, pinned)?;
            let data = match change {
                Rebuild::Refresh => None,
                _ => Some((
                    mega_tree(&docs)?,
                    ElementIndex::build_sharded(&self.catalog, &inputs),
                )),
            };
            (derived, data)
        };

        // Commit — nothing below can fail.
        let mut owned: Vec<(String, Option<ShardSource>)> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| (s.name, s.source))
            .collect();
        match change {
            Rebuild::Refresh => {}
            Rebuild::Remove(pos) => {
                owned.remove(pos);
            }
            Rebuild::Append(name, src) => owned.push((name, Some(*src))),
        }
        self.shards = owned
            .into_iter()
            .zip(derived.placed)
            .map(|((name, source), (offset, summaries))| DocShard {
                name,
                offset,
                summaries,
                source,
            })
            .collect();
        if let Some((tree, index)) = data {
            self.tree = Some(tree);
            self.index = index;
        }
        self.summaries = Arc::new(derived.merged);
        self.merge_state = Some(derived.state);
        self.maintenance.tracker = derived.tracker;
        self.epoch += 1;
        self.publish_snapshot();
        Ok(())
    }

    /// Adds a document to the collection. Parses and classifies only the
    /// new document; what happens next depends on the grid policy
    /// ([`crate::maintenance`]):
    ///
    /// * **Stable append** (slack policy, document fits in the slack):
    ///   the new document's shard builds on the *existing* grid, every
    ///   existing shard summary is reused verbatim (zero re-bucketing),
    ///   the merged view extends by the new shard alone ([`merge_delta`])
    ///   and the mega-tree and element index extend in place — O(new
    ///   document). The drift tracker ingests the document and, under an
    ///   auto-refresh policy, a threshold crossing triggers an
    ///   equi-depth refresh before returning.
    /// * **Moving append** (static policy, or the document overflows the
    ///   slack): the collection rebuild re-derives the grid under the
    ///   policy and rebuilds every shard from its stored classified
    ///   lists (never re-parsed, never re-classified); the drift tracker
    ///   is rebuilt with the grid, so drift restarts at zero.
    ///
    /// Removing the document later rebuilds the collection like any
    /// other removal ([`Database::remove_document`]).
    ///
    /// Only databases built with [`Database::load_documents`] support
    /// this; single-document and catalog-opened databases return
    /// [`Error::NoData`].
    pub fn add_document(&mut self, name: impl Into<String>, xml: &str) -> Result<()> {
        self.require_collection()?;
        let doc_tree = parse_str(xml)?;

        // New tags extend the catalog; stored classifications realign by
        // entry name (a tag absent from a document's interner matches
        // nothing there, so inserted entries are exactly empty).
        let old_names = entry_names(&self.catalog);
        self.catalog.define_all_tags(&doc_tree);
        let new_names = entry_names(&self.catalog);
        if old_names != new_names {
            // Check every source *before* realigning any shard: a
            // partial realignment would leave some stored lists on the
            // old entry order against the already-extended catalog.
            if let Some(unsourced) = self.shards.iter().find(|s| s.source.is_none()) {
                return Err(Error::ServingOnly(format!(
                    "document {:?} has no stored source to realign to the extended catalog",
                    unsourced.name
                )));
            }
            let index_of: HashMap<&str, usize> = old_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            for shard in &mut self.shards {
                #[expect(
                    clippy::expect_used,
                    reason = "loop above returned ServingOnly for any unsourced shard"
                )]
                let src = shard.source.as_mut().expect("sources checked above");
                let mut realigned = Vec::with_capacity(new_names.len());
                for n in &new_names {
                    realigned.push(match index_of.get(n.as_str()) {
                        Some(&i) => std::mem::take(&mut src.input.entries[i]),
                        None => Default::default(),
                    });
                }
                src.input.entries = realigned;
            }
        }

        let input = classify_document(&doc_tree, &self.catalog);

        // Stable-append path: reuse the grid and every existing shard.
        let occupied = self.summaries.tree_nodes();
        let capacity = self.summaries.grid().max_pos() as u64 + 1;
        let fits = occupied + input.node_count as u64 <= capacity;
        if self.config.policy.is_slack() {
            if fits {
                self.append_within_slack(name.into(), doc_tree, input)?;
                self.auto_refresh_if_needed();
                return Ok(());
            }
            self.maintenance.counters.overflow_appends += 1;
        }

        // Moving path: rebuild on a re-derived grid. A failure changes
        // nothing but the catalog, which may retain the new document's
        // tags — they summarize as unknown until a successful add
        // defines them.
        let doc = Box::new(ShardSource {
            tree: doc_tree,
            input,
        });
        self.rebuild(Rebuild::Append(name.into(), doc), None)?;
        self.maintenance.counters.grid_moves += 1;
        Ok(())
    }

    /// The stable-append commit: build the new document's shard on the
    /// existing grid, extend the merged view by that shard alone
    /// ([`merge_delta`] resuming the carried [`MergeState`] —
    /// O(new-doc cells), bit-identical to re-merging every shard), and
    /// extend the mega-tree and element index in place, ingest drift.
    /// A database without a carried state (e.g. freshly repaired) takes
    /// the full stateful merge once, which re-establishes it.
    /// All fallible work happens before the first mutation.
    fn append_within_slack(
        &mut self,
        name: String,
        doc_tree: XmlTree,
        input: DocumentSummaryInput,
    ) -> Result<()> {
        let grid = self.summaries.grid().clone();
        let offset = self.summaries.tree_nodes() as u32;
        let new_shard = build_shard_summaries(&input, offset, &grid, &self.catalog, &self.config);
        let (merged, merge_state) = match &self.merge_state {
            Some(state) => merge_delta(
                &self.summaries,
                state,
                &new_shard,
                &grid,
                &self.catalog,
                &self.config,
            )?,
            None => {
                let mut refs: Vec<&Summaries> = self.shards.iter().map(|s| &s.summaries).collect();
                refs.push(&new_shard);
                merge_shards_stateful(&refs, &grid, &self.catalog, &self.config)?
            }
        };
        let Some(tree) = self.tree.as_mut() else {
            return Err(Error::ServingOnly(
                "database has no data tree to append to".into(),
            ));
        };
        // Commit — nothing below can fail.
        let new_total = offset as u64 + input.node_count as u64;
        tree.append_document_subtree(&doc_tree);
        self.index
            .append_document(&self.catalog, &input, offset, new_total);
        self.maintenance
            .tracker
            .ingest_document(&grid, &self.catalog, &input, offset);
        self.maintenance.counters.stable_appends += 1;
        self.summaries = Arc::new(merged);
        self.merge_state = Some(merge_state);
        self.shards.push(DocShard {
            name,
            offset,
            summaries: new_shard,
            source: Some(ShardSource {
                tree: doc_tree,
                input,
            }),
        });
        self.epoch += 1;
        self.publish_snapshot();
        Ok(())
    }

    /// Removes a document by name through the collection rebuild, at any
    /// position in the collection: the remaining documents' positions
    /// compact, their shards re-bucket from the stored classified lists,
    /// and the mega-tree and element index replay. Under the slack
    /// policy the grid never moves — the rebuild runs on the **pinned**
    /// grid and drift accounting carries forward; under the static
    /// policy the grid re-derives as well. Nothing is re-parsed or
    /// re-classified; the catalog keeps its predicate definitions, and
    /// tags now matching nothing summarize as empty. A failed removal
    /// changes nothing.
    pub fn remove_document(&mut self, name: &str) -> Result<()> {
        self.require_collection()?;
        let Some(pos) = self.shards.iter().position(|s| s.name == name) else {
            return Err(Error::NoData(format!("no document named {name:?}")));
        };
        let pinned = self
            .config
            .policy
            .is_slack()
            .then(|| self.summaries.grid().clone());
        if pinned.is_none() {
            self.rebuild(Rebuild::Remove(pos), None)?;
            self.maintenance.counters.grid_moves += 1;
            return Ok(());
        }
        // Pinned grid: the boundaries do not move, so the baseline
        // recorded at the last derivation (and the mutation count) stay
        // in force.
        let baseline = self.maintenance.tracker.baseline();
        let mutations = self.maintenance.tracker.mutations();
        self.rebuild(Rebuild::Remove(pos), pinned)?;
        self.maintenance
            .tracker
            .restore_continuity(baseline, mutations);
        self.maintenance.counters.pinned_rebuilds += 1;
        self.auto_refresh_if_needed();
        Ok(())
    }

    /// Re-derives the grid from the stored classified interval lists —
    /// equi-depth boundaries when the config says so, slack padding per
    /// the policy — re-buckets every shard summary on it in parallel and
    /// re-merges, through the same [`derive_collection`] step a cold load
    /// runs ([`Database::rebuild`]), then commits in place. No document
    /// moves, so offsets, the mega-tree and the element index stay as
    /// they are. **Zero tree traversal, no re-parsing, no
    /// re-classification.** The epoch bumps, so every cached prepared
    /// query (and memoized plan) re-prepares lazily; the grid derivation
    /// is deterministic, so the refreshed database estimates
    /// bit-identically to one built cold on the same collection. A
    /// failed refresh changes nothing.
    ///
    /// Fires automatically when drift crosses the policy threshold
    /// (under [`xmlest_core::GridPolicy::Slack`] with `auto_refresh`);
    /// this is the manual entry point.
    pub fn refresh_grid(&mut self) -> Result<()> {
        self.require_collection()?;
        let drift = self.maintenance.tracker.drift();
        self.refresh_inner(false, drift)
    }

    /// Fires a refresh when the policy says drift warrants one; called
    /// at the end of every successful mutation.
    ///
    /// Never fails: by the time this runs the hosting mutation has
    /// committed, so returning its error would break the mutation's
    /// atomic-failure contract (a caller retrying the "failed" add
    /// would insert the document twice). A refresh that cannot rebuild
    /// changes nothing (the database keeps serving consistently on the
    /// old grid, drift stays high) and is surfaced through the
    /// `failed_auto_refreshes` counter; the next mutation — or a manual
    /// [`Database::refresh_grid`], which does report errors — retries.
    ///
    /// Retries are **bounded**: consecutive failures open an exponential
    /// backoff window (`2^min(strikes−1, 6)` mutations), so a persistent
    /// rebuild problem does not charge every mutation an O(collection)
    /// doomed attempt. After [`DEGRADED_AFTER_STRIKES`] consecutive
    /// failures the visible [`MaintenanceStats::refresh_degraded`] flag
    /// raises; any successful refresh (auto or manual) clears the
    /// strikes, the window and the flag.
    fn auto_refresh_if_needed(&mut self) {
        if !self.config.policy.auto_refresh() {
            return;
        }
        let Some(threshold) = self.config.policy.drift_threshold() else {
            return;
        };
        self.maintenance.counters.mutation_clock += 1;
        let drift = self.maintenance.tracker.drift();
        if drift <= threshold {
            return;
        }
        if self.maintenance.counters.mutation_clock
            < self.maintenance.counters.refresh_backoff_until
        {
            self.maintenance.counters.backoff_skips += 1;
            self.obs.event(
                EventKind::BackoffSkip,
                self.epoch,
                self.maintenance.counters.mutation_clock,
                self.maintenance.counters.refresh_backoff_until,
            );
            return;
        }
        if self.refresh_inner(true, drift).is_err() {
            let c = &mut self.maintenance.counters;
            c.failed_auto_refreshes += 1;
            c.refresh_strikes += 1;
            c.refresh_backoff_until =
                c.mutation_clock + (1u64 << (c.refresh_strikes - 1).min(MAX_BACKOFF_SHIFT));
            let entered_degraded =
                !c.refresh_degraded && c.refresh_strikes >= DEGRADED_AFTER_STRIKES;
            if c.refresh_strikes >= DEGRADED_AFTER_STRIKES {
                c.refresh_degraded = true;
            }
            let strikes = c.refresh_strikes as u64;
            let window = c.refresh_backoff_until - c.mutation_clock;
            self.obs
                .event(EventKind::RefreshStrike, self.epoch, strikes, window);
            if entered_degraded {
                self.obs
                    .event(EventKind::DegradedEnter, self.epoch, strikes, 0);
            }
        }
    }

    fn refresh_inner(&mut self, auto: bool, drift_at: f64) -> Result<()> {
        // Clone the handle so the span doesn't hold a borrow of `self`
        // across the mutating refresh below.
        let obs = self.obs.clone();
        let _span = obs.span(Stage::Refresh);
        self.rebuild(Rebuild::Refresh, None)?;
        let c = &mut self.maintenance.counters;
        c.refreshes += 1;
        c.grid_moves += 1;
        if auto {
            c.auto_refreshes += 1;
        }
        c.last_refresh_drift = drift_at;
        // A successful refresh ends any losing streak.
        c.refresh_strikes = 0;
        c.refresh_backoff_until = 0;
        let was_degraded = std::mem::take(&mut c.refresh_degraded);
        self.obs.event(
            EventKind::Refresh,
            self.epoch,
            self.shards.len() as u64,
            (drift_at * 1e6).max(0.0) as u64,
        );
        if was_degraded {
            self.obs.event(EventKind::DegradedExit, self.epoch, 0, 0);
        }
        Ok(())
    }

    /// Snapshot of the grid maintenance layer: policy, capacity and
    /// occupancy, drift against the threshold, and per-path counters
    /// (read it as [`Telemetry::maintenance`]).
    fn maintenance_stats(&self) -> MaintenanceStats {
        let c = self.maintenance.counters;
        let t = &self.maintenance.tracker;
        MaintenanceStats {
            policy: self.config.policy,
            grid_capacity: self.summaries.grid().max_pos() as u64 + 1,
            occupied: self.summaries.tree_nodes(),
            skew: t.skew(),
            baseline_skew: t.baseline(),
            drift: t.drift(),
            drift_threshold: self.config.policy.drift_threshold(),
            mutations_since_derive: t.mutations(),
            stable_appends: c.stable_appends,
            grid_moves: c.grid_moves,
            pinned_rebuilds: c.pinned_rebuilds,
            overflow_appends: c.overflow_appends,
            refreshes: c.refreshes,
            auto_refreshes: c.auto_refreshes,
            failed_auto_refreshes: c.failed_auto_refreshes,
            last_refresh_drift: c.last_refresh_drift,
            refresh_strikes: c.refresh_strikes,
            backoff_skips: c.backoff_skips,
            refresh_degraded: c.refresh_degraded,
        }
    }

    fn require_collection(&self) -> Result<()> {
        if !self.collection {
            return Err(if self.has_data() {
                Error::NoData("not a document collection (built with load_str/new)".into())
            } else {
                // Catalog-opened: summaries serve, but there are no
                // document trees to rebuild from.
                Error::ServingOnly(
                    "catalog-opened database serves estimates only; \
                     mutations and refreshes need document sources"
                        .into(),
                )
            });
        }
        Ok(())
    }

    // ---- persistence -------------------------------------------------

    /// Serializes everything estimation reads — config and grid policy,
    /// predicate catalog, the merged summaries and every per-document
    /// shard — into a versioned, checksummed catalog blob.
    /// [`Database::open_catalog`] restores a serving-ready database from
    /// it with zero tree traversal and byte-identical estimates.
    ///
    /// The optional DTD analysis is **not** persisted (it is derivable
    /// from the schema). A database built with a DTD config therefore
    /// reopens without its schema shortcuts until the same analysis is
    /// re-attached with [`Database::attach_dtd`] — only then are its
    /// estimates byte-identical again.
    pub fn save_catalog(&self) -> Vec<u8> {
        let mut config = self.config.clone();
        config.dtd = None;
        CatalogFile {
            config,
            catalog: self.catalog.clone(),
            merged: (*self.summaries).clone(),
            shards: self
                .shards
                .iter()
                .map(|s| CatalogShard {
                    name: s.name.clone(),
                    offset: s.offset,
                    summaries: s.summaries.clone(),
                })
                .collect(),
            policy: self.config.policy,
        }
        .to_bytes()
    }

    /// Opens a database from catalog bytes: summaries and shards
    /// deserialize directly — **zero tree
    /// traversal**, no parsing of any document. The result serves
    /// estimates (including batched snapshot estimation) byte-identically
    /// to the database that was saved — for DTD-configured builds only
    /// after [`Database::attach_dtd`] restores the (never-persisted)
    /// analysis. Exact counting, candidate lists and plan execution
    /// need the data tree and return [`Error::NoData`].
    pub fn open_catalog(bytes: &[u8]) -> Result<Database> {
        let file = CatalogFile::from_bytes(bytes)?;
        Ok(Database::from_catalog_file(file, Vec::new()))
    }

    /// Opens catalog bytes **leniently**: localized corruption (a torn
    /// shard section) quarantines just the affected parts while every
    /// intact document
    /// keeps serving. The returned [`OpenReport`] lists what was
    /// quarantined or dropped; [`Database::repair`] rebuilds quarantined
    /// documents from re-supplied sources. Clean bytes yield a clean
    /// report and the exact [`Database::open_catalog`] result.
    ///
    /// Fatal damage — a corrupt header, metadata section, or a corrupt
    /// merged view with no shards to rebuild it from — still errors:
    /// there is nothing trustworthy to serve.
    pub fn open_catalog_degraded(bytes: &[u8]) -> Result<(Database, OpenReport)> {
        let (file, report) = CatalogFile::open_lenient(bytes)?;
        let db = Database::from_catalog_file(file, report.quarantined.clone());
        Ok((db, report))
    }

    /// The shared serving-only constructor behind the catalog opens. It
    /// rejects every mutation and refresh, so its drift tracker starts
    /// empty.
    fn from_catalog_file(file: CatalogFile, quarantine: Vec<QuarantinedShard>) -> Database {
        let maintenance = MaintenanceState::new(file.merged.grid().g());
        let summaries = Arc::new(file.merged);
        let obs = Recorder::new();
        let metrics = Metrics::register(&obs);
        let serving = initial_serving(!quarantine.is_empty(), &summaries, &obs, &metrics);
        let db = Database {
            tree: None,
            catalog: file.catalog,
            config: file.config,
            summaries,
            shards: file
                .shards
                .into_iter()
                .map(|s| DocShard {
                    name: s.name,
                    offset: s.offset,
                    summaries: s.summaries,
                    source: None,
                })
                .collect(),
            collection: false,
            index: ElementIndex::default(),
            epoch: 1,
            prepared: PreparedCache::with_recorder(crate::prepared::PREPARED_CACHE_CAP, &obs),
            maintenance,
            quarantine,
            merge_state: None,
            serving,
            obs,
            metrics,
        };
        for (ordinal, _) in db.quarantine.iter().enumerate() {
            db.obs
                .event(EventKind::ShardQuarantine, db.epoch, ordinal as u64, 0);
        }
        db
    }

    /// Saves this database's catalog into a generation-managed
    /// [`CatalogStore`] (atomic publish: temp file, fsync, rename,
    /// directory fsync). Returns the committed generation number.
    pub fn save_to_store(&self, store: &CatalogStore<'_>) -> Result<u64> {
        Ok(store.save(&self.save_catalog())?)
    }

    /// Opens the newest usable generation from a [`CatalogStore`].
    ///
    /// Recovery ladder, strictest first:
    /// 1. the newest generation that passes a **strict** open (every
    ///    checksum verified) — the normal case after any crash, since
    ///    the store publishes generations atomically;
    /// 2. failing that, the newest generation that opens **degraded**
    ///    (quarantining damaged shard sections);
    /// 3. failing everything, the strict error from the newest
    ///    generation.
    ///
    /// The [`StoreOpen`] report says which generation was used, what (if
    /// anything) was quarantined, and which newer generations were
    /// skipped as unreadable.
    pub fn open_store(store: &CatalogStore<'_>) -> Result<(Database, StoreOpen)> {
        match store.load_latest_valid(CatalogFile::from_bytes) {
            Ok(Some((generation, file, skipped))) => {
                let db = Database::from_catalog_file(file, Vec::new());
                Ok((
                    db,
                    StoreOpen {
                        generation,
                        report: OpenReport::default(),
                        skipped,
                    },
                ))
            }
            Ok(None) => Err(Error::NoData("store has no catalog generations".into())),
            Err(strict_err) => {
                // No generation opens strictly: fall back to the newest
                // one that opens degraded.
                let mut generations = store.generations()?;
                generations.reverse();
                let mut skipped = Vec::new();
                for generation in generations {
                    let bytes = match store.read_generation(generation) {
                        Ok(b) => b,
                        Err(e) => {
                            skipped.push(SkippedGeneration {
                                generation,
                                reason: e.to_string(),
                            });
                            continue;
                        }
                    };
                    match Database::open_catalog_degraded(&bytes) {
                        Ok((db, report)) => {
                            return Ok((
                                db,
                                StoreOpen {
                                    generation,
                                    report,
                                    skipped,
                                },
                            ))
                        }
                        Err(e) => skipped.push(SkippedGeneration {
                            generation,
                            reason: e.to_string(),
                        }),
                    }
                }
                Err(Error::Core(strict_err))
            }
        }
    }

    /// Rebuilds quarantined documents' shard summaries from re-supplied
    /// sources, restoring estimates a degraded open lost. Each source is
    /// parsed, classified against the current catalog, and must produce
    /// exactly the node count the metadata directory recorded for its
    /// position — the re-merged view must keep every surviving shard's
    /// offsets intact. Accepted documents leave quarantine and the
    /// merged view re-derives (epoch bump: prepared queries re-prepare);
    /// rejected ones stay quarantined with the rejection reason.
    ///
    /// The database remains serving-only: repaired shards carry
    /// summaries but no mutation sources — re-ingest the collection with
    /// [`Database::load_documents`] for a mutable database.
    pub fn repair<'a>(
        &mut self,
        sources: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<RepairReport> {
        let mut report = RepairReport::default();
        let mut changed = false;
        for (name, xml) in sources {
            let Some(q_idx) = self.quarantine.iter().position(|q| q.name == name) else {
                report
                    .rejected
                    .push((name.to_owned(), "document is not quarantined".into()));
                continue;
            };
            let entry = &self.quarantine[q_idx];
            let doc_tree = match parse_str(xml) {
                Ok(t) => t,
                Err(e) => {
                    let reason = format!("parse failed: {e}");
                    report.rejected.push((name.to_owned(), reason.clone()));
                    self.quarantine[q_idx].reason = reason;
                    continue;
                }
            };
            let input = classify_document(&doc_tree, &self.catalog);
            if input.node_count != entry.node_count {
                let reason = format!(
                    "node count mismatch: catalog recorded {}, supplied document has {}",
                    entry.node_count, input.node_count
                );
                report.rejected.push((name.to_owned(), reason.clone()));
                self.quarantine[q_idx].reason = reason;
                continue;
            }
            let offset = entry.offset;
            let shard = build_shard_summaries(
                &input,
                offset,
                self.summaries.grid(),
                &self.catalog,
                &self.config,
            );
            let at = self
                .shards
                .iter()
                .position(|s| s.offset > offset)
                .unwrap_or(self.shards.len());
            self.shards.insert(
                at,
                DocShard {
                    name: name.to_owned(),
                    offset,
                    summaries: shard,
                    source: None,
                },
            );
            self.quarantine.remove(q_idx);
            report.repaired.push(name.to_owned());
            changed = true;
        }
        if changed {
            // Re-merge on the same grid, preserving the saved total so
            // still-quarantined holes keep their position space.
            let grid = self.summaries.grid().clone();
            let refs: Vec<&Summaries> = self.shards.iter().map(|s| &s.summaries).collect();
            self.summaries = Arc::new(xmlest_core::shard::merge_shards_with_total(
                &refs,
                &grid,
                &self.catalog,
                &self.config,
                self.summaries.tree_nodes(),
            )?);
            // The override total makes this merge's fold state unusable
            // for a delta resume (the root interval is pinned, not
            // derived); the next stable append re-merges fully once.
            self.merge_state = None;
            self.epoch += 1;
            self.publish_snapshot();
        }
        Ok(report)
    }

    /// Documents quarantined by a degraded open, still awaiting
    /// [`Database::repair`].
    pub fn quarantined(&self) -> &[QuarantinedShard] {
        &self.quarantine
    }

    /// Whether this database is serving with quarantined documents.
    pub fn is_degraded(&self) -> bool {
        !self.quarantine.is_empty()
    }

    // ---- accessors ---------------------------------------------------

    /// The data tree. Panics for catalog-opened databases — use
    /// [`Database::try_tree`] when the database may be serving-only.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking accessor; try_tree is the fallible form"
    )]
    pub fn tree(&self) -> &XmlTree {
        self.try_tree()
            .expect("catalog-opened database has no data tree (serving-only)")
    }

    /// The data tree, if this database has one.
    pub fn try_tree(&self) -> Option<&XmlTree> {
        self.tree.as_ref()
    }

    /// Whether the database carries the data tree (false after
    /// [`Database::open_catalog`]).
    pub fn has_data(&self) -> bool {
        self.tree.is_some()
    }

    /// The predicate catalog the summaries were built against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The build configuration (DTD analysis included only for databases
    /// built in-process or re-attached after a catalog open).
    pub fn config(&self) -> &SummaryConfig {
        &self.config
    }

    /// Re-attaches a DTD analysis to the merged view and every shard —
    /// the one derived structure the catalog format does not persist.
    /// Schema shortcuts resume immediately; attaching the same analysis
    /// the summaries were built with restores a DTD-configured
    /// database's estimates exactly (overlap properties were baked in
    /// at build time and round-trip on their own).
    pub fn attach_dtd(&mut self, dtd: xmlest_xml::dtd::DtdAnalysis) {
        self.config.dtd = Some(dtd.clone());
        // Copy-on-write: a live snapshot holding the old merged view is
        // never mutated under a concurrent reader.
        Arc::make_mut(&mut self.summaries).attach_dtd(dtd.clone());
        for shard in &mut self.shards {
            shard.summaries.attach_dtd(dtd.clone());
        }
        // Schema shortcuts change estimates (and therefore plan costs)
        // in place: invalidate prepared state. The in-place overlap
        // rewrite also invalidates the carried merge-fold state (its
        // coverage accumulators were folded under the old flags), so the
        // next stable append re-merges fully once.
        self.merge_state = None;
        self.epoch += 1;
        self.publish_snapshot();
    }

    /// The merged summary structure serving estimates.
    pub fn summaries(&self) -> &Summaries {
        &self.summaries
    }

    /// Document names in collection order (empty for single-document
    /// databases).
    pub fn document_names(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.name.as_str()).collect()
    }

    /// A document's own summary shard (same grid as the merged view), if
    /// this database is a collection and the document exists.
    pub fn shard_summaries(&self, name: &str) -> Option<&Summaries> {
        self.shards
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.summaries)
    }

    // ---- wait-free serving -------------------------------------------

    /// Publishes the current serving state as a fresh epoch-stamped
    /// [`Snapshot`]. Called at every mutation commit point (after the
    /// epoch bump); under `--features strict-invariants` the publish
    /// re-validates the summaries and epoch monotonicity.
    fn publish_snapshot(&self) {
        let twigs = self.prepared.frozen_twigs();
        let degraded = self.is_degraded();
        self.obs.event(
            EventKind::SnapshotPublish,
            self.epoch,
            twigs.len() as u64,
            degraded as u64,
        );
        if self.obs.enabled() {
            self.metrics.publishes.inc();
        }
        self.serving.publish(Snapshot::new(
            self.epoch,
            degraded,
            self.summaries.clone(),
            twigs,
            self.obs.clone(),
            self.metrics.clone(),
        ));
    }

    /// The shared serving cell. Readers (other threads) hold this `Arc`
    /// and load wait-free snapshots from it; the cell's
    /// identity is stable across every mutation, refresh and rebuild of
    /// this database.
    pub fn serving(&self) -> Arc<SnapshotCell> {
        self.serving.clone()
    }

    /// The current serving snapshot — one lock-free pointer load.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.serving.current()
    }

    /// The current epoch: a monotonic version of everything estimates
    /// derive from, bumped by collection mutations and
    /// [`Database::attach_dtd`]. Prepared queries and memoized plans
    /// carry the epoch they were derived under and are re-prepared on
    /// mismatch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    // ---- observability -----------------------------------------------

    /// The database's observability recorder: the typed metric
    /// registry, stage histograms and event journal every layer of this
    /// database records into. Shared by handle with published
    /// snapshots; use it to toggle recording
    /// ([`Recorder::set_enabled`]) or take a raw [`xmlest_xobs`]
    /// snapshot.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// One coherent observability snapshot: epoch, degradation and
    /// quarantine state, the prepared-cache and grid-maintenance
    /// sections, every registered counter, per-stage latency quantiles,
    /// and the recent event journal. See [`Telemetry`] for the reset
    /// contract and the exporters.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::gather(
            &self.obs,
            self.epoch,
            self.is_degraded(),
            self.quarantine.len(),
            self.prepared.stats(),
            self.maintenance_stats(),
        )
    }

    /// The element index used by exact counting and plan execution.
    pub fn index(&self) -> &ElementIndex {
        &self.index
    }

    // ---- prepared queries --------------------------------------------

    /// Resolves a query string to its prepared form: parse →
    /// canonicalize → intern → resolve leaves, cached across calls. A
    /// warm hit (same or equivalent spelling, same epoch) is a map probe
    /// and an `Arc` clone — no parsing, no allocation.
    pub fn prepare(&self, path: &str) -> Result<Arc<PreparedQuery>> {
        self.prepared.get_or_prepare_path(
            path,
            self.epoch,
            || Ok(parse_path(path)?.canonicalize()),
            &|id, twig| self.resolve_prepared(id, twig),
        )
    }

    /// [`Database::prepare`] for a pre-built pattern. Canonicalizes, so
    /// equivalent patterns (and their string spellings) share one entry.
    pub fn prepare_twig(&self, twig: &TwigNode) -> Result<Arc<PreparedQuery>> {
        self.prepared
            .get_or_prepare_twig(twig, self.epoch, &|id, t| self.resolve_prepared(id, t))
    }

    /// An epoch-valid view of a prepared entry: the entry itself when
    /// current, otherwise the transparently re-prepared replacement
    /// (callers may hold entries across collection mutations; a stale
    /// one is never served). An entry issued by a *different* database
    /// is re-prepared here from its twig — its [`TwigId`] is meaningful
    /// only inside the cache that issued it, so trusting it would risk
    /// returning another query's state.
    pub fn refresh_prepared(&self, entry: &Arc<PreparedQuery>) -> Result<Arc<PreparedQuery>> {
        if !entry.issued_by(&self.prepared) {
            return self.prepare_twig(entry.twig());
        }
        if entry.epoch() == self.epoch {
            return Ok(entry.clone());
        }
        self.prepared
            .get_fresh_by_id(entry.id(), entry.twig(), self.epoch, &|id, t| {
                self.resolve_prepared(id, t)
            })
    }

    /// Builds one entry's prepared state: every pattern-node predicate
    /// resolved against the current summaries (validating names — a
    /// prepared query cannot fail estimation on an unknown predicate).
    fn resolve_prepared(&self, id: TwigId, twig: &Arc<TwigNode>) -> Result<PreparedQuery> {
        let est = self.summaries.estimator();
        let preds = twig.predicates();
        let mut leaves = Vec::with_capacity(preds.len());
        for pred in preds {
            leaves.push(LeafResolution {
                pred: pred.to_string(),
                count: est.node_total(pred)?,
            });
        }
        Ok(PreparedQuery::new(id, twig.clone(), self.epoch, leaves))
    }

    /// A planner over this database: prepared-query resolution plus
    /// epoch-memoized cheapest plans ([`crate::planner::Planner`]).
    pub fn planner(&self) -> crate::planner::Planner<'_> {
        crate::planner::Planner::new(self)
    }

    // ---- queries -----------------------------------------------------

    /// Candidate list for a pattern-node predicate. Named predicates
    /// **borrow** their index list (no clone — the satellite fix for the
    /// old `to_vec` here); other expressions are evaluated on the fly
    /// into an owned list.
    pub fn candidates(&self, pred: &PredExpr) -> Result<Cow<'_, [Item<NodeId>]>> {
        if let PredExpr::Named(name) = pred {
            return self
                .index
                .get(name)
                .map(Cow::Borrowed)
                .ok_or_else(|| match self.tree {
                    Some(_) => xmlest_query::Error::UnknownPredicate(name.clone()).into(),
                    None => Error::NoData("catalog-opened database has no element index".into()),
                });
        }
        let Some(tree) = self.tree.as_ref() else {
            return Err(Error::NoData(
                "catalog-opened database has no data tree".into(),
            ));
        };
        let mut out = Vec::new();
        for node in tree.iter() {
            match pred.eval(&self.catalog, tree, node) {
                Some(true) => out.push(Item::new(tree.interval(node), node)),
                Some(false) => {}
                None => {
                    let missing = pred
                        .referenced_names()
                        .into_iter()
                        .find(|n| !self.catalog.contains(n))
                        .unwrap_or("<unknown>")
                        .to_owned();
                    return Err(Error::Query(xmlest_query::Error::UnknownPredicate(missing)));
                }
            }
        }
        Ok(Cow::Owned(out))
    }

    /// Parses and exactly answers a path query (count of matches).
    /// Requires the data tree. Consumes the prepared form — sibling
    /// order is irrelevant to match semantics, so the canonical twig
    /// counts exactly what the original spelling does.
    pub fn count(&self, path: &str) -> Result<u64> {
        let Some(tree) = self.tree.as_ref() else {
            return Err(Error::NoData(
                "exact counting needs the data tree; this database was opened from a catalog"
                    .into(),
            ));
        };
        let prepared = self.prepare(path)?;
        Ok(count_matches(tree, &self.catalog, prepared.twig())?)
    }

    /// Parses and estimates a path query. Repeated (or canonically
    /// equivalent) query strings skip the parser via the shared
    /// prepared-query cache; the estimate itself runs on the current
    /// [`Snapshot`] (thread-local workspace, counted in
    /// `xmlest_estimates_total`) and always on the canonical twig, so
    /// equivalent spellings return bit-identical values. A warm hit
    /// allocates nothing.
    pub fn estimate(&self, path: &str) -> Result<Estimate> {
        let snapshot = self.snapshot();
        let prepared = self.prepare(path).inspect_err(|_| snapshot.note(false))?;
        snapshot.estimate_twig(prepared.twig())
    }

    /// Estimates an already prepared query (refreshing it first if it
    /// was prepared under an older epoch) on the current [`Snapshot`].
    pub fn estimate_prepared(&self, prepared: &Arc<PreparedQuery>) -> Result<Estimate> {
        let snapshot = self.snapshot();
        let fresh = self
            .refresh_prepared(prepared)
            .inspect_err(|_| snapshot.note(false))?;
        snapshot.estimate_twig(fresh.twig())
    }

    /// Estimates `path` stage by stage and reports the full provenance:
    /// the estimate, the resolved [`TwigId`] and epoch, how the query
    /// met the prepared cache (probed *before* this call touches it),
    /// the chosen plan, the kernel each twig edge ran on, and per-stage
    /// wall-clock timings. The estimate is bit-identical to
    /// [`Database::estimate`] — tracing adds reporting, never different
    /// math. Stage timings read 0 when the recorder is disabled (and
    /// parse/canonicalize read 0 on a warm cache hit, where those stages
    /// genuinely never ran).
    pub fn estimate_traced(&self, path: &str) -> Result<TraceReport> {
        let obs = &self.obs;
        let snapshot = self.snapshot();
        let cache_tier = self.prepared.classify_path(path, self.epoch);
        let mut clock = obs.stage_clock();
        let (parse_ns, canonicalize_ns, prepared) = match cache_tier {
            CacheTier::Miss => {
                // Time the parse and canonicalize stages explicitly,
                // then hand the finished twig to the cache so the work
                // isn't paid twice (and the path still warms tier 1).
                let parsed = parse_path(path)?;
                let parse_ns = clock.lap(obs, Stage::Parse);
                let canonical = parsed.canonicalize();
                let canonicalize_ns = clock.lap(obs, Stage::Canonicalize);
                let prepared = self.prepared.get_or_prepare_path(
                    path,
                    self.epoch,
                    move || Ok(canonical),
                    &|id, twig| self.resolve_prepared(id, twig),
                )?;
                (parse_ns, canonicalize_ns, prepared)
            }
            // Warm or stale: the cache path never parses (stale entries
            // re-resolve from their interned twig), so those stages
            // honestly read 0.
            CacheTier::PathHit | CacheTier::Stale => (0, 0, self.prepare(path)?),
        };
        let prepare_ns = clock.lap(obs, Stage::Prepare);

        // Single-node patterns have no join order to choose; everything
        // else gets the memoized cheapest plan (plan_ns is ~0 when the
        // plan was already memoized for this twig + epoch).
        let plan = if prepared.twig().children.is_empty() {
            None
        } else {
            Some(self.planner().best_plan(&prepared)?)
        };
        let plan_ns = clock.lap(obs, Stage::Plan);

        let res = snapshot.estimate_twig(prepared.twig());
        let kernel_ns = clock.lap(obs, Stage::Kernel);
        let estimate = res?;

        Ok(TraceReport {
            estimate,
            twig_id: prepared.id(),
            epoch: snapshot.epoch(),
            cache_tier,
            plan,
            edges: edge_kernels(prepared.twig(), snapshot.summaries()),
            parse_ns,
            canonicalize_ns,
            prepare_ns,
            plan_ns,
            kernel_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "<department>\
        <faculty><name/><RA/></faculty>\
        <staff><name/></staff>\
        <faculty><name/><secretary/><RA/><RA/><RA/></faculty>\
        <lecturer><name/><TA/><TA/><TA/></lecturer>\
        <faculty><name/><secretary/><TA/><RA/><RA/><TA/></faculty>\
        <research_scientist><name/><secretary/><RA/><RA/><RA/><RA/></research_scientist>\
        </department>";

    fn db() -> Database {
        Database::load_str(FIG1, &SummaryConfig::paper_defaults().with_grid_size(4)).unwrap()
    }

    #[test]
    fn load_and_index() {
        let d = db();
        assert_eq!(d.index().get("faculty").unwrap().len(), 3);
        assert_eq!(d.index().get("TA").unwrap().len(), 5);
        assert!(d.index().get("nosuch").is_none());
        // Index lists are in document order.
        let fac = d.index().get("faculty").unwrap();
        assert!(fac
            .windows(2)
            .all(|w| w[0].interval.start < w[1].interval.start));
    }

    #[test]
    fn count_and_estimate_agree_in_spirit() {
        let d = db();
        assert_eq!(d.count("//faculty//TA").unwrap(), 2);
        let est = d.estimate("//faculty//TA").unwrap();
        assert!(est.value > 0.5 && est.value < 6.0, "estimate {}", est.value);
    }

    #[test]
    fn candidates_for_expressions() {
        let d = db();
        let named = d.candidates(&PredExpr::named("RA")).unwrap();
        assert_eq!(named.len(), 10);
        // Named predicates borrow the index list.
        assert!(matches!(named, Cow::Borrowed(_)));
        let any = d
            .candidates(&PredExpr::Base(xmlest_predicate::BasePredicate::AnyElement))
            .unwrap();
        assert_eq!(any.len(), d.tree().len());
        assert!(matches!(any, Cow::Owned(_)));
        assert!(d.candidates(&PredExpr::named("ghost")).is_err());
    }

    #[test]
    fn workspace_estimates_match_plain_estimates() {
        let d = db();
        let mut ws = xmlest_core::TwigWorkspace::new();
        for path in [
            "//faculty//TA",
            "//department//faculty//RA",
            "//staff//name",
        ] {
            let plain = d.estimate(path).unwrap().value;
            let twig = xmlest_query::parse_path(path).unwrap();
            // Repeated workspace estimates are stable and agree.
            for _ in 0..3 {
                let ws_est = d
                    .snapshot()
                    .estimate_twig_with(&mut ws, &twig)
                    .unwrap()
                    .value;
                assert!(
                    (ws_est - plain).abs() < 1e-12,
                    "{path}: {ws_est} vs {plain}"
                );
            }
        }
    }

    #[test]
    fn unknown_query_name_errors() {
        let d = db();
        assert!(d.count("//faculty//GHOST").is_err());
        assert!(d.estimate("//faculty//GHOST").is_err());
    }

    #[test]
    fn estimate_reuses_parsed_twigs() {
        let d = db();
        let cached = |d: &Database| d.telemetry().cache.entries;
        assert_eq!(cached(&d), 0);
        let first = d.estimate("//faculty//TA").unwrap().value;
        assert_eq!(cached(&d), 1);
        for _ in 0..5 {
            assert_eq!(d.estimate("//faculty//TA").unwrap().value, first);
        }
        assert_eq!(cached(&d), 1, "repeat paths re-parsed");
        d.estimate("//staff//name").unwrap();
        assert_eq!(cached(&d), 2);
        // count() shares the cache.
        d.count("//faculty//TA").unwrap();
        assert_eq!(cached(&d), 2);
    }

    /// Every `Database::estimate` is served (and counted) by the
    /// snapshot, so each call — warm or cold — advances the shared
    /// estimate counter by exactly one, and a failed resolution counts
    /// as an error.
    #[test]
    fn each_estimate_is_counted_once() {
        let d = db();
        let count = |d: &Database, name: &str| d.telemetry().counter(name).unwrap();
        let before = count(&d, "xmlest_estimates_total");
        for _ in 0..10 {
            d.estimate("//faculty//TA").unwrap();
        }
        assert_eq!(count(&d, "xmlest_estimates_total"), before + 10);
        let held = d.prepare("//staff//name").unwrap();
        d.estimate_prepared(&held).unwrap();
        assert!(d.estimate("//faculty//GHOST").is_err());
        assert_eq!(count(&d, "xmlest_estimates_total"), before + 12);
        assert_eq!(count(&d, "xmlest_estimate_errors_total"), 1);
    }

    #[test]
    fn add_and_remove_documents_incrementally() {
        let mut d = Database::load_documents(
            [("a.xml", "<a><x/><x/></a>"), ("b.xml", "<b><y/></b>")],
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap();
        assert_eq!(d.document_names(), vec!["a.xml", "b.xml"]);
        assert_eq!(d.summaries().get("x").unwrap().count, 2);
        assert!(d.shard_summaries("a.xml").is_some());

        // Adding a document with a brand-new tag extends the catalog.
        d.add_document("c.xml", "<a><x/><z/></a>").unwrap();
        assert_eq!(d.document_names().len(), 3);
        assert_eq!(d.summaries().get("x").unwrap().count, 3);
        assert_eq!(d.summaries().get("z").unwrap().count, 1);
        assert_eq!(d.count("//a//x").unwrap(), 3);
        assert_eq!(d.index().get("x").unwrap().len(), 3);

        d.remove_document("a.xml").unwrap();
        assert_eq!(d.document_names(), vec!["b.xml", "c.xml"]);
        assert_eq!(d.summaries().get("x").unwrap().count, 1);
        assert_eq!(d.count("//a//x").unwrap(), 1);
        assert!(d.remove_document("a.xml").is_err(), "already removed");

        // Single-document databases are not collections.
        let mut single = db();
        assert!(matches!(
            single.add_document("x", "<x/>"),
            Err(Error::NoData(_))
        ));
    }

    #[test]
    fn failed_rebuild_rolls_back_the_mutation() {
        let mut d = Database::load_documents(
            [("a.xml", "<a><x/><x/></a>"), ("b.xml", "<b><y/></b>")],
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap();
        let before = d.estimate("//a//x").unwrap().value;
        let epoch = d.epoch();

        test_faults::arm(1);
        assert!(d.add_document("c.xml", "<a><x/><z/></a>").is_err());
        assert_eq!(d.epoch(), epoch, "failed mutation must not bump the epoch");
        assert_eq!(d.document_names(), vec!["a.xml", "b.xml"]);
        assert_eq!(
            d.estimate("//a//x").unwrap().value.to_bits(),
            before.to_bits()
        );
        assert_eq!(d.count("//a//x").unwrap(), 2, "old data still serves");

        // The collection is still mutable: the retried add succeeds and
        // sees the full collection.
        d.add_document("c.xml", "<a><x/><z/></a>").unwrap();
        assert_eq!(d.summaries().get("x").unwrap().count, 3);
        assert_eq!(d.count("//a//x").unwrap(), 3);

        // Removal rolls back too, preserving document order.
        test_faults::arm(1);
        assert!(d.remove_document("a.xml").is_err());
        assert_eq!(d.document_names(), vec!["a.xml", "b.xml", "c.xml"]);
        assert_eq!(d.count("//a//x").unwrap(), 3);
        d.remove_document("a.xml").unwrap();
        assert_eq!(d.document_names(), vec!["b.xml", "c.xml"]);
        assert_eq!(d.count("//a//x").unwrap(), 1);

        // So does a manual refresh: same epoch, grid, documents and
        // estimates, and the retried refresh succeeds.
        let epoch = d.epoch();
        let grid = d.summaries().grid().clone();
        let before = d.estimate("//a//x").unwrap().value;
        test_faults::arm(1);
        assert!(d.refresh_grid().is_err());
        assert_eq!(d.epoch(), epoch, "failed refresh must not bump the epoch");
        assert_eq!(d.summaries().grid(), &grid);
        assert_eq!(d.document_names(), vec!["b.xml", "c.xml"]);
        assert_eq!(
            d.estimate("//a//x").unwrap().value.to_bits(),
            before.to_bits()
        );
        assert_eq!(d.telemetry().maintenance.refreshes, 0);
        d.refresh_grid().unwrap();
        assert_eq!(d.telemetry().maintenance.refreshes, 1);
    }

    /// A drift-triggered refresh that fails to rebuild must not unwind
    /// (or mis-report) the mutation that hosted it: the mutation has
    /// already committed, so the refresh failure is absorbed into the
    /// `failed_auto_refreshes` counter and retried by the next
    /// mutation. Returning the error instead would invite a caller to
    /// retry the add and insert the document twice.
    #[test]
    fn failed_auto_refresh_does_not_unwind_the_mutation() {
        // A wide, evenly spread initial document keeps the baseline
        // skew low; the appended pile of same-tag leaves lands in the
        // tail buckets, so skew — and therefore drift — must rise.
        let mut spread = String::from("<a>");
        for _ in 0..24 {
            spread.push_str("<x><q/></x>");
        }
        spread.push_str("</a>");
        let pile = format!("<a>{}</a>", "<x/>".repeat(12));
        let mut d = Database::load_documents(
            [("a.xml", spread.as_str())],
            &SummaryConfig::paper_defaults()
                .with_grid_size(8)
                .with_equi_depth(true)
                .with_policy(xmlest_core::GridPolicy::Slack {
                    slack_percent: 500,
                    drift_threshold: 0.0,
                    auto_refresh: true,
                }),
        )
        .unwrap();

        test_faults::arm(1);
        // The append commits on the stable path; the auto refresh it
        // triggers hits the injected rebuild failure.
        d.add_document("b.xml", &pile).unwrap();
        assert_eq!(d.document_names(), vec!["a.xml", "b.xml"]);
        assert_eq!(d.count("//a//x").unwrap(), 36);
        let s = d.maintenance_stats();
        assert_eq!(s.stable_appends, 1);
        assert_eq!(s.failed_auto_refreshes, 1, "failure must be recorded");
        assert_eq!(s.refreshes, 0);
        assert!(s.drift > 0.0, "drift persists so a retry can fire");

        // The next mutation retries the refresh and succeeds.
        d.add_document("c.xml", &pile).unwrap();
        let s = d.maintenance_stats();
        assert_eq!(s.auto_refreshes, 1);
        assert_eq!(s.failed_auto_refreshes, 1);
        assert_eq!(d.count("//a//x").unwrap(), 48);
    }

    #[test]
    fn collection_survives_being_emptied() {
        let mut d = Database::load_documents(
            [("a.xml", "<a><x/></a>")],
            &SummaryConfig::paper_defaults().with_grid_size(4),
        )
        .unwrap();
        d.remove_document("a.xml").unwrap();
        assert!(d.document_names().is_empty());
        assert_eq!(d.summaries().get("x").unwrap().count, 0);
        // An emptied collection is still a collection: refilling works.
        d.add_document("b.xml", "<a><x/><x/></a>").unwrap();
        assert_eq!(d.summaries().get("x").unwrap().count, 2);
        assert_eq!(d.count("//a//x").unwrap(), 2);
    }

    #[test]
    fn attach_dtd_restores_schema_shortcuts_after_reopen() {
        let dtd_text = r#"
            <!ELEMENT department (faculty|staff)+>
            <!ELEMENT faculty (name, TA*)>
            <!ELEMENT staff (name)>
            <!ELEMENT name (#PCDATA)>
            <!ELEMENT TA (#PCDATA)>
        "#;
        let dtd = xmlest_xml::dtd::parse_dtd(dtd_text).unwrap().analyze();
        let d = Database::load_documents(
            [(
                "a.xml",
                "<department><faculty><name/><TA/></faculty><staff><name/></staff></department>",
            )],
            &SummaryConfig::paper_defaults()
                .with_grid_size(4)
                .with_dtd(dtd.clone()),
        )
        .unwrap();
        // TA cannot appear under staff: the DTD shortcut answers 0.
        let want = d
            .summaries()
            .estimator()
            .estimate_pair("staff", "TA", xmlest_core::EstimateMethod::Auto)
            .unwrap();
        assert_eq!(want.method, "schema");
        assert_eq!(want.value, 0.0);

        let mut reopened = Database::open_catalog(&d.save_catalog()).unwrap();
        // Without the DTD the shortcut is gone (documented caveat)...
        let cold = reopened
            .summaries()
            .estimator()
            .estimate_pair("staff", "TA", xmlest_core::EstimateMethod::Auto)
            .unwrap();
        assert_ne!(cold.method, "schema");
        // ...and re-attaching the same analysis restores it exactly.
        reopened.attach_dtd(dtd);
        let warm = reopened
            .summaries()
            .estimator()
            .estimate_pair("staff", "TA", xmlest_core::EstimateMethod::Auto)
            .unwrap();
        assert_eq!(warm.method, "schema");
        assert_eq!(warm.value.to_bits(), want.value.to_bits());
    }

    #[test]
    fn catalog_round_trip_serves_identical_estimates() {
        let d = Database::load_documents(
            [
                ("a.xml", FIG1),
                (
                    "b.xml",
                    "<department><faculty><TA/><TA/></faculty></department>",
                ),
            ],
            &SummaryConfig::paper_defaults().with_grid_size(6),
        )
        .unwrap();
        let paths = ["//faculty//TA", "//department//RA", "//faculty//name"];
        let expected: Vec<f64> = paths.iter().map(|p| d.estimate(p).unwrap().value).collect();

        let bytes = d.save_catalog();
        let reopened = Database::open_catalog(&bytes).unwrap();
        assert!(!reopened.has_data());
        for (path, want) in paths.iter().zip(&expected) {
            let got = reopened.estimate(path).unwrap().value;
            assert!(
                got.to_bits() == want.to_bits(),
                "{path}: {got} vs {want} (not byte-identical)"
            );
        }
        // Shards round-trip with their names.
        assert_eq!(reopened.document_names(), vec!["a.xml", "b.xml"]);
        assert!(reopened.shard_summaries("b.xml").is_some());
        // Data-dependent operations fail cleanly.
        assert!(matches!(
            reopened.count("//faculty//TA"),
            Err(Error::NoData(_))
        ));
        assert!(matches!(
            reopened.candidates(&PredExpr::named("TA")),
            Err(Error::NoData(_))
        ));
    }

    /// Mutations and refreshes on a catalog-opened (source-less)
    /// database are typed errors, never panics, and never disturb the
    /// serving state.
    #[test]
    fn serving_only_database_rejects_mutations_with_typed_error() {
        let d = Database::load_documents(
            [("a.xml", "<a><x/><x/></a>"), ("b.xml", "<b><y/></b>")],
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap();
        let bytes = d.save_catalog();
        let mut reopened = Database::open_catalog(&bytes).unwrap();
        let before = reopened.estimate("//a//x").unwrap().value;
        let epoch = reopened.epoch();

        assert!(matches!(
            reopened.add_document("c.xml", "<a><x/></a>"),
            Err(Error::ServingOnly(_))
        ));
        assert!(matches!(
            reopened.remove_document("a.xml"),
            Err(Error::ServingOnly(_))
        ));
        assert!(matches!(
            reopened.refresh_grid(),
            Err(Error::ServingOnly(_))
        ));

        // The rejections changed nothing: same epoch, same estimates.
        assert_eq!(reopened.epoch(), epoch);
        assert_eq!(
            reopened.estimate("//a//x").unwrap().value.to_bits(),
            before.to_bits()
        );
        assert_eq!(reopened.document_names(), vec!["a.xml", "b.xml"]);
    }

    /// Repeated auto-refresh failures escalate: strikes accumulate, the
    /// exponential backoff window absorbs attempts, the degraded flag
    /// raises at [`DEGRADED_AFTER_STRIKES`], and one successful refresh
    /// clears it all.
    #[test]
    fn failed_refreshes_back_off_and_raise_the_degraded_flag() {
        let mut spread = String::from("<a>");
        for _ in 0..24 {
            spread.push_str("<x><q/></x>");
        }
        spread.push_str("</a>");
        let pile = format!("<a>{}</a>", "<x/>".repeat(6));
        let mut d = Database::load_documents(
            [("a.xml", spread.as_str())],
            &SummaryConfig::paper_defaults()
                .with_grid_size(8)
                .with_equi_depth(true)
                .with_policy(xmlest_core::GridPolicy::Slack {
                    slack_percent: 2000,
                    drift_threshold: 0.0,
                    auto_refresh: true,
                }),
        )
        .unwrap();

        // Arm a losing streak long enough to cross the degraded
        // threshold, then keep mutating. Backoff windows of 1, 2, 4
        // mutations open between the attempts, so some mutations must
        // be recorded as skips rather than failures.
        test_faults::arm(u32::MAX);
        let mut mutations = 0u32;
        loop {
            d.add_document(format!("d{mutations}.xml"), &pile[..])
                .unwrap();
            mutations += 1;
            let s = d.maintenance_stats();
            if s.refresh_degraded {
                break;
            }
            assert!(mutations < 64, "degraded flag never raised");
        }
        let s = d.maintenance_stats();
        assert_eq!(s.refresh_strikes, DEGRADED_AFTER_STRIKES);
        assert_eq!(s.failed_auto_refreshes as u32, s.refresh_strikes);
        assert!(
            s.backoff_skips > 0,
            "backoff windows must absorb some attempts"
        );
        assert!(
            mutations as u64 > s.failed_auto_refreshes,
            "every mutation paying a doomed rebuild means backoff never engaged"
        );
        // Every mutation committed despite the refresh losing streak.
        assert_eq!(d.document_names().len() as u32, 1 + mutations);

        // Disarm the fault: the next out-of-window mutation refreshes
        // successfully and clears strikes, window and flag.
        test_faults::arm(0);
        let mut extra = 0u32;
        while d.maintenance_stats().refresh_degraded {
            d.add_document(format!("e{extra}.xml"), &pile[..]).unwrap();
            extra += 1;
            assert!(extra < 16, "successful refresh never cleared the flag");
        }
        let s = d.maintenance_stats();
        assert_eq!(s.refresh_strikes, 0);
        assert!(!s.refresh_degraded);
        assert!(s.refreshes >= 1);
    }

    /// A flipped byte inside one shard section quarantines just that
    /// document: the survivors keep serving, the report names the
    /// victim, and `repair` with the original source restores the exact
    /// clean estimates.
    #[test]
    fn degraded_open_quarantines_and_repair_restores() {
        let docs = [
            ("a.xml", "<a><x/><x/><q/></a>"),
            ("b.xml", "<b><y/><y/><y/></b>"),
            ("c.xml", "<c><x/><y/></c>"),
        ];
        let d = Database::load_documents(docs, &SummaryConfig::paper_defaults().with_grid_size(8))
            .unwrap();
        let want_x = d.estimate("//a//x").unwrap().value;
        let want_y = d.estimate("//b//y").unwrap().value;
        let mut bytes = d.save_catalog();

        // Find the second SHARD section (b.xml) and flip a byte deep in
        // its body. Frames sit after the 22-byte outer header:
        // kind u8, len u64, checksum u64, body.
        let mut at = 22usize;
        let mut shard_seen = 0;
        let target = loop {
            let kind = bytes[at];
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            if kind == 3 {
                shard_seen += 1;
                if shard_seen == 2 {
                    break at + 17 + len / 2;
                }
            }
            at += 17 + len;
        };
        bytes[target] ^= 0x40;

        // Strict open refuses; degraded open serves the survivors.
        assert!(Database::open_catalog(&bytes).is_err());
        let (mut db, report) = Database::open_catalog_degraded(&bytes).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].name, "b.xml");
        assert!(db.is_degraded());
        assert_eq!(db.quarantined()[0].name, "b.xml");
        // a.xml and c.xml still estimate; b.xml's contribution is gone.
        assert_eq!(
            db.estimate("//a//x").unwrap().value.to_bits(),
            want_x.to_bits()
        );
        assert!(db.estimate("//b//y").unwrap().value < want_y);

        // Repair rejects wrong documents and accepts the original.
        let bad = db.repair([("b.xml", "<b><y/></b>")]).unwrap();
        assert_eq!(bad.rejected.len(), 1, "node-count mismatch must reject");
        assert!(db.is_degraded());
        let good = db.repair([("b.xml", "<b><y/><y/><y/></b>")]).unwrap();
        assert_eq!(good.repaired, vec!["b.xml".to_string()]);
        assert!(!db.is_degraded());
        assert_eq!(
            db.estimate("//b//y").unwrap().value.to_bits(),
            want_y.to_bits()
        );
        // Repaired databases stay serving-only.
        assert!(matches!(
            db.add_document("d.xml", "<d/>"),
            Err(Error::ServingOnly(_))
        ));
    }

    /// `open_store` walks generations newest-first: a corrupted newest
    /// generation falls back to the previous one, and the report says
    /// which generation served and why the newer one was skipped.
    #[test]
    fn open_store_falls_back_over_corrupt_generations() {
        use xmlest_core::{CatalogStore, MemBackend, StorageBackend};
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);

        let mut d = Database::load_documents(
            [("a.xml", "<a><x/><x/></a>")],
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap();
        let gen1 = d.save_to_store(&store).unwrap();
        let want_old = d.estimate("//a//x").unwrap().value;
        d.add_document("b.xml", "<a><x/></a>").unwrap();
        let gen2 = d.save_to_store(&store).unwrap();
        assert!(gen2 > gen1);

        // Clean store: newest generation serves.
        let (db, open) = Database::open_store(&store).unwrap();
        assert_eq!(open.generation, gen2);
        assert!(open.report.is_clean() && open.skipped.is_empty());
        assert_eq!(db.document_names(), vec!["a.xml", "b.xml"]);

        // Corrupt the newest generation's header beyond lenient repair:
        // recovery falls back to the previous generation.
        let name = format!("gen-{gen2:012}.xctl");
        let mut bytes = backend.read(&name).unwrap();
        bytes[0] ^= 0xFF;
        backend.write(&name, &bytes).unwrap();
        let (db, open) = Database::open_store(&store).unwrap();
        assert_eq!(open.generation, gen1);
        assert_eq!(open.skipped.len(), 1);
        assert_eq!(open.skipped[0].generation, gen2);
        assert_eq!(
            db.estimate("//a//x").unwrap().value.to_bits(),
            want_old.to_bits()
        );
    }
}
