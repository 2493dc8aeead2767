//! Prepared queries: canonical twig interning and the epoch-validated
//! two-tier serving cache.
//!
//! Serving workloads repeat the same queries with trivially different
//! spellings — reordered sibling branches, whitespace variants, `/a//b`
//! versus `a//b`. A cache keyed by the raw string treats each spelling
//! as a distinct query; this module keys on the query's *canonical
//! identity* instead:
//!
//! 1. **Canonicalization** ([`TwigNode::canonicalize`]): predicates
//!    normalize, sibling branches sort — equivalent spellings become the
//!    same value, and because every evaluation then runs on that one
//!    ordering, their estimates are bit-identical, not merely close.
//! 2. **Interning** ([`TwigInterner`]): canonical twigs hash-cons to a
//!    stable [`TwigId`]. Identity is structural (`Eq`/`Hash` on the
//!    twig), so distinct queries can never collide. An id, once handed
//!    out, always names the same twig; identities are released (never
//!    reused) once no cached state references them, so the interner
//!    stays bounded by the cache, not by query history.
//! 3. **The two-tier cache** ([`PreparedCache`]): tier 1 maps query
//!    strings to their [`PreparedQuery`] under a bounded **CLOCK**
//!    sweep (query strings embed user-supplied values, so this
//!    dimension is unbounded; a hit sets a reference bit, the eviction
//!    hand clears bits and takes the first unreferenced slot — O(1)
//!    amortized, where the old LRU min-scan paid O(entries) per
//!    eviction under sustained distinct-query churn); tier 2 maps
//!    [`TwigId`]s to the one shared entry, so two spellings of a query
//!    share one prepared state and an epoch bump refreshes an entry
//!    once, not once per spelling.
//!
//! A [`PreparedQuery`] carries everything the front half of the pipeline
//! derives: the canonical twig, the leaf summary-resolution results, the
//! lazily memoized cheapest plan (filled by the
//! [`crate::planner::Planner`] on first use), and the **epoch** of the
//! database state it was prepared under. Lookups validate the epoch:
//! a hit under the current epoch returns in two atomic operations and a
//! map probe with **zero allocations** (enforced by
//! `tests/alloc_discipline.rs`); a stale entry is transparently
//! re-prepared from its interned twig — no re-parse — and can therefore
//! never be served (`tests/prepared_pipeline.rs` proves it).

use crate::cost::CostedPlan;
use crate::error::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use xmlest_core::TwigNode;
use xmlest_xobs::{Counter, EventKind, Recorder};

/// Stable identity of one canonical twig within a database. Ids are
/// never reused: an id always names the same canonical pattern, even
/// after the prepared state it indexes has been evicted or re-prepared.
/// (An identity whose cached state is fully evicted is *released* — a
/// later appearance of the same pattern interns to a fresh id — so the
/// interner's footprint tracks the bounded cache, not query history.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TwigId(u64);

impl std::fmt::Display for TwigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Hash-consing store of canonical twigs. Structural `Eq`/`Hash` on
/// [`TwigNode`] makes identity exact — no string keys, no collisions.
/// Storage is exactly the live-identity map (the map key *is* the
/// shared `Arc`); released identities leave nothing behind, and the
/// id counter is a `u64` that can never realistically wrap.
#[derive(Debug, Default)]
struct TwigInterner {
    inner: RwLock<InternerInner>,
}

#[derive(Debug, Default)]
struct InternerInner {
    ids: HashMap<Arc<TwigNode>, TwigId>,
    /// Next id to issue — monotonic, never reused.
    next: u64,
}

impl TwigInterner {
    /// Interns an **already canonical** twig, returning its stable id
    /// and the shared allocation.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn intern(&self, canonical: TwigNode) -> (TwigId, Arc<TwigNode>) {
        {
            let inner = self.inner.read().expect("twig interner lock");
            if let Some((twig, &id)) = inner.ids.get_key_value(&canonical) {
                return (id, twig.clone());
            }
        }
        let mut inner = self.inner.write().expect("twig interner lock");
        if let Some((twig, &id)) = inner.ids.get_key_value(&canonical) {
            return (id, twig.clone());
        }
        let id = TwigId(inner.next);
        inner.next += 1;
        let twig = Arc::new(canonical);
        inner.ids.insert(twig.clone(), id);
        (id, twig)
    }

    /// Releases an identity whose cached state is fully gone; its
    /// allocations drop with the last outstanding `Arc`, and a later
    /// appearance of the same pattern interns to a fresh id. No-op
    /// unless the map still binds exactly this twig to this id (guards
    /// racing release/re-intern).
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn release(&self, id: TwigId, twig: &Arc<TwigNode>) {
        let mut inner = self.inner.write().expect("twig interner lock");
        if inner.ids.get(twig.as_ref()) == Some(&id) {
            inner.ids.remove(twig.as_ref());
        }
    }

    /// Number of live (unreleased) identities.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn len(&self) -> usize {
        self.inner.read().expect("twig interner lock").ids.len()
    }
}

/// One pattern-node predicate's resolution against the summaries,
/// computed at prepare time. Resolving up front means a warm estimate
/// can no longer fail on an unknown predicate — errors surface at
/// [`PreparedQuery`] construction — and gives EXPLAIN-style consumers
/// the per-node cardinalities without re-deriving them.
#[derive(Debug, Clone)]
pub struct LeafResolution {
    /// Rendering of the pattern-node predicate, pre-order.
    pub pred: String,
    /// Estimated match count of the node's predicate under the epoch
    /// this query was prepared for.
    pub count: f64,
}

/// A fully prepared query: the canonical twig, its interned identity,
/// the leaf resolutions, the epoch they are valid for, and a slot for
/// the memoized cheapest plan. Everything downstream — `estimate`,
/// planning, plan execution — consumes one of these.
#[derive(Debug)]
pub struct PreparedQuery {
    id: TwigId,
    twig: Arc<TwigNode>,
    epoch: u64,
    /// Process-unique id of the [`PreparedCache`] that issued this
    /// entry — [`TwigId`]s are only meaningful within their own cache,
    /// so refresh paths must not trust a foreign entry's id.
    cache_id: u64,
    leaves: Vec<LeafResolution>,
    /// Cheapest costed plan, filled by the planner on first use (`None`
    /// inside the lock marks a single-node pattern with no edges to
    /// plan). Write-once: plans are deterministic per (twig, epoch), so
    /// a racing double-compute resolves to identical values.
    plan: OnceLock<Option<Arc<CostedPlan>>>,
    /// Full ranked plan list (cheapest first), filled on first EXPLAIN
    /// use — repeated `explain`-style calls skip re-enumeration. An
    /// empty list marks an edgeless pattern. Same write-once race
    /// resolution as `plan`; invalidated with the entry on epoch bumps,
    /// so the ranking is memoized per (TwigId, epoch).
    ranked: OnceLock<Arc<Vec<CostedPlan>>>,
}

impl PreparedQuery {
    pub(crate) fn new(
        id: TwigId,
        twig: Arc<TwigNode>,
        epoch: u64,
        leaves: Vec<LeafResolution>,
    ) -> Self {
        PreparedQuery {
            id,
            twig,
            epoch,
            cache_id: 0,
            leaves,
            plan: OnceLock::new(),
            ranked: OnceLock::new(),
        }
    }

    /// Whether this entry was issued by the given cache (the only
    /// context its [`TwigId`] is meaningful in).
    pub(crate) fn issued_by(&self, cache: &PreparedCache) -> bool {
        self.cache_id == cache.cache_id
    }

    /// Interned identity of the canonical twig.
    pub fn id(&self) -> TwigId {
        self.id
    }

    /// The canonical pattern (shared with the interner).
    pub fn twig(&self) -> &Arc<TwigNode> {
        &self.twig
    }

    /// Database epoch this entry was prepared under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-pattern-node summary resolutions, pre-order over the
    /// canonical twig.
    pub fn leaves(&self) -> &[LeafResolution] {
        &self.leaves
    }

    /// The memoized cheapest plan, if the planner has run on this entry
    /// (`None` both before planning and for edgeless patterns).
    pub fn cached_plan(&self) -> Option<&Arc<CostedPlan>> {
        self.plan.get().and_then(Option::as_ref)
    }

    /// Whether planning has run (even if it found nothing to plan).
    pub fn is_planned(&self) -> bool {
        self.plan.get().is_some()
    }

    pub(crate) fn plan_slot(&self) -> &OnceLock<Option<Arc<CostedPlan>>> {
        &self.plan
    }

    /// The memoized ranked plan list, if an EXPLAIN-style consumer has
    /// computed it (empty list = edgeless pattern).
    pub fn cached_ranked_plans(&self) -> Option<&Arc<Vec<CostedPlan>>> {
        self.ranked.get()
    }

    pub(crate) fn ranked_slot(&self) -> &OnceLock<Arc<Vec<CostedPlan>>> {
        &self.ranked
    }
}

/// Counter snapshot of a [`PreparedCache`] — the `cache` section of
/// the unified [`crate::Telemetry`] snapshot.
///
/// **Reset contract:** `hits`/`misses`/`invalidations`/`evictions` are
/// monotonic for the life of the owning database — they are backed by
/// the `xobs` registry and are never reset (rate consumers diff
/// successive snapshots). `entries`/`canonical`/`interned`/`planned`/
/// `ranked` are level gauges of live cache population and move in both
/// directions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Tier-1/tier-2 lookups answered by an epoch-valid entry.
    pub hits: u64,
    /// Lookups that had no entry at all (parse + resolve ran).
    pub misses: u64,
    /// Lookups that found an entry from an older epoch (re-prepared
    /// from the interned twig; the stale entry was never served).
    pub invalidations: u64,
    /// Tier-1 entries dropped by the CLOCK bound.
    pub evictions: u64,
    /// Live tier-1 (query-string) entries.
    pub entries: usize,
    /// Live tier-2 (canonical) entries.
    pub canonical: usize,
    /// Live interned identities (released when their cached state is
    /// fully evicted).
    pub interned: usize,
    /// Live entries whose cheapest plan is memoized.
    pub planned: usize,
    /// Live entries whose full ranked plan list (EXPLAIN) is memoized.
    pub ranked: usize,
}

/// Most query strings tier 1 will hold before CLOCK eviction starts.
pub(crate) const PREPARED_CACHE_CAP: usize = 4096;

/// Tier-1 slot: the entry plus its CLOCK reference bit. A warm hit
/// sets the bit (one relaxed store under the read lock — still zero
/// allocations); the sweeping hand clears it and evicts slots found
/// unreferenced.
#[derive(Debug)]
struct PathSlot {
    entry: Arc<PreparedQuery>,
    referenced: AtomicBool,
}

/// Tier 1: the query-string map plus the CLOCK ring over its keys.
/// Invariant: `ring` holds exactly `map`'s keys, each once; `hand`
/// indexes `ring` (0 when empty). Eviction is O(1) amortized — the
/// hand sweeps at most one full revolution (clearing reference bits)
/// before it finds a victim, instead of the old O(entries) min-scan
/// per eviction.
#[derive(Debug, Default)]
struct PathTier {
    map: HashMap<String, PathSlot>,
    ring: Vec<String>,
    hand: usize,
}

/// Tier-2 slot: the entry plus how many tier-1 slots reference its id.
#[derive(Debug)]
struct IdSlot {
    entry: Arc<PreparedQuery>,
    pins: u32,
}

/// The two-tier prepared-query cache. See the module docs for the
/// design; lock order is always tier 1 before tier 2.
#[derive(Debug)]
pub(crate) struct PreparedCache {
    interner: TwigInterner,
    by_path: RwLock<PathTier>,
    by_id: RwLock<HashMap<TwigId, IdSlot>>,
    /// Process-unique cache identity, stamped onto every issued entry;
    /// refresh paths use it to detect entries from another database.
    cache_id: u64,
    cap: usize,
    /// Memoized frozen path→twig view handed to serving snapshots;
    /// rebuilt lazily after any change to the *path set* (new insert or
    /// eviction — an epoch refresh keeps the twig, so the view stays
    /// valid). Shared by pointer: every snapshot published between two
    /// path-set changes holds the same map.
    frozen: RwLock<Option<crate::snapshot::FrozenTwigs>>,
    /// Observability handle; evictions journal through it. Counters
    /// below are registered in its typed registry, so the unified
    /// telemetry snapshot and [`PreparedCache::stats`] read the same
    /// cells.
    obs: Recorder,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
}

impl Default for PreparedCache {
    fn default() -> Self {
        PreparedCache::with_capacity(PREPARED_CACHE_CAP)
    }
}

/// How a traced estimate's query string met the prepared cache; the
/// `cache_tier` of a [`crate::TraceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Tier-1 hit: the exact query string was resident under the
    /// current epoch — the zero-allocation warm path.
    PathHit,
    /// The string was resident but prepared under an older epoch; it
    /// was re-prepared from its interned twig (no re-parse).
    Stale,
    /// No tier-1 entry: full parse + canonicalize + resolve ran (a
    /// canonically equivalent spelling may still have shared tier-2
    /// state).
    Miss,
}

impl CacheTier {
    /// Stable name for exporters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CacheTier::PathHit => "path-hit",
            CacheTier::Stale => "stale",
            CacheTier::Miss => "miss",
        }
    }
}

/// Builds one entry's prepared state (leaf resolution against the
/// current summaries); supplied by the database layer.
pub(crate) type ResolveFn<'f> = &'f dyn Fn(TwigId, &Arc<TwigNode>) -> Result<PreparedQuery>;

impl PreparedCache {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        PreparedCache::with_recorder(cap, &Recorder::new())
    }

    /// A cache whose counters live in `rec`'s typed registry and whose
    /// evictions journal through it — the database constructor path.
    pub(crate) fn with_recorder(cap: usize, rec: &Recorder) -> Self {
        static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);
        PreparedCache {
            interner: TwigInterner::default(),
            by_path: RwLock::new(PathTier::default()),
            by_id: RwLock::new(HashMap::new()),
            cache_id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            cap: cap.max(1),
            frozen: RwLock::new(None),
            obs: rec.clone(),
            hits: rec.counter(
                "xmlest_cache_hits_total",
                "Prepared-cache lookups answered by an epoch-valid entry.",
            ),
            misses: rec.counter(
                "xmlest_cache_misses_total",
                "Prepared-cache lookups with no entry (full parse + resolve ran).",
            ),
            invalidations: rec.counter(
                "xmlest_cache_invalidations_total",
                "Prepared-cache entries found stale and re-prepared from their interned twig.",
            ),
            evictions: rec.counter(
                "xmlest_cache_evictions_total",
                "Tier-1 prepared-cache entries dropped by the CLOCK bound.",
            ),
        }
    }

    /// Resolves a query string to its prepared entry under `epoch`.
    ///
    /// The warm path — entry present, epoch matches — is a read-locked
    /// map probe, a reference-bit store and an `Arc` clone: **zero
    /// allocations**. A stale entry re-prepares from its interned twig
    /// (no re-parse); an absent one parses, canonicalizes and interns
    /// first.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    pub(crate) fn get_or_prepare_path(
        &self,
        path: &str,
        epoch: u64,
        parse_canonical: impl FnOnce() -> Result<TwigNode>,
        resolve: ResolveFn<'_>,
    ) -> Result<Arc<PreparedQuery>> {
        let stale = {
            let tier = self.by_path.read().expect("prepared cache lock");
            match tier.map.get(path) {
                Some(slot) if slot.entry.epoch == epoch => {
                    slot.referenced.store(true, Ordering::Relaxed);
                    self.hits.inc();
                    return Ok(slot.entry.clone());
                }
                Some(slot) => Some(slot.entry.clone()),
                None => None,
            }
        };
        let (id, twig) = match &stale {
            Some(entry) => {
                self.invalidations.inc();
                (entry.id, entry.twig.clone())
            }
            None => {
                self.misses.inc();
                self.interner.intern(parse_canonical()?)
            }
        };
        let entry = self.get_fresh_by_id(id, &twig, epoch, resolve)?;
        self.install_path(path, entry.clone());
        Ok(entry)
    }

    /// Side-effect-free classification of how a lookup of `path` under
    /// `epoch` *would* meet tier 1 — no counters move, no reference bit
    /// is set. Feeds [`crate::TraceReport::cache_tier`].
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    pub(crate) fn classify_path(&self, path: &str, epoch: u64) -> CacheTier {
        let tier = self.by_path.read().expect("prepared cache lock");
        match tier.map.get(path) {
            Some(slot) if slot.entry.epoch == epoch => CacheTier::PathHit,
            Some(_) => CacheTier::Stale,
            None => CacheTier::Miss,
        }
    }

    /// Resolves a pre-built pattern to its prepared entry under `epoch`.
    /// Canonicalizes and interns, then shares tier 2 with the string
    /// path — a spelling previously seen as a string reuses its entry.
    /// Twig-keyed entries are not pinned by any tier-1 slot; they are
    /// swept (cheapest-plan memo included) when tier 2 outgrows twice
    /// the tier-1 bound.
    pub(crate) fn get_or_prepare_twig(
        &self,
        twig: &TwigNode,
        epoch: u64,
        resolve: ResolveFn<'_>,
    ) -> Result<Arc<PreparedQuery>> {
        let (id, twig) = self.interner.intern(twig.canonicalize());
        self.get_fresh_by_id(id, &twig, epoch, resolve)
    }

    /// An epoch-valid entry for an already-interned id, re-preparing a
    /// stale or absent one. This is also the refresh path for callers
    /// holding an entry across a collection mutation.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    pub(crate) fn get_fresh_by_id(
        &self,
        id: TwigId,
        twig: &Arc<TwigNode>,
        epoch: u64,
        resolve: ResolveFn<'_>,
    ) -> Result<Arc<PreparedQuery>> {
        {
            let map = self.by_id.read().expect("prepared cache lock");
            if let Some(slot) = map.get(&id) {
                if slot.entry.epoch == epoch {
                    return Ok(slot.entry.clone());
                }
            }
        }
        let mut fresh = resolve(id, twig)?;
        fresh.cache_id = self.cache_id;
        let built = Arc::new(fresh);
        let mut map = self.by_id.write().expect("prepared cache lock");
        match map.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get().entry.epoch == epoch {
                    // Racing refresh won; both entries are identical.
                    return Ok(o.get().entry.clone());
                }
                o.get_mut().entry = built.clone();
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(IdSlot {
                    entry: built.clone(),
                    pins: 0,
                });
            }
        }
        // Bound the unpinned (twig-keyed) population, releasing the
        // swept entries' interned identities along with their prepared
        // state.
        if map.len() > self.cap * 2 {
            let mut dropped: Vec<Arc<PreparedQuery>> = Vec::new();
            map.retain(|_, slot| {
                if slot.pins > 0 {
                    true
                } else {
                    dropped.push(slot.entry.clone());
                    false
                }
            });
            // Keep the caller's entry reachable even when unpinned.
            map.entry(id).or_insert(IdSlot {
                entry: built.clone(),
                pins: 0,
            });
            for entry in dropped {
                if entry.id != id {
                    self.interner.release(entry.id, entry.twig());
                }
            }
        }
        Ok(built)
    }

    /// Installs (or refreshes) a tier-1 slot, evicting via the CLOCK
    /// hand when the bound is hit. Cold path only — allocation is fine
    /// here, and eviction is O(1) amortized: the hand clears reference
    /// bits as it sweeps and takes the first unreferenced slot, instead
    /// of scanning every entry for the LRU minimum.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn install_path(&self, path: &str, entry: Arc<PreparedQuery>) {
        let mut tier = self.by_path.write().expect("prepared cache lock");
        if let Some(slot) = tier.map.get_mut(path) {
            // Epoch refresh (same canonical id — paths parse
            // deterministically), or a racing insert of the same path.
            slot.entry = entry;
            slot.referenced.store(true, Ordering::Relaxed);
            return;
        }
        // Pin the incoming entry *before* evicting: if the victim
        // shares its id (another spelling of the same query), unpinning
        // the victim first would drop the shared tier-2 state and
        // release the interned identity out from under us.
        self.pin(&entry);
        let slot = PathSlot {
            entry,
            // New entries start unreferenced: one full hand revolution
            // without a hit makes them eligible, which is what keeps a
            // hot working set resident through sustained distinct-query
            // churn.
            referenced: AtomicBool::new(false),
        };
        if tier.map.len() < self.cap {
            tier.ring.push(path.to_owned());
            tier.map.insert(path.to_owned(), slot);
            drop(tier);
            self.invalidate_frozen();
            return;
        }
        // Sweep: clear reference bits until an unreferenced slot turns
        // up (bounded by one revolution plus one step), evict it, and
        // reuse its ring position for the incoming key.
        let t = &mut *tier;
        loop {
            let hand = t.hand;
            #[expect(
                clippy::expect_used,
                reason = "ring and map are mutated together; every ring key is mapped"
            )]
            let probed = t.map.get(&t.ring[hand]).expect("ring key is mapped");
            if probed.referenced.swap(false, Ordering::Relaxed) {
                t.hand = (hand + 1) % t.ring.len();
                continue;
            }
            let victim_key = std::mem::replace(&mut t.ring[hand], path.to_owned());
            #[expect(
                clippy::expect_used,
                reason = "key was probed in the map immediately above under the same lock"
            )]
            let victim = t.map.remove(&victim_key).expect("just observed");
            self.evictions.inc();
            self.obs.event(
                EventKind::CacheEviction,
                victim.entry.epoch,
                self.evictions.value(),
                0,
            );
            t.map.insert(path.to_owned(), slot);
            t.hand = (hand + 1) % t.ring.len();
            drop(tier);
            self.unpin(victim.entry.id);
            self.invalidate_frozen();
            return;
        }
    }

    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn pin(&self, entry: &Arc<PreparedQuery>) {
        let mut map = self.by_id.write().expect("prepared cache lock");
        map.entry(entry.id)
            .or_insert_with(|| IdSlot {
                entry: entry.clone(),
                pins: 0,
            })
            .pins += 1;
    }

    /// Drops one tier-1 reference to an id; the last reference removes
    /// the tier-2 entry *and* releases the interned identity, so the
    /// interner's footprint follows the bounded cache (lock order:
    /// tier 2, then the innermost interner lock).
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn unpin(&self, id: TwigId) {
        let mut map = self.by_id.write().expect("prepared cache lock");
        if let Some(slot) = map.get_mut(&id) {
            slot.pins = slot.pins.saturating_sub(1);
            if slot.pins == 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "id was found in the map immediately above under the same lock"
                )]
                let slot = map.remove(&id).expect("slot just observed");
                self.interner.release(id, slot.entry.twig());
            }
        }
    }

    /// The frozen path→canonical-twig view snapshots carry: memoized
    /// until the path set changes, so successive publishes between two
    /// inserts/evictions share one map by pointer. Benignly racy: a
    /// concurrently-inserted path may be missing from the view (the
    /// snapshot falls back to parsing — paths parse deterministically,
    /// so the estimate is bit-identical either way), never wrong.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    pub(crate) fn frozen_twigs(&self) -> crate::snapshot::FrozenTwigs {
        let probe = self.frozen.read().expect("prepared cache lock");
        if let Some(frozen) = probe.as_ref() {
            return frozen.clone();
        }
        drop(probe);
        let built: crate::snapshot::FrozenTwigs = {
            let tier = self.by_path.read().expect("prepared cache lock");
            Arc::new(
                tier.map
                    .iter()
                    .map(|(path, slot)| (path.clone(), slot.entry.twig().clone()))
                    .collect(),
            )
        };
        *self.frozen.write().expect("prepared cache lock") = Some(built.clone());
        built
    }

    /// Drops the memoized frozen view; the next [`frozen_twigs`] call
    /// rebuilds it from the live tier-1 map. Taken alone — never nested
    /// inside the tier locks.
    ///
    /// [`frozen_twigs`]: PreparedCache::frozen_twigs
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    fn invalidate_frozen(&self) {
        *self.frozen.write().expect("prepared cache lock") = None;
    }

    /// Counter snapshot. Locks are taken one at a time, tier 1 first —
    /// never nested — so a snapshot can't deadlock against a concurrent
    /// `install_path` (which holds tier 1 while pinning in tier 2).
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "Database-side cache lock; snapshot reads use the frozen lock-free view. A poisoned lock means another thread already panicked; propagating is intended"
    )]
    pub(crate) fn stats(&self) -> CacheStats {
        let entries = self.by_path.read().expect("prepared cache lock").map.len();
        let by_id = self.by_id.read().expect("prepared cache lock");
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            invalidations: self.invalidations.value(),
            evictions: self.evictions.value(),
            entries,
            canonical: by_id.len(),
            interned: self.interner.len(),
            planned: by_id.values().filter(|s| s.entry.is_planned()).count(),
            ranked: by_id
                .values()
                .filter(|s| s.entry.cached_ranked_plans().is_some())
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_query::parse_path;

    fn resolve_ok(id: TwigId, twig: &Arc<TwigNode>) -> Result<PreparedQuery> {
        Ok(PreparedQuery::new(id, twig.clone(), 7, Vec::new()))
    }

    fn prepare(cache: &PreparedCache, path: &str, epoch: u64) -> Arc<PreparedQuery> {
        let resolve = move |id: TwigId, twig: &Arc<TwigNode>| {
            Ok(PreparedQuery::new(id, twig.clone(), epoch, Vec::new()))
        };
        cache
            .get_or_prepare_path(
                path,
                epoch,
                || {
                    parse_path(path)
                        .map(|t| t.canonicalize())
                        .map_err(Into::into)
                },
                &resolve,
            )
            .unwrap()
    }

    #[test]
    fn interner_hash_conses_canonical_twigs() {
        let interner = TwigInterner::default();
        let a = parse_path("//a//b[.//c][.//d]").unwrap().canonicalize();
        let b = parse_path("//a//b[.//d][.//c]").unwrap().canonicalize();
        let (ia, ta) = interner.intern(a);
        let (ib, tb) = interner.intern(b);
        assert_eq!(ia, ib);
        assert!(Arc::ptr_eq(&ta, &tb));
        let (ic, _) = interner.intern(parse_path("//a//b").unwrap().canonicalize());
        assert_ne!(ia, ic);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn spellings_share_one_entry() {
        let cache = PreparedCache::with_capacity(8);
        let e1 = prepare(&cache, "//a//b[.//c][.//d]", 1);
        let e2 = prepare(&cache, " //a//b[ .//d ][ .//c ] ", 1);
        assert!(Arc::ptr_eq(&e1, &e2), "spellings must share prepared state");
        let s = cache.stats();
        assert_eq!(s.entries, 2, "both strings cached");
        assert_eq!(s.canonical, 1, "one canonical entry");
        assert_eq!(s.misses, 2);
        // Warm hits on both spellings.
        prepare(&cache, "//a//b[.//c][.//d]", 1);
        prepare(&cache, " //a//b[ .//d ][ .//c ] ", 1);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn epoch_mismatch_re_prepares_without_reparse() {
        let cache = PreparedCache::with_capacity(8);
        let old = prepare(&cache, "//a//b", 1);
        assert_eq!(old.epoch(), 1);
        let fresh = prepare(&cache, "//a//b", 2);
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(fresh.id(), old.id(), "identity survives the epoch bump");
        assert!(!Arc::ptr_eq(&old, &fresh));
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.canonical, 1, "stale entry replaced, not duplicated");
    }

    #[test]
    fn lru_evicts_oldest_string() {
        let cache = PreparedCache::with_capacity(2);
        prepare(&cache, "//a//b", 1);
        prepare(&cache, "//a//c", 1);
        prepare(&cache, "//a//b", 1); // refresh b's stamp
        prepare(&cache, "//a//d", 1); // evicts //a//c
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // b stayed (hit), c was evicted (miss again), d present.
        prepare(&cache, "//a//b", 1);
        assert_eq!(cache.stats().hits, 2);
        prepare(&cache, "//a//c", 1);
        assert_eq!(cache.stats().misses, 4, "b, c, d cold + c re-missed");
    }

    #[test]
    fn eviction_drops_unpinned_canonical_state() {
        let cache = PreparedCache::with_capacity(1);
        prepare(&cache, "//a//b", 1);
        assert_eq!(cache.stats().canonical, 1);
        prepare(&cache, "//a//c", 1); // evicts //a//b, unpins its entry
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.canonical, 1, "unpinned prepared state dropped");
        assert_eq!(s.interned, 1, "evicted identity released with it");
        // A re-interned pattern gets a fresh id and works as before.
        let back = prepare(&cache, "//a//b", 1);
        assert_eq!(back.twig().to_string(), "a[//b]");
        assert_eq!(cache.stats().interned, 1);
    }

    /// Evicting one spelling of a query must not tear down state shared
    /// with the spelling being inserted (pin-before-evict): the
    /// canonical entry, its plan memo slot and the interned identity
    /// all survive.
    #[test]
    fn evicting_a_sibling_spelling_keeps_shared_state() {
        let cache = PreparedCache::with_capacity(1);
        let a = prepare(&cache, "//a//b[.//c][.//d]", 1);
        // An equivalent spelling evicts the first string but shares its
        // canonical identity.
        let b = prepare(&cache, "//a//b[.//d][.//c]", 1);
        assert!(Arc::ptr_eq(&a, &b), "shared entry must survive eviction");
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.canonical, 1, "tier-2 entry kept alive by new pin");
        assert_eq!(s.interned, 1, "identity not released while pinned");
        // A third spelling still resolves to the very same entry.
        let c = prepare(&cache, " //a//b[ .//d ][ .//c ]", 1);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().interned, 1);
    }

    /// Sustained distinct-query churn (the adversarial serving case the
    /// CLOCK bound exists for) must keep every tier — strings, canonical
    /// entries, interned identities — bounded.
    #[test]
    fn distinct_query_churn_stays_bounded() {
        let cache = PreparedCache::with_capacity(4);
        let paths: Vec<String> = (0..200).map(|i| format!("//a//p{i}")).collect();
        for p in &paths {
            prepare(&cache, p, 1);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.canonical, 4);
        assert_eq!(s.interned, 4, "interner must not grow with history");
        assert_eq!(s.evictions, 196);
    }

    /// The CLOCK hand must keep a hot working set resident through
    /// sustained distinct-query churn (the workload the old LRU
    /// min-scan paid O(entries) per eviction for), with every counter
    /// staying exact: hits + misses == lookups, and evictions ==
    /// insertions − capacity.
    #[test]
    fn clock_keeps_hot_set_through_churn_with_exact_counters() {
        let cap = 8;
        let cache = PreparedCache::with_capacity(cap);
        let hot: Vec<String> = (0..4).map(|i| format!("//hot//h{i}")).collect();
        let mut lookups = 0u64;
        let mut distinct = 0u64;
        for round in 0..200 {
            // Touch the hot set every round so its reference bits stay
            // set when the hand sweeps past.
            for p in &hot {
                prepare(&cache, p, 1);
                lookups += 1;
            }
            // Four distinct cold queries churn the remaining slots.
            for k in 0..4 {
                prepare(&cache, &format!("//cold//c{round}x{k}"), 1);
                lookups += 1;
                distinct += 1;
            }
        }
        let s = cache.stats();
        assert_eq!(s.entries, cap, "tier 1 stays at capacity");
        assert_eq!(s.canonical, cap, "tier 2 follows the pins");
        assert_eq!(s.interned, cap, "interner follows the cache");
        // Counter exactness: every lookup is a hit or a miss, every
        // miss inserted, every insertion beyond capacity evicted.
        assert_eq!(s.hits + s.misses, lookups);
        let insertions = s.misses;
        assert_eq!(s.evictions, insertions - cap as u64);
        // The hot set was never evicted: 4 cold misses only, per round,
        // plus the first-round hot misses.
        assert_eq!(s.misses, distinct + hot.len() as u64);
        for p in &hot {
            let before = cache.stats().hits;
            prepare(&cache, p, 1);
            assert_eq!(cache.stats().hits, before + 1, "{p} must be resident");
        }
    }

    #[test]
    fn twig_api_shares_tier_two() {
        let cache = PreparedCache::with_capacity(8);
        let from_path = prepare(&cache, "//a//b[.//c][.//d]", 3);
        let twig = parse_path("//a//b[.//d][.//c]").unwrap();
        let resolve =
            |id: TwigId, t: &Arc<TwigNode>| Ok(PreparedQuery::new(id, t.clone(), 3, Vec::new()));
        let from_twig = cache.get_or_prepare_twig(&twig, 3, &resolve).unwrap();
        assert!(Arc::ptr_eq(&from_path, &from_twig));
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PreparedCache::with_capacity(8);
        let resolve: ResolveFn<'_> = &resolve_ok;
        for _ in 0..2 {
            let err = cache.get_or_prepare_path(
                "//a[",
                7,
                || {
                    parse_path("//a[")
                        .map(|t| t.canonicalize())
                        .map_err(Into::into)
                },
                resolve,
            );
            assert!(err.is_err());
        }
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 2, "errors re-resolve every time");
    }
}
