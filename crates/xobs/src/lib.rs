//! `xmlest-xobs` — offline, dependency-free observability core for the
//! estimation engine: counters, latency histograms, an event journal,
//! and stage span timing behind one cloneable [`Recorder`] handle.
//!
//! # Design: why sharded, why log buckets, why a seqlock journal
//!
//! The engine's warm estimate path is wait-free and zero-alloc
//! (enforced by `tests/alloc_discipline.rs` and xlint rule R6), so
//! everything that records on that path must be too:
//!
//! - **Counters** ([`Counter`]) are split into [`SHARDS`] cache-padded
//!   `AtomicU64` cells. Each thread picks a shard once (round-robin at
//!   first use, cached in a `const`-initialized thread-local `Cell`, so
//!   shard selection allocates nothing) and every increment is a single
//!   relaxed `fetch_add` on its own cache line. Reading a counter
//!   *folds* the shards — sums them — which is O(SHARDS) and racy only
//!   in the benign sense: a fold concurrent with writers sees some
//!   prefix of each writer's increments, never a torn or double count.
//! - **Latency histograms** ([`LatencyHistogram`]) bucket a nanosecond
//!   value by its bit width (bucket *b* holds `2^(b-1) ..= 2^b - 1`),
//!   so recording is one `leading_zeros` plus one sharded `fetch_add`
//!   — no comparison ladder, no floats, and ~1 significant digit of
//!   resolution, plenty for p50/p99 serving dashboards. Quantiles are
//!   computed at snapshot time from the folded bucket counts and are
//!   reported as the *upper edge* of the selected bucket, so a reported
//!   quantile always bounds the true sample from above (and its bucket
//!   lower edge bounds it from below) — a property test in
//!   `tests/telemetry.rs` pins this.
//! - **The event journal** ([`EventJournal`]) is a fixed-capacity
//!   power-of-two ring of per-slot seqlocks. A writer claims a global
//!   sequence number with one `fetch_add`, marks its slot odd, writes
//!   the fixed-size payload, and marks the slot even; readers validate
//!   the sequence before and after copying and simply skip slots that
//!   are mid-write. Writers never wait, never allocate, and never
//!   block readers; the journal keeps the most recent `capacity`
//!   events and drops older ones by construction.
//! - **Spans** ([`Recorder::span`], [`StageClock`]) time the estimate
//!   pipeline stages ([`Stage`]). When the recorder is disabled no
//!   clock is read at all, which is what makes the
//!   `telemetry_overhead` bench's on/off comparison honest.
//!
//! Registration (creating a named counter/histogram) takes a write
//! lock and may allocate — it is a cold, startup-time operation. The
//! typed registry requires a non-empty doc string for every metric;
//! xlint rule R7 (`metrics-discipline`) enforces the same contract
//! lexically across the workspace.

pub mod clock;

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of counter/histogram shards. A small power of two: enough to
/// keep a handful of serving threads off each other's cache lines
/// without bloating fold cost.
pub const SHARDS: usize = 16;
const SHARD_MASK: usize = SHARDS - 1;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `b >= 1`
/// holds values whose bit width is `b` (range `2^(b-1) ..= 2^b - 1`).
pub const BUCKETS: usize = 65;

/// One cache line per shard so concurrent writers don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Round-robin shard assignment, cached per thread. `const`-initialized
/// thread-local access performs no allocation and no locking, keeping
/// `Counter::add` legal on the zero-alloc warm path.
#[inline]
fn shard_index() -> usize {
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    SHARD.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        let fresh = NEXT.fetch_add(1, Ordering::Relaxed) & SHARD_MASK;
        s.set(fresh);
        fresh
    })
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic, sharded, lock-free counter. Cloning shares the
/// underlying shards; [`Counter::value`] folds them. Counters are
/// **monotonic for the life of the owning registry** — there is no
/// reset; consumers that want rates keep their own previous sample.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Counter {
    /// A fresh counter at zero, unattached to any registry.
    pub fn new() -> Counter {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| PaddedU64::default())),
        }
    }

    /// Adds `n`. One relaxed `fetch_add` on this thread's shard:
    /// lock-free, wait-free, zero-alloc.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1; see [`Counter::add`].
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Folds the shards into the current total. Concurrent increments
    /// may or may not be included, but the result is never torn.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Whether `other` is a handle to this same counter.
    pub fn same_as(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: PaddedU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: PaddedU64::default(),
        }
    }
}

/// A log-bucketed latency histogram: recording is one bit-width
/// computation plus two relaxed `fetch_add`s on this thread's shard
/// (bucket count and exact nanosecond sum) — lock-free and zero-alloc.
/// Like [`Counter`], histograms are monotonic and never reset.
#[derive(Clone)]
pub struct LatencyHistogram {
    shards: Arc<[HistShard; SHARDS]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Bucket index for a nanosecond value: 0 for 0, else the bit width.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

impl LatencyHistogram {
    /// A fresh empty histogram, unattached to any registry.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            shards: Arc::new(std::array::from_fn(|_| HistShard::default())),
        }
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        shard.sum_ns.0.fetch_add(ns, Ordering::Relaxed);
    }

    /// Folds every shard into an owned [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        let mut sum_ns = 0u64;
        for shard in self.shards.iter() {
            for (i, b) in shard.buckets.iter().enumerate() {
                counts[i] = counts[i].wrapping_add(b.load(Ordering::Relaxed));
            }
            sum_ns = sum_ns.wrapping_add(shard.sum_ns.0.load(Ordering::Relaxed));
        }
        HistogramSnapshot { counts, sum_ns }
    }

    /// Whether `other` is a handle to this same histogram.
    pub fn same_as(&self, other: &LatencyHistogram) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count())
            .field("p50_ns", &s.quantile_ns(0.5))
            .finish()
    }
}

/// A folded, immutable view of a [`LatencyHistogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; see [`BUCKETS`] for the bucket scheme.
    pub counts: [u64; BUCKETS],
    /// Exact sum of all recorded nanosecond values.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.wrapping_add(c))
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper edge of the bucket holding the `q`-quantile sample
    /// (`0.0 ..= 1.0`). The returned value is `>=` the true quantile of
    /// the recorded samples and `<=` twice it (log-bucket guarantee);
    /// 0 when the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.quantile_bucket(q).map_or(0, bucket_upper)
    }

    /// Lower edge of the bucket holding the `q`-quantile sample — a
    /// lower bound on the true quantile. 0 when empty.
    pub fn quantile_lower_ns(&self, q: f64) -> u64 {
        self.quantile_bucket(q).map_or(0, bucket_lower)
    }

    /// Upper bound on the largest recorded sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, bucket_upper)
    }

    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-quantile sample, 1-based, at least 1.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(i);
            }
        }
        Some(BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `b`.
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Inclusive lower edge of bucket `b`.
fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

// ---------------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------------

/// What happened; the coarse event taxonomy shared by the engine and
/// the catalog store. Payload fields `a`/`b` of [`Event`] are
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// A new serving snapshot was published. `a` = frozen prepared
    /// twigs carried, `b` = 1 if the snapshot is degraded.
    SnapshotPublish = 1,
    /// A summary refresh committed. `a` = documents re-bucketed, `b` =
    /// pre-refresh drift in millionths.
    Refresh = 2,
    /// An automatic refresh attempt failed. `a` = consecutive strike
    /// count after this failure, `b` = backoff window in mutation
    /// ticks.
    RefreshStrike = 3,
    /// An automatic refresh was skipped because the backoff window is
    /// still open. `a` = mutation clock, `b` = backoff deadline.
    BackoffSkip = 4,
    /// The database entered refresh-degraded mode. `a` = strike count.
    DegradedEnter = 5,
    /// A successful refresh cleared refresh-degraded mode.
    DegradedExit = 6,
    /// A catalog shard failed validation and was quarantined at load.
    /// `a` = quarantined shard ordinal (load order).
    ShardQuarantine = 7,
    /// The prepared-query cache evicted an entry under CLOCK pressure.
    /// `a` = total evictions so far.
    CacheEviction = 8,
    /// The catalog store persisted a generation. `a` = generation id.
    StoreSave = 9,
    /// The catalog store fell back past corrupt generations while
    /// opening. `a` = generation served, `b` = generations skipped.
    StoreFallback = 10,
}

impl EventKind {
    /// All kinds, for exporters and tests.
    pub const ALL: [EventKind; 10] = [
        EventKind::SnapshotPublish,
        EventKind::Refresh,
        EventKind::RefreshStrike,
        EventKind::BackoffSkip,
        EventKind::DegradedEnter,
        EventKind::DegradedExit,
        EventKind::ShardQuarantine,
        EventKind::CacheEviction,
        EventKind::StoreSave,
        EventKind::StoreFallback,
    ];

    /// Stable snake_case name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SnapshotPublish => "snapshot_publish",
            EventKind::Refresh => "refresh",
            EventKind::RefreshStrike => "refresh_strike",
            EventKind::BackoffSkip => "backoff_skip",
            EventKind::DegradedEnter => "degraded_enter",
            EventKind::DegradedExit => "degraded_exit",
            EventKind::ShardQuarantine => "shard_quarantine",
            EventKind::CacheEviction => "cache_eviction",
            EventKind::StoreSave => "store_save",
            EventKind::StoreFallback => "store_fallback",
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| *k as u64 == code)
    }
}

/// One structured journal entry. `seq` is the global 1-based event
/// number: strictly increasing across the journal's lifetime, so gaps
/// in a read-back reveal exactly which events were overwritten or
/// mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global 1-based sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Database epoch at record time.
    pub epoch: u64,
    /// Kind-specific payload; see [`EventKind`].
    pub a: u64,
    /// Kind-specific payload; see [`EventKind`].
    pub b: u64,
}

struct Slot {
    /// Seqlock word: `2*n - 1` while event `n` is being written into
    /// this slot, `2*n` once it is complete, 0 when never used.
    seq: AtomicU64,
    kind: AtomicU64,
    epoch: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Default journal capacity (events). Power of two.
pub const JOURNAL_CAP: usize = 256;

/// Fixed-capacity lock-free ring of the most recent [`Event`]s.
/// Writers are wait-free (one `fetch_add` plus five relaxed stores
/// bracketed by the per-slot seqlock); readers copy out whatever is
/// consistent and skip slots that are mid-overwrite. The journal
/// **never loses the most recent `capacity` completed events** in
/// quiescence; under active writing a reader may additionally skip the
/// handful of entries being overwritten at that instant.
pub struct EventJournal {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventJournal {
    /// A journal holding the `capacity` most recent events; `capacity`
    /// is rounded up to a power of two (minimum 8).
    pub fn with_capacity(capacity: usize) -> EventJournal {
        let cap = capacity.max(8).next_power_of_two();
        EventJournal {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::default()).collect(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one event. Wait-free; never allocates.
    pub fn record(&self, kind: EventKind, epoch: u64, a: u64, b: u64) {
        let n = self.head.fetch_add(1, Ordering::AcqRel) + 1;
        let mask = self.slots.len() - 1;
        let Some(slot) = self.slots.get((n as usize - 1) & mask) else {
            return; // unreachable: mask bounds the index
        };
        // Seqlock write protocol: odd marks the slot in-flight. The
        // release fence orders the odd mark before the payload stores,
        // so any reader that observes fresh payload also observes the
        // odd (or later) sequence and rejects the slot.
        slot.seq.store(2 * n - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.epoch.store(epoch, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * n, Ordering::Release);
    }

    /// Copies out the most recent events, oldest first. Entries being
    /// overwritten concurrently are skipped rather than returned torn.
    pub fn recent(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        if head == 0 {
            return Vec::new();
        }
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap - 1).max(1);
        let mask = self.slots.len() - 1;
        let mut out = Vec::with_capacity((head - lo + 1) as usize);
        for n in lo..=head {
            let Some(slot) = self.slots.get((n as usize - 1) & mask) else {
                continue;
            };
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * n {
                continue; // mid-write, overwritten, or not yet visible
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let epoch = slot.epoch.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while we copied
            }
            if let Some(kind) = EventKind::from_code(kind) {
                out.push(Event {
                    seq: n,
                    kind,
                    epoch,
                    a,
                    b,
                });
            }
        }
        out
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity())
            .field("total", &self.total())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Stages and spans
// ---------------------------------------------------------------------------

/// The estimate pipeline stages the recorder times, in pipeline order,
/// plus the maintenance refresh stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Path-string → twig pattern parse.
    Parse = 0,
    /// Twig canonicalization (normalize + sibling sort).
    Canonicalize = 1,
    /// Prepared-query resolution (cache probe or install).
    Prepare = 2,
    /// Join-order planning (cost model over orderings).
    Plan = 3,
    /// The estimation kernel itself (histogram joins).
    Kernel = 4,
    /// Summary refresh on the maintenance path (not an estimate stage).
    Refresh = 5,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 6;

/// Warm-path stage-timing sample cadence: one call in `STAGE_SAMPLE`
/// per thread arms the clock in
/// [`Recorder::stage_clock_sampled`].
pub const STAGE_SAMPLE: u32 = 16;

/// Advances the per-thread warm-path tick and reports whether this
/// call lands on the sampling cadence.
#[inline]
fn warm_sampled() -> bool {
    thread_local! {
        static TICK: Cell<u32> = const { Cell::new(0) };
    }
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v % STAGE_SAMPLE == 0
    })
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::Canonicalize,
        Stage::Prepare,
        Stage::Plan,
        Stage::Kernel,
        Stage::Refresh,
    ];

    /// Stable snake_case name for metric exposition.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Canonicalize => "canonicalize",
            Stage::Prepare => "prepare",
            Stage::Plan => "plan",
            Stage::Kernel => "kernel",
            Stage::Refresh => "refresh",
        }
    }

    /// One-line description for metric exposition.
    pub fn doc(&self) -> &'static str {
        match self {
            Stage::Parse => "Path-string to twig-pattern parse latency.",
            Stage::Canonicalize => "Twig canonicalization latency.",
            Stage::Prepare => "Prepared-query cache probe/install latency.",
            Stage::Plan => "Join-order planning latency.",
            Stage::Kernel => "Estimation kernel (histogram join) latency.",
            Stage::Refresh => "Maintenance summary-refresh latency.",
        }
    }
}

/// An RAII stage timer from [`Recorder::span`]: records the elapsed
/// nanoseconds into the stage histogram when dropped (or explicitly via
/// [`Span::finish_ns`]). Stack-only; allocates nothing. When the
/// recorder is disabled the span is inert and reads no clock.
pub struct Span<'a> {
    armed: Option<(&'a Recorder, Stage, clock::Timestamp)>,
}

impl<'a> Span<'a> {
    /// Stops the span now, records it, and returns the elapsed
    /// nanoseconds (0 if the recorder was disabled at span start).
    pub fn finish_ns(mut self) -> u64 {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> u64 {
        match self.armed.take() {
            None => 0,
            Some((rec, stage, start)) => {
                let ns = start.elapsed_ns();
                rec.stage_ns(stage, ns);
                ns
            }
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// A sequential multi-stage timer for pipelines where one stage ends
/// exactly where the next begins: each [`StageClock::lap`] reads the
/// clock once, attributing the interval since the previous lap (or
/// construction) to the given stage. Cheaper than nested [`Span`]s —
/// N+1 clock reads for N stages. Inert (no clock reads, returns 0)
/// when the recorder was disabled at construction.
pub struct StageClock {
    last: Option<clock::Timestamp>,
}

impl StageClock {
    /// Ends the current stage, records its duration, starts the next,
    /// and returns the recorded nanoseconds.
    #[inline]
    pub fn lap(&mut self, rec: &Recorder, stage: Stage) -> u64 {
        match self.last {
            None => 0,
            Some(prev) => {
                let now = clock::now();
                let ns = now.ns_since(prev);
                self.last = Some(now);
                rec.stage_ns(stage, ns);
                ns
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry and recorder
// ---------------------------------------------------------------------------

/// Name and help text of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// Prometheus-style metric name (`snake_case`, `_total` suffix for
    /// counters, `_ns` suffix for histograms).
    pub name: &'static str,
    /// One-line help text; the typed registry rejects empty docs.
    pub doc: &'static str,
}

/// The typed metric registry: every counter and histogram is created
/// through it with a static name and a **non-empty doc string** (xlint
/// R7 enforces the same rule lexically). Registration is idempotent —
/// re-registering a name returns a handle to the existing metric, so
/// components constructed twice against one recorder share state.
/// Registration locks and may allocate (cold path only); recording
/// through the returned handles never does.
pub struct Registry {
    counters: RwLock<Vec<(MetricDesc, Counter)>>,
    histograms: RwLock<Vec<(MetricDesc, LatencyHistogram)>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            counters: RwLock::new(Vec::new()),
            histograms: RwLock::new(Vec::new()),
        }
    }

    /// Registers (or looks up) the named counter. An empty `doc` marks
    /// the metric `(undocumented)` — and fails xlint R7 at the call
    /// site, which is the real enforcement.
    pub fn counter(&self, name: &'static str, doc: &'static str) -> Counter {
        let doc = if doc.is_empty() {
            "(undocumented)"
        } else {
            doc
        };
        let mut reg = read_write(&self.counters); // xlint: allow(lock-free-serving, "metric registration is a cold startup-path operation; warm-path recording goes through the returned handle")
        if let Some((_, c)) = reg.iter().find(|(d, _)| d.name == name) {
            return c.clone();
        }
        let c = Counter::new();
        reg.push((MetricDesc { name, doc }, c.clone()));
        c
    }

    /// Registers (or looks up) the named latency histogram; same
    /// contract as [`Registry::counter`].
    pub fn histogram(&self, name: &'static str, doc: &'static str) -> LatencyHistogram {
        let doc = if doc.is_empty() {
            "(undocumented)"
        } else {
            doc
        };
        let mut reg = read_write(&self.histograms); // xlint: allow(lock-free-serving, "metric registration is a cold startup-path operation; warm-path recording goes through the returned handle")
        if let Some((_, h)) = reg.iter().find(|(d, _)| d.name == name) {
            return h.clone();
        }
        let h = LatencyHistogram::new();
        reg.push((MetricDesc { name, doc }, h.clone()));
        h
    }

    /// Folded samples of every registered counter, in registration
    /// order.
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        let reg = read_shared(&self.counters); // xlint: allow(lock-free-serving, "snapshot/export path, never on the warm estimate path")
        reg.iter()
            .map(|(d, c)| CounterSample {
                name: d.name,
                doc: d.doc,
                value: c.value(),
            })
            .collect()
    }

    /// Folded snapshots of every registered histogram, in registration
    /// order.
    pub fn histogram_samples(&self) -> Vec<HistogramSample> {
        let reg = read_shared(&self.histograms); // xlint: allow(lock-free-serving, "snapshot/export path, never on the warm estimate path")
        reg.iter()
            .map(|(d, h)| HistogramSample {
                name: d.name,
                doc: d.doc,
                snap: h.snapshot(),
            })
            .collect()
    }
}

/// Poison-tolerant write guard: a panicked registrant cannot brick
/// telemetry for everyone else.
fn read_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    let guard = lock.write(); // xlint: allow(lock-free-serving, "registration lock helper; cold path only")
    match guard {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

/// Poison-tolerant read guard; see [`read_write`].
fn read_shared<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    let guard = lock.read(); // xlint: allow(lock-free-serving, "snapshot lock helper; cold path only")
    match guard {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

/// One folded counter sample for exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub doc: &'static str,
    /// Folded value at snapshot time.
    pub value: u64,
}

/// One folded histogram sample for exporters.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub doc: &'static str,
    /// Folded bucket state.
    pub snap: HistogramSnapshot,
}

/// One folded stage-latency sample.
#[derive(Debug, Clone)]
pub struct StageSample {
    /// Which pipeline stage.
    pub stage: Stage,
    /// Folded bucket state.
    pub snap: HistogramSnapshot,
}

/// Everything the recorder knows, folded at one instant.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Every registered counter.
    pub counters: Vec<CounterSample>,
    /// Every registered non-stage histogram.
    pub histograms: Vec<HistogramSample>,
    /// Per-stage latency, in [`Stage::ALL`] order.
    pub stages: Vec<StageSample>,
    /// Most recent journal events, oldest first.
    pub events: Vec<Event>,
    /// Total events ever journaled (≥ `events.len()`).
    pub events_total: u64,
}

struct RecorderInner {
    enabled: AtomicBool,
    registry: Registry,
    stages: [LatencyHistogram; STAGE_COUNT],
    journal: EventJournal,
}

/// The cloneable observability handle threaded through the engine:
/// owns the typed [`Registry`], the per-stage latency histograms, and
/// the [`EventJournal`]. All recording operations are lock-free and
/// zero-alloc; a disabled recorder (see [`Recorder::set_enabled`])
/// skips clock reads and all recording at a single branch per call,
/// which is what the `telemetry_overhead` bench toggles.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh enabled recorder with an empty registry and a
    /// [`JOURNAL_CAP`]-event journal.
    pub fn new() -> Recorder {
        Recorder::with_journal_capacity(JOURNAL_CAP)
    }

    /// [`Recorder::new`] with an explicit journal capacity.
    pub fn with_journal_capacity(capacity: usize) -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(true),
                registry: Registry::new(),
                stages: std::array::from_fn(|_| LatencyHistogram::new()),
                journal: EventJournal::with_capacity(capacity),
            }),
        }
    }

    /// Whether `other` is a handle to this same recorder.
    pub fn same_as(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Turns recording on or off. Off: spans read no clock, events and
    /// stage timings are dropped. Registered counters remain live —
    /// callers gate their warm-path increments on [`Recorder::enabled`].
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release);
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or looks up) a named counter; see
    /// [`Registry::counter`].
    pub fn counter(&self, name: &'static str, doc: &'static str) -> Counter {
        self.inner.registry.counter(name, doc) // xlint: allow(metrics-discipline, "delegation: forwards the caller's literals, where R7 is enforced")
    }

    /// Registers (or looks up) a named histogram; see
    /// [`Registry::histogram`].
    pub fn histogram(&self, name: &'static str, doc: &'static str) -> LatencyHistogram {
        self.inner.registry.histogram(name, doc) // xlint: allow(metrics-discipline, "delegation: forwards the caller's literals, where R7 is enforced")
    }

    /// Journals one structured event (dropped when disabled).
    #[inline]
    pub fn event(&self, kind: EventKind, epoch: u64, a: u64, b: u64) {
        if self.enabled() {
            self.inner.journal.record(kind, epoch, a, b);
        }
    }

    /// Records `ns` into the given stage histogram (dropped when
    /// disabled).
    #[inline]
    pub fn stage_ns(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.inner.stages[stage as usize].record(ns);
        }
    }

    /// Starts an RAII timer for `stage`; inert if disabled.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            armed: if self.enabled() {
                Some((self, stage, clock::now()))
            } else {
                None
            },
        }
    }

    /// Starts a sequential multi-stage timer; inert if disabled.
    #[inline]
    pub fn stage_clock(&self) -> StageClock {
        StageClock {
            last: if self.enabled() {
                Some(clock::now())
            } else {
                None
            },
        }
    }

    /// Starts a stage clock on a 1-in-[`STAGE_SAMPLE`] per-thread
    /// cadence; the other calls get an inert clock (no clock reads, no
    /// records). Per-estimate stage timing costs ~3 clock reads plus a
    /// handful of shard adds — more than the telemetry overhead budget
    /// allows on a sub-microsecond warm path — so the warm serving
    /// loops sample. The cadence is deterministic per thread, which
    /// keeps histogram quantiles unbiased for the steady mixes the
    /// service sees; cold paths (refresh, traced estimates) use the
    /// exact [`Recorder::stage_clock`] / [`Recorder::span`] forms.
    #[inline]
    pub fn stage_clock_sampled(&self) -> StageClock {
        if warm_sampled() {
            self.stage_clock()
        } else {
            StageClock { last: None }
        }
    }

    /// Starts a [`Span`] on the same 1-in-[`STAGE_SAMPLE`] per-thread
    /// cadence as [`Recorder::stage_clock_sampled`] (the two share one
    /// tick, so interleaved sampled spans and clocks stay uniform).
    #[inline]
    pub fn span_sampled(&self, stage: Stage) -> Span<'_> {
        if warm_sampled() {
            self.span(stage)
        } else {
            Span { armed: None }
        }
    }

    /// Read-only access to the event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.inner.journal
    }

    /// Folded snapshot of a single stage histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.inner.stages[stage as usize].snapshot()
    }

    /// Folds everything — counters, histograms, stage latencies, and
    /// the journal — into one [`ObsSnapshot`].
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            enabled: self.enabled(),
            counters: self.inner.registry.counter_samples(),
            histograms: self.inner.registry.histogram_samples(),
            stages: Stage::ALL
                .into_iter()
                .map(|stage| StageSample {
                    stage,
                    snap: self.inner.stages[stage as usize].snapshot(),
                })
                .collect(),
            events: self.inner.journal.recent(),
            events_total: self.inner.journal.total(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("events_total", &self.inner.journal.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_folds_across_threads() {
        let c = Counter::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn histogram_buckets_bound_samples() {
        let h = LatencyHistogram::new();
        for ns in [0u64, 1, 2, 3, 100, 1000, 1_000_000, u64::MAX] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.quantile_lower_ns(0.0), 0);
        assert_eq!(s.quantile_ns(1.0), u64::MAX);
        // p50 of the 8 samples is the 4th (value 3): bucket 2 covers 2..=3.
        assert_eq!(s.quantile_ns(0.5), 3);
        assert_eq!(s.quantile_lower_ns(0.5), 2);
    }

    #[test]
    fn journal_keeps_most_recent() {
        let j = EventJournal::with_capacity(8);
        for i in 0..20u64 {
            j.record(EventKind::SnapshotPublish, i, i * 2, 0);
        }
        let recent = j.recent();
        assert_eq!(recent.len(), 8);
        assert_eq!(recent[0].seq, 13);
        assert_eq!(recent[7].seq, 20);
        for e in recent {
            assert_eq!(e.a, e.epoch * 2);
        }
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let r = Recorder::new();
        let a = r.counter("xobs_test_total", "A test counter.");
        let b = r.counter("xobs_test_total", "A test counter.");
        a.inc();
        b.inc();
        assert!(a.same_as(&b));
        assert_eq!(a.value(), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::new();
        r.set_enabled(false);
        r.event(EventKind::Refresh, 1, 0, 0);
        r.stage_ns(Stage::Kernel, 100);
        {
            let _span = r.span(Stage::Parse);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events_total, 0);
        assert!(snap.stages.iter().all(|s| s.snap.count() == 0));
    }
}
