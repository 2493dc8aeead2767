//! The unified telemetry surface: one coherent snapshot of everything
//! the engine knows about its own behavior, plus the estimate
//! provenance report.
//!
//! [`Telemetry`] is the engine's one stats surface: the prepared-cache
//! section ([`CacheStats`]), the grid-maintenance section
//! ([`MaintenanceStats`]), the `xobs` registry counters, per-stage
//! latency quantiles, and the recent event journal, with two serde-free
//! exporters: Prometheus exposition text ([`Telemetry::to_prometheus`])
//! and hand-rolled JSON ([`Telemetry::to_json`]), matching the repo's
//! hand-rolled persistence idiom.
//!
//! **Reset contract.** Everything counter-like in a [`Telemetry`]
//! (registry counters, cache hit/miss/eviction totals, stage histogram
//! counts, `events_total`) is **monotonic for the life of the
//! database** — nothing resets it; rate consumers diff successive
//! snapshots. Level gauges (cache population, grid capacity and
//! occupancy, the degraded flag) move in both directions;
//! [`MaintenanceStats`] documents which of its fields is which.
//!
//! [`TraceReport`] is the latency counterpart of the plan EXPLAIN:
//! [`crate::Database::estimate_traced`] runs the pipeline
//! stage by stage (parse → canonicalize → prepare → plan → kernel) and
//! reports where the time went, which plan and per-edge kernels served
//! the estimate, and how the prepared cache was met.

use crate::cost::CostedPlan;
use crate::maintenance::MaintenanceStats;
use crate::prepared::{CacheStats, CacheTier, TwigId};
use std::sync::Arc;
use xmlest_core::{Axis, Summaries, TwigNode};
use xmlest_predicate::PredExpr;
use xmlest_xobs::{Counter, CounterSample, Event, HistogramSnapshot, Recorder, Stage};

/// The engine's registered warm-path counters, created once per
/// database against its [`Recorder`]'s typed registry. Handles are
/// shared (sharded `Arc`s), so every snapshot of a database increments
/// the same cells.
#[derive(Debug, Clone)]
pub(crate) struct Metrics {
    /// Estimates served by snapshots.
    pub(crate) estimates: Counter,
    /// Estimates that returned an error.
    pub(crate) estimate_errors: Counter,
    /// `Snapshot::estimate_batch` calls.
    pub(crate) batches: Counter,
    /// Serving snapshots published.
    pub(crate) publishes: Counter,
}

impl Metrics {
    /// Registers (or re-binds to) the engine metric set in `rec`.
    /// Registration is idempotent by name, so calling this twice
    /// against one recorder yields handles to the same cells.
    pub(crate) fn register(rec: &Recorder) -> Metrics {
        Metrics {
            estimates: rec.counter("xmlest_estimates_total", "Estimates served by snapshots."),
            estimate_errors: rec.counter(
                "xmlest_estimate_errors_total",
                "Estimate calls that returned an error.",
            ),
            batches: rec.counter(
                "xmlest_estimate_batches_total",
                "Batched estimate calls (each serving one or more paths).",
            ),
            publishes: rec.counter(
                "xmlest_snapshot_publishes_total",
                "Serving snapshots published at mutation commit points.",
            ),
        }
    }
}

/// Folded latency of one pipeline stage, with log-bucket quantiles
/// (each reported value upper-bounds the true quantile; see the `xobs`
/// crate docs for the bucketing scheme).
#[derive(Debug, Clone)]
pub struct StageLatency {
    /// Stage name (`parse`, `canonicalize`, `prepare`, `plan`,
    /// `kernel`, `refresh`).
    pub stage: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Exact mean in nanoseconds.
    pub mean_ns: u64,
    /// Median upper bound in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile upper bound in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile upper bound in nanoseconds.
    pub p99_ns: u64,
    /// Upper bound on the largest sample in nanoseconds.
    pub max_ns: u64,
}

impl StageLatency {
    fn from_snapshot(stage: Stage, snap: &HistogramSnapshot) -> StageLatency {
        StageLatency {
            stage: stage.name(),
            count: snap.count(),
            mean_ns: snap.mean_ns(),
            p50_ns: snap.quantile_ns(0.50),
            p90_ns: snap.quantile_ns(0.90),
            p99_ns: snap.quantile_ns(0.99),
            max_ns: snap.max_ns(),
        }
    }
}

/// One coherent observability snapshot of a database: epoch,
/// degradation, the prepared-cache and maintenance sections, the
/// registry counters, per-stage latency quantiles, and the recent
/// event journal. Built by [`crate::Database::telemetry`] and
/// [`crate::MaintenanceWorker::telemetry`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Current epoch (monotonic version of everything estimates derive
    /// from).
    pub epoch: u64,
    /// Serving with quarantined documents from a degraded catalog open.
    pub degraded: bool,
    /// Documents quarantined and awaiting repair.
    pub quarantined_shards: usize,
    /// Prepared-query cache section (monotonic counters + population
    /// gauges).
    pub cache: CacheStats,
    /// Grid maintenance section.
    pub maintenance: MaintenanceStats,
    /// Every registered counter, folded.
    pub counters: Vec<CounterSample>,
    /// Per-stage latency quantiles, pipeline order.
    pub stages: Vec<StageLatency>,
    /// Most recent journal events, oldest first.
    pub events: Vec<Event>,
    /// Total events ever journaled (≥ `events.len()`).
    pub events_total: u64,
    /// Whether the recorder was enabled at snapshot time.
    pub recording_enabled: bool,
}

impl Telemetry {
    /// Assembles the unified snapshot from its per-layer parts.
    pub(crate) fn gather(
        rec: &Recorder,
        epoch: u64,
        quarantined_shards: usize,
        cache: CacheStats,
        maintenance: MaintenanceStats,
    ) -> Telemetry {
        let obs = rec.snapshot();
        Telemetry {
            epoch,
            degraded: quarantined_shards > 0,
            quarantined_shards,
            cache,
            maintenance,
            counters: obs.counters,
            stages: obs
                .stages
                .iter()
                .map(|s| StageLatency::from_snapshot(s.stage, &s.snap))
                .collect(),
            events: obs.events,
            events_total: obs.events_total,
            recording_enabled: obs.enabled,
        }
    }

    /// The named counter's folded value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named stage's latency row, if present.
    pub fn stage(&self, name: &str) -> Option<&StageLatency> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Prometheus exposition text: every registry counter with HELP and
    /// TYPE lines, engine gauges, and per-stage latency summaries.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for c in &self.counters {
            out.push_str("# HELP ");
            out.push_str(c.name);
            out.push(' ');
            out.push_str(c.doc);
            out.push_str("\n# TYPE ");
            out.push_str(c.name);
            out.push_str(" counter\n");
            out.push_str(c.name);
            out.push(' ');
            out.push_str(&c.value.to_string());
            out.push('\n');
        }
        let gauges: [(&str, &str, u64); 5] = [
            (
                "xmlest_epoch",
                "Monotonic version of everything estimates derive from.",
                self.epoch,
            ),
            (
                "xmlest_degraded",
                "1 when serving with quarantined documents.",
                self.degraded as u64,
            ),
            (
                "xmlest_quarantined_shards",
                "Documents quarantined and awaiting repair.",
                self.quarantined_shards as u64,
            ),
            (
                "xmlest_cache_entries",
                "Live tier-1 prepared-cache entries.",
                self.cache.entries as u64,
            ),
            (
                "xmlest_events_total",
                "Structured events ever journaled.",
                self.events_total,
            ),
        ];
        for (name, doc, value) in gauges {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(doc);
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push_str(" gauge\n");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out.push_str("# HELP xmlest_stage_latency_ns Per-stage estimate pipeline latency (log-bucket upper bounds).\n");
        out.push_str("# TYPE xmlest_stage_latency_ns summary\n");
        for s in &self.stages {
            for (q, v) in [("0.5", s.p50_ns), ("0.9", s.p90_ns), ("0.99", s.p99_ns)] {
                out.push_str("xmlest_stage_latency_ns{stage=\"");
                out.push_str(s.stage);
                out.push_str("\",quantile=\"");
                out.push_str(q);
                out.push_str("\"} ");
                out.push_str(&v.to_string());
                out.push('\n');
            }
            out.push_str("xmlest_stage_latency_ns_count{stage=\"");
            out.push_str(s.stage);
            out.push_str("\"} ");
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }

    /// Hand-rolled JSON (serde-free, matching the repo's persistence
    /// idiom): the whole snapshot as one object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        json_u64(&mut out, "epoch", self.epoch);
        json_bool(&mut out, "degraded", self.degraded);
        json_u64(
            &mut out,
            "quarantined_shards",
            self.quarantined_shards as u64,
        );
        json_bool(&mut out, "recording_enabled", self.recording_enabled);

        out.push_str("\"cache\":{");
        json_u64(&mut out, "hits", self.cache.hits);
        json_u64(&mut out, "misses", self.cache.misses);
        json_u64(&mut out, "invalidations", self.cache.invalidations);
        json_u64(&mut out, "evictions", self.cache.evictions);
        json_u64(&mut out, "entries", self.cache.entries as u64);
        json_u64(&mut out, "canonical", self.cache.canonical as u64);
        json_u64(&mut out, "interned", self.cache.interned as u64);
        json_u64(&mut out, "planned", self.cache.planned as u64);
        json_u64_last(&mut out, "ranked", self.cache.ranked as u64);
        out.push_str("},");

        let m = &self.maintenance;
        out.push_str("\"maintenance\":{");
        json_str_field(&mut out, "policy", &format!("{:?}", m.policy));
        json_u64(&mut out, "grid_capacity", m.grid_capacity);
        json_u64(&mut out, "occupied", m.occupied);
        json_u64(&mut out, "stable_appends", m.stable_appends);
        json_u64(&mut out, "grid_moves", m.grid_moves);
        json_u64(&mut out, "pinned_rebuilds", m.pinned_rebuilds);
        json_u64(&mut out, "overflow_appends", m.overflow_appends);
        json_u64_last(&mut out, "refreshes", m.refreshes);
        out.push_str("},");

        out.push_str("\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, c.name);
            out.push(':');
            out.push_str(&c.value.to_string());
        }
        out.push_str("},");

        out.push_str("\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str_field(&mut out, "stage", s.stage);
            json_u64(&mut out, "count", s.count);
            json_u64(&mut out, "mean_ns", s.mean_ns);
            json_u64(&mut out, "p50_ns", s.p50_ns);
            json_u64(&mut out, "p90_ns", s.p90_ns);
            json_u64(&mut out, "p99_ns", s.p99_ns);
            json_u64_last(&mut out, "max_ns", s.max_ns);
            out.push('}');
        }
        out.push_str("],");

        json_u64(&mut out, "events_total", self.events_total);
        out.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_u64(&mut out, "seq", e.seq);
            json_str_field(&mut out, "kind", e.kind.name());
            json_u64(&mut out, "epoch", e.epoch);
            json_u64(&mut out, "a", e.a);
            json_u64_last(&mut out, "b", e.b);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_u64(out: &mut String, key: &str, value: u64) {
    json_string(out, key);
    out.push(':');
    out.push_str(&value.to_string());
    out.push(',');
}

fn json_u64_last(out: &mut String, key: &str, value: u64) {
    json_string(out, key);
    out.push(':');
    out.push_str(&value.to_string());
}

fn json_bool(out: &mut String, key: &str, value: bool) {
    json_string(out, key);
    out.push(':');
    out.push_str(if value { "true" } else { "false" });
    out.push(',');
}

fn json_str_field(out: &mut String, key: &str, value: &str) {
    json_string(out, key);
    out.push(':');
    json_string(out, value);
    out.push(',');
}

// ---------------------------------------------------------------------------
// Estimate provenance
// ---------------------------------------------------------------------------

/// Which kernel one twig edge's join ran on, derived by mirroring the
/// estimator's dispatch: a parent side that still carries no-overlap
/// coverage takes the Fig. 10 co-merge, anything else the primitive
/// pH-join (Fig. 6). Parent–child edges additionally note the
/// level-histogram correction when both endpoints have level summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeKernel {
    /// Parent (ancestor-side) predicate rendering.
    pub parent: String,
    /// Child (descendant-side) predicate rendering.
    pub child: String,
    /// `"descendant"` (`//`) or `"child"` (`/`).
    pub axis: &'static str,
    /// `"no-overlap"` (coverage co-merge) or `"ph-join"` (primitive).
    pub kernel: &'static str,
    /// Whether the parent–child level-histogram correction applied.
    pub level_corrected: bool,
}

/// The estimate-provenance report returned by
/// [`crate::Database::estimate_traced`]: the estimate plus
/// everything that produced it — resolved identity, epoch, cache tier,
/// chosen plan, per-edge kernels, and per-stage wall-clock timings.
/// The EXPLAIN-for-latency counterpart of the plan EXPLAIN
/// ([`crate::Planner::explain`]).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The estimate itself — bit-identical to the untraced path's.
    pub estimate: xmlest_core::Estimate,
    /// Interned canonical identity the query resolved to.
    pub twig_id: TwigId,
    /// Epoch the estimate was served under.
    pub epoch: u64,
    /// How the query string met the prepared cache (probed before the
    /// traced run touched it).
    pub cache_tier: CacheTier,
    /// Cheapest costed plan (`None` for single-node patterns, which
    /// have nothing to order).
    pub plan: Option<Arc<CostedPlan>>,
    /// Per-edge kernel provenance, pre-order over the canonical twig.
    pub edges: Vec<EdgeKernel>,
    /// Parse-stage wall clock (0 for a warm cache hit — nothing
    /// parsed).
    pub parse_ns: u64,
    /// Canonicalize-stage wall clock (0 for a warm cache hit).
    pub canonicalize_ns: u64,
    /// Prepared-cache probe/install wall clock.
    pub prepare_ns: u64,
    /// Planning wall clock (0 when the plan was memoized).
    pub plan_ns: u64,
    /// Estimation-kernel wall clock.
    pub kernel_ns: u64,
}

impl TraceReport {
    /// Sum of the five stage timings.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns
            .saturating_add(self.canonicalize_ns)
            .saturating_add(self.prepare_ns)
            .saturating_add(self.plan_ns)
            .saturating_add(self.kernel_ns)
    }
}

/// Leaf join properties of a predicate expression, mirroring
/// `Estimator::leaf_eval`: named/base predicates read their summary,
/// compound expressions synthesize a histogram and carry no coverage.
fn leaf_props(expr: &PredExpr, summaries: &Summaries) -> (bool, bool, bool) {
    let summary = match expr {
        PredExpr::Named(name) => summaries.get(name),
        PredExpr::Base(p) => summaries.iter().find(|s| &s.pred == p),
        _ => None,
    };
    match summary {
        Some(s) => (s.no_overlap, s.cvg.is_some(), s.levels.is_some()),
        None => (false, false, false),
    }
}

/// Derives per-edge kernel provenance for a canonical twig by
/// replaying the estimator's bottom-up dispatch over the summary
/// flags: the co-merge requires (and preserves) a no-overlap parent
/// side with coverage; the primitive join clears both.
pub(crate) fn edge_kernels(twig: &TwigNode, summaries: &Summaries) -> Vec<EdgeKernel> {
    let mut out = Vec::new();
    walk_edges(twig, summaries, &mut out);
    out
}

fn walk_edges(node: &TwigNode, summaries: &Summaries, out: &mut Vec<EdgeKernel>) {
    let (mut no_overlap, mut coverage, parent_levels) = leaf_props(&node.pred, summaries);
    for child in &node.children {
        let (_, _, child_levels) = leaf_props(&child.pred, summaries);
        let merge = no_overlap && coverage;
        out.push(EdgeKernel {
            parent: node.pred.to_string(),
            child: child.pred.to_string(),
            axis: match child.axis {
                Axis::Descendant => "descendant",
                Axis::Child => "child",
            },
            kernel: if merge { "no-overlap" } else { "ph-join" },
            level_corrected: child.axis == Axis::Child && parent_levels && child_levels,
        });
        // The merge kernel keeps the accumulated parent side's
        // no-overlap coverage for the next sibling join; the primitive
        // join drops it.
        no_overlap = merge;
        coverage = merge;
        walk_edges(child, summaries, out);
    }
}
