//! Integration and property tests for the observability layer: the
//! `xobs` primitives (sharded counters, log-bucket histograms, the
//! seqlock event journal), the unified [`Telemetry`] snapshot and its
//! two exporters, and the [`estimate_traced`] provenance report.
//!
//! The contracts under test are the ones README "Observability"
//! documents: the journal never loses the most recent `capacity`
//! completed events, histogram quantiles bracket the true sample
//! quantile within one log bucket, shard folds equal serial sums,
//! tracing returns bit-identical estimates, and the telemetry sections
//! report the live cache, maintenance and counter state.
//!
//! [`Telemetry`]: xmlest_engine::Telemetry
//! [`estimate_traced`]: xmlest_engine::Database::estimate_traced

use std::thread;
use xmlest_core::SummaryConfig;
use xmlest_engine::{CacheTier, Database, EventKind, Recorder};
use xmlest_xobs::{Counter, EventJournal, LatencyHistogram, JOURNAL_CAP};

/// A small faculty corpus with enough structure for multi-edge twigs.
fn department_db() -> Database {
    let mut xml = String::from("<department>");
    for f in 0..8 {
        xml.push_str("<faculty><name/>");
        for _ in 0..(f % 4) {
            xml.push_str("<TA/>");
        }
        for _ in 0..(f % 3) {
            xml.push_str("<RA/>");
        }
        xml.push_str("</faculty>");
    }
    xml.push_str("</department>");
    Database::load_documents(
        [
            ("a.xml", xml.as_str()),
            (
                "b.xml",
                "<department><faculty><name/><TA/><RA/></faculty></department>",
            ),
        ],
        &SummaryConfig::paper_defaults().with_grid_size(16),
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// xobs primitives
// ---------------------------------------------------------------------------

/// The ring journal's core contract: after any quiescent write
/// sequence, `recent()` returns exactly the `min(total, capacity)`
/// most recent events, oldest first, with contiguous 1-based sequence
/// numbers and intact payloads — no matter how far the ring wrapped.
#[test]
fn journal_keeps_the_most_recent_events() {
    for requested in [1usize, 8, 13, 64] {
        let journal = EventJournal::with_capacity(requested);
        let cap = journal.capacity();
        assert!(cap >= requested.max(8) && cap.is_power_of_two());

        assert_eq!(journal.total(), 0);
        assert!(journal.recent().is_empty());

        // Before the ring wraps, partial fills survive whole; after,
        // exactly the newest `cap` survive. 3*cap + 5 forces > 2 wraps.
        let writes = 3 * cap + 5;
        for i in 0..writes {
            journal.record(EventKind::CacheEviction, 7, i as u64, i as u64 * 2);
            let events = journal.recent();
            let survive = (i + 1).min(cap);
            assert_eq!(events.len(), survive, "cap {cap}, write {i}");
            for (j, e) in events.iter().enumerate() {
                let seq = (i + 1 - survive + j + 1) as u64;
                assert_eq!(e.seq, seq, "contiguous seqs, oldest first");
                assert_eq!(e.kind, EventKind::CacheEviction);
                assert_eq!(e.epoch, 7);
                assert_eq!(e.a, seq - 1, "payload a survives intact");
                assert_eq!(e.b, (seq - 1) * 2, "payload b survives intact");
            }
        }
        assert_eq!(journal.total(), writes as u64);
    }

    // The recorder's built-in journal obeys the same contract through
    // the `Recorder::event` front door (rounded up to a power of two).
    let rec = Recorder::with_journal_capacity(10);
    let cap = rec.journal().capacity() as u64;
    assert_eq!(cap, 16);
    for i in 0..100u64 {
        rec.event(EventKind::StoreSave, 1, i, 0);
    }
    let events = rec.journal().recent();
    assert_eq!(events.len(), cap as usize);
    assert_eq!(events.first().unwrap().seq, 100 - cap + 1);
    assert_eq!(events.last().unwrap().seq, 100);
    // The default-capacity constructor serves `JOURNAL_CAP`.
    assert_eq!(Recorder::new().journal().capacity(), JOURNAL_CAP);
}

/// Log-bucket quantile contract: for every quantile the reported
/// `[quantile_lower_ns, quantile_ns]` window brackets the true sample
/// quantile, and the upper edge is within 2x of the true value (the
/// one-bucket guarantee). Checked against a deterministic pseudo-random
/// sample spanning nine orders of magnitude.
#[test]
fn histogram_quantiles_bound_true_samples() {
    let hist = LatencyHistogram::new();
    let mut samples: Vec<u64> = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..10_000u64 {
        // xorshift64*, masked to a magnitude that cycles 0..=8 so every
        // bucket regime (including the exact-zero bucket) is populated.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let magnitude = 10u64.pow((i % 9) as u32);
        let ns = state % magnitude;
        hist.record(ns);
        samples.push(ns);
    }
    samples.sort_unstable();

    let snap = hist.snapshot();
    assert_eq!(snap.count(), samples.len() as u64);
    let sum: u64 = samples.iter().sum();
    assert_eq!(snap.sum_ns, sum, "nanosecond sum is exact, not bucketed");
    assert_eq!(snap.mean_ns(), sum / samples.len() as u64);

    for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        // Same 1-based rank convention as the snapshot: the smallest
        // sample with at least ceil(q*n) samples at or below it.
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let truth = samples[rank - 1];
        let lower = snap.quantile_lower_ns(q);
        let upper = snap.quantile_ns(q);
        assert!(
            lower <= truth && truth <= upper,
            "q={q}: true {truth} outside [{lower}, {upper}]"
        );
        // One log bucket of slack: the upper edge never exceeds 2x the
        // true quantile (and is exact for the zero bucket).
        assert!(upper <= truth.saturating_mul(2).max(truth), "q={q}");
        if truth == 0 {
            assert_eq!(upper, 0);
        }
    }
    let true_max = *samples.last().unwrap();
    assert!(snap.max_ns() >= true_max);
    assert!(snap.max_ns() <= true_max.saturating_mul(2).max(true_max));

    // Empty histograms report zeros, not garbage.
    let empty = LatencyHistogram::new().snapshot();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.mean_ns(), 0);
    assert_eq!(empty.quantile_ns(0.5), 0);
    assert_eq!(empty.max_ns(), 0);
}

/// Sharded-counter fold contract: concurrent increments from many
/// threads (each landing on its thread-round-robin shard) fold to
/// exactly the serial sum, and cloned handles share the same cells.
#[test]
fn counter_shard_fold_equals_serial_sum() {
    let counter = Counter::new();
    let clone = counter.clone();
    assert!(counter.same_as(&clone));

    const THREADS: u64 = 8;
    const OPS: u64 = 10_000;
    thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = counter.clone();
            scope.spawn(move || {
                for i in 0..OPS {
                    // Mix add() and inc() and vary the operand so a
                    // lost or double-counted update can't cancel out.
                    if i % 2 == 0 {
                        handle.add(t + 1);
                    } else {
                        handle.inc();
                    }
                }
            });
        }
    });
    let per_thread = |t: u64| (OPS / 2) * (t + 1) + OPS / 2;
    let expected: u64 = (0..THREADS).map(per_thread).sum();
    assert_eq!(counter.value(), expected);
    assert_eq!(clone.value(), expected, "clones read the same cells");
}

// ---------------------------------------------------------------------------
// Estimate provenance
// ---------------------------------------------------------------------------

/// `estimate_traced` is EXPLAIN-for-latency, not a different estimator:
/// bit-identical values, honest cache-tier transitions (Miss on first
/// sight, PathHit warm), per-edge kernels from the documented
/// vocabulary, and stage timings that only charge stages that ran.
#[test]
fn estimate_traced_reports_faithful_provenance() {
    let db = department_db();
    let path = "//department//faculty//TA";

    let cold = db.estimate_traced(path).unwrap();
    assert_eq!(cold.cache_tier, CacheTier::Miss, "first sight is a miss");
    assert_eq!(cold.epoch, db.epoch());
    assert!(cold.estimate.value.is_finite() && cold.estimate.value > 0.0);

    // The traced run warmed tier 1, so the untraced estimate must now
    // be a cache hit returning the bit-identical value.
    let untraced = db.estimate(path).unwrap();
    assert_eq!(
        untraced.value.to_bits(),
        cold.estimate.value.to_bits(),
        "tracing must never change the math"
    );

    let warm = db.estimate_traced(path).unwrap();
    assert_eq!(warm.cache_tier, CacheTier::PathHit);
    assert_eq!(warm.twig_id, cold.twig_id, "same interned identity");
    assert_eq!(warm.estimate.value.to_bits(), cold.estimate.value.to_bits());
    // Warm hits never parse: those stages honestly read zero.
    assert_eq!(warm.parse_ns, 0);
    assert_eq!(warm.canonicalize_ns, 0);
    assert_eq!(
        warm.total_ns(),
        warm.prepare_ns + warm.plan_ns + warm.kernel_ns
    );

    // Edge provenance walks the canonical twig pre-order: two
    // descendant edges for this chain, each on a documented kernel.
    for report in [&cold, &warm] {
        assert_eq!(report.edges.len(), 2);
        assert!(report.plan.is_some(), "multi-node patterns carry a plan");
        assert_eq!(report.edges[0].parent, "department");
        assert_eq!(report.edges[0].child, "faculty");
        assert_eq!(report.edges[1].parent, "faculty");
        assert_eq!(report.edges[1].child, "TA");
        for edge in &report.edges {
            assert_eq!(edge.axis, "descendant");
            assert!(
                edge.kernel == "no-overlap" || edge.kernel == "ph-join",
                "unknown kernel {:?}",
                edge.kernel
            );
            assert!(!edge.level_corrected, "// edges take no level fixup");
        }
    }

    // Single-node patterns have no joins: no plan, no edges, and the
    // same bit-identical-estimate guarantee.
    let single = db.estimate_traced("//department").unwrap();
    assert!(single.plan.is_none());
    assert!(single.edges.is_empty());
    assert_eq!(
        single.estimate.value.to_bits(),
        db.estimate("//department").unwrap().value.to_bits()
    );
}

// ---------------------------------------------------------------------------
// Unified telemetry surface
// ---------------------------------------------------------------------------

/// One `Telemetry` snapshot reports the live state of every layer: the
/// prepared cache, the grid maintenance section, and one counted
/// estimate per `Database::estimate` call.
#[test]
fn telemetry_reports_cache_maintenance_and_counters() {
    let db = department_db();
    for path in ["//department//faculty", "//faculty//TA", "//faculty//RA"] {
        db.estimate(path).unwrap();
        db.estimate(path).unwrap(); // second pass: guaranteed cache hits
    }

    let t = db.telemetry();
    assert_eq!(t.cache.hits, 3, "the second pass hit the cache");
    assert_eq!(t.cache.misses, 3, "the first pass missed");
    assert_eq!(t.cache.entries, 3);

    let m = t.maintenance;
    assert_eq!(m.grid_capacity, db.summaries().grid().max_pos() as u64 + 1);
    assert_eq!(m.occupied, db.summaries().tree_nodes());
    assert_eq!(m.refreshes, 0);

    assert_eq!(t.epoch, db.epoch());
    assert!(!t.degraded);
    assert!(t.recording_enabled, "recording is on by default");
    assert_eq!(t.counter("xmlest_estimates_total"), Some(6));
    assert_eq!(t.counter("xmlest_estimate_errors_total"), Some(0));
    assert_eq!(t.counter("no_such_metric"), None);
}

/// A minimal structural JSON validator: tracks string/escape state and
/// bracket depth. Returns the maximum depth reached, panicking on any
/// structural violation.
fn check_json(text: &str) -> usize {
    let mut depth: Vec<char> = Vec::new();
    let mut max_depth = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else {
                assert!(c as u32 >= 0x20, "raw control character in JSON string");
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth.push(c);
                max_depth = max_depth.max(depth.len());
            }
            '}' => assert_eq!(depth.pop(), Some('{'), "mismatched closing brace"),
            ']' => assert_eq!(depth.pop(), Some('['), "mismatched closing bracket"),
            ',' | ':' | ' ' | '\n' => {}
            c => assert!(
                c.is_ascii_digit() || "truefalsnl+-.eE".contains(c),
                "unexpected JSON character {c:?}"
            ),
        }
    }
    assert!(!in_string, "unterminated string");
    assert!(depth.is_empty(), "unbalanced JSON");
    max_depth
}

/// Exporter smoke: the Prometheus text carries HELP/TYPE lines and a
/// parseable value for every counter, gauge and stage row; the JSON is
/// structurally sound and carries the same counters.
#[test]
fn exporters_render_the_full_surface() {
    let db = department_db();
    for _ in 0..2 {
        // Traced runs time every stage exactly, so parse/kernel rows
        // have samples regardless of warm-path stage sampling.
        db.estimate_traced("//department//faculty//TA").unwrap();
    }
    let t = db.telemetry();

    let prom = t.to_prometheus();
    for c in &t.counters {
        assert!(prom.contains(&format!("# HELP {} ", c.name)), "{}", c.name);
        assert!(prom.contains(&format!("# TYPE {} counter", c.name)));
        assert!(prom.contains(&format!("\n{} {}\n", c.name, c.value)));
    }
    for gauge in [
        "xmlest_epoch",
        "xmlest_degraded",
        "xmlest_quarantined_shards",
        "xmlest_cache_entries",
        "xmlest_events_total",
    ] {
        assert!(prom.contains(&format!("# TYPE {gauge} gauge")), "{gauge}");
    }
    assert!(prom.contains("# TYPE xmlest_stage_latency_ns summary"));
    let kernel = t.stage("kernel").expect("traced runs fed the kernel stage");
    assert!(kernel.count >= 2);
    assert!(prom.contains(&format!(
        "xmlest_stage_latency_ns{{stage=\"kernel\",quantile=\"0.99\"}} {}",
        kernel.p99_ns
    )));
    assert!(prom.contains(&format!(
        "xmlest_stage_latency_ns_count{{stage=\"kernel\"}} {}",
        kernel.count
    )));
    // Every sample line is `name[{labels}] value` with an integer value.
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty());
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("unparseable sample value {value:?} on line {line:?}"));
    }

    let json = t.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    let max_depth = check_json(&json);
    assert!(max_depth >= 3, "stages/events arrays nest objects");
    for key in [
        "\"epoch\":",
        "\"cache\":{",
        "\"maintenance\":{",
        "\"counters\":{",
        "\"stages\":[",
        "\"events\":[",
        "\"events_total\":",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    for c in &t.counters {
        assert!(json.contains(&format!("\"{}\":{}", c.name, c.value)));
    }
    assert!(json.contains("{\"stage\":\"kernel\""));
}
