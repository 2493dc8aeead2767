//! telemetry_top: a one-screen, `top`-style summary of the engine's
//! unified observability surface, refreshed live while a mixed workload
//! (wait-free snapshot estimates from reader threads plus periodic
//! document appends) runs against a DBLP-like collection.
//!
//! Each frame prints throughput (from diffed monotonic counters —
//! the documented way to turn the telemetry's lifetime totals into
//! rates), cache hit rates, per-stage latency quantiles, the serving
//! gauges (epoch, degraded flags, grid occupancy and drift) and the
//! tail of the structured event journal. The final frame also dumps
//! the two exporter formats so their shapes are visible.
//!
//! Run with: `cargo run --release --example telemetry_top [frames]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xmlest::core::SummaryConfig;
use xmlest::datagen::dblp::{generate, DblpOptions};
use xmlest::engine::{Database, Telemetry};
use xmlest::xml::serialize::{to_xml_string, WriteOptions};

const PATHS: [&str; 6] = [
    "//article//author",
    "//article//cite",
    "//dblp//title",
    "//article//year",
    "//dblp//author",
    "//article//title",
];

fn build_collection(docs: usize) -> Database {
    let docs: Vec<(String, String)> = (0..docs)
        .map(|i| {
            let tree = generate(&DblpOptions {
                seed: 7 + i as u64,
                records: 150,
            });
            (
                format!("doc{i}.xml"),
                to_xml_string(&tree, WriteOptions::default()),
            )
        })
        .collect();
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults(),
    )
    .expect("collection builds")
}

/// One rendered frame: rates diffed against the previous snapshot.
fn render(frame: usize, dt: Duration, prev: &Telemetry, now: &Telemetry) {
    let rate = |name: &str| -> f64 {
        let d = now.counter(name).unwrap_or(0) - prev.counter(name).unwrap_or(0);
        d as f64 / dt.as_secs_f64()
    };
    println!(
        "\n== telemetry_top frame {frame} (epoch {}, recording {}) ==",
        now.epoch,
        if now.recording_enabled { "on" } else { "off" }
    );
    println!(
        "throughput: {:>9.0} estimates/s  {:>7.0} batches/s  {:>5.1} publishes/s  errors {}",
        rate("xmlest_estimates_total"),
        rate("xmlest_estimate_batches_total"),
        rate("xmlest_snapshot_publishes_total"),
        now.counter("xmlest_estimate_errors_total").unwrap_or(0),
    );
    let lookups = now.cache.hits + now.cache.misses;
    println!(
        "cache:      {:>6} entries  hit rate {:>5.1}%  evictions {}",
        now.cache.entries,
        if lookups == 0 {
            100.0
        } else {
            100.0 * now.cache.hits as f64 / lookups as f64
        },
        now.cache.evictions,
    );
    println!(
        "serving:    degraded={} store_degraded={} refresh_degraded={} quarantined={}  \
         grid {}/{} occupied, drift {:.3}",
        now.degraded,
        now.store_degraded,
        now.refresh_degraded,
        now.quarantined_shards,
        now.maintenance.occupied,
        now.maintenance.grid_capacity,
        now.maintenance.drift,
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "mean_ns", "p50_ns", "p99_ns", "max_ns"
    );
    for s in &now.stages {
        if s.count == 0 {
            continue;
        }
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
            s.stage, s.count, s.mean_ns, s.p50_ns, s.p99_ns, s.max_ns
        );
    }
    println!("events ({} total, newest last):", now.events_total);
    for e in now.events.iter().rev().take(5).rev() {
        println!(
            "  #{:<6} {:<17} epoch {:<4} a={} b={}",
            e.seq,
            e.kind.name(),
            e.epoch,
            e.a,
            e.b
        );
    }
}

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let mut db = build_collection(6);
    println!(
        "serving {} documents at epoch {}",
        db.document_names().len(),
        db.epoch()
    );

    let serving = db.serving();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Foreground load: two warm estimate loops over the snapshot
        // cell — the same wait-free path a query frontend would use.
        // They only touch the (shared) serving cell, so the main
        // thread below is free to mutate the database between frames.
        for reader in 0..2 {
            let serving = serving.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = serving.current();
                    let _ = snapshot.estimate(PATHS[i % PATHS.len()]);
                    i += 1;
                }
            });
        }

        // Background churn: one append per frame so epochs, publishes
        // and journal events move while the frames render.
        let mut prev = db.telemetry();
        let mut last = Instant::now();
        for frame in 0..frames {
            std::thread::sleep(Duration::from_millis(300));
            let tree = generate(&DblpOptions {
                seed: 1000 + frame as u64,
                records: 40,
            });
            db.add_document(
                format!("live{frame}.xml"),
                &to_xml_string(&tree, WriteOptions::default()),
            )
            .expect("append");

            let now = db.telemetry();
            render(frame, last.elapsed(), &prev, &now);
            last = Instant::now();
            prev = now;
        }
        stop.store(true, Ordering::Relaxed);
    });

    let t = db.telemetry();
    println!("\n== exporter formats ==");
    println!("--- Prometheus exposition (first 12 lines) ---");
    for line in t.to_prometheus().lines().take(12) {
        println!("{line}");
    }
    let json = t.to_json();
    println!("--- JSON ({} bytes) ---", json.len());
    println!("{}", &json[..json.len().min(400)]);
    if json.len() > 400 {
        println!("…");
    }
}
