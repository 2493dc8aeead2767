//! Observability overhead: warm estimate latency with the `xobs`
//! recorder on versus off.
//!
//! The instrumentation contract (README "Observability") is that
//! recording costs a handful of relaxed atomic adds and clock reads on
//! the warm path — nothing allocates, nothing locks — so enabling it
//! must not move the tail. This harness measures the same warm
//! single-thread `Database::estimate` loop (prepared-cache hit, then the
//! snapshot kernel) twice over one database:
//!
//! * `recording_off` — `Recorder::set_enabled(false)`: spans and stage
//!   clocks are inert, counter increments are skipped at the call
//!   sites.
//! * `recording_on` — the default: every estimate lands in the stage
//!   histograms and throughput counters.
//!
//! Per mode it runs several rounds and keeps the **minimum** p99
//! across rounds (the de-noised tail), then reports the on/off ratio
//! against the ≤ 1.05× acceptance bar. The bar is advisory output, not
//! an assert — CI boxes are noisy and the JSON artifact is what trend
//! tracking reads.
//!
//! Before timing, the harness checks that estimates are bit-identical
//! in both modes: recording must observe, never perturb.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_obs.json cargo bench --bench
//! telemetry_overhead` to capture the numbers (CI does, with
//! `XMLEST_BENCH_FAST=1`).

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use xmlest_core::SummaryConfig;
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::Database;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

/// The query mix, round-robin per op — same shape as the
/// `concurrent_serving` scenarios.
const PATHS: [&str; 6] = [
    "//article//author",
    "//article//cite",
    "//dblp//title",
    "//article//year",
    "//dblp//author",
    "//article//title",
];

fn load_collection(n: usize) -> Database {
    let docs: Vec<(String, String)> = (0..n)
        .map(|i| {
            let tree = gen_dblp(&DblpOptions {
                seed: 100 + i as u64,
                records: 200,
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

/// One mode's de-noised distribution: per-op latencies of the round
/// whose p99 was lowest.
struct Row {
    id: &'static str,
    sorted_ns: Vec<u64>,
    rounds: usize,
}

impl Row {
    fn percentile(&self, q: f64) -> u64 {
        if self.sorted_ns.is_empty() {
            return 0;
        }
        let idx = ((self.sorted_ns.len() - 1) as f64 * q).round() as usize;
        self.sorted_ns[idx]
    }

    fn mean(&self) -> f64 {
        if self.sorted_ns.is_empty() {
            return 0.0;
        }
        self.sorted_ns.iter().map(|&n| n as f64).sum::<f64>() / self.sorted_ns.len() as f64
    }
}

/// Runs `rounds` rounds of `ops` warm estimates and keeps the round
/// with the lowest p99.
fn measure(id: &'static str, db: &Database, ops: usize, rounds: usize) -> Row {
    let mut best: Option<Vec<u64>> = None;
    for _ in 0..rounds {
        let mut lat = Vec::with_capacity(ops);
        for i in 0..ops {
            let path = PATHS[i % PATHS.len()];
            let start = Instant::now();
            let est = db.estimate(path).expect("warm estimate");
            lat.push(start.elapsed().as_nanos() as u64);
            black_box(est.value);
        }
        lat.sort_unstable();
        let better = match &best {
            Some(b) => {
                let idx = (ops - 1) as f64 * 0.99;
                lat[idx.round() as usize] < b[idx.round() as usize]
            }
            None => true,
        };
        if better {
            best = Some(lat);
        }
    }
    Row {
        id,
        sorted_ns: best.unwrap_or_default(),
        rounds,
    }
}

/// Recording must observe, never perturb: both modes return
/// bit-identical estimates for the whole mix.
fn assert_bit_identical(db: &Database) {
    let mut on_bits = Vec::new();
    db.recorder().set_enabled(true);
    for path in PATHS {
        on_bits.push(db.estimate(path).expect("estimate (on)").value.to_bits());
    }
    db.recorder().set_enabled(false);
    for (path, &bits) in PATHS.iter().zip(&on_bits) {
        let off = db.estimate(path).expect("estimate (off)").value.to_bits();
        assert_eq!(
            off, bits,
            "estimate for {path} changed when recording was toggled"
        );
    }
    db.recorder().set_enabled(true);
}

fn main() {
    let fast = std::env::var("XMLEST_BENCH_FAST").is_ok();
    let ops = if fast { 2_000 } else { 10_000 };
    let rounds = if fast { 3 } else { 5 };

    let db = load_collection(8);
    // Warm the prepared entries — the measured loop is the steady
    // serving state.
    for path in PATHS {
        db.estimate(path).expect("warmup estimate");
    }

    assert_bit_identical(&db);

    // Off first so the on-mode (the default everywhere else) leaves the
    // recorder enabled for the post-run telemetry sanity print.
    db.recorder().set_enabled(false);
    let off = measure("recording_off", &db, ops, rounds);
    db.recorder().set_enabled(true);
    let on = measure("recording_on", &db, ops, rounds);

    let rows = [off, on];
    for row in &rows {
        eprintln!(
            "telemetry_overhead/{}: p50 {} ns, p99 {} ns, mean {:.1} ns ({} samples, min-of-{} rounds)",
            row.id,
            row.percentile(0.50),
            row.percentile(0.99),
            row.mean(),
            row.sorted_ns.len(),
            row.rounds,
        );
    }
    let ratio = rows[1].percentile(0.99) as f64 / rows[0].percentile(0.99).max(1) as f64;
    eprintln!("recording_on p99 is {ratio:.3}x recording_off p99 (bar: 1.05x)");

    // Sanity: the on-mode run must actually have recorded.
    let t = db.telemetry();
    let estimates = t.counter("xmlest_estimates_total");
    eprintln!(
        "telemetry check: xmlest_estimates_total = {:?}, stage rows = {}",
        estimates,
        t.stages.len()
    );

    if let Ok(path) = std::env::var("XMLEST_BENCH_JSON") {
        let mut out = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"group\": \"telemetry_overhead\", \"id\": \"{}\", \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.1}, \"samples\": {}, \"rounds\": {}}}",
                row.id,
                row.percentile(0.50),
                row.percentile(0.99),
                row.mean(),
                row.sorted_ns.len(),
                row.rounds,
            ));
        }
        out.push_str(&format!(
            ",\n  {{\"group\": \"telemetry_overhead\", \"id\": \"p99_ratio_on_vs_off\", \"ratio\": {ratio:.4}, \"bar\": 1.05}}\n]\n"
        ));
        let mut file = std::fs::File::create(&path).expect("bench json file creates");
        file.write_all(out.as_bytes()).expect("bench json writes");
        eprintln!("wrote {path}");
    }
}
