//! Concurrent serving latency: wait-free snapshot reads under live
//! maintenance.
//!
//! Two scenarios over the same 8-document DBLP collection and query
//! mix, each reporting per-operation p50/p99 (hand-rolled — the
//! criterion shim reports medians only, and the acceptance bar here is
//! a tail-latency ratio):
//!
//! * `read_only/direct` — reader threads call
//!   `SnapshotCell::current()` + `Snapshot::estimate_with` with no
//!   writer anywhere. The wait-free baseline.
//! * `mixed/direct` — the same readers, now racing a
//!   [`MaintenanceWorker`] that appends, removes and refreshes in a
//!   loop. The serving contract says the writer never blocks readers,
//!   so mixed p99 must stay within 2× of the read-only p99.
//!
//! Before and after timing, the harness checks that snapshot reads are
//! bit-identical to the maintenance thread's own single-threaded probe
//! on a quiescent database.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_concurrency.json cargo bench
//! --bench concurrent_serving` to capture the numbers (CI does, with
//! `XMLEST_BENCH_FAST=1`).

use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xmlest_core::{SummaryConfig, TwigWorkspace};
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::{Database, MaintenanceWorker, SnapshotCell};
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

/// The query mix every scenario serves, round-robin per reader.
const PATHS: [&str; 6] = [
    "//article//author",
    "//article//cite",
    "//dblp//title",
    "//article//year",
    "//dblp//author",
    "//article//title",
];

/// Reader threads per scenario.
const READERS: usize = 4;

/// A collection of `n` distinct DBLP-shaped documents (~1.4k nodes
/// each).
fn collection(n: usize) -> Vec<(String, String)> {
    (0..n)
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
        .collect()
}

fn load(docs: &[(String, String)]) -> Database {
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults(),
    )
    .expect("collection builds")
}

/// One scenario's latency distribution, already sorted.
struct Row {
    id: &'static str,
    sorted_ns: Vec<u64>,
}

impl Row {
    fn new(id: &'static str, mut ns: Vec<u64>) -> Row {
        ns.sort_unstable();
        Row { id, sorted_ns: ns }
    }

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

/// Spawns `READERS` threads that each run `ops` estimates straight off
/// the published snapshot, returning every per-op latency in ns.
fn direct_readers(serving: &Arc<SnapshotCell>, ops: usize) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let serving = Arc::clone(serving);
                s.spawn(move || {
                    let mut ws = TwigWorkspace::new();
                    let mut lat = Vec::with_capacity(ops);
                    for i in 0..ops {
                        let path = PATHS[(r + i) % PATHS.len()];
                        let start = Instant::now();
                        let est = serving
                            .current()
                            .estimate_with(&mut ws, path)
                            .expect("snapshot estimate");
                        lat.push(start.elapsed().as_nanos() as u64);
                        black_box(est.value);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect()
    })
}

/// Runs `body` while a mutator thread drives the maintenance worker in
/// a loop (append a scratch document, remove it, refresh), returning
/// `body`'s latencies plus the number of mutations that landed.
fn under_write_load<F>(worker: &MaintenanceWorker, body: F) -> (Vec<u64>, u64)
where
    F: FnOnce() -> Vec<u64>,
{
    let extra = {
        let tree = gen_dblp(&DblpOptions {
            seed: 999,
            records: 50,
        });
        to_xml_string(&tree, WriteOptions::default())
    };
    let stop = AtomicBool::new(false);
    let mutations = AtomicU64::new(0);
    let lat = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                // Errors are tolerated (e.g. slack exhausted mid-loop):
                // the scenario needs sustained write pressure, not a
                // particular end state.
                if worker.add_document("bench_scratch.xml", &extra).is_ok() {
                    mutations.fetch_add(1, Ordering::Relaxed);
                }
                if worker.remove_document("bench_scratch.xml").is_ok() {
                    mutations.fetch_add(1, Ordering::Relaxed);
                }
                if worker.refresh_grid().is_ok() {
                    mutations.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let lat = body();
        stop.store(true, Ordering::Relaxed);
        lat
    });
    (lat, mutations.load(Ordering::Relaxed))
}

/// Snapshot reads must agree bit-for-bit with the maintenance thread's
/// single-threaded probe on a quiescent database.
fn assert_bit_identical(worker: &MaintenanceWorker, serving: &SnapshotCell) {
    let snap = serving.current();
    let (epoch, probed) = worker.probe(&PATHS).expect("probe");
    assert_eq!(epoch, snap.epoch(), "database is quiescent");
    let mut ws = TwigWorkspace::new();
    for (path, oracle) in PATHS.iter().zip(probed) {
        let direct = snap.estimate_with(&mut ws, path).expect("direct estimate");
        assert_eq!(
            direct.value.to_bits(),
            oracle.expect("probe estimate").value.to_bits(),
            "snapshot estimate for {path} diverged from the maintenance thread"
        );
    }
}

fn main() {
    let fast = std::env::var("XMLEST_BENCH_FAST").is_ok();
    let ops = if fast { 2_000 } else { 10_000 };

    let db = load(&collection(8));
    // Warm the prepared cache, so the snapshots published under write
    // load carry these paths' twigs — the steady serving state.
    for path in PATHS {
        db.estimate(path).expect("warmup estimate");
    }
    let worker = MaintenanceWorker::spawn(db);
    let serving = worker.serving();

    assert_bit_identical(&worker, &serving);

    let read_only_direct = Row::new("read_only/direct", direct_readers(&serving, ops));
    let (lat, landed) = under_write_load(&worker, || direct_readers(&serving, ops));
    let mixed_direct = Row::new("mixed/direct", lat);

    // Quiescent again after the write load: still bit-identical.
    assert_bit_identical(&worker, &serving);

    let rows = [read_only_direct, mixed_direct];
    for row in &rows {
        eprintln!(
            "concurrent_serving/{}: p50 {} ns, p99 {} ns, mean {:.1} ns ({} samples)",
            row.id,
            row.percentile(0.50),
            row.percentile(0.99),
            row.mean(),
            row.sorted_ns.len()
        );
    }
    eprintln!("write load: {landed} mutations landed");
    let ratio = rows[1].percentile(0.99) as f64 / rows[0].percentile(0.99).max(1) as f64;
    eprintln!("mixed/direct p99 is {ratio:.2}x read_only/direct p99 (bar: 2.0x)");

    if let Ok(path) = std::env::var("XMLEST_BENCH_JSON") {
        let mut out = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"group\": \"concurrent_serving\", \"id\": \"{}\", \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.1}, \"samples\": {}, \"readers\": {}}}",
                row.id,
                row.percentile(0.50),
                row.percentile(0.99),
                row.mean(),
                row.sorted_ns.len(),
                READERS
            ));
        }
        out.push_str("\n]\n");
        let mut file = std::fs::File::create(&path).expect("bench json file creates");
        file.write_all(out.as_bytes()).expect("bench json writes");
        eprintln!("wrote {path}");
    }
}
