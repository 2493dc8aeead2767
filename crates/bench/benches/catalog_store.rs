//! Durability-layer benchmarks: what the crash-consistent store costs
//! on the hot paths an operator actually pays.
//!
//! * `store_save` — `Database::save_to_store` (serialize + temp write +
//!   fsync + rename + dir fsync + prune) against the in-memory backend,
//!   per document count: the pure store overhead with the device
//!   removed from the measurement.
//! * `store_open` — `Database::open_store` on a clean two-generation
//!   store: the recovery read everyone pays at startup (newest
//!   generation validates strictly on the first try).
//! * `store_open_degraded` — the same open when the only generation has
//!   one corrupted shard section: strict validation fails, the lenient
//!   open quarantines the victim and re-merges the survivors. This is
//!   the worst-path price of serving through corruption.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_store.json cargo bench --bench
//! catalog_store` to capture the numbers (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_core::{CatalogStore, MemBackend, StorageBackend, SummaryConfig};
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::Database;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

/// A collection of `n` distinct DBLP-shaped documents (~1.4k nodes
/// each).
fn collection(n: usize) -> Database {
    let docs: Vec<(String, String)> = (0..n)
        .map(|i| {
            let tree = gen_dblp(&DblpOptions {
                seed: 300 + i as u64,
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

/// Corrupts the middle of the `victim`-th SHARD frame in catalog bytes.
fn corrupt_shard(bytes: &mut [u8], victim: usize) {
    let mut at = 22usize;
    let mut seen = 0;
    loop {
        let kind = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        if kind == 3 {
            seen += 1;
            if seen == victim {
                bytes[at + 17 + len / 2] ^= 0x20;
                return;
            }
        }
        at += 17 + len;
    }
}

fn bench_store_save(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_save");
    for n in [2usize, 8, 16] {
        let db = collection(n);
        // One long-lived backend: repeated saves keep the retention
        // window at two generations, so every measured save pays the
        // steady-state prune too.
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        group.bench_with_input(BenchmarkId::new("save_to_store", n), &n, |b, _| {
            b.iter(|| db.save_to_store(black_box(&store)).expect("save commits"))
        });
    }
    group.finish();
}

fn bench_store_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_open");
    for n in [2usize, 8, 16] {
        let db = collection(n);

        // Clean store with two generations (the retention steady state).
        let clean = MemBackend::new();
        {
            let store = CatalogStore::new(&clean);
            db.save_to_store(&store).unwrap();
            db.save_to_store(&store).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("open_clean", n), &n, |b, _| {
            b.iter(|| {
                let store = CatalogStore::new(black_box(&clean));
                let (db, open) = Database::open_store(&store).expect("clean open");
                assert!(open.report.is_clean());
                db.summaries().tree_nodes()
            })
        });

        // Single generation with one corrupted shard section: the open
        // must fail strict validation, then recover leniently.
        let damaged = MemBackend::new();
        let generation = {
            let store = CatalogStore::new(&damaged);
            db.save_to_store(&store).unwrap()
        };
        let name = format!("gen-{generation:012}.xctl");
        let mut bytes = damaged.read(&name).unwrap();
        corrupt_shard(&mut bytes, n / 2 + 1);
        damaged.write(&name, &bytes).unwrap();
        group.bench_with_input(BenchmarkId::new("open_degraded", n), &n, |b, _| {
            b.iter(|| {
                let store = CatalogStore::new(black_box(&damaged));
                let (db, open) = Database::open_store(&store).expect("degraded open");
                assert_eq!(open.report.quarantined.len(), 1);
                db.summaries().tree_nodes()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_store_save, bench_store_open);
criterion_main!(benches);
