//! Serving-architecture benchmarks: catalog persistence and batched
//! snapshot estimation.
//!
//! * `catalog_load` — cold rebuild (parse + classify + shard build +
//!   merge via `Database::load_documents`) versus `Database::open_catalog`
//!   (deserialize the persisted summaries and shards, zero tree
//!   traversal), per document count. The acceptance bar is
//!   catalog open ≥ 5× faster than cold rebuild at ≥ 8 documents.
//! * `service_batch` — a batch of repeated path queries served one at a
//!   time through `Database::estimate` versus drained through
//!   `Snapshot::estimate_batch` (one resolve and one kernel run per
//!   distinct string, fanned back to every slot), per batch size.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_catalog.json cargo bench --bench
//! catalog_service` to capture the numbers (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_core::SummaryConfig;
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::Database;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

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

fn bench_catalog_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalog_load");
    for n in [2usize, 4, 8, 16] {
        let docs = collection(n);
        let bytes = load(&docs).save_catalog();

        group.bench_with_input(BenchmarkId::new("cold_rebuild", n), &n, |b, _| {
            b.iter(|| load(black_box(&docs)).summaries().tree_nodes())
        });
        group.bench_with_input(BenchmarkId::new("catalog_open", n), &n, |b, _| {
            b.iter(|| {
                Database::open_catalog(black_box(&bytes))
                    .expect("catalog reopens")
                    .summaries()
                    .tree_nodes()
            })
        });
    }
    group.finish();
}

fn bench_service_batch(c: &mut Criterion) {
    let docs = collection(8);
    let db = load(&docs);
    let paths = [
        "//article//author",
        "//article//cite",
        "//dblp//title",
        "//article//year",
        "//dblp//author",
        "//article//title",
    ];
    let mut group = c.benchmark_group("service_batch");
    for batch_size in [64usize, 256, 1024] {
        let path_batch: Vec<&str> = paths.iter().cycle().take(batch_size).copied().collect();

        group.bench_with_input(
            BenchmarkId::new("one_at_a_time", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    let mut sum = 0.0;
                    for &p in &path_batch {
                        sum += db.estimate(black_box(p)).unwrap().value;
                    }
                    sum
                })
            },
        );
        let snapshot = db.snapshot();
        group.bench_with_input(
            BenchmarkId::new("service_batch", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    snapshot
                        .estimate_batch(black_box(&path_batch))
                        .into_iter()
                        .map(|r| r.unwrap().value)
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_catalog_load, bench_service_batch);
criterion_main!(benches);
