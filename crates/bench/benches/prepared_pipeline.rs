//! Prepared-query pipeline benchmarks: plan memoization and the
//! two-tier canonical cache.
//!
//! * `prepared_plans` — **cold plan** (full connected-order enumeration
//!   and costing per call, the pre-pipeline `best_plan` behavior)
//!   versus **warm prepared plan** (memoized on the `PreparedQuery`, an
//!   epoch check and an `Arc` clone), per query shape. The acceptance
//!   bar is 2x warm over cold on repeated queries — in practice the gap
//!   is orders of magnitude.
//! * `prepared_batch` — a batch of repeated path queries estimated
//!   **without any cache** (parse + estimate per query, the seed
//!   behavior) versus drained through `Snapshot::estimate_batch` (one
//!   resolve and one kernel run per distinct string), per batch size.
//!
//! Cache counters from `Database::telemetry()` print after the batch
//! group so CI logs show hit rates next to the timings. Run with
//! `XMLEST_BENCH_JSON=BENCH_plans.json cargo bench --bench
//! prepared_pipeline` to capture the numbers (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_core::SummaryConfig;
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::Database;
use xmlest_query::parse_path;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

fn collection(n: usize) -> Vec<(String, String)> {
    (0..n)
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
        .collect()
}

fn load(docs: &[(String, String)]) -> Database {
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults(),
    )
    .expect("collection builds")
}

fn bench_plan_memo(c: &mut Criterion) {
    let docs = collection(4);
    let db = load(&docs);
    let planner = db.planner();
    let queries = [
        ("two_edge", "//dblp//article//author"),
        ("three_edge", "//dblp//article[.//author][.//title]"),
        ("four_edge", "//dblp//article[.//author][.//title][.//year]"),
    ];
    let mut group = c.benchmark_group("prepared_plans");
    for (shape, path) in queries {
        let twig = parse_path(path).unwrap();
        // Cold: the pre-pipeline behavior — enumerate and cost every
        // connected order on each call.
        group.bench_with_input(BenchmarkId::new("cold_plan", shape), &path, |b, _| {
            b.iter(|| planner.costed_plans(black_box(&twig)).unwrap()[0].total)
        });
        // Warm: resolve through the prepared cache, take the memoized
        // plan.
        let prepared = planner.prepare(path).unwrap();
        planner.best_plan(&prepared).unwrap();
        group.bench_with_input(BenchmarkId::new("warm_prepared", shape), &path, |b, _| {
            b.iter(|| planner.best_plan(black_box(&prepared)).unwrap().total)
        });
    }
    group.finish();
}

fn bench_batch_cache(c: &mut Criterion) {
    let docs = collection(8);
    let db = load(&docs);
    let paths = [
        "//article//author",
        "//article//cite",
        "//dblp//title",
        "//article//year",
        "//dblp//article[.//author][.//title]",
        "//article//title",
    ];
    let mut group = c.benchmark_group("prepared_batch");
    for batch_size in [64usize, 256, 1024] {
        let path_batch: Vec<&str> = paths.iter().cycle().take(batch_size).copied().collect();

        // No cache at all: parse + estimate per query (seed behavior).
        let est = db.summaries().estimator();
        group.bench_with_input(
            BenchmarkId::new("uncached", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    let mut sum = 0.0;
                    for &p in &path_batch {
                        let twig = parse_path(black_box(p)).unwrap();
                        sum += est.estimate_twig(&twig).unwrap().value;
                    }
                    sum
                })
            },
        );
        // The batch routine over the published snapshot, workspace warm.
        let snapshot = db.snapshot();
        snapshot.estimate_batch(&path_batch);
        group.bench_with_input(
            BenchmarkId::new("prepared_warm", batch_size),
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

        // The optimizer serving loop: every query also needs its best
        // plan. Uncached = parse + full enumeration per query (the
        // pre-pipeline behavior); prepared = cache hit + memoized plan.
        // This is the repeated-query-batch speedup the pipeline exists
        // for.
        let planner = db.planner();
        group.bench_with_input(
            BenchmarkId::new("uncached_planned", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    let mut sum = 0.0;
                    for &p in &path_batch {
                        let twig = parse_path(black_box(p)).unwrap();
                        sum += planner.costed_plans(&twig).unwrap()[0].total;
                        sum += est.estimate_twig(&twig).unwrap().value;
                    }
                    sum
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("prepared_planned", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    let mut sum = 0.0;
                    for &p in &path_batch {
                        let (prepared, plan) = planner.plan(black_box(p)).unwrap();
                        sum += plan.total;
                        sum += db.estimate_prepared(&prepared).unwrap().value;
                    }
                    sum
                })
            },
        );
        let stats = db.telemetry();
        eprintln!(
            "prepared_batch/{batch_size}: epoch {} | hits {} misses {} \
             invalidations {} evictions {} | entries {} canonical {} planned {}",
            stats.epoch,
            stats.cache.hits,
            stats.cache.misses,
            stats.cache.invalidations,
            stats.cache.evictions,
            stats.cache.entries,
            stats.cache.canonical,
            stats.cache.planned,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_plan_memo, bench_batch_cache);
criterion_main!(benches);
