//! Grid maintenance benchmarks: one slide of a sliding window under each
//! grid policy, and the cost of an equi-depth refresh.
//!
//! * `grid_append` — one slide per iteration, as perfbench's `ingest`
//!   stream runs it without its refresh: append the next document, then
//!   remove the oldest, on windows of growing size. **stable** runs
//!   under `GridPolicy::Slack`: the append builds one shard on the
//!   existing grid and delta-merges it, reusing every other shard
//!   summary verbatim, and the removal re-buckets the survivors on the
//!   pinned grid. **moving** runs under `GridPolicy::Static`: both
//!   mutations re-derive the grid and re-bucket every shard. Both
//!   removals are O(window); the policies differ in the append and in
//!   whether the grid moves.
//! * `grid_refresh` — a full equi-depth refresh (boundaries recomputed
//!   from the classified lists, all shards rebuilt in parallel, atomic
//!   swap): the price of one `refresh_grid` call.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_regrid.json cargo bench --bench
//! grid_maintenance` to capture the numbers (CI does). Maintenance
//! stats print after each group so the logs show the paths really
//! taken.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_core::{GridPolicy, SummaryConfig};
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_engine::Database;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

fn doc_xml(seed: u64, records: usize) -> String {
    let tree = gen_dblp(&DblpOptions { seed, records });
    to_xml_string(&tree, WriteOptions::default())
}

fn collection(n: usize, records: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| (format!("doc{i}.xml"), doc_xml(500 + i as u64, records)))
        .collect()
}

fn load(docs: &[(String, String)], policy: GridPolicy) -> Database {
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults()
            .with_equi_depth(true)
            .with_policy(policy),
    )
    .expect("collection builds")
}

/// Slack wide enough that the benched append always fits.
fn slack() -> GridPolicy {
    GridPolicy::Slack { slack_percent: 100 }
}

/// Appends window document `next` (contents cycle through `docs`, so
/// the window's contents stay fixed) and removes the oldest,
/// `next - docs.len()`.
fn slide(db: &mut Database, docs: &[(String, String)], next: &mut usize) {
    let n = docs.len();
    db.add_document(format!("doc{next}.xml"), black_box(&docs[*next % n].1))
        .unwrap();
    db.remove_document(&format!("doc{}.xml", *next - n))
        .unwrap();
    *next += 1;
}

fn bench_append(c: &mut Criterion) {
    const RECORDS: usize = 60;
    let mut group = c.benchmark_group("grid_append");
    for n in [4usize, 8, 16] {
        let docs = collection(n, RECORDS);

        let mut stable = load(&docs, slack());
        let mut next = n;
        group.bench_with_input(BenchmarkId::new("stable", n), &n, |b, _| {
            b.iter(|| slide(&mut stable, &docs, &mut next))
        });
        let s = stable.telemetry().maintenance;
        assert_eq!(
            s.grid_moves, 0,
            "stable slides must never move the grid (overflows: {})",
            s.overflow_appends
        );
        eprintln!(
            "grid_append/stable/{n}: stable_appends {} pinned_rebuilds {} \
             grid_moves {} slack_remaining {}",
            s.stable_appends,
            s.pinned_rebuilds,
            s.grid_moves,
            s.slack_remaining(),
        );

        let mut moving = load(&docs, GridPolicy::Static);
        let mut next = n;
        group.bench_with_input(BenchmarkId::new("moving", n), &n, |b, _| {
            b.iter(|| slide(&mut moving, &docs, &mut next))
        });
        let m = moving.telemetry().maintenance;
        eprintln!(
            "grid_append/moving/{n}: grid_moves {} (every mutation re-buckets)",
            m.grid_moves
        );
    }
    group.finish();
}

fn bench_refresh(c: &mut Criterion) {
    const RECORDS: usize = 60;
    let mut group = c.benchmark_group("grid_refresh");
    for n in [4usize, 8, 16] {
        let docs = collection(n, RECORDS);
        let mut db = load(&docs, slack());
        group.bench_with_input(BenchmarkId::new("refresh", n), &n, |b, _| {
            b.iter(|| db.refresh_grid().unwrap())
        });

        // Correctness probe for the logs: the refreshed database
        // estimates bit-identically to a cold build.
        let cold = load(&docs, slack());
        let warm = db.estimate("//article//author").unwrap().value;
        let want = cold.estimate("//article//author").unwrap().value;
        assert_eq!(warm.to_bits(), want.to_bits());
        eprintln!(
            "grid_refresh/{n}: refreshes {} | post-refresh estimate matches cold build",
            db.telemetry().maintenance.refreshes
        );
    }
    group.finish();
}

criterion_group!(benches, bench_append, bench_refresh);
criterion_main!(benches);
