//! Delta-maintenance benchmark: the incremental merge a stable append
//! runs against the full fold it replaces.
//!
//! * `delta_merge` — core-level: extending an n-shard merged view by
//!   one new shard via [`merge_delta`] (O(new-document cells)) versus
//!   re-folding all n+1 shards with [`merge_shards_stateful`] (O(total
//!   non-zero cells)). The delta arm is flat in n; the full arm grows
//!   linearly. The engine-level slide that runs it is `grid_append`
//!   in `BENCH_regrid.json`.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_delta.json cargo bench --bench
//! delta_maintenance` to capture the numbers (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_core::shard::{merge_delta, merge_shards_stateful};
use xmlest_core::{GridPolicy, Summaries, SummaryConfig};
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

/// A slack policy, so the load builds the padded grid an appending
/// collection serves on.
fn slack() -> GridPolicy {
    GridPolicy::Slack { slack_percent: 100 }
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

fn bench_delta_merge(c: &mut Criterion) {
    const RECORDS: usize = 60;
    let mut group = c.benchmark_group("delta_merge");
    for n in [4usize, 8, 16, 32] {
        // n existing shards plus the one being appended, all built on
        // one shared grid by the collection load.
        let docs = collection(n + 1, RECORDS);
        let db = load(&docs, slack());
        let names = db.document_names();
        let shards: Vec<&Summaries> = names
            .iter()
            .map(|name| db.shard_summaries(name).expect("shard present"))
            .collect();
        let grid = db.summaries().grid();
        let (prev, state) = merge_shards_stateful(&shards[..n], grid, db.catalog(), db.config())
            .expect("prefix merge");

        group.bench_with_input(BenchmarkId::new("delta", n), &n, |b, _| {
            b.iter(|| {
                merge_delta(
                    black_box(&prev),
                    &state,
                    shards[n],
                    grid,
                    db.catalog(),
                    db.config(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| {
                merge_shards_stateful(black_box(&shards), grid, db.catalog(), db.config()).unwrap()
            })
        });

        // Correctness probe for the logs: the delta result is
        // bit-identical to the full fold, carried state included.
        let (delta, delta_state) =
            merge_delta(&prev, &state, shards[n], grid, db.catalog(), db.config()).unwrap();
        let (full, full_state) =
            merge_shards_stateful(&shards, grid, db.catalog(), db.config()).unwrap();
        delta.bit_identical(&full).expect("delta ≡ full merge");
        assert_eq!(delta_state, full_state, "carried merge state matches");
        eprintln!("delta_merge/{n}: delta result bit-identical to full fold");
    }
    group.finish();
}

criterion_group!(benches, bench_delta_merge);
criterion_main!(benches);
