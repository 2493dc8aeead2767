//! Summary-construction cost: the kernels every collection change
//! re-runs, plus the monolithic build and serialization round trip.
//!
//! * `shards/<layout>-<g>` — [`build_shard_summaries`] for every
//!   document of a 32-document mixed window (the end-to-end benchmark's
//!   generators, sizes and seeds, [`mixed_window`]), serially: the
//!   re-bucket a refresh, an interior removal or a cold load pays,
//!   without the thread fan-out.
//! * `shards_par/<layout>-<g>` — the same builds through the rayon
//!   shim's `par_iter`, the fan-out the engine's collection rebuild
//!   runs them with. `shards ÷ shards_par` is that fan-out's speedup on
//!   the recording machine's cores.
//! * `merge/<layout>-<g>` — [`merge_shards_stateful`] over those shards.
//! * `build/<workload>/<layout>-<g>` — [`Summaries::build`] on the dblp
//!   and dept workloads (one classification pass, then the
//!   per-predicate builds).
//! * `serialize/dblp`, `deserialize/dblp` — the catalog round trip.
//!
//! Layouts are `uniform` and `equi` (equi-depth) at g = 10, 64 and 128.
//! Run with `XMLEST_BENCH_JSON=$PWD/BENCH_build.json XMLEST_BENCH_FAST=1
//! cargo bench -p xmlest-bench --bench build_summaries` to write the
//! artifact (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use std::hint::black_box;
use xmlest_bench::{dblp_workload, dept_workload, mixed_window};
use xmlest_core::shard::{
    build_shard_summaries, classify_document, make_collection_grid, merge_shards_stateful,
    DocumentSummaryInput,
};
use xmlest_core::{summary, Summaries, SummaryConfig};
use xmlest_datagen::dept::paper_dtd;
use xmlest_predicate::Catalog;
use xmlest_xml::parser::parse_str;

const GRIDS: [u16; 3] = [10, 64, 128];

fn layouts() -> impl Iterator<Item = (String, SummaryConfig)> {
    GRIDS.into_iter().flat_map(|g| {
        [false, true].into_iter().map(move |equi| {
            let label = format!("{}-{g}", if equi { "equi" } else { "uniform" });
            let config = SummaryConfig::paper_defaults()
                .with_grid_size(g)
                .with_equi_depth(equi);
            (label, config)
        })
    })
}

/// The window classified once, like the engine's load: every tag of
/// every document (plus the mega-root's) in one catalog, documents
/// placed after the mega-root in window order.
fn classified_window() -> (Catalog, Vec<(DocumentSummaryInput, u32)>) {
    let trees: Vec<_> = mixed_window(1, 32)
        .iter()
        .map(|(_, xml)| parse_str(xml).expect("generated XML parses"))
        .collect();
    let mut catalog = Catalog::new();
    for t in &trees {
        catalog.define_all_tags(t);
    }
    catalog.define(
        xmlest_xml::MEGA_ROOT_TAG,
        xmlest_predicate::BasePredicate::Tag(xmlest_xml::MEGA_ROOT_TAG.to_owned()),
    );
    let mut offset = 1u32;
    let inputs = trees
        .iter()
        .map(|t| {
            let input = classify_document(t, &catalog);
            let placed = (input, offset);
            offset += placed.0.node_count;
            placed
        })
        .collect();
    (catalog, inputs)
}

fn bench_shards(c: &mut Criterion) {
    let (catalog, inputs) = classified_window();
    let placed: Vec<(&DocumentSummaryInput, u32)> =
        inputs.iter().map(|(input, off)| (input, *off)).collect();
    let mut group = c.benchmark_group("build_summaries");
    group.sample_size(20);
    for (label, config) in layouts() {
        let grid = make_collection_grid(&placed, &catalog, &config).expect("grid");
        let build = || -> Vec<Summaries> {
            placed
                .iter()
                .map(|&(input, off)| build_shard_summaries(input, off, &grid, &catalog, &config))
                .collect()
        };
        group.bench_function(BenchmarkId::new("shards", &label), |b| {
            b.iter(|| build().len())
        });
        group.bench_function(BenchmarkId::new("shards_par", &label), |b| {
            b.iter(|| {
                placed
                    .par_iter()
                    .map(|&(input, off)| {
                        build_shard_summaries(input, off, &grid, &catalog, &config)
                    })
                    .collect::<Vec<Summaries>>()
                    .len()
            })
        });
        let shards = build();
        let refs: Vec<&Summaries> = shards.iter().collect();
        group.bench_function(BenchmarkId::new("merge", &label), |b| {
            b.iter(|| {
                merge_shards_stateful(black_box(&refs), &grid, &catalog, &config)
                    .expect("merge")
                    .0
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let dblp = dblp_workload(5_000);
    let dept = dept_workload(10_000);

    let mut group = c.benchmark_group("build_summaries");
    group.sample_size(10);
    for (label, config) in layouts() {
        let dept_config = config.clone().with_dtd(paper_dtd().analyze());
        for (w, config) in [(&dblp, &config), (&dept, &dept_config)] {
            group.bench_function(BenchmarkId::new(format!("build/{}", w.name), &label), |b| {
                b.iter(|| {
                    Summaries::build(black_box(&w.tree), &w.catalog, config)
                        .expect("build")
                        .storage_bytes()
                })
            });
        }
    }

    let bytes = summary::to_bytes(&dblp.summaries);
    group.bench_function("serialize/dblp", |b| {
        b.iter(|| summary::to_bytes(black_box(&dblp.summaries)).len())
    });
    group.bench_function("deserialize/dblp", |b| {
        b.iter(|| summary::from_bytes(black_box(&bytes)).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_shards, bench_build);
criterion_main!(benches);
