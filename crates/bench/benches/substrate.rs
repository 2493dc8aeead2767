//! Substrate benchmarks: the pieces under the estimator — XML parsing,
//! interval labeling (free with our arena), exact matching, structural
//! joins and the optimizer's plan search.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xmlest_bench::{dblp_workload, dept_workload, DEPT_BENCH_NODES};
use xmlest_engine::Database;
use xmlest_query::structural::count_ad_pairs;
use xmlest_query::{count_matches, parse_path};
use xmlest_xml::parser::parse_str;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};

fn bench_substrate(c: &mut Criterion) {
    let dblp = dblp_workload(2_000);
    let xml = to_xml_string(&dblp.tree, WriteOptions::default());

    let mut group = c.benchmark_group("substrate");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("xml_parse/dblp_2k_records", |b| {
        b.iter(|| parse_str(black_box(&xml)).unwrap().len())
    });
    group.finish();

    let mut group = c.benchmark_group("matcher");
    for q in ["//article//author", "//article[.//cite][.//cdrom]"] {
        let twig = parse_path(q).unwrap();
        group.bench_function(q, |b| {
            b.iter(|| count_matches(black_box(&dblp.tree), &dblp.catalog, &twig).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("structural_join");
    let articles = dblp
        .tree
        .intervals_where(|n| dblp.tree.tag_name(n) == Some("article"));
    let authors = dblp
        .tree
        .intervals_where(|n| dblp.tree.tag_name(n) == Some("author"));
    group.bench_function("article_author_pairs", |b| {
        b.iter(|| count_ad_pairs(black_box(&articles), black_box(&authors)))
    });
    group.finish();

    // Planner cost: full enumeration and costing, uncached.
    let dept = dept_workload(DEPT_BENCH_NODES);
    let xml = to_xml_string(&dept.tree, WriteOptions::default());
    let db = Database::load_str(&xml, &xmlest_core::SummaryConfig::paper_defaults()).unwrap();
    let planner = db.planner();
    let twig = parse_path("//manager//department[.//employee][.//email]").unwrap();
    let mut group = c.benchmark_group("optimizer");
    group.bench_function("plan_4_node_twig", |b| {
        b.iter(|| planner.costed_plans(black_box(&twig)).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
