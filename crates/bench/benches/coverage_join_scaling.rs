//! No-overlap coverage-join benchmarks (the Fig. 10 estimators).
//!
//! Implementations of the same estimate:
//! * `ancestor_merge` / `descendant_merge` — the merge-based kernels:
//!   one co-merge over the flat histogram rows, the coverage table's
//!   CSR/covering-major orders, and two dense dominance tables, running
//!   on a reused [`TwigWorkspace`] arena slot (zero allocations warm);
//! * `ancestor_nested` / `descendant_nested` — the pre-merge nested
//!   per-cell-pair loops with a binary-search coverage probe per pair,
//!   retained as `*_no_overlap_reference`.
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_coverage.json cargo bench --bench
//! coverage_join_scaling` to capture the numbers (CI does). The
//! acceptance bar for the merge refactor is ≥ 2× over the nested
//! baseline at g ≥ 64.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_bench::dept_workload;
use xmlest_core::no_overlap::{
    ancestor_join_into, ancestor_join_no_overlap_reference, descendant_join_into,
    descendant_join_no_overlap_reference, NodeStats, StatsSlot, TwigWorkspace,
};
use xmlest_core::Summaries;

/// The covering predicate with the richest coverage table plus a
/// descendant histogram — the heaviest no-overlap pair the workload
/// offers at this grid size.
fn pick_pair(s: &Summaries) -> (NodeStats, NodeStats) {
    let anc = s
        .iter()
        .filter(|p| p.cvg.is_some() && p.count > 1)
        .max_by_key(|p| p.cvg.as_ref().map_or(0, |c| c.partial_entries()))
        .expect("dept workload has no-overlap predicates with coverage");
    let desc = s
        .iter()
        .filter(|p| p.name != anc.name && p.count > 0)
        .max_by_key(|p| p.count)
        .expect("descendant predicate");
    let x = NodeStats::leaf(anc.hist.clone(), anc.cvg.clone(), true);
    let y = NodeStats::leaf(desc.hist.clone(), None, true);
    (x, y)
}

fn bench_coverage_join(c: &mut Criterion) {
    let w = dept_workload(10_000);
    let mut group = c.benchmark_group("coverage_join");
    for g in [10u16, 20, 40, 64, 96, 128] {
        let s = w.at_grid(g);
        let (x, y) = pick_pair(&s);
        let cvg = x.cvg.clone().expect("covering predicate has coverage");

        group.bench_with_input(BenchmarkId::new("ancestor_nested", g), &g, |b, _| {
            b.iter(|| {
                ancestor_join_no_overlap_reference(black_box(&x), black_box(&y), black_box(&cvg))
                    .unwrap()
                    .match_total()
            })
        });
        let mut ws = TwigWorkspace::new();
        let mut out = StatsSlot::new();
        group.bench_with_input(BenchmarkId::new("ancestor_merge", g), &g, |b, _| {
            b.iter(|| {
                ancestor_join_into(
                    &mut ws,
                    black_box(&x).view(),
                    black_box(&y).view(),
                    &mut out,
                )
                .unwrap();
                out.match_total()
            })
        });
        group.bench_with_input(BenchmarkId::new("descendant_nested", g), &g, |b, _| {
            b.iter(|| {
                descendant_join_no_overlap_reference(black_box(&x), black_box(&y), black_box(&cvg))
                    .unwrap()
                    .match_total()
            })
        });
        group.bench_with_input(BenchmarkId::new("descendant_merge", g), &g, |b, _| {
            b.iter(|| {
                descendant_join_into(
                    &mut ws,
                    black_box(&x).view(),
                    black_box(&y).view(),
                    &mut out,
                )
                .unwrap();
                out.match_total()
            })
        });

        // The two paths must agree before their timings mean anything.
        let merged = {
            ancestor_join_into(&mut ws, x.view(), y.view(), &mut out).unwrap();
            out.match_total()
        };
        let nested = ancestor_join_no_overlap_reference(&x, &y, &cvg)
            .unwrap()
            .match_total();
        assert!(
            (merged - nested).abs() < 1e-6 * nested.abs().max(1.0),
            "g={g}: merge {merged} vs nested {nested}"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_coverage_join);
criterion_main!(benches);
