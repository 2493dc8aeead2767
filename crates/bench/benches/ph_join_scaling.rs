//! pH-join algorithm benchmarks (Section 3.3's time analysis).
//!
//! Implementations of the same estimate, fastest to slowest:
//! * `workspace_total` — the three-pass partial-sum algorithm of Fig. 9
//!   (O(g²) work) on a reused [`JoinWorkspace`]: zero allocations in
//!   steady state;
//! * `three_pass` — the same kernel through the convenience wrapper that
//!   stands up a fresh workspace per call;
//! * `btreemap_baseline` — the pre-refactor implementation
//!   (`BTreeMap` storage, dense matrices re-allocated per call), kept so
//!   the storage refactor's speedup stays measured;
//! * `reference` — the naive region-sum (O(g⁴)), the paper's "summation
//!   work in the inner loop is repeated several times".
//!
//! Run with `XMLEST_BENCH_JSON=BENCH_phjoin.json cargo bench --bench
//! ph_join_scaling` to capture the numbers (CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmlest_bench::baseline::BTreeHistogram;
use xmlest_bench::dept_workload;
use xmlest_core::ph_join::{ph_join, ph_join_reference, JoinWorkspace};
use xmlest_core::Basis;

fn bench_ph_join(c: &mut Criterion) {
    let w = dept_workload(10_000);
    let mut group = c.benchmark_group("ph_join");
    for g in [10u16, 20, 40, 64, 80, 128] {
        let s = w.at_grid(g);
        let anc = s.get("department").unwrap().hist.clone();
        let desc = s.get("email").unwrap().hist.clone();
        let anc_btree = BTreeHistogram::from_flat(&anc);
        let desc_btree = BTreeHistogram::from_flat(&desc);

        group.bench_with_input(BenchmarkId::new("three_pass", g), &g, |b, _| {
            b.iter(|| {
                ph_join(black_box(&anc), black_box(&desc), Basis::AncestorBased)
                    .unwrap()
                    .total()
            })
        });
        let mut ws = JoinWorkspace::new();
        group.bench_with_input(BenchmarkId::new("workspace_total", g), &g, |b, _| {
            b.iter(|| {
                ws.ph_join_total(black_box(&anc), black_box(&desc), Basis::AncestorBased)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("btreemap_baseline", g), &g, |b, _| {
            b.iter(|| BTreeHistogram::ph_join_total(black_box(&anc_btree), black_box(&desc_btree)))
        });
        group.bench_with_input(BenchmarkId::new("reference", g), &g, |b, _| {
            b.iter(|| {
                ph_join_reference(black_box(&anc), black_box(&desc), Basis::AncestorBased)
                    .unwrap()
                    .total()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ph_join);
criterion_main!(benches);
