//! Verifies the allocation discipline of the estimation hot paths:
//! steady-state pH-join kernels perform **zero heap allocations** once a
//! [`JoinWorkspace`] (and output histogram) have warmed up, and a whole
//! no-overlap twig estimate — leaf views, merge-based coverage joins,
//! arena slots, coverage overlays — performs zero heap allocations on a
//! warmed [`TwigWorkspace`].
//!
//! A counting global allocator records every `alloc`/`realloc`; the
//! warm-path assertions then demand an exact zero delta. It also tracks
//! live heap bytes, so a data-built histogram can be held to the memory
//! its cells need. This file holds a single test so no concurrent test
//! case can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlest::core::{
    Basis, Grid, JoinWorkspace, PositionHistogram, Summaries, SummaryConfig, TwigNode,
    TwigWorkspace,
};
use xmlest::engine::cost::{cost_plan_with, CostWorkspace};
use xmlest::engine::plan::{enumerate_plans, FlatTwig};
use xmlest::engine::Database;
use xmlest::prelude::Catalog;
use xmlest::xml::parser::parse_str;
use xmlest::xml::Interval;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed-free atomic
// counter; every GlobalAlloc contract obligation is delegated intact.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds GlobalAlloc's layout contract; we forward
    // the same layout to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // `layout`; `System` performed the original allocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr`/`layout` pair is the one `System.alloc` returned.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller guarantees `ptr`/`layout` describe a live System
    // allocation and `new_size` is valid per the GlobalAlloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        LIVE_BYTES.fetch_add(new_size, Ordering::SeqCst);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: forwarded verbatim; `System` owns the allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::SeqCst)
}

#[test]
fn warm_join_kernels_allocate_nothing() {
    // ---- a data-built histogram retains what its cells need ----
    //
    // 10,000 leaves in one cell make one entry. The histogram may keep
    // that entry, its row offsets and its grid, but no room sized to the
    // input list (10,000 reserved 16-byte entries would be 160 KB).
    let grid = Grid::uniform(8, 79_999).unwrap();
    let same_cell: Vec<Interval> = (0..10_000).map(|p| Interval::new(p, p)).collect();
    let mut retained = usize::MAX;
    for _ in 0..3 {
        let before = live_bytes();
        let h = PositionHistogram::from_intervals(grid.clone(), &same_cell);
        retained = retained.min(live_bytes().saturating_sub(before));
        assert_eq!(h.non_zero_cells(), 1);
        assert_eq!(h.total(), 10_000.0);
    }
    assert!(
        retained < 1024,
        "a one-cell histogram retains {retained} heap bytes"
    );

    // A realistic nested workload on a 64-bucket grid: containers
    // spanning several buckets plus leaf descendants everywhere.
    let grid = Grid::uniform(64, 4095).unwrap();
    let containers: Vec<Interval> = (0..60)
        .map(|k| Interval::new(k * 68, k * 68 + 60))
        .collect();
    let leaves: Vec<Interval> = (0..2000)
        .map(|p| Interval::new(2 * p + 1, 2 * p + 1))
        .collect();
    let anc = PositionHistogram::from_intervals(grid.clone(), &containers);
    let desc = PositionHistogram::from_intervals(grid.clone(), &leaves);

    let mut ws = JoinWorkspace::new();
    let mut out = PositionHistogram::empty(grid);

    // Warm-up: buffers grow to the working size here.
    for basis in [Basis::AncestorBased, Basis::DescendantBased] {
        ws.ph_join_total(&anc, &desc, basis).unwrap();
        ws.ph_join_into(&anc, &desc, basis, &mut out).unwrap();
    }

    // Steady state: the kernel must not touch the allocator at all. The
    // libtest harness's coordinator thread can allocate concurrently
    // (it shares the global allocator), so measure a few independent
    // rounds and require at least one clean zero — the kernels run
    // thousands of times across rounds, so any allocation *they* made
    // would show up in every round.
    let expected = ws.ph_join_total(&anc, &desc, Basis::AncestorBased).unwrap();
    let mut sum = 0.0;
    let mut min_delta = usize::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for _ in 0..50 {
            sum += ws.ph_join_total(&anc, &desc, Basis::AncestorBased).unwrap();
            sum += ws
                .ph_join_total(&anc, &desc, Basis::DescendantBased)
                .unwrap();
            ws.ph_join_into(&anc, &desc, Basis::AncestorBased, &mut out)
                .unwrap();
            sum += out.total();
        }
        min_delta = min_delta.min(allocation_count() - before);
    }
    assert_eq!(
        min_delta, 0,
        "warm pH-join kernels performed {min_delta} heap allocations in every round"
    );
    // The loop really ran the kernels.
    assert!(sum.is_finite() && sum > 0.0);
    assert!((out.total() - expected).abs() < 1e-9);

    // ---- whole-twig no-overlap estimation on the arena ----
    //
    // A three-level twig over no-overlap predicates with coverage: the
    // estimate exercises leaf views, both merge-based coverage joins via
    // the ancestor-based composition, overlay propagation, and the slot
    // pool. Warm estimates must never touch the allocator.
    let mut xml = String::from("<department>");
    for f in 0..40 {
        xml.push_str("<faculty><name/>");
        for _ in 0..(f % 4) {
            xml.push_str("<TA/>");
        }
        for _ in 0..(f % 3) {
            xml.push_str("<RA/>");
        }
        xml.push_str("</faculty>");
    }
    xml.push_str("</department>");
    let tree = parse_str(&xml).unwrap();
    let mut catalog = Catalog::new();
    catalog.define_all_tags(&tree);
    let summaries = Summaries::build(
        &tree,
        &catalog,
        &SummaryConfig::paper_defaults().with_grid_size(32),
    )
    .unwrap();
    let fac = summaries.get("faculty").unwrap();
    assert!(
        fac.no_overlap && fac.cvg.is_some(),
        "workload must exercise the coverage-join path"
    );
    let est = summaries.estimator();
    let twig = TwigNode::named("department").descendant(
        TwigNode::named("faculty")
            .descendant(TwigNode::named("TA"))
            .descendant(TwigNode::named("RA")),
    );
    let mut tws = TwigWorkspace::new();
    // Warm-up: slot pool and scratch planes grow to working size here.
    let expected_twig = est.estimate_twig_with(&mut tws, &twig).unwrap().value;
    for _ in 0..3 {
        est.estimate_twig_with(&mut tws, &twig).unwrap();
    }

    let mut twig_sum = 0.0;
    let mut min_delta = usize::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for _ in 0..50 {
            twig_sum += est.estimate_twig_with(&mut tws, &twig).unwrap().value;
        }
        min_delta = min_delta.min(allocation_count() - before);
    }
    assert_eq!(
        min_delta, 0,
        "warm whole-twig estimates performed {min_delta} heap allocations in every round"
    );
    assert!(expected_twig.is_finite() && expected_twig > 0.0);
    assert!((twig_sum - 250.0 * expected_twig).abs() < 1e-6 * expected_twig.max(1.0));

    // ---- view-based plan costing ----
    //
    // The optimizer prices every plan of every query; the satellite
    // refactor routes all cardinalities through the estimator's
    // view-based totals (`node_total`, `twig_match_total`) and memoizes
    // induced sub-twigs in a `CostWorkspace`. Once every induced
    // sub-twig of the query has been seen, re-costing the plans must
    // not touch the allocator.
    let est = summaries.estimator();
    let flat = FlatTwig::from_twig(&twig);
    let plans = enumerate_plans(&flat, 100);
    assert!(plans.len() >= 2, "need multiple plans to exercise costing");
    let mut cws = CostWorkspace::new();
    // Warm-up: populate the induced-twig memo across all plans.
    let mut expected_cost = 0.0;
    for _ in 0..3 {
        expected_cost = 0.0;
        for p in &plans {
            expected_cost += cost_plan_with(&est, &flat, p, &mut cws).unwrap();
        }
    }
    let mut cost_sum = 0.0;
    let mut min_delta = usize::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for _ in 0..50 {
            for p in &plans {
                cost_sum += cost_plan_with(&est, &flat, p, &mut cws).unwrap();
            }
        }
        min_delta = min_delta.min(allocation_count() - before);
    }
    assert_eq!(
        min_delta, 0,
        "warm plan costing performed {min_delta} heap allocations in every round"
    );
    assert!(expected_cost.is_finite() && expected_cost > 0.0);
    assert!((cost_sum - 250.0 * expected_cost).abs() < 1e-6 * expected_cost.max(1.0));

    // ---- warm estimate entry points ----
    //
    // Every estimate runs on a published snapshot. Once warm, no entry
    // point may touch the allocator: `Database::estimate` and
    // `Database::estimate_prepared` (a prepared-cache hit — read-locked
    // map probe, epoch check, reference-bit store, `Arc` clone — then
    // the snapshot's thread-local workspace), and `Snapshot::estimate_with`
    // / `Snapshot::estimate` on paths in the snapshot's frozen twig map.
    let mut db = Database::load_documents(
        [
            ("a.xml", xml.as_str()),
            (
                "b.xml",
                "<department><faculty><name/><TA/><RA/></faculty></department>",
            ),
        ],
        &SummaryConfig::paper_defaults().with_grid_size(16),
    )
    .unwrap();
    let paths = [
        "//department//faculty//TA",
        "//faculty//RA",
        "//department//name",
        "//faculty//name",
    ];
    for p in paths {
        db.estimate(p).unwrap();
    }
    // The next publish freezes the prepared paths into its twig map.
    db.add_document(
        "c.xml",
        "<department><faculty><name/><RA/></faculty></department>",
    )
    .unwrap();
    let snap = db.snapshot();
    let hot = paths[0];
    let held = db.prepare(hot).unwrap();
    let mut ws = TwigWorkspace::new();
    let mut warm = |sum: &mut f64| {
        *sum += db.estimate(hot).unwrap().value;
        *sum += db.estimate_prepared(&held).unwrap().value;
        for p in paths {
            *sum += snap.estimate_with(&mut ws, p).unwrap().value;
            *sum += snap.estimate(p).unwrap().value;
        }
    };
    let mut expected_single = 0.0;
    for _ in 0..3 {
        expected_single = 0.0;
        warm(&mut expected_single);
    }
    let mut single_sum = 0.0;
    let mut min_delta = usize::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for _ in 0..50 {
            warm(&mut single_sum);
        }
        min_delta = min_delta.min(allocation_count() - before);
    }
    assert_eq!(
        min_delta, 0,
        "warm estimates performed {min_delta} heap allocations in every round"
    );
    assert!(expected_single.is_finite() && expected_single > 0.0);
    assert!((single_sum - 250.0 * expected_single).abs() < 1e-6 * expected_single);

    // ---- instrumented warm path: recording is zero-alloc ----
    //
    // Everything above already ran with the xobs recorder enabled (the
    // database default), so recording was measured implicitly. This
    // section makes the contract explicit: with recording on, a warm
    // loop that exercises counters, sampled stage clocks, kernel spans
    // through the published snapshot, and the seqlock event journal
    // must stay allocation-free — and must *actually record* (counter
    // and journal deltas are asserted, so a silently disabled recorder
    // cannot fake a pass).
    let rec = db.recorder();
    assert!(rec.enabled(), "recording is on by default");
    let estimates_before = db
        .telemetry()
        .counter("xmlest_estimates_total")
        .unwrap_or(0);
    let events_before = db.telemetry().events_total;
    let mut obs_sum = 0.0;
    let mut min_delta = usize::MAX;
    for round in 0..5u64 {
        let before = allocation_count();
        for i in 0..50u64 {
            obs_sum += db.estimate(hot).unwrap().value;
            obs_sum += db.estimate_prepared(&held).unwrap().value;
            rec.event(xmlest::engine::EventKind::CacheEviction, round, i, 0);
        }
        min_delta = min_delta.min(allocation_count() - before);
    }
    assert_eq!(
        min_delta, 0,
        "instrumented warm estimates performed {min_delta} heap allocations in every round"
    );
    assert!(obs_sum > 0.0);
    let estimates_after = db
        .telemetry()
        .counter("xmlest_estimates_total")
        .unwrap_or(0);
    // 250 path estimates + 250 prepared estimates landed.
    assert!(
        estimates_after >= estimates_before + 500,
        "recording was supposed to be live: {estimates_before} -> {estimates_after}"
    );
    assert_eq!(db.telemetry().events_total, events_before + 250);
}
