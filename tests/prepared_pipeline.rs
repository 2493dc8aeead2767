//! Integration tests for the prepared-query pipeline: canonical
//! interning (equivalent spellings share one entry and estimate
//! bit-identically), epoch invalidation (no stale plan or resolution is
//! ever served after a collection mutation), and the prepared-cache
//! section of the telemetry.

use std::sync::Arc;
use xmlest::core::SummaryConfig;
use xmlest::engine::Database;

/// A small skewed collection: many `RA` per faculty, almost no `TA`.
fn skewed_doc(faculties: usize, ras: usize, tas: usize) -> String {
    let mut xml = String::from("<department>");
    for i in 0..faculties {
        xml.push_str("<faculty><name/>");
        for _ in 0..ras {
            xml.push_str("<RA/>");
        }
        if i < tas {
            xml.push_str("<TA/>");
        }
        xml.push_str("</faculty>");
    }
    xml.push_str("</department>");
    xml
}

fn configs() -> Vec<SummaryConfig> {
    vec![SummaryConfig::paper_defaults().with_grid_size(8), {
        let mut c = SummaryConfig::paper_defaults().with_grid_size(8);
        c.equi_depth = true;
        c
    }]
}

fn load(docs: &[(String, String)], config: &SummaryConfig) -> Database {
    Database::load_documents(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())), config).unwrap()
}

#[test]
fn equivalent_spellings_share_one_entry_and_estimate_bit_identically() {
    let db = Database::load_str(
        &skewed_doc(20, 4, 3),
        &SummaryConfig::paper_defaults().with_grid_size(8),
    )
    .unwrap();
    let spellings = [
        "//department//faculty[.//TA][.//RA]",
        "//department//faculty[.//RA][.//TA]",
        "  //department // faculty [ .//RA ] [ .//TA ] ",
        "/department//faculty[.//TA][.//RA]",
    ];
    // Cold first estimate, then warm hits: all spellings, all repeats,
    // one bit pattern.
    let cold = db.estimate(spellings[0]).unwrap().value;
    for path in spellings {
        for _ in 0..3 {
            let warm = db.estimate(path).unwrap().value;
            assert_eq!(warm.to_bits(), cold.to_bits(), "{path}");
        }
    }
    let stats = db.telemetry().cache;
    assert_eq!(stats.entries, spellings.len(), "each string cached once");
    assert_eq!(stats.canonical, 1, "one canonical entry for all spellings");
    assert_eq!(stats.misses, spellings.len() as u64);
    // 1 cold + 4×3 looped calls, of which one per spelling was a miss.
    assert_eq!(
        stats.hits,
        (1 + spellings.len() * 3 - spellings.len()) as u64
    );
    // The shared identity is literal: every spelling prepares to the
    // same Arc.
    let first = db.prepare(spellings[0]).unwrap();
    for path in &spellings[1..] {
        assert!(Arc::ptr_eq(&first, &db.prepare(path).unwrap()));
    }
}

#[test]
fn epoch_bumps_on_every_mutation() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let docs = vec![
        ("a.xml".to_owned(), skewed_doc(10, 3, 1)),
        ("b.xml".to_owned(), skewed_doc(5, 2, 2)),
    ];
    let mut db = load(&docs, &config);
    assert_eq!(db.epoch(), 1);
    db.add_document("c.xml", &skewed_doc(3, 1, 1)).unwrap();
    assert_eq!(db.epoch(), 2);
    db.remove_document("c.xml").unwrap();
    assert_eq!(db.epoch(), 3);
}

#[test]
fn cached_estimates_after_mutation_match_a_fresh_database_bit_for_bit() {
    for config in configs() {
        let base = vec![
            ("a.xml".to_owned(), skewed_doc(12, 4, 2)),
            ("b.xml".to_owned(), skewed_doc(6, 2, 3)),
        ];
        let extra = ("c.xml".to_owned(), skewed_doc(9, 1, 5));
        let paths = [
            "//department//faculty//RA",
            "//department//faculty[.//TA][.//RA]",
            "//faculty//TA",
            "//faculty//name",
        ];

        // Warm the cache (and the plan memo) before mutating.
        let mut db = load(&base, &config);
        for p in paths {
            db.estimate(p).unwrap();
            let prepared = db.prepare(p).unwrap();
            db.planner().best_plan(&prepared).ok();
        }
        let warmed = db.telemetry().cache;
        assert_eq!(warmed.canonical, paths.len());

        // Mutate: add then remove a document; the cache survives both.
        db.add_document(&extra.0, &extra.1).unwrap();
        let after_add = db.telemetry().cache;
        assert_eq!(
            after_add.entries, warmed.entries,
            "cache entries survive the mutation"
        );
        let mut with_extra = base.clone();
        with_extra.push(extra.clone());
        let fresh_add = load(&with_extra, &config);
        for p in paths {
            let cached = db.estimate(p).unwrap().value;
            let fresh = fresh_add.estimate(p).unwrap().value;
            assert_eq!(
                cached.to_bits(),
                fresh.to_bits(),
                "{p}: cached-path estimate diverged after add_document"
            );
        }
        assert_eq!(
            db.telemetry().cache.invalidations,
            after_add.invalidations + paths.len() as u64,
            "each stale entry re-prepared exactly once, never served"
        );

        db.remove_document(&extra.0).unwrap();
        let fresh_removed = load(&base, &config);
        for p in paths {
            let cached = db.estimate(p).unwrap().value;
            let fresh = fresh_removed.estimate(p).unwrap().value;
            assert_eq!(
                cached.to_bits(),
                fresh.to_bits(),
                "{p}: cached-path estimate diverged after remove_document"
            );
        }
    }
}

#[test]
fn stale_plans_are_never_served() {
    let config = SummaryConfig::paper_defaults().with_grid_size(10);
    // Start TA-scarce: the cheapest plan joins the TA edge first.
    let base = vec![("a.xml".to_owned(), skewed_doc(40, 8, 1))];
    let mut db = load(&base, &config);
    let path = "//department//faculty[.//TA][.//RA]";

    let prepared = db.prepare(path).unwrap();
    let before = db.planner().best_plan(&prepared).unwrap();
    assert_eq!(
        before.plan.steps[0].0, 2,
        "canonical TA edge (index 2) first while TA is scarce"
    );

    // Flood the collection with TAs so RA becomes the scarce side.
    for i in 0..6 {
        let mut xml = String::from("<department>");
        for _ in 0..40 {
            xml.push_str("<faculty><name/><TA/><TA/><TA/><TA/><TA/><TA/><TA/><TA/></faculty>");
        }
        xml.push_str("</department>");
        db.add_document(format!("ta{i}.xml"), &xml).unwrap();
    }

    // The held entry is stale; planning through it must transparently
    // re-prepare and re-cost. TA is now the most common predicate, so
    // the old TA-first plan cannot survive.
    assert!(prepared.epoch() < db.epoch());
    let after = db.planner().best_plan(&prepared).unwrap();
    assert_ne!(
        after.plan, before.plan,
        "serving the stale plan: join order did not re-cost"
    );
    assert_ne!(
        after.plan.steps[0].0, 2,
        "TA edge can no longer be the cheapest opener"
    );

    // A freshly built database agrees step for step.
    let mut all_docs: Vec<(String, String)> = base.clone();
    for i in 0..6 {
        let mut xml = String::from("<department>");
        for _ in 0..40 {
            xml.push_str("<faculty><name/><TA/><TA/><TA/><TA/><TA/><TA/><TA/><TA/></faculty>");
        }
        xml.push_str("</department>");
        all_docs.push((format!("ta{i}.xml"), xml));
    }
    let fresh = load(&all_docs, &config);
    let fresh_plan = fresh.planner().plan(path).unwrap().1;
    assert_eq!(after.plan, fresh_plan.plan);
    assert_eq!(after.total.to_bits(), fresh_plan.total.to_bits());
    for (a, b) in after.step_outputs.iter().zip(&fresh_plan.step_outputs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn holding_a_prepared_query_across_mutations_is_safe() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let docs = vec![("a.xml".to_owned(), skewed_doc(10, 3, 2))];
    let mut db = load(&docs, &config);
    let held = db.prepare("//faculty//RA").unwrap();
    let before_count = held.leaves()[0].count;

    db.add_document("b.xml", &skewed_doc(7, 5, 1)).unwrap();
    // Direct estimation through the stale handle refreshes first.
    let via_handle = db.estimate_prepared(&held).unwrap().value;
    let via_path = db.estimate("//faculty//RA").unwrap().value;
    assert_eq!(via_handle.to_bits(), via_path.to_bits());

    // The refreshed entry's leaf resolutions reflect the new epoch.
    let refreshed = db.refresh_prepared(&held).unwrap();
    assert_eq!(refreshed.epoch(), db.epoch());
    assert!(
        refreshed.leaves()[0].count > before_count,
        "leaf resolution re-ran against the grown collection"
    );
    // The snapshot agrees on the refreshed entry's canonical twig.
    let via_snapshot = db.snapshot().estimate_twig(refreshed.twig()).unwrap().value;
    assert_eq!(via_snapshot.to_bits(), via_path.to_bits());
}

/// A `PreparedQuery` handle is only meaningful to the database that
/// issued it; another database must re-prepare from the twig rather
/// than trust the foreign `TwigId` (ids are cache-local and collide
/// across databases).
#[test]
fn foreign_prepared_handles_resolve_to_the_right_query() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let db_a = load(&[("a.xml".to_owned(), skewed_doc(10, 3, 2))], &config);
    let mut db_b = load(&[("b.xml".to_owned(), skewed_doc(8, 2, 4))], &config);
    // db_b's first interned query gets the same numeric id as db_a's —
    // but names a different pattern.
    db_b.estimate("//faculty//name").unwrap();
    db_b.add_document("b2.xml", &skewed_doc(4, 1, 1)).unwrap();

    let held_from_a = db_a.prepare("//faculty//RA").unwrap();
    let via_handle = db_b.estimate_prepared(&held_from_a).unwrap().value;
    let direct = db_b.estimate("//faculty//RA").unwrap().value;
    assert_eq!(
        via_handle.to_bits(),
        direct.to_bits(),
        "foreign handle must estimate its own query, not the id-colliding one"
    );
}

#[test]
fn attach_dtd_invalidates_prepared_state() {
    let dtd_text = r#"
        <!ELEMENT department (faculty)+>
        <!ELEMENT faculty (name, TA*, RA*)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT TA (#PCDATA)>
        <!ELEMENT RA (#PCDATA)>
    "#;
    let dtd = xmlest::xml::dtd::parse_dtd(dtd_text).unwrap().analyze();
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let docs = vec![("a.xml".to_owned(), skewed_doc(10, 3, 2))];
    let mut db = load(&docs, &config);
    db.estimate("//faculty//RA").unwrap();
    let epoch_before = db.epoch();
    let inval_before = db.telemetry().cache.invalidations;

    db.attach_dtd(dtd);
    assert_eq!(
        db.epoch(),
        epoch_before + 1,
        "attach_dtd must bump the epoch"
    );
    // The cached entry re-prepares on next access.
    db.estimate("//faculty//RA").unwrap();
    assert!(db.telemetry().cache.invalidations > inval_before);
}

#[test]
fn telemetry_exposes_cache_counters_and_epoch() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let docs = vec![("a.xml".to_owned(), skewed_doc(10, 3, 2))];
    let db = load(&docs, &config);
    let paths = ["//faculty//RA", "//faculty//TA", "//department//name"];
    for p in paths.iter().cycle().take(30) {
        db.estimate(p).unwrap();
    }
    let t = db.telemetry();
    assert_eq!(t.epoch, 1);
    assert_eq!(t.cache.entries, paths.len());
    assert_eq!(t.cache.misses, paths.len() as u64);
    assert_eq!(t.cache.hits, 30 - paths.len() as u64);
    assert_eq!(t.cache.evictions, 0);
    assert_eq!(t.cache.canonical, paths.len());
    assert_eq!(t.counter("xmlest_estimates_total"), Some(30));
}

#[test]
fn explain_and_execution_run_on_the_prepared_pipeline() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let db = Database::load_str(&skewed_doc(20, 4, 3), &config).unwrap();
    let planner = db.planner();
    let path = "//department//faculty[.//TA][.//RA]";
    let explained = planner.explain(path, true).unwrap();
    let exec = explained.execution.as_ref().unwrap();

    // Executing through the prepared handle gives the same trace.
    let prepared = db.prepare(path).unwrap();
    let direct = planner.execute_prepared(&prepared).unwrap();
    assert_eq!(direct.step_pairs, exec.step_pairs);
    assert_eq!(direct.final_candidates, exec.final_candidates);
    // And the plan memo was shared, not recomputed per call.
    assert!(prepared.is_planned());
}
