//! Grid maintenance: the slack-capacity stable-append path and the
//! equi-depth refresh the caller asks for.
//!
//! The acceptance bars pinned here:
//! * an `add_document` fitting within the slack re-buckets **zero**
//!   existing shards (their summary generations are untouched);
//! * the grid moves only on an overflowing append or a `refresh_grid`
//!   call — no mutation refreshes it on its own;
//! * a refresh leaves the database estimating **bit-identically** to
//!   one built cold on the same collection;
//! * cached prepared queries and memoized plans are all re-prepared
//!   after a refresh: a stale-grid plan is never served.

use proptest::prelude::*;
use std::sync::Arc;
use xmlest::core::shard::merge_shards_stateful;
use xmlest::core::{GridPolicy, Summaries, SummaryConfig};
use xmlest::engine::Database;

/// A slack policy wide enough for every append these tests make.
fn wide_slack() -> GridPolicy {
    GridPolicy::Slack { slack_percent: 300 }
}

fn doc(tag: &str, leaves: usize) -> String {
    let mut xml = format!("<doc><{tag}>");
    for _ in 0..leaves {
        xml.push_str("<leaf/>");
    }
    xml.push_str(&format!("</{tag}></doc>"));
    xml
}

fn base_config() -> SummaryConfig {
    SummaryConfig::paper_defaults()
        .with_grid_size(8)
        .with_policy(wide_slack())
}

#[test]
fn stable_append_rebuckets_zero_existing_shards() {
    let mut db = Database::load_documents(
        [
            ("a.xml", doc("alpha", 6).as_str()),
            ("b.xml", doc("beta", 4).as_str()),
        ],
        &base_config(),
    )
    .unwrap();
    let gen_a = db.shard_summaries("a.xml").unwrap().generation();
    let gen_b = db.shard_summaries("b.xml").unwrap().generation();
    let grid_before = db.summaries().grid().clone();
    let epoch = db.epoch();

    let stats = db.telemetry().maintenance;
    assert!(stats.slack_remaining() >= 10, "policy must leave slack");

    // The appended document (with a brand-new tag) fits in the slack.
    db.add_document("c.xml", &doc("gamma", 5)).unwrap();

    let stats = db.telemetry().maintenance;
    assert_eq!(stats.stable_appends, 1, "append must take the stable path");
    assert_eq!(stats.grid_moves, 0);
    assert_eq!(stats.refreshes, 0);
    // Zero re-bucketing: the existing shard summaries are the same
    // generation (reused verbatim), and the grid did not move.
    assert_eq!(db.shard_summaries("a.xml").unwrap().generation(), gen_a);
    assert_eq!(db.shard_summaries("b.xml").unwrap().generation(), gen_b);
    assert_eq!(db.summaries().grid(), &grid_before);
    assert_eq!(db.epoch(), epoch + 1, "estimates changed: epoch must bump");

    // The merged view, exact counts, index and estimates all see the
    // new document.
    assert_eq!(db.summaries().get("gamma").unwrap().count, 1);
    assert_eq!(db.summaries().get("leaf").unwrap().count, 15);
    assert_eq!(db.count("//doc//leaf").unwrap(), 15);
    assert_eq!(db.count("//gamma//leaf").unwrap(), 5);
    assert_eq!(db.index().get("leaf").unwrap().len(), 15);
    assert!(db.estimate("//doc//leaf").unwrap().value > 0.0);

    // Removing the newest document rebuilds the survivors on the pinned
    // grid, like any other removal.
    let rebuilds = stats.pinned_rebuilds;
    db.remove_document("c.xml").unwrap();
    let stats = db.telemetry().maintenance;
    assert_eq!(stats.pinned_rebuilds, rebuilds + 1);
    assert_eq!(stats.grid_moves, 0);
    assert_eq!(db.summaries().grid(), &grid_before);
    assert_eq!(db.count("//doc//leaf").unwrap(), 10);
    assert_eq!(db.summaries().get("gamma").unwrap().count, 0);
    assert_eq!(db.index().get("leaf").unwrap().len(), 10);

    // An append that adds no tag, then its removal, leaves the merged
    // view bit-identical to the one before the append.
    let before = db.summaries().clone();
    db.add_document("d.xml", &doc("alpha", 3)).unwrap();
    assert_eq!(db.telemetry().maintenance.stable_appends, 2);
    db.remove_document("d.xml").unwrap();
    assert_eq!(db.telemetry().maintenance.pinned_rebuilds, rebuilds + 2);
    db.summaries()
        .bit_identical(&before)
        .expect("append then remove restores the merged view");
}

#[test]
fn overflowing_append_moves_the_grid() {
    let mut db = Database::load_documents(
        [("a.xml", doc("alpha", 4).as_str())],
        &SummaryConfig::paper_defaults()
            .with_grid_size(8)
            .with_policy(GridPolicy::Slack { slack_percent: 10 }),
    )
    .unwrap();
    // ~10% slack on a 7-node collection cannot hold a 30-node document.
    db.add_document("big.xml", &doc("beta", 28)).unwrap();
    let stats = db.telemetry().maintenance;
    assert_eq!(stats.stable_appends, 0);
    assert_eq!(stats.overflow_appends, 1);
    assert_eq!(stats.grid_moves, 1, "overflow must re-derive the grid");
    // The re-derived grid has slack again (37 occupied, capacity 40):
    // the next 3-node document is a stable append.
    db.add_document("c.xml", &doc("gamma", 1)).unwrap();
    assert_eq!(db.telemetry().maintenance.stable_appends, 1);
    assert_eq!(db.count("//doc//leaf").unwrap(), 33);
}

#[test]
fn interior_removal_keeps_the_grid_pinned() {
    let mut db = Database::load_documents(
        [
            ("a.xml", doc("alpha", 6).as_str()),
            ("b.xml", doc("beta", 4).as_str()),
            ("c.xml", doc("gamma", 5).as_str()),
        ],
        &base_config(),
    )
    .unwrap();
    let grid_before = db.summaries().grid().clone();
    db.remove_document("a.xml").unwrap();
    // Positions compacted (shards rebuilt — counted as a pinned
    // rebuild), but the boundaries did not move: not a grid move.
    assert_eq!(db.summaries().grid(), &grid_before);
    assert_eq!(db.telemetry().maintenance.grid_moves, 0);
    assert_eq!(db.telemetry().maintenance.pinned_rebuilds, 1);
    assert_eq!(db.document_names(), vec!["b.xml", "c.xml"]);
    assert_eq!(db.count("//doc//leaf").unwrap(), 9);
    assert_eq!(db.count("//beta//leaf").unwrap(), 4);
}

#[test]
fn refresh_matches_cold_build_bit_for_bit() {
    for equi in [false, true] {
        let config = base_config().with_equi_depth(equi);
        let docs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("d{i}.xml"),
                    doc(["alpha", "beta", "gamma"][i % 3], 3 + 2 * i),
                )
            })
            .collect();

        // Incremental: build from the first two, append the rest.
        let mut db = Database::load_documents(
            docs[..2].iter().map(|(n, x)| (n.as_str(), x.as_str())),
            &config,
        )
        .unwrap();
        for (n, x) in &docs[2..] {
            db.add_document(n.as_str(), x).unwrap();
        }
        db.refresh_grid().unwrap();
        assert_eq!(db.telemetry().maintenance.refreshes, 1);

        // Cold: the same collection built in one shot.
        let cold =
            Database::load_documents(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())), &config)
                .unwrap();

        assert_eq!(
            db.summaries().grid(),
            cold.summaries().grid(),
            "equi={equi}: refresh and cold build must derive one grid"
        );
        for path in [
            "//doc//leaf",
            "//alpha//leaf",
            "//beta//leaf",
            "//gamma//leaf",
            "//doc//alpha",
        ] {
            let warm = db.estimate(path).unwrap().value;
            let want = cold.estimate(path).unwrap().value;
            assert_eq!(
                warm.to_bits(),
                want.to_bits(),
                "equi={equi} {path}: {warm} vs {want}"
            );
        }
    }
}

#[test]
fn prepared_queries_reprepare_after_refresh() {
    let config = base_config().with_equi_depth(true);
    let mut db = Database::load_documents(
        [
            ("a.xml", doc("alpha", 6).as_str()),
            ("b.xml", doc("beta", 4).as_str()),
        ],
        &config,
    )
    .unwrap();
    // Warm the prepared cache and the plan memos.
    let prepared = db.prepare("//doc//alpha[.//leaf]").unwrap();
    let planner = db.planner();
    let old_plan = planner.best_plan(&prepared).unwrap();
    let old_ranked = planner.ranked_plans(&prepared).unwrap();
    db.estimate("//doc//leaf").unwrap();
    drop(planner);
    let old_epoch = prepared.epoch();

    db.add_document("c.xml", &doc("alpha", 9)).unwrap();
    db.refresh_grid().unwrap();

    // The held handle refreshes transparently — never a stale plan.
    let fresh = db.refresh_prepared(&prepared).unwrap();
    assert_ne!(fresh.epoch(), old_epoch);
    assert!(
        !Arc::ptr_eq(&fresh, &prepared),
        "stale entry must be replaced"
    );
    assert!(!fresh.is_planned(), "plan memo must reset with the entry");
    assert!(fresh.cached_ranked_plans().is_none());
    let planner = db.planner();
    let new_plan = planner.best_plan(&fresh).unwrap();
    assert!(!Arc::ptr_eq(&old_plan, &new_plan), "plan recomputed");
    let new_ranked = planner.ranked_plans(&fresh).unwrap();
    assert!(!Arc::ptr_eq(&old_ranked, &new_ranked));

    // And the served values equal a cold build on the refreshed grid.
    let cold = Database::load_documents(
        [
            ("a.xml", doc("alpha", 6).as_str()),
            ("b.xml", doc("beta", 4).as_str()),
            ("c.xml", doc("alpha", 9).as_str()),
        ],
        &config,
    )
    .unwrap();
    let warm = db.estimate_prepared(&prepared).unwrap().value;
    let want = cold.estimate("//doc//alpha[.//leaf]").unwrap().value;
    assert_eq!(warm.to_bits(), want.to_bits());
    // A repeated path-string lookup finds the stale tier-1 entry and
    // counts the epoch invalidation.
    db.estimate("//doc//leaf").unwrap();
    assert!(db.telemetry().cache.invalidations > 0);
}

/// The policy and grid survive a catalog round trip. The session
/// counters do not: the reopened database serves estimates only, so it
/// starts them at zero.
#[test]
fn policy_survives_the_catalog() {
    let mut db = Database::load_documents(
        [("a.xml", doc("alpha", 6).as_str())],
        &base_config().with_equi_depth(true),
    )
    .unwrap();
    db.add_document("b.xml", &doc("beta", 4)).unwrap();
    let want = db.telemetry().maintenance;
    assert_eq!(want.stable_appends, 1);

    let mut reopened = Database::open_catalog(&db.save_catalog()).unwrap();
    let got = reopened.telemetry().maintenance;
    assert_eq!(got.policy, want.policy);
    assert_eq!(got.grid_capacity, want.grid_capacity);
    assert_eq!(got.occupied, want.occupied);
    assert_eq!(got.stable_appends, 0);
    assert!(reopened.add_document("c.xml", &doc("gamma", 2)).is_err());
}

#[test]
fn emptied_slack_collection_still_works() {
    let mut db =
        Database::load_documents([("a.xml", doc("alpha", 3).as_str())], &base_config()).unwrap();
    db.remove_document("a.xml").unwrap();
    assert!(db.document_names().is_empty());
    db.add_document("b.xml", &doc("beta", 4)).unwrap();
    assert_eq!(db.count("//beta//leaf").unwrap(), 4);
    assert_eq!(db.summaries().get("beta").unwrap().count, 1);
}

/// Randomized documents: any tape of appends and removals (the oldest
/// document included) followed by a refresh must land bit-identical to
/// a cold load of the surviving documents, uniform and equi-depth alike
/// — and every estimate served along the way must stay finite. The grid
/// moves only when asked: no op but an overflowing append changes it,
/// and the closing `refresh_grid` is the only refresh.
fn random_doc(shape: &[u8]) -> String {
    const TAGS: [&str; 5] = ["sec", "p", "note", "fig", "refx"];
    let mut xml = String::from("<doc>");
    let mut open: Vec<&str> = Vec::new();
    for &b in shape {
        let tag = TAGS[(b % 5) as usize];
        match b % 4 {
            0 if open.len() < 4 => {
                xml.push('<');
                xml.push_str(tag);
                xml.push('>');
                open.push(tag);
            }
            1 => {
                if let Some(t) = open.pop() {
                    xml.push_str("</");
                    xml.push_str(t);
                    xml.push('>');
                }
            }
            _ => {
                xml.push('<');
                xml.push_str(tag);
                xml.push_str("/>");
            }
        }
    }
    while let Some(t) = open.pop() {
        xml.push_str("</");
        xml.push_str(t);
        xml.push('>');
    }
    xml.push_str("</doc>");
    xml
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn refreshed_estimates_match_cold_build(
        shapes in prop::collection::vec(prop::collection::vec(0u8..255, 4..40), 2..8),
        ops in prop::collection::vec(0u8..255, 0..10),
        grid in 3u16..16,
        equi in 0u8..2,
        slack in 20u32..300,
    ) {
        const TAGS: [&str; 5] = ["sec", "p", "note", "fig", "refx"];
        let docs: Vec<(String, String)> = shapes
            .iter()
            .enumerate()
            .map(|(i, shape)| (format!("d{i}.xml"), random_doc(shape)))
            .collect();
        let config = SummaryConfig::paper_defaults()
            .with_grid_size(grid)
            .with_equi_depth(equi == 1)
            .with_policy(GridPolicy::Slack { slack_percent: slack });

        let mut db = Database::load_documents(
            docs[..1].iter().map(|(n, x)| (n.as_str(), x.as_str())),
            &config,
        ).expect("initial build");
        // Op tape: even → append the next pending document; odd →
        // remove a surviving one — the oldest when op % 4 == 1, the
        // newest when op % 4 == 3 — keeping at least one. Documents the
        // tape never reached are appended after it.
        let mut next = 1usize;
        for &op in ops.iter().chain(std::iter::repeat_n(&0, docs.len())) {
            let grid_before = db.summaries().grid().clone();
            let overflows = db.telemetry().maintenance.overflow_appends;
            if op % 2 == 0 {
                let Some((n, x)) = docs.get(next) else { continue };
                db.add_document(n.as_str(), x).expect("append");
                next += 1;
            } else {
                let names = db.document_names();
                if names.len() > 1 {
                    let victim = if op % 4 == 1 {
                        names[0].to_string()
                    } else {
                        names[names.len() - 1].to_string()
                    };
                    db.remove_document(&victim).expect("remove");
                }
            }
            // Whatever path the mutation took, serving must stay sane
            // ("doc" is in every document, so it is always resolvable).
            let est = db.estimate("//doc//doc").expect("estimate");
            prop_assert!(est.value.is_finite() && est.value >= 0.0);
            if db.telemetry().maintenance.overflow_appends == overflows {
                prop_assert_eq!(db.summaries().grid(), &grid_before);
            }
        }
        prop_assert_eq!(db.telemetry().maintenance.refreshes, 0);
        db.refresh_grid().expect("refresh");
        prop_assert_eq!(db.telemetry().maintenance.refreshes, 1);

        let survivors: Vec<(&str, &str)> = docs
            .iter()
            .filter(|(n, _)| db.document_names().contains(&n.as_str()))
            .map(|(n, x)| (n.as_str(), x.as_str()))
            .collect();
        let cold = Database::load_documents(survivors, &config).expect("cold build");

        prop_assert_eq!(db.document_names(), cold.document_names());
        prop_assert_eq!(db.summaries().grid(), cold.summaries().grid());
        // Only tags that actually occur are resolvable predicates.
        let known: Vec<&str> = TAGS
            .iter()
            .copied()
            .filter(|t| cold.summaries().get(t).is_some())
            .collect();
        for &a in &known {
            for &d in &known {
                let path = format!("//{a}//{d}");
                let warm = db.estimate(&path).expect("warm").value;
                let want = cold.estimate(&path).expect("cold").value;
                prop_assert_eq!(
                    warm.to_bits(), want.to_bits(),
                    "{}: {} vs {}", path, warm, want
                );
            }
        }
        // Counts and index lists agree with the cold build too (the
        // incrementally maintained mega-tree and index match replayed
        // ones). A tag only removed documents held stays in the warm
        // catalog and lists nothing.
        for &a in &known {
            let path = format!("//doc//{a}");
            prop_assert_eq!(db.count(&path).unwrap(), cold.count(&path).unwrap());
        }
        for entry in db.catalog().iter() {
            let warm = db.index().get(&entry.name).expect("every entry is indexed");
            let want = cold.index().get(&entry.name).unwrap_or(&[]);
            prop_assert_eq!(warm, want, "index list {}", entry.name);
        }
        prop_assert!(cold.catalog().iter().all(|e| db.index().get(&e.name).is_some()));
    }
}

/// Full re-merge of the database's *current* shards on its *current*
/// grid — the oracle both incremental maintenance paths must match.
fn full_merge_of_current_shards(db: &Database) -> Summaries {
    let names: Vec<String> = db.document_names().iter().map(|n| n.to_string()).collect();
    let shards: Vec<&Summaries> = names
        .iter()
        .map(|n| db.shard_summaries(n).expect("shard present"))
        .collect();
    let (merged, _state) =
        merge_shards_stateful(&shards, db.summaries().grid(), db.catalog(), db.config())
            .expect("full merge");
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Delta-merge ≡ full `merge_shards`: after a randomized sequence
    /// of appends and removals (appends ride the stable-grid
    /// delta-merge path whenever slack allows), the maintained merged
    /// view is bit-identical to re-merging the surviving shards from
    /// scratch on the same grid.
    #[test]
    fn delta_maintained_view_matches_full_merge(
        shapes in prop::collection::vec(prop::collection::vec(0u8..255, 4..40), 4..9),
        ops in prop::collection::vec(0u8..255, 4..12),
        grid in 3u16..16,
        equi in 0u8..2,
        slack in 20u32..300,
    ) {
        let docs: Vec<(String, String)> = shapes
            .iter()
            .enumerate()
            .map(|(i, shape)| (format!("d{i}.xml"), random_doc(shape)))
            .collect();
        let config = SummaryConfig::paper_defaults()
            .with_grid_size(grid)
            .with_equi_depth(equi == 1)
            .with_policy(GridPolicy::Slack { slack_percent: slack });

        let mut db = Database::load_documents(
            docs[..2].iter().map(|(n, x)| (n.as_str(), x.as_str())),
            &config,
        ).expect("initial build");
        // Op tape: even → append the next pending document, odd →
        // remove an arbitrary existing one (keeping at least two so
        // the database stays a collection).
        let mut next = 2usize;
        for &op in &ops {
            if op % 2 == 0 {
                if next < docs.len() {
                    let (n, x) = &docs[next];
                    db.add_document(n.as_str(), x).expect("append");
                    next += 1;
                }
            } else {
                let names: Vec<String> = db
                    .document_names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect();
                if names.len() > 2 {
                    let victim = &names[(op as usize / 2) % names.len()];
                    db.remove_document(victim).expect("remove");
                }
            }
            let oracle = full_merge_of_current_shards(&db);
            if let Err(diff) = db.summaries().bit_identical(&oracle) {
                prop_assert!(false, "maintained view diverged: {}", diff);
            }
        }
        // Appends left on the tape still have to merge in cleanly.
        while next < docs.len() {
            let (n, x) = &docs[next];
            db.add_document(n.as_str(), x).expect("append");
            next += 1;
        }
        let oracle = full_merge_of_current_shards(&db);
        if let Err(diff) = db.summaries().bit_identical(&oracle) {
            prop_assert!(false, "maintained view diverged: {}", diff);
        }
    }
}
