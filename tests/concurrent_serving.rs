//! Concurrency torture tests for the wait-free serving path.
//!
//! The contract under test (see `xmlest_engine::snapshot`): readers
//! load epoch-stamped snapshots from the shared [`SnapshotCell`] and
//! estimate against them without locking, while a single
//! [`MaintenanceWorker`] thread applies appends, removals and grid
//! refreshes. Every value a reader observes must be **bit-identical**
//! to a single-threaded replay of the epoch it was computed under, and
//! the epochs any one reader observes must be monotone. CI runs this
//! file under `--features strict-invariants` too, which additionally
//! re-validates every published snapshot at its publish point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use xmlest_core::{GridPolicy, SummaryConfig};
use xmlest_engine::{Database, MaintenanceWorker};

/// Paths estimable at every epoch of the torture run (all tags are in
/// the catalog from the initial load; removals never shrink it).
const QUERIES: &[&str] = &[
    "//doc//p",
    "//sec//p",
    "//doc//note",
    "//sec//note",
    "//doc//sec",
];

fn doc_xml(sections: usize) -> String {
    let mut xml = String::from("<doc>");
    for _ in 0..sections {
        xml.push_str("<sec><p/><p/><note/></sec>");
    }
    xml.push_str("</doc>");
    xml
}

/// Spins until `n` reader threads have each completed one estimate, so
/// the mutations that follow really race live readers (on a loaded
/// machine a freshly spawned reader can otherwise miss the whole run).
/// Gives up after a minute, so a reader that died on its first estimate
/// fails the test's own assertions instead of hanging it.
fn await_readers(ready: &AtomicUsize, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while ready.load(Ordering::Acquire) < n && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// A collection under the slack policy with manual refresh only: every
/// mutation (and every manual refresh) publishes exactly one epoch, so
/// probing after each one enumerates the complete set of legal
/// snapshots.
fn torture_collection() -> Database {
    let docs: Vec<(String, String)> = (0..4)
        .map(|i| (format!("d{i}.xml"), doc_xml(i + 1)))
        .collect();
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults()
            .with_grid_size(8)
            .with_policy(GridPolicy::Slack {
                slack_percent: 400,
                drift_threshold: 0.15,
                auto_refresh: false,
            }),
    )
    .unwrap()
}

#[test]
fn readers_observe_only_legal_epoch_snapshots() {
    let worker = MaintenanceWorker::spawn(torture_collection());
    let serving = worker.serving();
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);

    // The single-threaded replay oracle: (epoch → per-query value bits),
    // probed on the maintenance thread itself after every mutation, so
    // the map covers every epoch that was ever published.
    let mut legal: HashMap<u64, Vec<u64>> = HashMap::new();
    let record_probe = |worker: &MaintenanceWorker, legal: &mut HashMap<u64, Vec<u64>>| {
        let (epoch, results) = worker.probe(QUERIES).unwrap();
        let bits: Vec<u64> = results
            .into_iter()
            .map(|r| r.unwrap().value.to_bits())
            .collect();
        let prev = legal.insert(epoch, bits.clone());
        // Probing the same epoch twice must reproduce it exactly.
        if let Some(prev) = prev {
            assert_eq!(prev, bits, "epoch {epoch} re-probed differently");
        }
    };
    record_probe(&worker, &mut legal);

    let reader_logs: Vec<Vec<(u64, usize, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|reader| {
                let serving = serving.clone();
                let (stop, ready) = (&stop, &ready);
                scope.spawn(move || {
                    let mut log: Vec<(u64, usize, u64)> = Vec::new();
                    let mut i = reader; // desynchronize the readers
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = serving.current();
                        let q = i % QUERIES.len();
                        let est = snapshot.estimate(QUERIES[q]).unwrap();
                        log.push((snapshot.epoch(), q, est.value.to_bits()));
                        if log.len() == 1 {
                            ready.fetch_add(1, Ordering::Release);
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        await_readers(&ready, 4);

        // Drive mutations while the readers hammer the cell: appends,
        // stable (newest) and interior removals, and manual refreshes.
        for round in 0..3 {
            for i in 0..3 {
                worker
                    .add_document(format!("t{round}-{i}.xml"), &doc_xml(2 + i))
                    .unwrap();
                record_probe(&worker, &mut legal);
            }
            worker.remove_document(&format!("t{round}-2.xml")).unwrap();
            record_probe(&worker, &mut legal);
            worker.remove_document(&format!("t{round}-0.xml")).unwrap();
            record_probe(&worker, &mut legal);
            worker.refresh_grid().unwrap();
            record_probe(&worker, &mut legal);
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every reader observation matches the oracle for its epoch, and
    // each reader's epoch sequence is monotone.
    let mut observed = 0usize;
    for (reader, log) in reader_logs.iter().enumerate() {
        assert!(!log.is_empty(), "reader {reader} never ran");
        let mut last_epoch = 0;
        for &(epoch, q, bits) in log {
            assert!(
                epoch >= last_epoch,
                "reader {reader} saw epoch go backwards: {last_epoch} -> {epoch}"
            );
            last_epoch = epoch;
            let oracle = legal
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader {reader} saw unprobed epoch {epoch}"));
            assert_eq!(
                bits, oracle[q],
                "reader {reader}: {:?} at epoch {epoch} diverged from the replay oracle",
                QUERIES[q]
            );
            observed += 1;
        }
    }
    assert!(observed > 0);

    // The handed-back database agrees with the final published epoch.
    let db = worker.shutdown().unwrap();
    let final_bits = &legal[&db.epoch()];
    for (q, want) in QUERIES.iter().zip(final_bits) {
        assert_eq!(db.estimate(q).unwrap().value.to_bits(), *want, "{q}");
    }
}

#[test]
fn snapshot_is_frozen_while_database_mutates() {
    let mut db = torture_collection();
    let before = db.snapshot();
    let epoch_before = before.epoch();
    let bits_before: Vec<u64> = QUERIES
        .iter()
        .map(|q| before.estimate(q).unwrap().value.to_bits())
        .collect();

    db.add_document("late.xml", &doc_xml(5)).unwrap();

    // The cell moved on…
    let after = db.snapshot();
    assert!(after.epoch() > epoch_before);
    assert_eq!(after.epoch(), db.epoch());
    // …but the held snapshot still serves its original epoch's values.
    for (q, want) in QUERIES.iter().zip(&bits_before) {
        assert_eq!(before.estimate(q).unwrap().value.to_bits(), *want, "{q}");
    }
    assert_eq!(before.epoch(), epoch_before);
    // And the new snapshot matches the database's own estimator on the
    // canonical twig (`Database::estimate` itself reads the snapshot,
    // so it cannot serve as the oracle here).
    for q in QUERIES {
        let twig = xmlest_query::parse_path(q).unwrap().canonicalize();
        assert_eq!(
            after.estimate(q).unwrap().value.to_bits(),
            db.summaries()
                .estimator()
                .estimate_twig(&twig)
                .unwrap()
                .value
                .to_bits(),
            "{q}"
        );
    }
}

#[test]
fn recording_stays_coherent_under_concurrent_serving() {
    let db = torture_collection();
    let rec = db.recorder().clone();
    assert!(rec.enabled(), "recording is on by default");
    let base_estimates = db.telemetry().counter("xmlest_estimates_total").unwrap();

    let worker = MaintenanceWorker::spawn(db);
    let serving = worker.serving();
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);

    // 2 rounds x (3 appends + 1 refresh), each publishing one snapshot.
    const MUTATIONS: u64 = 8;

    let reader_ops: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|reader| {
                let serving = serving.clone();
                let (stop, ready) = (&stop, &ready);
                scope.spawn(move || {
                    let mut ops = 0usize;
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = serving.current();
                        snapshot.estimate(QUERIES[i % QUERIES.len()]).unwrap();
                        ops += 1;
                        if ops == 1 {
                            ready.fetch_add(1, Ordering::Release);
                        }
                        i += 1;
                    }
                    ops
                })
            })
            .collect();
        await_readers(&ready, 4);

        // Mutate while the readers hammer the counters, and check the
        // wait-free reader-side invariant as we go: folded counter
        // reads are never torn, so the total only moves forward.
        let mut last_total = base_estimates;
        for round in 0..2 {
            for i in 0..3 {
                worker
                    .add_document(format!("obs{round}-{i}.xml"), &doc_xml(1 + i))
                    .unwrap();
                // Re-binds to the engine's already-registered cell
                // (registration is idempotent by name).
                let now = rec
                    .counter("xmlest_estimates_total", "re-bound by test")
                    .value();
                assert!(now >= last_total, "counter fold went backwards");
                last_total = now;
            }
            worker.refresh_grid().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let db = worker.shutdown().unwrap();
    let t = db.telemetry();
    let total_ops: usize = reader_ops.iter().sum();
    assert!(total_ops > 0, "readers never ran");

    // Every reader estimate landed in the shared counter (the fold may
    // also include worker-side probe work, hence >=).
    assert!(
        t.counter("xmlest_estimates_total").unwrap() >= base_estimates + total_ops as u64,
        "lost estimate increments under concurrency"
    );
    assert_eq!(t.counter("xmlest_estimate_errors_total"), Some(0));
    assert!(t.counter("xmlest_snapshot_publishes_total").unwrap() >= MUTATIONS);

    // The journal survived concurrent writers: strictly increasing
    // sequence numbers, monotone publish epochs, both event families.
    assert!(t.events_total >= MUTATIONS);
    for pair in t.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "journal seqs out of order");
    }
    let publish_epochs: Vec<u64> = t
        .events
        .iter()
        .filter(|e| e.kind == xmlest_engine::EventKind::SnapshotPublish)
        .map(|e| e.epoch)
        .collect();
    assert!(!publish_epochs.is_empty(), "publishes were journaled");
    assert!(publish_epochs.windows(2).all(|w| w[0] <= w[1]));
    assert!(publish_epochs.iter().all(|&e| e <= db.epoch()));
    assert!(t
        .events
        .iter()
        .any(|e| e.kind == xmlest_engine::EventKind::Refresh));

    // The handed-back database still serves, and its estimates keep
    // landing in the same registry cells.
    let before = t.counter("xmlest_estimates_total").unwrap();
    db.estimate(QUERIES[0]).unwrap();
    assert_eq!(
        db.telemetry().counter("xmlest_estimates_total").unwrap(),
        before + 1
    );
}

#[test]
fn maintenance_worker_reports_stats_and_shuts_down() {
    let worker = MaintenanceWorker::spawn(torture_collection());
    worker.add_document("extra.xml", &doc_xml(3)).unwrap();
    let stats = worker.telemetry().unwrap().maintenance;
    assert_eq!(stats.stable_appends, 1);
    assert!(worker.remove_document("nope.xml").is_err());
    let db = worker.shutdown().unwrap();
    assert_eq!(db.document_names().len(), 5);
}
