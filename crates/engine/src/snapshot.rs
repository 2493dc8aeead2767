//! Epoch-stamped immutable serving snapshots and the RCU-style cell
//! that publishes them — the wait-free read side of the database.
//!
//! A [`Snapshot`] freezes everything an estimate derives from: the
//! merged [`Summaries`] (grid included) and a frozen view of the
//! prepared-query cache's path→twig map, both behind `Arc`s so a
//! successor snapshot reuses every component the mutation did not
//! replace (a stable append allocates only the delta — the new merged
//! summaries; the twig map carries by pointer).
//!
//! The [`SnapshotCell`] is the publication point: readers load the
//! current snapshot with one lock-free pointer load
//! ([`SnapshotCell::current`]) and run *entirely* against it — no lock,
//! no epoch re-check, no shared-state write. Mutations build the
//! successor off the read path and publish it by a single pointer swap
//! with a (strictly monotone) epoch bump; under `--features
//! strict-invariants` every publish re-validates the summaries and the
//! epoch monotonicity first, so a torn or regressed snapshot can never
//! become current.
//!
//! ## The read-vs-maintenance thread contract
//!
//! * **Readers** ([`Snapshot::estimate`] and friends) are wait-free:
//!   they never block on a mutation, and every value they return is
//!   computed against exactly one published epoch — bit-identical to a
//!   single-threaded replay of that epoch's database.
//! * **Writers** (the `&mut Database` mutation paths, typically driven
//!   by one [`crate::maintenance::MaintenanceWorker`] thread) serialize
//!   on the database's `&mut` receiver; the cell itself never blocks
//!   them on readers. An in-flight reader keeps its old snapshot alive
//!   through the `Arc` until it finishes — there is no grace period to
//!   wait out and no reader can ever observe a half-installed state.
//!
//! The element index and data tree are deliberately **not** part of a
//! snapshot: the estimate path never touches them (exact counting and
//! plan execution stay on the [`crate::db::Database`] itself).

use crate::error::Result;
use crate::telemetry::Metrics;
use std::collections::HashMap;
use std::sync::Arc;
use xmlest_core::{Estimate, Summaries, TwigNode, TwigWorkspace};
use xmlest_query::parse_path;
use xmlest_xobs::{Recorder, Stage};

/// A frozen path→canonical-twig view of the prepared cache, shared by
/// every snapshot published while the cache's path set is unchanged.
pub(crate) type FrozenTwigs = Arc<HashMap<String, Arc<TwigNode>>>;

/// One immutable, epoch-stamped serving state. Everything an estimate
/// reads lives behind this value; see the module docs for the contract.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    degraded: bool,
    summaries: Arc<Summaries>,
    twigs: FrozenTwigs,
    /// The owning database's observability handle: snapshots record
    /// kernel latency and serve counters into the database's own
    /// recorder, so telemetry is one view no matter which entry point
    /// served the estimate.
    obs: Recorder,
    metrics: Metrics,
}

impl Snapshot {
    pub(crate) fn new(
        epoch: u64,
        degraded: bool,
        summaries: Arc<Summaries>,
        twigs: FrozenTwigs,
        obs: Recorder,
        metrics: Metrics,
    ) -> Snapshot {
        Snapshot {
            epoch,
            degraded,
            summaries,
            twigs,
            obs,
            metrics,
        }
    }

    /// The observability recorder this snapshot records into — the same
    /// recorder as the owning database's, so counters and stage
    /// latencies recorded here appear in [`crate::Database::telemetry`].
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Counts one served estimate (and, when `!ok`, one error). Gated on
    /// the recorder's enabled flag so the `telemetry_overhead` bench's
    /// off-mode really is increment-free. Crate-visible so
    /// [`crate::Database::estimate`] can count a failed prepared-cache
    /// resolution the way [`Snapshot::estimate_with`] counts a failed
    /// parse.
    #[inline]
    pub(crate) fn note(&self, ok: bool) {
        if self.obs.enabled() {
            self.metrics.estimates.inc();
            if !ok {
                self.metrics.estimate_errors.inc();
            }
        }
    }

    /// The database epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the database was serving degraded (quarantined
    /// documents estimate as absent) when this snapshot was published.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The merged summaries this snapshot estimates from.
    pub fn summaries(&self) -> &Summaries {
        &self.summaries
    }

    /// Resolves a path to its canonical twig: a hit on the frozen
    /// prepared view skips the parser entirely; a miss parses and
    /// canonicalizes — either way the estimate runs on the canonical
    /// ordering, so the two are bit-identical.
    fn resolve(&self, path: &str) -> Result<Arc<TwigNode>> {
        if let Some(twig) = self.twigs.get(path) {
            return Ok(twig.clone());
        }
        Ok(Arc::new(parse_path(path)?.canonicalize()))
    }

    /// Estimates a path query against this snapshot on the estimator's
    /// thread-local workspace — allocation-free once warm for a path in
    /// the frozen twig map. Wait-free with respect to concurrent
    /// mutations: the whole computation reads this snapshot only.
    pub fn estimate(&self, path: &str) -> Result<Estimate> {
        let res = self.resolve(path).and_then(|twig| self.kernel(&twig));
        self.note(res.is_ok());
        res
    }

    /// [`Snapshot::estimate`] on a caller-owned workspace — the
    /// zero-allocation steady state for serving loops.
    pub fn estimate_with(&self, ws: &mut TwigWorkspace, path: &str) -> Result<Estimate> {
        let res = (|| -> Result<Estimate> {
            let twig = self.resolve(path)?;
            // Sampled: per-op kernel timing at full cadence costs two
            // clock reads on a sub-microsecond warm path.
            let span = self.obs.span_sampled(Stage::Kernel);
            let out = self.summaries.estimator().estimate_twig_with(ws, &twig);
            drop(span);
            Ok(out?)
        })();
        self.note(res.is_ok());
        res
    }

    /// Estimates a pre-parsed twig on the estimator's thread-local
    /// workspace. The twig is evaluated as given (no canonicalization) —
    /// canonicalize first for bit-stability against the path-string
    /// entry points.
    pub fn estimate_twig(&self, twig: &TwigNode) -> Result<Estimate> {
        let out = self.kernel(twig);
        self.note(out.is_ok());
        out
    }

    /// [`Snapshot::estimate_twig`] on a caller-owned workspace.
    pub fn estimate_twig_with(&self, ws: &mut TwigWorkspace, twig: &TwigNode) -> Result<Estimate> {
        let span = self.obs.span_sampled(Stage::Kernel);
        let out = self.summaries.estimator().estimate_twig_with(ws, twig);
        drop(span);
        self.note(out.is_ok());
        Ok(out?)
    }

    /// One uncounted kernel run on the thread-local workspace. Sampled:
    /// per-op kernel timing at full cadence costs two clock reads on a
    /// sub-microsecond warm path.
    fn kernel(&self, twig: &TwigNode) -> Result<Estimate> {
        let span = self.obs.span_sampled(Stage::Kernel);
        let out = self.summaries.estimator().estimate_twig(twig);
        drop(span);
        Ok(out?)
    }

    /// Estimates a batch of paths. Serving batches repeat the same few
    /// strings, so each distinct string is resolved and estimated
    /// exactly once and its result fanned back to every slot that asked
    /// for it — bit-identical to per-path [`Snapshot::estimate`] calls,
    /// since estimation is deterministic per twig. Result order matches
    /// the batch; per-path errors come back in their own slot. Every
    /// slot counts as one served estimate.
    pub fn estimate_batch(&self, paths: &[&str]) -> Vec<Result<Estimate>> {
        let mut distinct: Vec<&str> = Vec::new();
        let mut class_of: HashMap<&str, usize> = HashMap::with_capacity(paths.len());
        let slots: Vec<usize> = paths
            .iter()
            .map(|&p| {
                *class_of.entry(p).or_insert_with(|| {
                    distinct.push(p);
                    distinct.len() - 1
                })
            })
            .collect();
        let results: Vec<Result<Estimate>> = distinct
            .iter()
            .map(|&p| self.resolve(p).and_then(|twig| self.kernel(&twig)))
            .collect();
        if self.obs.enabled() {
            self.metrics.batches.inc();
            self.metrics.estimates.add(paths.len() as u64);
            let errors = slots.iter().filter(|&&i| results[i].is_err()).count();
            if errors > 0 {
                self.metrics.estimate_errors.add(errors as u64);
            }
        }
        slots.into_iter().map(|i| results[i].clone()).collect()
    }

    /// Cross-structure consistency of the frozen summaries
    /// ([`Summaries::validate`]); run at every publish under
    /// `--features strict-invariants`.
    pub fn validate(&self) -> std::result::Result<(), String> {
        self.summaries.validate()
    }
}

/// The RCU-style publication cell: one atomically swappable pointer to
/// the current [`Snapshot`]. Reads are wait-free (hazard-pointer guarded
/// loads — see the `arc-swap` shim); publication is a single pointer
/// swap performed by the database's mutation paths.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: arc_swap::ArcSwap<Snapshot>,
}

impl SnapshotCell {
    /// Wraps the database's first snapshot in a shareable cell.
    pub(crate) fn initial(snapshot: Snapshot) -> Arc<SnapshotCell> {
        Arc::new(SnapshotCell {
            inner: arc_swap::ArcSwap::from_pointee(snapshot),
        })
    }

    /// The current snapshot — one lock-free pointer load. The returned
    /// `Arc` keeps that snapshot alive (and every estimate run on it
    /// consistent) across any number of concurrent publications.
    pub fn current(&self) -> Arc<Snapshot> {
        self.inner.load_full()
    }

    /// Epoch of the current snapshot, without taking a full reference.
    pub fn epoch(&self) -> u64 {
        self.inner.load().epoch()
    }

    /// Publishes `next` as the current snapshot. Under `--features
    /// strict-invariants` the swap is gated on the published state
    /// validating and the epoch never going backwards.
    pub(crate) fn publish(&self, next: Snapshot) {
        let current = self.inner.load().epoch();
        xmlest_core::invariants::checkpoint("SnapshotCell::publish", || {
            if next.epoch() < current {
                return Err(format!(
                    "snapshot epoch went backwards: {current} -> {}",
                    next.epoch()
                ));
            }
            next.validate()
        });
        self.inner.store(Arc::new(next));
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use xmlest_core::SummaryConfig;

    fn collection() -> Database {
        let docs: Vec<(String, String)> = (0..6)
            .map(|i| {
                let body = "<sec><p/><p/><note/></sec>".repeat(i + 1);
                (format!("d{i}.xml"), format!("<doc>{body}</doc>"))
            })
            .collect();
        Database::load_documents(
            docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
            &SummaryConfig::paper_defaults().with_grid_size(8),
        )
        .unwrap()
    }

    #[test]
    fn batch_is_bit_identical_to_single_estimates() {
        let db = collection();
        let snap = db.snapshot();
        // 1024 slots over four strings, two of which spell one twig.
        let paths = ["//doc//p", "//sec//p", "//doc//note", "/doc//sec//p"];
        let batch: Vec<&str> = (0..1024).map(|i| paths[i % paths.len()]).collect();
        let before = db.telemetry().counter("xmlest_estimates_total").unwrap();
        let results = snap.estimate_batch(&batch);
        let after = db.telemetry().counter("xmlest_estimates_total").unwrap();
        assert_eq!(after - before, batch.len() as u64, "every slot counts");
        assert_eq!(results.len(), batch.len());
        for (p, r) in batch.iter().zip(&results) {
            let got = r.as_ref().unwrap().value.to_bits();
            assert_eq!(got, snap.estimate(p).unwrap().value.to_bits(), "{p}");
            assert_eq!(got, db.estimate(p).unwrap().value.to_bits(), "{p}");
        }
        // A pre-parsed canonical twig estimates identically too.
        let twig = xmlest_query::parse_path("//sec//p").unwrap().canonicalize();
        assert_eq!(
            snap.estimate_twig(&twig).unwrap().value.to_bits(),
            results[1].as_ref().unwrap().value.to_bits()
        );
    }

    #[test]
    fn batch_reports_errors_in_their_own_slots() {
        let db = collection();
        let batch: Vec<&str> = (0..64)
            .map(|i| {
                if i % 5 == 3 {
                    "//sec//GHOST"
                } else {
                    "//sec//p"
                }
            })
            .collect();
        let results = db.snapshot().estimate_batch(&batch);
        let want = db.estimate("//sec//p").unwrap().value.to_bits();
        for (i, r) in results.iter().enumerate() {
            if i % 5 == 3 {
                assert!(r.is_err(), "slot {i}");
            } else {
                assert_eq!(r.as_ref().unwrap().value.to_bits(), want, "slot {i}");
            }
        }
        let t = db.telemetry();
        assert_eq!(t.counter("xmlest_estimate_errors_total"), Some(13));
    }

    #[test]
    fn batch_works_on_catalog_opened_database() {
        let db = collection();
        let reopened = Database::open_catalog(&db.save_catalog()).unwrap();
        let want = db.estimate("//sec//p").unwrap().value.to_bits();
        for r in reopened
            .snapshot()
            .estimate_batch(&["//sec//p", "//sec//p"])
        {
            assert_eq!(r.unwrap().value.to_bits(), want);
        }
    }
}
