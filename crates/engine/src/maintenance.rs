//! Grid maintenance: the slack-capacity stable-append path, the
//! collection rebuild, and the equi-depth refresh the caller asks for.
//!
//! The serving view ([`crate::db::Database`]'s merged summaries) lives
//! on one grid. Historically every collection mutation re-derived that
//! grid from scratch, which moved the boundaries and re-bucketed every
//! shard — `add_document` cost O(collection). This module is the policy
//! layer that keeps the grid still where it can:
//!
//! ```text
//!        add_document                          remove_document
//!             │                                       │
//!   slack policy and fits in                          │
//!   the slack capacity?                               │
//!     ┌──yes──┴───no───────────────┐                  │
//!     ▼                            ▼                  ▼
//!   STABLE APPEND  O(new doc)    REBUILD  O(collection)  (Database::rebuild)
//!   · build one shard on the     · slack policy: on the pinned grid
//!     existing grid              · static policy, or an overflowing
//!   · delta-merge it into the      append: re-derive the grid
//!     carried merge state        · re-bucket every shard in parallel,
//!   · extend mega-tree + index     re-merge, replay mega-tree + index,
//!     in place                     commit in place
//!     │                            │
//!     └─────────────┬──────────────┘
//!                   ▼
//!   EPOCH BUMP → prepared-query cache re-prepares lazily
//!
//!        refresh_grid  (only when the caller asks)
//!             ▼
//!   EQUI-DEPTH REFRESH
//!   · recompute boundaries from the classified lists — zero
//!     tree traversal
//!   · re-bucket every shard in parallel on the new grid, merge,
//!     commit in place
//!             ▼
//!   EPOCH BUMP → a stale-grid plan is never served
//! ```
//!
//! Under the slack policy the grid moves only on an overflowing append
//! or a [`Database::refresh_grid`] call; no mutation refreshes it on its
//! own. The refresh re-derives the grid with the same deterministic
//! procedure a cold build uses ([`xmlest_core::shard::make_collection_grid`]
//! under the same [`GridPolicy`]), so post-refresh estimates are
//! **bit-identical** to a database built cold on the refreshed
//! collection — `tests/grid_maintenance.rs` pins this, and the
//! `grid_maintenance` bench (BENCH_regrid.json) times one slide (append
//! the next document, remove the oldest) under each policy.
//!
//! The only maintenance state is the per-session
//! [`MaintenanceCounters`] (how often each path ran — observability
//! only). They are not persisted; a catalog-opened database serves
//! estimates only and starts them at zero.

use crate::db::Database;
use crate::error::{Error, Result};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::telemetry::Telemetry;
use std::sync::mpsc;
use std::sync::Arc;
use xmlest_core::{Estimate, GridPolicy};

/// Session counters for the maintenance paths. Monotonic per database
/// lifetime; not persisted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaintenanceCounters {
    /// Appends that reused the grid and every existing shard summary.
    pub stable_appends: u64,
    /// Rebuilds that re-derived the grid (static-policy mutations,
    /// overflowing appends, refreshes).
    pub grid_moves: u64,
    /// Removals under the slack policy: every remaining shard rebuilt
    /// (positions compacted) on the *pinned* grid — as expensive as a
    /// grid move, without moving the boundaries.
    pub pinned_rebuilds: u64,
    /// Appends that did not fit in the slack capacity.
    pub overflow_appends: u64,
    /// Equi-depth refreshes ([`Database::refresh_grid`] calls that
    /// committed).
    pub refreshes: u64,
}

/// Observability snapshot of the grid maintenance layer: the
/// [`Telemetry::maintenance`] section of the unified surface.
///
/// ## Reset contract
///
/// The path counters (`stable_appends`, `grid_moves`,
/// `pinned_rebuilds`, `overflow_appends`, `refreshes`) are **monotonic
/// for the lifetime of the in-process database**: every rebuild —
/// refresh, removal, overflowing append — commits in place and keeps
/// them, and no API resets them. A catalog reopen starts them at zero
/// (they are not persisted). Rate them by differencing successive
/// snapshots. `grid_capacity` and `occupied` are levels and move both
/// ways.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceStats {
    /// The active grid policy.
    pub policy: GridPolicy,
    /// Positions the current grid covers (`max_pos + 1`, slack
    /// included).
    pub grid_capacity: u64,
    /// Positions currently occupied (mega-root + every document).
    pub occupied: u64,
    /// Appends that reused the grid and every existing shard summary.
    pub stable_appends: u64,
    /// Rebuilds that re-derived the grid.
    pub grid_moves: u64,
    /// Removals that rebuilt every remaining shard on the pinned grid.
    pub pinned_rebuilds: u64,
    /// Appends that did not fit in the slack capacity.
    pub overflow_appends: u64,
    /// Equi-depth refreshes.
    pub refreshes: u64,
}

impl MaintenanceStats {
    /// Free positions left before an append overflows the grid.
    pub fn slack_remaining(&self) -> u64 {
        self.grid_capacity.saturating_sub(self.occupied)
    }
}

// ---- the off-thread maintenance worker --------------------------------

/// Command-queue depth for the worker thread. Mutations are rare and
/// heavyweight next to estimates; a small bound applies backpressure to
/// a runaway producer instead of buffering unbounded work.
const WORKER_QUEUE_DEPTH: usize = 64;

/// One queued mutation (or introspection request) with its reply slot.
enum Command {
    Append {
        name: String,
        xml: String,
        reply: mpsc::Sender<Result<()>>,
    },
    Remove {
        name: String,
        reply: mpsc::Sender<Result<()>>,
    },
    Refresh {
        reply: mpsc::Sender<Result<()>>,
    },
    Probe {
        queries: Vec<String>,
        reply: mpsc::Sender<(u64, Vec<Result<Estimate>>)>,
    },
    Telemetry {
        reply: mpsc::Sender<Box<Telemetry>>,
    },
    Shutdown {
        reply: mpsc::Sender<Box<Database>>,
    },
}

/// The off-thread maintenance half of wait-free serving: owns the
/// [`Database`] on a dedicated thread and serializes every mutation
/// through a bounded command queue, while readers estimate against the
/// shared [`SnapshotCell`] without ever touching this thread.
///
/// ```text
///   readers ──▶ SnapshotCell::current() ──▶ estimate   (wait-free)
///                      ▲ publish
///   mutations ──queue──▶ worker thread: &mut Database  (serialized)
/// ```
///
/// Mutation methods block the *caller* until the worker commits (the
/// queue bound is the only buffering), but never block readers: the
/// successor snapshot is built entirely on this thread and installed by
/// pointer swap. Dropping the worker shuts the thread down;
/// [`MaintenanceWorker::shutdown`] hands the database back instead.
pub struct MaintenanceWorker {
    commands: mpsc::SyncSender<Command>,
    serving: Arc<SnapshotCell>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MaintenanceWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceWorker")
            .field("epoch", &self.serving.epoch())
            .finish_non_exhaustive()
    }
}

fn worker_gone() -> Error {
    Error::Service("maintenance worker is gone".into())
}

impl MaintenanceWorker {
    /// Moves `db` onto a dedicated maintenance thread and returns the
    /// handle mutations go through. The serving cell is captured before
    /// the move, so readers keep loading snapshots from the same cell
    /// the worker publishes to.
    pub fn spawn(db: Database) -> MaintenanceWorker {
        let serving = db.serving();
        let (tx, rx) = mpsc::sync_channel::<Command>(WORKER_QUEUE_DEPTH);
        let handle = std::thread::spawn(move || {
            let mut db = db;
            while let Ok(cmd) = rx.recv() {
                match cmd {
                    Command::Append { name, xml, reply } => {
                        let _ = reply.send(db.add_document(name, &xml));
                    }
                    Command::Remove { name, reply } => {
                        let _ = reply.send(db.remove_document(&name));
                    }
                    Command::Refresh { reply } => {
                        let _ = reply.send(db.refresh_grid());
                    }
                    Command::Probe { queries, reply } => {
                        let snap = db.snapshot();
                        let results = queries.iter().map(|q| snap.estimate(q)).collect();
                        let _ = reply.send((snap.epoch(), results));
                    }
                    Command::Telemetry { reply } => {
                        let _ = reply.send(Box::new(db.telemetry()));
                    }
                    Command::Shutdown { reply } => {
                        let _ = reply.send(Box::new(db));
                        return;
                    }
                }
            }
            // Every sender dropped without a shutdown: the database
            // (and its final snapshot) drops with this thread.
        });
        MaintenanceWorker {
            commands: tx,
            serving,
            handle: Some(handle),
        }
    }

    /// The shared serving cell — hand this to readers; it outlives
    /// refreshes, rebuilds and the worker itself.
    pub fn serving(&self) -> Arc<SnapshotCell> {
        self.serving.clone()
    }

    /// The current serving snapshot — one lock-free pointer load.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.serving.current()
    }

    fn round_trip<T>(&self, make: impl FnOnce(mpsc::Sender<T>) -> Command) -> Result<T> {
        let (reply, rx) = mpsc::channel();
        self.commands.send(make(reply)).map_err(|_| worker_gone())?;
        rx.recv().map_err(|_| worker_gone())
    }

    /// Queues an append and blocks until the worker commits (or
    /// rejects) it. Readers are never blocked; they switch to the new
    /// snapshot at its publish.
    pub fn add_document(&self, name: impl Into<String>, xml: &str) -> Result<()> {
        let name = name.into();
        let xml = xml.to_owned();
        self.round_trip(|reply| Command::Append { name, xml, reply })?
    }

    /// Queues a removal and blocks until the worker commits it.
    pub fn remove_document(&self, name: &str) -> Result<()> {
        let name = name.to_owned();
        self.round_trip(|reply| Command::Remove { name, reply })?
    }

    /// Queues an equi-depth refresh and blocks until it lands.
    pub fn refresh_grid(&self) -> Result<()> {
        self.round_trip(|reply| Command::Refresh { reply })?
    }

    /// Estimates `queries` **on the maintenance thread itself**, between
    /// mutations, and returns them with the epoch they ran under. This
    /// is the single-threaded replay oracle: because the worker thread
    /// is the only mutator, the returned values are exactly what any
    /// wait-free reader must observe for that epoch — the concurrency
    /// torture test compares reader results bit-for-bit against these.
    pub fn probe(&self, queries: &[&str]) -> Result<(u64, Vec<Result<Estimate>>)> {
        let queries: Vec<String> = queries.iter().map(|q| (*q).to_owned()).collect();
        self.round_trip(|reply| Command::Probe { queries, reply })
    }

    /// The database's [`Telemetry`], gathered on the worker thread.
    pub fn telemetry(&self) -> Result<Telemetry> {
        self.round_trip(|reply| Command::Telemetry { reply })
            .map(|b| *b)
    }

    /// Stops the worker and hands the database back (with every queued
    /// command before the shutdown applied).
    pub fn shutdown(mut self) -> Result<Database> {
        let db = self
            .round_trip(|reply| Command::Shutdown { reply })
            .map(|b| *b)?;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        Ok(db)
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (reply, _rx) = mpsc::channel();
            let _ = self.commands.send(Command::Shutdown { reply });
            let _ = handle.join();
        }
    }
}
