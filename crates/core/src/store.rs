//! Durable catalog storage: a pluggable [`StorageBackend`] and the
//! generation-based [`CatalogStore`] on top of it.
//!
//! [`crate::catalog`] defines *what* a catalog is as bytes; this module
//! defines *where the bytes live* and — more importantly — what
//! survives a crash. The contract every consumer (and the crash-torture
//! test) builds on:
//!
//! > A [`CatalogStore::save`] interrupted at **any** backend operation
//! > — including mid-write, with any prefix of the bytes persisted —
//! > leaves a store from which recovery opens either the **previous**
//! > generation or the **new** one, bit-identical. Never a torn mix,
//! > never nothing.
//!
//! ## The generation scheme
//!
//! Each save produces one immutable file `gen-<n>.xctl` (monotonically
//! numbered, zero-padded so lexical order is numeric order) via the
//! classic atomic-publish dance:
//!
//! ```text
//!   1. write   gen-<n>.xctl.tmp     (whole blob, fresh name)
//!   2. fsync   gen-<n>.xctl.tmp     (bytes durable under the tmp name)
//!   3. rename  tmp → gen-<n>.xctl   (atomic publish)
//!   4. fsync   directory            (the new name durable)
//!   5. prune   older generations    (best-effort; keeps the last 2)
//! ```
//!
//! The crash matrix falls out of the sequence: a crash at or before
//! step 2 leaves (at worst) a torn `.tmp` that recovery ignores and
//! cleans; between 3 and 4 the new name may or may not have reached
//! disk — either way the surviving file content was already fsynced, so
//! whichever generation is visible is intact; after 4 the new
//! generation is durable. Step 5 failures are absorbed (the save
//! already committed). Recovery ([`CatalogStore::load_latest_valid`])
//! scans generations newest-first and serves the first one that
//! validates, so a corrupted newest generation falls back to its
//! predecessor instead of bricking the store.
//!
//! ## Backends
//!
//! * [`FsBackend`] — the real filesystem, one store per directory,
//!   `fsync` on files and the directory.
//! * [`MemBackend`] — an in-memory filesystem with **injectable
//!   faults** (fail the Nth write, tear a write at any byte, ENOSPC,
//!   short/failed reads, die at the Nth operation) and **crash
//!   views**: after a simulated kill, [`MemBackend::crash_view`]
//!   derives the set of filesystems a real machine could reboot into
//!   (durable data always; unsynced writes and unsynced renames
//!   optionally, torn at any byte). The torture harness replays a save
//!   through every kill point and asserts the recovery contract above.
//!
//! Backends address files by **name within one store directory** —
//! there is no path traversal, no nesting; a store is a flat bag of
//! generation files, which is all the crash semantics need.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the storage backend is the one module that does file IO"
)]

use crate::error::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Flat-namespace storage with explicit durability barriers. All
/// operations are whole-file (the store never overwrites in place —
/// every save writes a fresh temp name), which keeps torn-write
/// semantics simple: a torn new file is a prefix of its bytes.
pub trait StorageBackend: Send + Sync {
    /// Reads a file's full contents.
    fn read(&self, name: &str) -> Result<Vec<u8>>;
    /// Creates (or truncates) `name` and writes `bytes`. Not durable
    /// until [`StorageBackend::sync_file`] + [`StorageBackend::sync_dir`].
    fn write(&self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Forces a file's content to stable storage.
    fn sync_file(&self, name: &str) -> Result<()>;
    /// Atomically renames `from` to `to` (replacing `to` if present).
    /// The new name is durable only after [`StorageBackend::sync_dir`].
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Forces the directory (namespace: creates, renames, removes) to
    /// stable storage.
    fn sync_dir(&self) -> Result<()>;
    /// Removes a file. Durable after [`StorageBackend::sync_dir`].
    fn remove(&self, name: &str) -> Result<()>;
    /// Lists file names, sorted.
    fn list(&self) -> Result<Vec<String>>;
}

// ---------------------------------------------------------------------
// Filesystem backend
// ---------------------------------------------------------------------

/// [`StorageBackend`] over one real directory. Created lazily;
/// `sync_dir` fsyncs the directory handle (POSIX durability for
/// renames/creates).
pub struct FsBackend {
    dir: std::path::PathBuf,
}

impl FsBackend {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<FsBackend> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err("create store dir"))?;
        Ok(FsBackend { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> Error {
    move |e| Error::Io(format!("{what}: {e}"))
}

impl StorageBackend for FsBackend {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        std::fs::read(self.path(name)).map_err(io_err("read"))
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        std::fs::write(self.path(name), bytes).map_err(io_err("write"))
    }

    fn sync_file(&self, name: &str) -> Result<()> {
        std::fs::File::open(self.path(name))
            .and_then(|f| f.sync_all())
            .map_err(io_err("fsync"))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(io_err("rename"))
    }

    fn sync_dir(&self) -> Result<()> {
        // Directory fsync: required on POSIX for rename/create
        // durability; harmless where a directory handle can't be
        // synced.
        match std::fs::File::open(&self.dir) {
            Ok(f) => f.sync_all().map_err(io_err("fsync dir")),
            Err(e) => Err(Error::Io(format!("open dir for fsync: {e}"))),
        }
    }

    fn remove(&self, name: &str) -> Result<()> {
        std::fs::remove_file(self.path(name)).map_err(io_err("remove"))
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io_err("list"))? {
            let entry = entry.map_err(io_err("list entry"))?;
            if entry.file_type().map_err(io_err("file type"))?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------
// Fault-injecting in-memory backend
// ---------------------------------------------------------------------

/// What the fault plan does to a write once its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WriteOutcome {
    /// Write applied in full, call succeeds.
    Ok,
    /// Call fails; `kept` bytes of the payload landed anyway (a torn
    /// write — what a crash mid-`write(2)` leaves behind).
    Torn { kept: usize },
    /// Call fails; nothing landed.
    Refused,
}

/// Injectable fault plan for [`MemBackend`]. All triggers count
/// *backend calls of their kind* starting at 1; `Default` injects
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail the Nth `write` call outright (nothing persisted).
    pub fail_write: Option<u64>,
    /// Tear the Nth `write` call: persist only the given number of
    /// payload bytes, then report failure.
    pub tear_write: Option<(u64, usize)>,
    /// Refuse writes that would push the backend's total stored bytes
    /// past this budget, with an ENOSPC-flavored error (partial data
    /// up to the budget lands first, like a real full disk).
    pub disk_capacity: Option<usize>,
    /// Every read of this file returns only the given byte count
    /// (short read), without an error — corruption the *caller's*
    /// validation must catch.
    pub short_read: Option<(String, usize)>,
    /// Every read of this file fails.
    pub fail_read_of: Option<String>,
    /// Die at the Nth backend call (any kind): that call and every
    /// later one fail. Combined with `tear_write`, the dying call — if
    /// a write — can leave a torn prefix. This is the crash-torture
    /// hook; pair with [`MemBackend::crash_view`].
    pub die_at_op: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    /// Current (volatile) content.
    content: Vec<u8>,
    /// Content as of the last `sync_file` (what a crash preserves).
    synced: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct MemState {
    /// Live namespace.
    files: BTreeMap<String, MemFile>,
    /// Namespace as of the last `sync_dir`: name → synced content at
    /// the time the *file* was last synced (None = never synced).
    durable: BTreeMap<String, Option<Vec<u8>>>,
    faults: FaultPlan,
    ops: u64,
    writes: u64,
    /// Count of operations refused by `die_at_op` (post-mortem
    /// introspection for the torture harness).
    refused_after_death: u64,
}

impl MemState {
    fn stored_bytes(&self) -> usize {
        self.files.values().map(|f| f.content.len()).sum()
    }

    /// Durability bookkeeping for `sync_dir`: every name currently
    /// linked becomes durable, carrying whatever content was last
    /// file-synced; unlinked names disappear durably.
    fn sync_namespace(&mut self) {
        self.durable = self
            .files
            .iter()
            .map(|(name, f)| (name.clone(), f.synced.clone()))
            .collect();
    }
}

/// In-memory [`StorageBackend`] with fault injection and crash
/// simulation. Clone-free: share by reference.
#[derive(Debug, Default)]
pub struct MemBackend {
    state: Mutex<MemState>,
}

/// How optimistic a [`MemBackend::crash_view`] is about state that was
/// never explicitly made durable. Real crashes land anywhere between
/// the two poles, so the torture harness asserts the recovery contract
/// at both (plus torn variants via [`FaultPlan::tear_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashView {
    /// Only explicitly synced state survives: file contents as of
    /// their last `sync_file`, the namespace as of the last
    /// `sync_dir`.
    DurableOnly,
    /// Everything the OS had buffered also made it out: the live
    /// namespace with live contents.
    AllFlushed,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Installs a fault plan (replacing any previous one) and resets
    /// the per-kind call counters it triggers on.
    pub fn set_faults(&self, faults: FaultPlan) {
        let mut s = self.lock();
        s.faults = faults;
        s.ops = 0;
        s.writes = 0;
        s.refused_after_death = 0;
    }

    /// Total backend calls a workload issued (torture harness: the
    /// kill-point space to sweep).
    pub fn ops_seen(&self) -> u64 {
        self.lock().ops
    }

    /// Write calls a workload issued.
    pub fn writes_seen(&self) -> u64 {
        self.lock().writes
    }

    /// The filesystem a machine could reboot into if it died right
    /// now, under the given optimism. The result is a fresh,
    /// fault-free backend — recovery code runs against it unchanged.
    pub fn crash_view(&self, view: CrashView) -> MemBackend {
        let s = self.lock();
        let files: BTreeMap<String, MemFile> = match view {
            CrashView::DurableOnly => s
                .durable
                .iter()
                .filter_map(|(name, synced)| {
                    synced.as_ref().map(|bytes| {
                        (
                            name.clone(),
                            MemFile {
                                content: bytes.clone(),
                                synced: Some(bytes.clone()),
                            },
                        )
                    })
                })
                .collect(),
            CrashView::AllFlushed => s.files.clone(),
        };
        MemBackend {
            state: Mutex::new(MemState {
                files,
                durable: BTreeMap::new(),
                ..MemState::default()
            }),
        }
    }

    /// A deep copy of the live state (fault plan excluded) — lets the
    /// torture harness re-run a save from an identical starting store
    /// for every kill point.
    pub fn fork(&self) -> MemBackend {
        let s = self.lock();
        MemBackend {
            state: Mutex::new(MemState {
                files: s.files.clone(),
                durable: s.durable.clone(),
                ..MemState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Advances the op counter and reports whether `die_at_op` says
    /// this call (or an earlier one) already killed the process.
    fn op_gate(s: &mut MemState) -> Result<()> {
        s.ops += 1;
        if let Some(die) = s.faults.die_at_op {
            if s.ops >= die {
                if s.ops > die {
                    s.refused_after_death += 1;
                }
                return Err(Error::Io(format!(
                    "injected crash at backend op {die} (this is op {})",
                    s.ops
                )));
            }
        }
        Ok(())
    }

    /// Resolves what the current fault plan does to this write call.
    fn write_outcome(s: &mut MemState, payload_len: usize) -> WriteOutcome {
        s.writes += 1;
        if let Some(n) = s.faults.fail_write {
            if s.writes == n {
                return WriteOutcome::Refused;
            }
        }
        if let Some((n, kept)) = s.faults.tear_write {
            if s.writes == n {
                return WriteOutcome::Torn {
                    kept: kept.min(payload_len),
                };
            }
        }
        if let Some(budget) = s.faults.disk_capacity {
            let used = s.stored_bytes();
            if used + payload_len > budget {
                return WriteOutcome::Torn {
                    kept: budget.saturating_sub(used),
                };
            }
        }
        WriteOutcome::Ok
    }
}

impl StorageBackend for MemBackend {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        if s.faults.fail_read_of.as_deref() == Some(name) {
            return Err(Error::Io(format!("injected read failure for {name:?}")));
        }
        let bytes = s
            .files
            .get(name)
            .map(|f| f.content.clone())
            .ok_or_else(|| Error::Io(format!("no such file {name:?}")))?;
        if let Some((ref short_name, len)) = s.faults.short_read {
            if short_name == name {
                let mut bytes = bytes;
                bytes.truncate(len);
                return Ok(bytes);
            }
        }
        Ok(bytes)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut s = self.lock();
        // The dying op may be this write: apply its torn prefix (if the
        // plan says so) before reporting the crash, exactly like a
        // kernel that got half the page cache out.
        let dying = Self::op_gate(&mut s).is_err();
        let outcome = Self::write_outcome(&mut s, bytes.len());
        let keep = match (dying, outcome) {
            (true, WriteOutcome::Torn { kept }) => kept,
            (true, _) => 0,
            (false, WriteOutcome::Ok) => bytes.len(),
            (false, WriteOutcome::Torn { kept }) => kept,
            (false, WriteOutcome::Refused) => 0,
        };
        if keep > 0 || (!dying && outcome == WriteOutcome::Ok) {
            let file = s.files.entry(name.to_owned()).or_default();
            file.content = bytes[..keep].to_vec();
            file.synced = None;
        }
        if dying {
            return Err(Error::Io("injected crash during write".into()));
        }
        match outcome {
            WriteOutcome::Ok => Ok(()),
            WriteOutcome::Torn { kept } => Err(Error::Io(format!(
                "injected write fault: {kept} of {} bytes written to {name:?} (ENOSPC/torn)",
                bytes.len()
            ))),
            WriteOutcome::Refused => Err(Error::Io(format!("injected write failure for {name:?}"))),
        }
    }

    fn sync_file(&self, name: &str) -> Result<()> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        let file = s
            .files
            .get_mut(name)
            .ok_or_else(|| Error::Io(format!("fsync of missing file {name:?}")))?;
        file.synced = Some(file.content.clone());
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        let file = s
            .files
            .remove(from)
            .ok_or_else(|| Error::Io(format!("rename of missing file {from:?}")))?;
        s.files.insert(to.to_owned(), file);
        Ok(())
    }

    fn sync_dir(&self) -> Result<()> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        s.sync_namespace();
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        s.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::Io(format!("remove of missing file {name:?}")))
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut s = self.lock();
        Self::op_gate(&mut s)?;
        Ok(s.files.keys().cloned().collect())
    }
}

// ---------------------------------------------------------------------
// The generation store
// ---------------------------------------------------------------------

/// Generations older than the newest this many are pruned after a
/// successful save. Two generations is the crash-consistency minimum:
/// the newest may be the one a crash is mid-publishing.
const KEEP_GENERATIONS: usize = 2;

const GEN_PREFIX: &str = "gen-";
const GEN_SUFFIX: &str = ".xctl";
const TMP_SUFFIX: &str = ".tmp";

/// A crash-consistent, generation-numbered blob store for catalog
/// bytes over any [`StorageBackend`]. See the module docs for the
/// atomicity argument.
pub struct CatalogStore<'b> {
    backend: &'b dyn StorageBackend,
    /// Optional observability handle: saves and recovery fallbacks are
    /// journaled as [`xmlest_xobs::EventKind::StoreSave`] /
    /// [`xmlest_xobs::EventKind::StoreFallback`] when present.
    obs: Option<xmlest_xobs::Recorder>,
}

/// Why a generation was passed over during
/// [`CatalogStore::load_latest_valid`].
#[derive(Debug, Clone)]
pub struct SkippedGeneration {
    /// The generation number (`gen-<n>.xctl`).
    pub generation: u64,
    /// Why it was skipped: the read or validation error, rendered.
    pub reason: String,
}

impl<'b> CatalogStore<'b> {
    /// A store over `backend`; no IO happens until a save/open call.
    pub fn new(backend: &'b dyn StorageBackend) -> CatalogStore<'b> {
        CatalogStore { backend, obs: None }
    }

    /// [`CatalogStore::new`] with an observability recorder attached:
    /// store lifecycle events journal through it.
    pub fn with_recorder(
        backend: &'b dyn StorageBackend,
        obs: xmlest_xobs::Recorder,
    ) -> CatalogStore<'b> {
        CatalogStore {
            backend,
            obs: Some(obs),
        }
    }

    fn gen_name(generation: u64) -> String {
        format!("{GEN_PREFIX}{generation:012}{GEN_SUFFIX}")
    }

    fn parse_gen_name(name: &str) -> Option<u64> {
        name.strip_prefix(GEN_PREFIX)?
            .strip_suffix(GEN_SUFFIX)?
            .parse()
            .ok()
    }

    /// Existing generation numbers, ascending. Temp files and foreign
    /// names are ignored.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let mut gens: Vec<u64> = self
            .backend
            .list()?
            .iter()
            .filter_map(|n| Self::parse_gen_name(n))
            .collect();
        gens.sort_unstable();
        Ok(gens)
    }

    /// Persists one catalog blob as the next generation, atomically:
    /// temp write → file fsync → rename → directory fsync. On success
    /// the new generation is durable and older generations beyond the
    /// retention window are pruned (best-effort — a prune failure
    /// cannot un-commit the save). On **any** failure the store still
    /// holds its previous generations intact; at worst a stale temp
    /// file lingers, which the next save or recovery sweeps.
    pub fn save(&self, bytes: &[u8]) -> Result<u64> {
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
        let final_name = Self::gen_name(generation);
        let tmp_name = format!("{final_name}{TMP_SUFFIX}");

        let publish = (|| -> Result<()> {
            self.backend.write(&tmp_name, bytes)?;
            self.backend.sync_file(&tmp_name)?;
            self.backend.rename(&tmp_name, &final_name)?;
            self.backend.sync_dir()
        })();
        if let Err(e) = publish {
            // Roll the temp file back if it landed; the previous
            // generation was never touched. Cleanup is best-effort —
            // the backend may be dead.
            let _ = self.backend.remove(&tmp_name);
            return Err(e);
        }

        // Retention + stray-temp sweep, after the commit point. Never
        // fails the save.
        let _ = self.prune();
        if let Some(obs) = &self.obs {
            obs.event(xmlest_xobs::EventKind::StoreSave, 0, generation, 0);
        }
        Ok(generation)
    }

    /// Removes generations beyond the retention window and stray temp
    /// files from interrupted saves. Called by [`CatalogStore::save`];
    /// public for recovery flows that want to sweep without saving.
    pub fn prune(&self) -> Result<()> {
        let names = self.backend.list()?;
        let mut gens: Vec<u64> = names
            .iter()
            .filter_map(|n| Self::parse_gen_name(n))
            .collect();
        gens.sort_unstable();
        let cutoff = gens
            .len()
            .checked_sub(KEEP_GENERATIONS)
            .map(|k| gens[k])
            .unwrap_or(0);
        let mut removed = false;
        for name in &names {
            let stale_gen = Self::parse_gen_name(name).is_some_and(|g| g < cutoff);
            let stray_tmp = name.ends_with(TMP_SUFFIX);
            if stale_gen || stray_tmp {
                self.backend.remove(name)?;
                removed = true;
            }
        }
        if removed {
            self.backend.sync_dir()?;
        }
        Ok(())
    }

    /// Reads one generation's raw bytes.
    pub fn read_generation(&self, generation: u64) -> Result<Vec<u8>> {
        self.backend.read(&Self::gen_name(generation))
    }

    /// The newest generation's raw bytes, with **no** validation
    /// (callers that parse anyway). `Ok(None)` on an empty store.
    pub fn load_latest(&self) -> Result<Option<(u64, Vec<u8>)>> {
        match self.generations()?.last() {
            None => Ok(None),
            Some(&generation) => Ok(Some((generation, self.read_generation(generation)?))),
        }
    }

    /// Recovery read: walks generations newest-first and returns the
    /// first whose bytes `validate` accepts, together with the
    /// generations that were skipped and why (unreadable or invalid).
    /// `Ok(None)` only for a store with no generations at all; if
    /// generations exist but none validates, that is an error — the
    /// store is corrupt beyond fallback.
    pub fn load_latest_valid<T>(
        &self,
        validate: impl Fn(&[u8]) -> Result<T>,
    ) -> Result<Option<(u64, T, Vec<SkippedGeneration>)>> {
        let gens = self.generations()?;
        let mut skipped = Vec::new();
        for &generation in gens.iter().rev() {
            let outcome = self
                .read_generation(generation)
                .and_then(|bytes| validate(&bytes));
            match outcome {
                Ok(value) => {
                    if let (Some(obs), false) = (&self.obs, skipped.is_empty()) {
                        obs.event(
                            xmlest_xobs::EventKind::StoreFallback,
                            0,
                            generation,
                            skipped.len() as u64,
                        );
                    }
                    return Ok(Some((generation, value, skipped)));
                }
                Err(e) => skipped.push(SkippedGeneration {
                    generation,
                    reason: e.to_string(),
                }),
            }
        }
        if skipped.is_empty() {
            Ok(None)
        } else {
            Err(Error::Corrupt(format!(
                "no valid generation among {:?}: {}",
                gens,
                skipped
                    .iter()
                    .map(|s| format!("gen {}: {}", s.generation, s.reason))
                    .collect::<Vec<_>>()
                    .join("; ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn save_ok(store: &CatalogStore, payload: &[u8]) -> u64 {
        store.save(payload).expect("save succeeds")
    }

    #[test]
    fn generations_accumulate_and_prune() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        assert_eq!(store.load_latest().unwrap(), None);
        assert_eq!(save_ok(&store, b"one"), 1);
        assert_eq!(save_ok(&store, b"two"), 2);
        assert_eq!(save_ok(&store, b"three"), 3);
        // Retention keeps the last two.
        assert_eq!(store.generations().unwrap(), vec![2, 3]);
        let (generation, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!(generation, 3);
        assert_eq!(bytes, b"three");
    }

    #[test]
    fn failed_write_leaves_previous_generation_intact() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"stable");

        backend.set_faults(FaultPlan {
            fail_write: Some(1),
            ..FaultPlan::default()
        });
        assert!(matches!(store.save(b"doomed"), Err(Error::Io(_))));
        backend.set_faults(FaultPlan::default());

        let (generation, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!((generation, bytes.as_slice()), (1, b"stable".as_slice()));
        // No temp garbage survives the failed save.
        assert!(backend.list().unwrap().iter().all(|n| !n.ends_with(".tmp")));
        // The store keeps working.
        assert_eq!(save_ok(&store, b"recovered"), 2);
    }

    #[test]
    fn enospc_mid_write_is_reported_and_rolled_back() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"tiny");
        backend.set_faults(FaultPlan {
            disk_capacity: Some(8),
            ..FaultPlan::default()
        });
        let err = store.save(b"this payload does not fit").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "got: {err}");
        backend.set_faults(FaultPlan::default());
        let (generation, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!((generation, bytes.as_slice()), (1, b"tiny".as_slice()));
    }

    #[test]
    fn torn_write_never_publishes() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"previous");
        for kept in 0..8 {
            backend.set_faults(FaultPlan {
                tear_write: Some((1, kept)),
                ..FaultPlan::default()
            });
            assert!(store.save(b"new-payload").is_err());
        }
        backend.set_faults(FaultPlan::default());
        let (_, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!(bytes, b"previous");
    }

    #[test]
    fn short_read_surfaces_to_validation() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"0123456789");
        save_ok(&store, b"abcdefghij");
        backend.set_faults(FaultPlan {
            short_read: Some((CatalogStore::gen_name(2), 4)),
            ..FaultPlan::default()
        });
        // Unvalidated read returns the short bytes...
        let (_, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!(bytes, b"abcd");
        // ...validated recovery rejects them and falls back to gen 1.
        let (generation, value, skipped) = store
            .load_latest_valid(|b| {
                if b.len() == 10 {
                    Ok(b.to_vec())
                } else {
                    Err(Error::Corrupt("short".into()))
                }
            })
            .unwrap()
            .unwrap();
        assert_eq!(generation, 1);
        assert_eq!(value, b"0123456789");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].generation, 2);
    }

    #[test]
    fn no_valid_generation_is_an_error_not_a_none() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"x");
        let err = store
            .load_latest_valid::<()>(|_| Err(Error::Corrupt("nope".into())))
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
        // Empty store: None, not an error.
        let empty = MemBackend::new();
        let store = CatalogStore::new(&empty);
        assert!(store
            .load_latest_valid(|b| Ok(b.to_vec()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn crash_views_bound_recovery_outcomes() {
        let backend = MemBackend::new();
        let store = CatalogStore::new(&backend);
        save_ok(&store, b"old");
        // Count the ops a clean save issues, then kill at each.
        let probe = backend.fork();
        let probe_store = CatalogStore::new(&probe);
        probe_store.save(b"new").unwrap();
        let total_ops = probe.ops_seen();
        assert!(
            total_ops >= 4,
            "save is at least write/fsync/rename/syncdir"
        );

        for die_at in 1..=total_ops {
            let fs = backend.fork();
            fs.set_faults(FaultPlan {
                die_at_op: Some(die_at),
                ..FaultPlan::default()
            });
            let dying = CatalogStore::new(&fs);
            // Ops after the directory fsync belong to best-effort
            // pruning: the save has committed and reports Ok even if
            // the process dies there.
            let committed = dying.save(b"new").is_ok();
            for view in [CrashView::DurableOnly, CrashView::AllFlushed] {
                let rebooted = fs.crash_view(view);
                let recovered = CatalogStore::new(&rebooted);
                let (_, bytes, _) = recovered
                    .load_latest_valid(|b| {
                        if b == b"old" || b == b"new" {
                            Ok(b.to_vec())
                        } else {
                            Err(Error::Corrupt("torn".into()))
                        }
                    })
                    .expect("recovery must find a generation")
                    .expect("store must not be empty after crash");
                assert!(
                    bytes == b"old" || bytes == b"new",
                    "crash at op {die_at} ({view:?}) recovered torn bytes"
                );
                if committed {
                    assert_eq!(
                        bytes, b"new",
                        "a save that reported Ok must be durable (op {die_at}, {view:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn fs_backend_round_trips_real_files() {
        let dir = std::env::temp_dir().join(format!(
            "xmlest-store-test-{}-{:x}",
            std::process::id(),
            &backend_addr_entropy()
        ));
        let backend = FsBackend::open(&dir).unwrap();
        let store = CatalogStore::new(&backend);
        assert_eq!(store.save(b"alpha").unwrap(), 1);
        assert_eq!(store.save(b"beta").unwrap(), 2);
        let (generation, bytes) = store.load_latest().unwrap().unwrap();
        assert_eq!((generation, bytes.as_slice()), (2, b"beta".as_slice()));
        // Reopening the directory sees the same store.
        let reopened = FsBackend::open(&dir).unwrap();
        let store2 = CatalogStore::new(&reopened);
        assert_eq!(store2.generations().unwrap(), vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cheap per-process-unique entropy without `rand` (kept
    /// deterministic enough for a temp-dir suffix).
    fn backend_addr_entropy() -> usize {
        let probe = Box::new(0u8);
        &*probe as *const u8 as usize
    }
}
