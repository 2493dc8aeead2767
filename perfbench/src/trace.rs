//! The traced run (`--trace 1`): replays the workload's seed and times
//! every layer of the request and mutation paths from outside, through
//! the layers' own public functions.
//!
//! Each timed call is a span (name, start, end, parent, request id)
//! kept in memory and written to `perfbench/out/trace-<workload>-<seed>.tsv`
//! at the end. A layer's metric is the median of its spans. A path's
//! gap is the whole public call minus the layer calls replayed just
//! before it on the same input, so work no span covers cannot hide; the
//! parts are timed separately, so a gap can come out negative.
//!
//! Every workload's traced run covers both paths, so each prints every
//! per-layer metric: requests are traced on the database the workload
//! reads (catalog-opened for `serve`, the streamed one otherwise), and
//! the mutation stream is replayed on a `Database` the benchmark thread
//! owns. `mixed` adds a concurrent reader during that replay.

use crate::alloc::counted;
use crate::common::{sane, Env, Outcome};
use crate::inputs::{Corpus, GENERATORS, SEQ_LEN, WINDOW};
use crate::stats::{iq_mean, mean, median, quantile};
use crate::workloads::{warm, PERIOD, REFRESH_EVERY, WARM_SLIDES};
use crate::Workload;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xmlest_core::catalog::CatalogFile;
use xmlest_core::shard::{
    build_shard_summaries, classify_document, entry_names, make_collection_grid, merge_delta,
    merge_shards_stateful, DocumentSummaryInput, MergeState,
};
use xmlest_core::{CatalogStore, MemBackend, Summaries, TwigWorkspace};
use xmlest_engine::{Database, MaintenanceWorker, SnapshotCell};
use xmlest_predicate::{BasePredicate, Catalog};
use xmlest_xml::parser::parse_str;
use xmlest_xml::{XmlTree, MEGA_ROOT_TAG};

/// Parent id of a top-level span.
const ROOT: u32 = u32::MAX;
/// Traced requests per run.
const TRACED_REQUESTS: usize = 20_000;
/// Requests per block of the recording on/off comparison.
const RECORDING_BLOCK: usize = 5_000;
/// Blocks per recording state.
const RECORDING_BLOCKS: usize = 6;
/// Requests whose allocations are counted.
const COUNTED_REQUESTS: usize = 10_000;
/// Setup repetitions per setup kind.
const SETUP_REPS: usize = 7;
/// Slides of the untraced reference replay after its warm-up.
const REFERENCE_SLIDES: usize = 8;
/// Worker round trips timed for `maintenance.roundtrip_us`.
const PROBES: usize = 2_000;
/// Pacing of the traced replay: a traced slide also replays every core
/// call, so it runs at twice the `mixed` period.
const TRACE_PERIOD: Duration = Duration::from_millis(2 * PERIOD.as_millis() as u64);

/// One timed call.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    req: u32,
}

/// The in-memory span recorder, with the per-event values of the
/// derived rows (gaps, ratios, lateness) beside the spans.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    rows: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(8 * TRACED_REQUESTS + 4096),
            rows: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, req: usize) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: req as u32,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) -> f64 {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end = end;
        (s.end - s.start) as f64
    }

    /// Times `f` as a leaf span; returns its result and duration (ns).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, req);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    fn row(&mut self, name: &'static str, v: f64) {
        self.rows.entry(name).or_default().push(v);
    }

    fn row_iqm(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(f64::NAN, |v| iq_mean(v))
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Per span name: `(count, median duration ns, total self time ns)`,
    /// where self time is the duration minus the child spans'.
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0.push((s.end - s.start) as f64);
            e.1 += (s.end - s.start) as f64 - child as f64;
        }
        by_name
            .into_iter()
            .map(|(k, (d, own))| (k, (d.len(), median(&d), own)))
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        f.flush()
    }
}

/// `open_store` decomposed: `CatalogStore::load_latest`, then
/// `CatalogFile::from_bytes`, then the whole call.
fn trace_open(t: &mut Tracer, store: &CatalogStore<'_>, out: &mut Outcome) {
    for r in 0..SETUP_REPS {
        let grp = t.open("setup.open", ROOT, r);
        let (bytes, read) = t.time("store.read", grp, r, || store.load_latest());
        let bytes = out
            .op("store read", bytes)
            .flatten()
            .map(|(_, b)| b)
            .unwrap_or_default();
        let (file, decode) = t.time("catalog.decode", grp, r, || CatalogFile::from_bytes(&bytes));
        out.op("catalog decode", file);
        let (db, whole) = t.time("db.open_store", grp, r, || Database::open_store(store));
        out.op("open_store", db);
        t.close(grp);
        t.row("db.open_gap", whole - read - decode);
    }
}

/// `load_documents` decomposed into the core calls it makes over the
/// whole collection (parse, classify, grid + shard build, merge), each
/// fanned out across cores like the database does, then the whole call.
fn trace_load(t: &mut Tracer, env: &Env, out: &mut Outcome) {
    let docs = env.corpus.window(0);
    for r in 0..SETUP_REPS {
        let grp = t.open("setup.load", ROOT, r);
        let (trees, parse) = t.time("load.parse", grp, r, || {
            docs.par_iter()
                .map(|(_, xml)| parse_str(xml))
                .collect::<Vec<_>>()
                .into_iter()
                .collect::<Result<Vec<XmlTree>, _>>()
        });
        let Some(trees) = out.op("parse", trees) else {
            return;
        };
        let ((catalog, inputs), classify) = t.time("load.classify", grp, r, || {
            let mut catalog = Catalog::new();
            for tree in &trees {
                catalog.define_all_tags(tree);
            }
            catalog.define(MEGA_ROOT_TAG, BasePredicate::Tag(MEGA_ROOT_TAG.to_owned()));
            let inputs: Vec<DocumentSummaryInput> = trees
                .par_iter()
                .map(|tree| classify_document(tree, &catalog))
                .collect();
            (catalog, inputs)
        });
        let (built, build) = t.time("load.build", grp, r, || {
            let placed = place(&inputs);
            let grid = make_collection_grid(&placed, &catalog, &env.config)?;
            let shards: Vec<Summaries> = placed
                .par_iter()
                .map(|&(input, off)| {
                    build_shard_summaries(input, off, &grid, &catalog, &env.config)
                })
                .collect();
            Ok::<_, xmlest_core::Error>((grid, shards))
        });
        let Some((grid, shards)) = out.op("grid", built) else {
            return;
        };
        let (merged, merge) = t.time("load.merge", grp, r, || {
            let refs: Vec<&Summaries> = shards.iter().collect();
            merge_shards_stateful(&refs, &grid, &catalog, &env.config)
        });
        out.op("merge", merged);
        let (db, whole) = t.time("db.load_documents", grp, r, || env.load(0));
        out.op("load", db);
        t.close(grp);
        t.row("load.gap", whole - parse - classify - build - merge);
    }
}

/// Collection offsets for documents laid out in order after the
/// mega-root (position 0).
fn place(inputs: &[DocumentSummaryInput]) -> Vec<(&DocumentSummaryInput, u32)> {
    let mut off = 1u32;
    inputs
        .iter()
        .map(|i| {
            let at = off;
            off += i.node_count;
            (i, at)
        })
        .collect()
}

/// The request path, one request at a time: `SnapshotCell::current`,
/// `parse_path`, `TwigNode::canonicalize`, `Snapshot::estimate_twig_with`
/// on the canonical twig, then the whole `Snapshot::estimate_with`.
fn trace_requests(t: &mut Tracer, env: &Env, cell: &SnapshotCell, out: &mut Outcome) {
    let pool = &env.pool;
    let mut ws = TwigWorkspace::default();
    let mut mismatched = 0;
    for r in 0..TRACED_REQUESTS {
        let path = &pool.strings[pool.sequence[r % SEQ_LEN] as usize];
        let req = t.open("request", ROOT, r);
        let (snap, load) = t.time("snapshot.load", req, r, || cell.current());
        let (twig, parse) = t.time("query.parse", req, r, || xmlest_query::parse_path(path));
        let Some(twig) = out.op("parse", twig) else {
            continue;
        };
        let (canon, canonicalize) = t.time("twig.canonicalize", req, r, || twig.canonicalize());
        let (part, kernel) = t.time("estimator.kernel", req, r, || {
            snap.estimate_twig_with(&mut ws, &canon)
        });
        let (whole, call) = t.time("snapshot.estimate_with", req, r, || {
            snap.estimate_with(&mut ws, path)
        });
        t.close(req);
        t.row("snapshot.request_gap", call - parse - canonicalize - kernel);
        t.row("request.traced", load + call);
        if let (Some(a), Some(b)) = (out.op("estimate", part), out.op("estimate", whole)) {
            if a.value.to_bits() != b.value.to_bits() || !sane(b.value) {
                mismatched += 1;
            }
        }
    }
    out.check(mismatched == 0, || {
        format!("{mismatched} requests: the layer calls and estimate_with disagree")
    });
}

/// Requests without spans: per-request ns of
/// `current().estimate_with`, the reference for the overhead ratios.
fn plain_requests(
    env: &Env,
    cell: &SnapshotCell,
    from: usize,
    n: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let pool = &env.pool;
    let mut ws = TwigWorkspace::default();
    let mut ns = Vec::with_capacity(n);
    let mut failed = 0;
    for r in from..from + n {
        let path = &pool.strings[pool.sequence[r % SEQ_LEN] as usize];
        let t0 = Instant::now();
        let res = cell.current().estimate_with(&mut ws, path);
        ns.push(t0.elapsed().as_nanos() as f64);
        if !res.is_ok_and(|e| sane(e.value)) {
            failed += 1;
        }
    }
    out.tally(n as u64, failed, "plain requests");
    ns
}

/// The request-path rows that are not plain spans: recording on/off,
/// allocations per request, and the tracing overhead.
fn request_extras(t: &mut Tracer, env: &Env, cell: &SnapshotCell, out: &mut Outcome) {
    let recorder = cell.current().recorder().clone();
    let was = recorder.enabled();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for b in 0..2 * RECORDING_BLOCKS {
        let enabled = b % 2 == 0;
        recorder.set_enabled(enabled);
        let block = mean(&plain_requests(
            env,
            cell,
            b * RECORDING_BLOCK,
            RECORDING_BLOCK,
            out,
        ));
        if enabled {
            on.push(block)
        } else {
            off.push(block)
        }
    }
    recorder.set_enabled(was);
    t.row("xobs.recording_ratio", median(&on) / median(&off));

    let (_, counts) = counted(|| plain_requests(env, cell, 0, COUNTED_REQUESTS, out));
    // Less the one allocation of the latency vector itself.
    let allocs = counts.allocs.saturating_sub(1);
    t.row("alloc.per_request", allocs as f64 / COUNTED_REQUESTS as f64);

    for ns in plain_requests(env, cell, 0, TRACED_REQUESTS, out) {
        t.row("request.plain", ns);
    }
}

/// The benchmark's copy of what the database derives per document, so
/// each core call can be replayed on the same input against the live
/// grid and catalog before the database makes it.
struct Mirror {
    docs: Vec<(String, XmlTree, DocumentSummaryInput)>,
    entries: Vec<String>,
    merged: Summaries,
    state: MergeState,
}

impl Mirror {
    fn new(env: &Env, db: &Database, out: &mut Outcome) -> Option<Mirror> {
        let mut docs = Vec::with_capacity(WINDOW + 1);
        for (name, xml) in env.corpus.window(0) {
            let tree = out.op("parse", parse_str(xml))?;
            let input = classify_document(&tree, db.catalog());
            docs.push((name, tree, input));
        }
        let (merged, state) = out.op("merge", Mirror::merge(env, db, &docs))?;
        Some(Mirror {
            docs,
            entries: entry_names(db.catalog()),
            merged,
            state,
        })
    }

    fn merge(
        env: &Env,
        db: &Database,
        docs: &[(String, XmlTree, DocumentSummaryInput)],
    ) -> xmlest_core::Result<(Summaries, MergeState)> {
        let refs: Vec<&Summaries> = docs
            .iter()
            .filter_map(|(name, _, _)| db.shard_summaries(name))
            .collect();
        merge_shards_stateful(&refs, db.summaries().grid(), db.catalog(), &env.config)
    }

    /// Re-aligns with the database after one of its calls (untimed).
    fn sync(&mut self, env: &Env, db: &Database, out: &mut Outcome) {
        let entries = entry_names(db.catalog());
        if entries != self.entries {
            for (_, tree, input) in &mut self.docs {
                *input = classify_document(tree, db.catalog());
            }
            self.entries = entries;
        }
        if let Some((merged, state)) = out.op("merge", Mirror::merge(env, db, &self.docs)) {
            self.merged = merged;
            self.state = state;
        }
    }

    fn inputs(&self, skip: usize) -> Vec<DocumentSummaryInput> {
        self.docs[skip..]
            .iter()
            .map(|(_, _, i)| i.clone())
            .collect()
    }
}

/// Times the first request on the snapshot a database call just
/// published (its coefficient tables are derived on first touch).
fn first_read(
    t: &mut Tracer,
    env: &Env,
    cell: &SnapshotCell,
    parent: u32,
    req: usize,
    cursor: &mut usize,
    out: &mut Outcome,
) {
    let path = &env.pool.strings[env.pool.sequence[*cursor % SEQ_LEN] as usize];
    *cursor += 1;
    let mut ws = TwigWorkspace::default();
    let (res, _) = t.time("estimator.first_read", parent, req, || {
        cell.current().estimate_with(&mut ws, path)
    });
    if let Some(e) = out.op("first read", res) {
        out.check(sane(e.value), || format!("first read estimate {}", e.value));
    }
}

/// One traced slide `j` on the benchmark-owned database.
fn trace_slide(
    t: &mut Tracer,
    env: &Env,
    db: &mut Database,
    mirror: &mut Mirror,
    j: usize,
    cursor: &mut usize,
    out: &mut Outcome,
) {
    let config = &env.config;
    let cell = db.serving();
    let slide = t.open("slide", ROOT, j);

    // Append document WINDOW + j.
    let (name, xml) = (Corpus::name(WINDOW + j), env.corpus.xml(WINDOW + j));
    let grp = t.open("append", slide, j);
    let (tree, parse) = t.time("xml.parse", grp, j, || parse_str(xml));
    let Some(tree) = out.op("parse", tree) else {
        return;
    };
    let mut catalog = db.catalog().clone();
    catalog.define_all_tags(&tree);
    let (input, classify) = t.time("shard.classify", grp, j, || {
        classify_document(&tree, &catalog)
    });
    let grid = db.summaries().grid().clone();
    let offset = db.summaries().tree_nodes() as u32;
    let (shard, build) = t.time("shard.build", grp, j, || {
        build_shard_summaries(&input, offset, &grid, &catalog, config)
    });
    let (delta, merge) = t.time("shard.merge_delta", grp, j, || {
        merge_delta(
            &mirror.merged,
            &mirror.state,
            &shard,
            &grid,
            &catalog,
            config,
        )
    });
    out.op("merge_delta", delta);
    let (added, whole) = t.time("db.add_document", grp, j, || {
        db.add_document(name.clone(), xml)
    });
    t.close(grp);
    out.op("append", added);
    let mut db_ns = whole;
    let mut gap = whole - parse - classify - build - merge;
    t.row("db.append_gap", gap);
    mirror.docs.push((name, tree, input));
    mirror.sync(env, db, out);
    first_read(t, env, &cell, slide, j, cursor, out);

    // Remove document j, the oldest: every survivor rebuilds at its
    // compacted offset on the pinned grid.
    let grp = t.open("remove", slide, j);
    let survivors = mirror.inputs(1);
    let grid = db.summaries().grid().clone();
    let (rebuilt, rebuild) = t.time("shard.rebuild", grp, j, || {
        place(&survivors)
            .par_iter()
            .map(|&(input, off)| build_shard_summaries(input, off, &grid, db.catalog(), config))
            .collect::<Vec<Summaries>>()
    });
    let (merged, full) = t.time("shard.merge_full", grp, j, || {
        let refs: Vec<&Summaries> = rebuilt.iter().collect();
        merge_shards_stateful(&refs, &grid, db.catalog(), config)
    });
    out.op("merge", merged);
    let oldest = Corpus::name(j);
    let (removed, whole) = t.time("db.remove_document", grp, j, || db.remove_document(&oldest));
    t.close(grp);
    out.op("remove", removed);
    db_ns += whole;
    let remove_gap = whole - rebuild - full;
    gap += remove_gap;
    t.row("db.remove_gap", remove_gap);
    mirror.docs.remove(0);
    mirror.sync(env, db, out);
    first_read(t, env, &cell, slide, j, cursor, out);

    if (j + 1).is_multiple_of(REFRESH_EVERY) {
        let grp = t.open("refresh", slide, j);
        let inputs = mirror.inputs(0);
        let (grid, derive) = t.time("regrid.derive", grp, j, || {
            make_collection_grid(&place(&inputs), db.catalog(), config)
        });
        out.op("derive grid", grid);
        let (refreshed, whole) = t.time("db.refresh_grid", grp, j, || db.refresh_grid());
        t.close(grp);
        out.op("refresh", refreshed);
        db_ns += whole;
        let refresh_gap = whole - derive;
        gap += refresh_gap;
        t.row("db.refresh_gap", refresh_gap);
        mirror.sync(env, db, out);
        first_read(t, env, &cell, slide, j, cursor, out);
    }
    t.close(slide);
    t.row("mutation.gap", gap);
    t.row("mutation.traced", db_ns);
}

/// The untraced reference replay: the same slides straight on a fresh
/// `Database`, no spans and no layer calls. Feeds the mutation overhead
/// ratio and `alloc.bytes_per_ingested_byte`.
fn reference_slides(t: &mut Tracer, env: &Env, out: &mut Outcome) {
    let Some(mut db) = out.op("load", env.load(0)) else {
        return;
    };
    let mut bytes = 0u64;
    let mut ingested = 0usize;
    for j in 0..WARM_SLIDES + REFERENCE_SLIDES {
        let timed = j >= WARM_SLIDES;
        let (name, xml) = (Corpus::name(WINDOW + j), env.corpus.xml(WINDOW + j));
        let t0 = Instant::now();
        let ((added, removed, refreshed), counts) = counted(|| {
            let added = db.add_document(name, xml);
            let removed = db.remove_document(&Corpus::name(j));
            let refreshed = ((j + 1).is_multiple_of(REFRESH_EVERY)).then(|| db.refresh_grid());
            (added, removed, refreshed)
        });
        let ns = t0.elapsed().as_nanos() as f64;
        out.op("append", added);
        out.op("remove", removed);
        if let Some(r) = refreshed {
            out.op("refresh", r);
        }
        if timed {
            t.row("mutation.plain", ns);
            bytes += counts.bytes;
            ingested += xml.len();
        }
    }
    t.row(
        "alloc.bytes_per_ingested_byte",
        bytes as f64 / ingested as f64,
    );
}

/// `MaintenanceWorker::probe(&[])` round trips on `db`, which comes back.
fn probe_worker(t: &mut Tracer, db: Database, out: &mut Outcome) -> Option<Database> {
    let worker = MaintenanceWorker::spawn(db);
    for _ in 0..PROBES {
        let t0 = Instant::now();
        let r = worker.probe(&[]);
        t.row("maintenance.roundtrip", t0.elapsed().as_nanos() as f64);
        out.op("probe", r);
    }
    out.op("shutdown", worker.shutdown())
}

/// A background reader for the traced `mixed` replay: plain requests on
/// `cell` until `stop`; returns `(attempted, failed, epoch regressions)`.
fn background_reader(env: &Env, cell: &SnapshotCell, stop: &AtomicBool) -> (u64, u64, u64) {
    let mut ws = TwigWorkspace::default();
    let (mut attempted, mut failed, mut regressions, mut last) = (0, 0, 0, 0);
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let path = &env.pool.strings[env.pool.sequence[i % SEQ_LEN] as usize];
        i += 1;
        let snap = cell.current();
        attempted += 1;
        if !snap
            .estimate_with(&mut ws, path)
            .is_ok_and(|e| sane(e.value))
        {
            failed += 1;
        }
        if snap.epoch() < last {
            regressions += 1;
        }
        last = snap.epoch();
    }
    (attempted, failed, regressions)
}

/// Runs the traced replay of `workload` and reports every per-layer
/// metric.
pub fn run(env: &Env, workload: Workload, seconds: f64, seed: u64, out: &mut Outcome) {
    let mut t = Tracer::new();

    // Setup layers: both setups run in every workload (serve needs the
    // loaded source database; the others can save and reopen a catalog).
    let Some(source) = out.op("load", env.load(0)) else {
        return;
    };
    let backend = MemBackend::new();
    let store = CatalogStore::new(&backend);
    out.op("save", source.save_to_store(&store));
    trace_open(&mut t, &store, out);
    trace_load(&mut t, env, out);

    // The mutation path.
    reference_slides(&mut t, env, out);
    let share = if workload == Workload::Serve {
        0.3
    } else {
        0.6
    };
    let cycles = ((seconds * share / TRACE_PERIOD.as_secs_f64()) as usize / GENERATORS).max(2);
    let total = WARM_SLIDES + GENERATORS * cycles;
    let Some(mut db) = out.op("load", env.load(0)) else {
        return;
    };
    let Some(mut mirror) = Mirror::new(env, &db, out) else {
        return;
    };
    let cell = db.serving();
    warm(&cell, &env.pool, out);
    let stop = AtomicBool::new(false);
    let mut cursor = 0;
    let reader = std::thread::scope(|s| {
        let reader =
            (workload == Workload::Mixed).then(|| s.spawn(|| background_reader(env, &cell, &stop)));
        let start = Instant::now();
        for j in 0..total {
            let due = start + TRACE_PERIOD * j as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if j >= WARM_SLIDES {
                t.row(
                    "loadgen.late",
                    Instant::now().saturating_duration_since(due).as_nanos() as f64,
                );
                trace_slide(&mut t, env, &mut db, &mut mirror, j, &mut cursor, out);
            } else {
                // Warm-up slides still go through the database so the
                // traced slides start from the same state as the stream.
                out.op(
                    "append",
                    db.add_document(Corpus::name(WINDOW + j), env.corpus.xml(WINDOW + j)),
                );
                out.op("remove", db.remove_document(&Corpus::name(j)));
                if (j + 1).is_multiple_of(REFRESH_EVERY) {
                    out.op("refresh", db.refresh_grid());
                }
                if let Some(tree) = out.op("parse", parse_str(env.corpus.xml(WINDOW + j))) {
                    let input = classify_document(&tree, db.catalog());
                    mirror.docs.push((Corpus::name(WINDOW + j), tree, input));
                }
                mirror.docs.remove(0);
                mirror.sync(env, &db, out);
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.map(|r| r.join())
    });
    if let Some(joined) = reader {
        match joined {
            Ok((attempted, failed, regressions)) => {
                out.tally(attempted, failed, "background reader");
                out.check(regressions == 0, || {
                    format!("reader epoch went backwards {regressions} times")
                });
            }
            Err(_) => out.check(false, || "background reader panicked".into()),
        }
    }
    let Some(db) = probe_worker(&mut t, db, out) else {
        return;
    };

    // The request path: on the catalog-opened database for serve, on
    // the streamed one otherwise.
    let read_db = match workload {
        Workload::Serve => out
            .op("open_store", Database::open_store(&store))
            .map(|(d, _)| d),
        _ => Some(db),
    };
    if let Some(read_db) = read_db {
        let cell = read_db.serving();
        warm(&cell, &env.pool, out);
        request_extras(&mut t, env, &cell, out);
        trace_requests(&mut t, env, &cell, out);
    }

    report(&t, workload, seed, out);
}

fn report(t: &Tracer, workload: Workload, seed: u64, out: &mut Outcome) {
    let span_iqm = |name: &str| iq_mean(&t.durations(name));
    let us = |v: f64| v / 1e3;
    let msec = |v: f64| v / 1e6;
    let late = t
        .rows
        .get("loadgen.late")
        .map_or(f64::NAN, |v| quantile(&mut v.clone(), 0.99));
    let request_traced = t.row_iqm("request.traced");
    let request_plain = t.row_iqm("request.plain");
    let mutation_traced = t.row_iqm("mutation.traced");
    let mutation_plain = t.row_iqm("mutation.plain");
    let metrics: [(&'static str, f64, &'static str); 33] = [
        ("snapshot.load_ns", span_iqm("snapshot.load"), "ns"),
        ("query.parse_ns", span_iqm("query.parse"), "ns"),
        ("twig.canonicalize_ns", span_iqm("twig.canonicalize"), "ns"),
        ("estimator.kernel_ns", span_iqm("estimator.kernel"), "ns"),
        (
            "snapshot.request_gap_ns",
            t.row_iqm("snapshot.request_gap"),
            "ns",
        ),
        (
            "estimator.first_read_us",
            us(span_iqm("estimator.first_read")),
            "us",
        ),
        (
            "xobs.recording_ratio",
            t.row_iqm("xobs.recording_ratio"),
            "ratio",
        ),
        ("alloc.per_request", t.row_iqm("alloc.per_request"), "count"),
        (
            "maintenance.roundtrip_us",
            us(t.row_iqm("maintenance.roundtrip")),
            "us",
        ),
        ("xml.parse_ms", msec(span_iqm("xml.parse")), "ms"),
        ("shard.classify_ms", msec(span_iqm("shard.classify")), "ms"),
        ("shard.build_ms", msec(span_iqm("shard.build")), "ms"),
        (
            "shard.merge_delta_ms",
            msec(span_iqm("shard.merge_delta")),
            "ms",
        ),
        ("db.append_gap_ms", msec(t.row_iqm("db.append_gap")), "ms"),
        ("shard.rebuild_ms", msec(span_iqm("shard.rebuild")), "ms"),
        (
            "shard.merge_full_ms",
            msec(span_iqm("shard.merge_full")),
            "ms",
        ),
        ("db.remove_gap_ms", msec(t.row_iqm("db.remove_gap")), "ms"),
        ("regrid.derive_ms", msec(span_iqm("regrid.derive")), "ms"),
        ("db.refresh_gap_ms", msec(t.row_iqm("db.refresh_gap")), "ms"),
        (
            "alloc.bytes_per_ingested_byte",
            t.row_iqm("alloc.bytes_per_ingested_byte"),
            "count",
        ),
        ("loadgen.late_ms", msec(late), "ms"),
        ("store.read_ms", msec(span_iqm("store.read")), "ms"),
        ("catalog.decode_ms", msec(span_iqm("catalog.decode")), "ms"),
        ("db.open_gap_ms", msec(t.row_iqm("db.open_gap")), "ms"),
        ("load.parse_ms", msec(span_iqm("load.parse")), "ms"),
        ("load.classify_ms", msec(span_iqm("load.classify")), "ms"),
        ("load.build_ms", msec(span_iqm("load.build")), "ms"),
        ("load.merge_ms", msec(span_iqm("load.merge")), "ms"),
        ("load.gap_ms", msec(t.row_iqm("load.gap")), "ms"),
        (
            "request.gap_share",
            t.row_iqm("snapshot.request_gap") / span_iqm("snapshot.estimate_with"),
            "ratio",
        ),
        ("mutation.gap_ms", msec(t.row_iqm("mutation.gap")), "ms"),
        (
            "trace.request_overhead",
            request_traced / request_plain,
            "ratio",
        ),
        (
            "trace.mutation_overhead",
            mutation_traced / mutation_plain,
            "ratio",
        ),
    ];
    for (name, value, unit) in metrics {
        out.metric(name, value, unit);
    }

    eprintln!("perfbench: layer self times (ns)");
    eprintln!(
        "  {:28} {:>8} {:>14} {:>16}",
        "span", "count", "median", "total self"
    );
    for (name, (count, med, own)) in t.self_times() {
        eprintln!("  {name:28} {count:>8} {med:>14.0} {own:>16.0}");
    }
    let name = match workload {
        Workload::Serve => "serve",
        Workload::Ingest => "ingest",
        Workload::Mixed => "mixed",
    };
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{name}-{seed}.tsv"));
    match t.write(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            t.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
    }
}
