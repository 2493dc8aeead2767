//! The end-to-end runs: `serve`, `ingest` and `mixed`.
//!
//! Each drives the engine only through public calls: `Database` for
//! setup and oracles, `SnapshotCell::current` + `Snapshot::estimate_with`
//! for reads, and `MaintenanceWorker` for mutations.

use crate::alloc::counted;
use crate::common::{accuracy, same_estimates, sane, Env, Outcome};
use crate::inputs::{Corpus, Pool, GENERATORS, SEQ_LEN, WINDOW};
use crate::stats::{fast_latency, fast_rate, mean, median, ms, quantile_ns};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xmlest_core::{CatalogStore, MemBackend, TwigWorkspace};
use xmlest_engine::{Database, MaintenanceWorker, SnapshotCell};

/// Length of one reader measurement window. Throughput and percentiles
/// are computed per window; the metrics are the mean over the fastest
/// tenth of windows (see [`crate::stats::FAST`]).
pub const READ_WINDOW: Duration = Duration::from_millis(250);
/// Repeated `load_documents` setups per run (`setup_s` is the median).
pub const LOAD_REPS: usize = 31;
/// `open_store` setups timed before the reads (one more follows every
/// read window).
pub const OPEN_REPS: usize = 5;
/// Untimed slides at the start of every stream (one generator cycle).
pub const WARM_SLIDES: usize = GENERATORS;
/// Timed slides per `ingest` round.
pub const ROUND_SLIDES: usize = BLOCK;
/// Timed slides of the mutation phase that `serve` runs after its reads.
pub const SIDE_SLIDES: usize = 2 * BLOCK;
/// Every `REFRESH_EVERY`-th slide ends with `refresh_grid`.
pub const REFRESH_EVERY: usize = 8;
/// Slide period of the `mixed` open-loop stream: a constant, about
/// twice the slide time of the closed-loop stream.
pub const PERIOD: Duration = Duration::from_millis(60);

/// One reader's measurement.
#[derive(Default)]
pub struct Reads {
    /// `(requests per second, p50 ns, p99 ns)` per full window.
    pub windows: Vec<(f64, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Times the observed snapshot epoch went backwards.
    pub regressions: u64,
}

impl Reads {
    pub fn report(&self, out: &mut Outcome) {
        eprintln!(
            "perfbench: reader: {} requests in {} windows of {:?}",
            self.attempted,
            self.windows.len(),
            READ_WINDOW
        );
        out.tally(self.attempted, self.failed, "reader");
        out.check(self.regressions == 0, || {
            format!(
                "reader saw the epoch go backwards {} times",
                self.regressions
            )
        });
        out.check(!self.windows.is_empty(), || {
            "reader completed no window".into()
        });
        let col =
            |i: usize| -> Vec<f64> { self.windows.iter().map(|w| [w.0, w.1, w.2][i]).collect() };
        out.metric("estimates_per_s", fast_rate(&col(0)), "1/s");
        out.metric("request_p50_us", fast_latency(&col(1)) / 1e3, "us");
        out.metric("request_p99_us", fast_latency(&col(2)) / 1e3, "us");
    }
}

/// One untimed pass over every distinct string of the pool.
pub fn warm(cell: &SnapshotCell, pool: &Pool, out: &mut Outcome) {
    let mut ws = TwigWorkspace::default();
    let snap = cell.current();
    for path in &pool.strings {
        let r = snap.estimate_with(&mut ws, path);
        if let Some(e) = out.op("warm-up estimate", r) {
            out.check(sane(e.value), || {
                format!("estimate {} for {path:?}", e.value)
            });
        }
    }
}

/// The closed-loop reader: single estimates through
/// `SnapshotCell::current().estimate_with`, replaying the pool's
/// request sequence from `start` until `until` or until `stop` is set.
/// A request is timed from `current()` to the reply.
/// `between` runs after every window, outside the timing.
pub fn read_loop(
    cell: &SnapshotCell,
    pool: &Pool,
    start: usize,
    until: Instant,
    stop: &AtomicBool,
    between: &mut dyn FnMut(),
) -> Reads {
    let mut reads = Reads::default();
    let mut ws = TwigWorkspace::default();
    // Room for any plausible window, so the timed loop never grows it.
    let mut lat: Vec<u32> = Vec::with_capacity(8 << 20);
    let mut i = start;
    let mut last_epoch = 0;
    'run: loop {
        lat.clear();
        let w_start = Instant::now();
        let w_end = w_start + READ_WINDOW;
        let mut now = w_start;
        while now < w_end {
            if now >= until || stop.load(Ordering::Relaxed) {
                break 'run;
            }
            for _ in 0..64 {
                let path = &pool.strings[pool.sequence[i % SEQ_LEN] as usize];
                i += 1;
                let t0 = Instant::now();
                let snap = cell.current();
                let res = snap.estimate_with(&mut ws, path);
                now = Instant::now();
                lat.push((now - t0).as_nanos().min(u32::MAX as u128) as u32);
                reads.attempted += 1;
                match res {
                    Ok(e) if sane(e.value) => {}
                    _ => reads.failed += 1,
                }
                if snap.epoch() < last_epoch {
                    reads.regressions += 1;
                }
                last_epoch = snap.epoch();
            }
        }
        let secs = (now - w_start).as_secs_f64();
        let p50 = quantile_ns(&mut lat, 0.5);
        let p99 = quantile_ns(&mut lat, 0.99);
        reads.windows.push((lat.len() as f64 / secs, p50, p99));
        between();
    }
    reads
}

/// Timings of a mutation stream's timed slides, each tagged with the
/// slide's index among the timed slides.
#[derive(Default)]
pub struct Mutations {
    pub append_ms: Vec<(usize, f64)>,
    pub remove_ms: Vec<(usize, f64)>,
    pub refresh_ms: Vec<(usize, f64)>,
    /// Wall time of each timed slide, start (or due time) to its end.
    pub slide_ms: Vec<(usize, f64)>,
    /// Open-loop streams: documents appended and the time from the
    /// first timed due time to the last slide's end.
    pub paced: Option<(usize, Duration)>,
    /// How late each paced slide started against its schedule.
    pub late_ms: Vec<f64>,
}

/// Timed slides per block. The mutation metrics are medians over blocks
/// of a per-block median over generator cycles: slide costs cluster by
/// generator, so a cycle's mean (`GENERATORS` consecutive slides, one
/// document of each) is the unit, and single cycles still vary 2x, so
/// many cycles make a block.
pub const BLOCK: usize = 64;

/// The median over generator cycles of the cycles' means.
fn cycle_median(per_slide: &[f64]) -> f64 {
    let cycles: Vec<f64> = per_slide.chunks_exact(GENERATORS).map(mean).collect();
    median(&cycles)
}

/// Per block of `BLOCK` consecutive timed slides, `f` of the block's
/// values of `per_slide` (slide index `k` belongs to block `k / BLOCK`;
/// a trailing partial block is dropped).
fn per_block(per_slide: &[(usize, f64)], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let blocks = per_slide
        .iter()
        .map(|&(k, _)| k / BLOCK + 1)
        .max()
        .unwrap_or(0);
    (0..blocks)
        .filter_map(|b| {
            let vals: Vec<f64> = per_slide
                .iter()
                .filter(|&&(k, _)| k / BLOCK == b)
                .map(|&(_, v)| v)
                .collect();
            (!vals.is_empty()).then(|| f(&vals))
        })
        .collect()
}

impl Mutations {
    pub fn report(&self, out: &mut Outcome) {
        let full = self.slide_ms.len() / BLOCK * BLOCK;
        let trim = |v: &[(usize, f64)]| -> Vec<(usize, f64)> {
            v.iter().copied().filter(|&(k, _)| k < full).collect()
        };
        let slides = trim(&self.slide_ms);
        out.check(!slides.is_empty(), || {
            format!("fewer than {BLOCK} timed slides")
        });
        let docs_per_s = match self.paced {
            Some((docs, span)) => docs as f64 / span.as_secs_f64(),
            None => median(&per_block(&slides, |v| {
                1e3 * v.len() as f64 / v.iter().sum::<f64>()
            })),
        };
        out.metric("ingest_docs_per_s", docs_per_s, "1/s");
        out.metric(
            "append_p50_ms",
            median(&per_block(&trim(&self.append_ms), cycle_median)),
            "ms",
        );
        out.metric(
            "remove_p50_ms",
            median(&per_block(&trim(&self.remove_ms), cycle_median)),
            "ms",
        );
        // Every refresh falls on the same generator phase.
        out.metric(
            "refresh_p50_ms",
            median(&per_block(&trim(&self.refresh_ms), median)),
            "ms",
        );
    }
}

/// Slides `range` of the stream through `worker`: slide `j` appends
/// document `WINDOW + j`, removes document `j` (the oldest), and every
/// `REFRESH_EVERY`-th slide then refreshes the grid. Slides before
/// `timed_from` are warm-up. With `pace = Some((start, period))` slide
/// `j` is due at `start + (j - range.start) * period` (open loop) and
/// its append is timed from the due time; otherwise slides run back to
/// back (closed loop).
pub fn slides(
    corpus: &Corpus,
    worker: &MaintenanceWorker,
    range: Range<usize>,
    timed_from: usize,
    pace: Option<(Instant, Duration)>,
    m: &mut Mutations,
    out: &mut Outcome,
) {
    let first = range.start;
    let mut appended_docs = 0;
    let mut stream_start = None;
    let mut last_end = Instant::now();
    for j in range {
        let timed = j >= timed_from;
        let begin = match pace {
            Some((start, period)) => {
                let due = start + period * (j - first) as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                if timed {
                    m.late_ms
                        .push(ms(Instant::now().saturating_duration_since(due)));
                }
                due
            }
            None => Instant::now(),
        };
        if timed && stream_start.is_none() {
            stream_start = Some(begin);
        }
        let name = Corpus::name(WINDOW + j);
        out.op("append", worker.add_document(name, corpus.xml(WINDOW + j)));
        let appended = Instant::now();
        out.op("remove", worker.remove_document(&Corpus::name(j)));
        let removed = Instant::now();
        let mut end = removed;
        if (j + 1).is_multiple_of(REFRESH_EVERY) {
            out.op("refresh", worker.refresh_grid());
            end = Instant::now();
            if timed {
                m.refresh_ms.push((m.slide_ms.len(), ms(end - removed)));
            }
        }
        if timed {
            let k = m.slide_ms.len();
            m.append_ms.push((k, ms(appended - begin)));
            m.remove_ms.push((k, ms(removed - appended)));
            m.slide_ms.push((k, ms(end - begin)));
            appended_docs += 1;
        }
        last_end = end;
    }
    if let (Some(start), Some(_)) = (stream_start, pace) {
        m.paced = Some((appended_docs, last_end - start));
    }
}

/// After a stream of `slides` slides ending in `db`: the accuracy of
/// the state served between refreshes (when `acc`), then the closing
/// refresh, which must estimate bit-identically to a cold load of the
/// final window.
fn close_stream(
    env: &Env,
    db: &mut Database,
    slides: usize,
    acc: bool,
    out: &mut Outcome,
) -> Option<f64> {
    let factor = acc.then(|| accuracy(env, db, &db.serving().current(), out));
    out.op("closing refresh", db.refresh_grid());
    if let Some(cold) = out.op("cold load", env.load(slides)) {
        same_estimates(
            env,
            &db.serving().current(),
            &cold.serving().current(),
            "refreshed vs cold load",
            out,
        );
    }
    factor
}

/// Measures the live heap one more (untimed) setup leaves held, and
/// hands back what it built.
fn heap_metric(
    env: &Env,
    out: &mut Outcome,
    setup: impl FnOnce() -> Option<Database>,
) -> Option<Database> {
    let (db, counts) = counted(setup);
    out.metric(
        "heap_bytes_per_input_byte",
        counts.live() as f64 / env.input_bytes,
        "B/B",
    );
    db
}

fn catalog_metric(env: &Env, bytes: usize, out: &mut Outcome) {
    out.metric(
        "catalog_bytes_per_input_byte",
        bytes as f64 / env.input_bytes,
        "B/B",
    );
}

/// `serve`: restart from the persisted catalog, then read.
pub fn serve(env: &Env, seconds: f64, out: &mut Outcome) {
    let Some(source) = out.op("load", env.load(0)) else {
        return;
    };
    let backend = MemBackend::new();
    let store = CatalogStore::new(&backend);
    out.op("save", source.save_to_store(&store));
    let bytes = out.op("read catalog", store.load_latest()).flatten();
    catalog_metric(env, bytes.map_or(0, |(_, b)| b.len()), out);

    // `setup_s`: a few opens up front, then one after every read window,
    // so the samples spread over the run.
    let mut setup = Vec::new();
    let open = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let opened = Database::open_store(&store);
        setup.push(t.elapsed().as_secs_f64());
        opened.map(|(d, _)| d)
    };
    let mut db = None;
    for _ in 0..OPEN_REPS {
        drop(db.take());
        db = out.op("open_store", open(&mut setup));
    }
    drop(heap_metric(env, out, || {
        Database::open_store(&store).ok().map(|(d, _)| d)
    }));
    let Some(db) = db else {
        return;
    };

    let cell = db.serving();
    same_estimates(
        env,
        &cell.current(),
        &source.serving().current(),
        "catalog-opened vs source",
        out,
    );
    let factor = accuracy(env, &source, &cell.current(), out);
    out.metric("error_factor_gmean", factor, "factor");

    warm(&cell, &env.pool, out);
    let until = Instant::now() + Duration::from_secs_f64(seconds * 0.75);
    let mut open_failures = 0;
    let reads = read_loop(
        &cell,
        &env.pool,
        0,
        until,
        &AtomicBool::new(false),
        &mut || {
            if open(&mut setup).is_err() {
                open_failures += 1;
            }
        },
    );
    out.tally(setup.len() as u64, open_failures, "open_store");
    out.metric("setup_s", median(&setup), "s");
    reads.report(out);

    // The mutation metrics come from a short closed-loop stream on the
    // source database, run after the reads so they never overlap.
    let worker = MaintenanceWorker::spawn(source);
    let total = WARM_SLIDES + SIDE_SLIDES;
    let mut m = Mutations::default();
    slides(
        &env.corpus,
        &worker,
        0..total,
        WARM_SLIDES,
        None,
        &mut m,
        out,
    );
    m.report(out);
    if let Some(mut db) = out.op("shutdown", worker.shutdown()) {
        close_stream(env, &mut db, total, false, out);
    }
}

/// `ingest`: closed-loop sliding window through the maintenance
/// worker, no readers. Runs whole rounds, each from a fresh
/// `load_documents` (one `setup_s` sample) through `ROUND_SLIDES` timed
/// slides, so every round ends in the same state.
pub fn ingest(env: &Env, seconds: f64, out: &mut Outcome) {
    let read_secs = seconds * 0.25;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds - read_secs);
    let total = WARM_SLIDES + ROUND_SLIDES;
    let mut setup = Vec::new();
    let mut m = Mutations::default();
    let mut last: Option<Database> = None;
    let mut round_time = Duration::ZERO;
    while setup.is_empty() || Instant::now() + round_time < deadline {
        let round_start = Instant::now();
        let t = Instant::now();
        let loaded = env.load(0);
        setup.push(t.elapsed().as_secs_f64());
        let Some(db) = out.op("load", loaded) else {
            return;
        };
        let worker = MaintenanceWorker::spawn(db);
        slides(
            &env.corpus,
            &worker,
            0..total,
            WARM_SLIDES,
            None,
            &mut m,
            out,
        );
        let Some(mut db) = out.op("shutdown", worker.shutdown()) else {
            return;
        };
        if let Some(f) = close_stream(env, &mut db, total, last.is_none(), out) {
            out.metric("error_factor_gmean", f, "factor");
        }
        last = Some(db);
        round_time = round_start.elapsed();
    }
    while setup.len() < LOAD_REPS {
        let t = Instant::now();
        let loaded = env.load(0);
        setup.push(t.elapsed().as_secs_f64());
        out.op("load", loaded);
    }
    out.metric("setup_s", median(&setup), "s");
    m.report(out);
    if let Some(db) = heap_metric(env, out, || env.load(0).ok()) {
        catalog_metric(env, db.save_catalog().len(), out);
    }

    // The read metrics come from the final, quiescent database.
    if let Some(db) = last {
        let cell = db.serving();
        warm(&cell, &env.pool, out);
        let until = Instant::now() + Duration::from_secs_f64(read_secs);
        read_loop(
            &cell,
            &env.pool,
            0,
            until,
            &AtomicBool::new(false),
            &mut || {},
        )
        .report(out);
    }
}

/// `mixed`: the stream runs open-loop on the worker, paced at `PERIOD`,
/// while one closed-loop reader replays the request sequence.
pub fn mixed(env: &Env, seconds: f64, out: &mut Outcome) {
    // `setup_s`: half the loads before the stream, half after it.
    let mut setup = Vec::with_capacity(LOAD_REPS);
    let load = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let loaded = env.load(0);
        setup.push(t.elapsed().as_secs_f64());
        loaded
    };
    let mut db = None;
    for _ in 0..LOAD_REPS / 2 {
        drop(db.take());
        db = out.op("load", load(&mut setup));
    }
    drop(heap_metric(env, out, || env.load(0).ok()));
    let Some(db) = db else {
        return;
    };
    catalog_metric(env, db.save_catalog().len(), out);

    let worker = MaintenanceWorker::spawn(db);
    let cell = worker.serving();
    warm(&cell, &env.pool, out);
    // A fixed slide count (whole blocks after the warm-up), so the
    // stream always ends in the same state.
    let due = (seconds / PERIOD.as_secs_f64()) as usize;
    let total = WARM_SLIDES + BLOCK * (due.saturating_sub(WARM_SLIDES) / BLOCK).max(1);
    let stop = AtomicBool::new(false);
    let mut m = Mutations::default();
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let far = Instant::now() + Duration::from_secs(3600);
            read_loop(&cell, &env.pool, 0, far, &stop, &mut || {})
        });
        let start = Instant::now();
        slides(
            &env.corpus,
            &worker,
            0..total,
            WARM_SLIDES,
            Some((start, PERIOD)),
            &mut m,
            out,
        );
        stop.store(true, Ordering::Relaxed);
        reader.join()
    });
    match reads {
        Ok(reads) => reads.report(out),
        Err(_) => out.check(false, || "reader thread panicked".into()),
    }
    m.report(out);
    let late = crate::stats::quantile(&mut m.late_ms.clone(), 0.99);
    eprintln!("perfbench: mixed slides start {late:.3} ms late at p99 (period {PERIOD:?})");
    let Some(mut db) = out.op("shutdown", worker.shutdown()) else {
        return;
    };
    if let Some(f) = close_stream(env, &mut db, total, true, out) {
        out.metric("error_factor_gmean", f, "factor");
    }
    drop(db);
    while setup.len() < LOAD_REPS {
        out.op("load", load(&mut setup));
    }
    out.metric("setup_s", median(&setup), "s");
}
