//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset the workspace's benches use: groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter`, sample-size
//! and throughput knobs, and the `criterion_group!`/`criterion_main!`
//! macros. Measurement is a calibrated wall-clock loop: each sample runs
//! enough iterations to cover a minimum window, and the reported figure
//! is the median over samples (robust to scheduler noise, like
//! upstream's slope estimate in spirit if not in statistics).
//!
//! Two environment variables drive CI integration:
//!
//! * `XMLEST_BENCH_JSON=path` — append every measurement as a JSON array
//!   to `path` when the harness finishes (used by the `ph_join_scaling`
//!   smoke run to produce `BENCH_phjoin.json`);
//! * `XMLEST_BENCH_FAST=1` — shrink warm-up and sample windows ~10× for
//!   smoke runs.

use std::fmt::Display;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub group: String,
    pub id: String,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub throughput_bytes: Option<u64>,
}

/// Identifier of one benchmark within a group: `name/parameter`.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            full: format!("{name}/{param}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { full: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { full: s }
    }
}

/// Throughput annotation (recorded, reported in JSON).
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// The harness root. Collects measurements across groups and reports
/// them when dropped.
pub struct Criterion {
    results: Vec<Measurement>,
    fast: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            fast: std::env::var("XMLEST_BENCH_FAST").is_ok_and(|v| v == "1"),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput_bytes: None,
        }
    }

    /// Renders all collected measurements as a JSON array.
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, m) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"group\": {:?}, \"id\": {:?}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"samples\": {}, \"iters_per_sample\": {}, \"throughput_bytes\": {}}}",
                m.group,
                m.id,
                m.median_ns,
                m.mean_ns,
                m.samples,
                m.iters_per_sample,
                m.throughput_bytes
                    .map_or("null".to_owned(), |b| b.to_string()),
            );
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }

    /// Writes the JSON report if `XMLEST_BENCH_JSON` is set. Called by
    /// `criterion_main!` after all groups run.
    pub fn finalize(&self) {
        if let Ok(path) = std::env::var("XMLEST_BENCH_JSON") {
            if let Err(e) = std::fs::write(&path, self.to_json()) {
                eprintln!("criterion-shim: cannot write {path}: {e}");
            } else {
                eprintln!(
                    "criterion-shim: wrote {} results to {path}",
                    self.results.len()
                );
            }
        }
    }
}

/// A named group of benchmarks sharing knobs.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput_bytes: Option<u64>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput_bytes = match t {
            Throughput::Bytes(b) => Some(b),
            Throughput::Elements(_) => None,
        };
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.sample_size, self.criterion.fast);
        f(&mut b);
        self.record(id, b);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.sample_size, self.criterion.fast);
        f(&mut b, input);
        self.record(id, b);
        self
    }

    pub fn finish(&mut self) {}

    fn record(&mut self, id: BenchmarkId, b: Bencher) {
        let Some(mut m) = b.result else { return };
        m.group = self.name.clone();
        m.id = id.full;
        m.throughput_bytes = self.throughput_bytes;
        eprintln!(
            "bench {:<40} {:>14.1} ns/iter ({} samples x {} iters)",
            format!("{}/{}", m.group, m.id),
            m.median_ns,
            m.samples,
            m.iters_per_sample
        );
        self.criterion.results.push(m);
    }
}

/// Passed to the closure; `iter` runs and times the payload.
pub struct Bencher {
    sample_size: usize,
    fast: bool,
    result: Option<Measurement>,
}

impl Bencher {
    fn new(sample_size: usize, fast: bool) -> Self {
        Bencher {
            sample_size,
            fast,
            result: None,
        }
    }

    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let (warmup, window) = if self.fast {
            (Duration::from_millis(5), Duration::from_millis(2))
        } else {
            (Duration::from_millis(50), Duration::from_millis(20))
        };

        // Warm up and calibrate: how many iterations fit the window?
        let mut iters: u64 = 1;
        let warm_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if warm_start.elapsed() >= warmup && elapsed >= Duration::from_micros(50) {
                let per_iter = (elapsed.as_nanos() / iters as u128).max(1);
                iters = (window.as_nanos() / per_iter).clamp(1, 1 << 24) as u64;
                break;
            }
            iters = iters.saturating_mul(2).min(1 << 24);
        }

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        self.result = Some(Measurement {
            group: String::new(),
            id: String::new(),
            median_ns: median,
            mean_ns: mean,
            samples: self.sample_size,
            iters_per_sample: iters,
            throughput_bytes: None,
        });
    }
}

/// Declares a bundle of bench functions, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $f(c); )+
        }
    };
}

/// Entry point: runs every group against one shared `Criterion`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        std::env::set_var("XMLEST_BENCH_FAST", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        g.bench_function("noop_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].median_ns > 0.0);
        let json = c.to_json();
        assert!(json.contains("\"id\": \"noop_sum\""));
    }

    #[test]
    fn ids_compose() {
        let id = BenchmarkId::new("three_pass", 64);
        assert_eq!(id.full, "three_pass/64");
    }
}
