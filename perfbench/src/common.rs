//! What every workload shares: the seeded environment, the outcome
//! ledger (attempted/failed operations, failed checks, metrics), and
//! the correctness and accuracy oracles.

use crate::inputs::{Corpus, Pool, ACCURACY_SET};
use crate::stats::gmean;
use std::fmt::Display;
use xmlest_core::{GridPolicy, SummaryConfig, TwigWorkspace};
use xmlest_engine::{Database, Snapshot};

/// Inputs and configuration derived from the workload seed.
pub struct Env {
    pub corpus: Corpus,
    pub pool: Pool,
    pub config: SummaryConfig,
    /// XML bytes of the initial window.
    pub input_bytes: f64,
}

impl Env {
    pub fn new(seed: u64) -> Env {
        let corpus = Corpus::new(seed);
        let pool = Pool::new(seed, &corpus);
        Env {
            input_bytes: corpus.window_bytes() as f64,
            corpus,
            pool,
            config: SummaryConfig::paper_defaults().with_policy(GridPolicy::slack()),
        }
    }

    /// `Database::load_documents` over the window starting at stream
    /// index `first`.
    pub fn load(&self, first: usize) -> xmlest_engine::Result<Database> {
        let docs = self.corpus.window(first);
        Database::load_documents(docs.iter().map(|(n, x)| (n.as_str(), *x)), &self.config)
    }
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's ledger: operations attempted and failed, checks that did
/// not hold, and the metrics measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Counts one operation; an error counts as failed and fails the run.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds the counts of a reader or mutator that ran on its own.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        self.check(failed == 0, || {
            format!("{what}: {failed} of {attempted} operations failed")
        });
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// Whether an estimate is a usable answer size.
pub fn sane(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// `error_factor_gmean` over the accuracy set: the most requested
/// canonical twigs whose exact count on `exact` is positive, estimated
/// on `snap`. Both must be quiescent.
pub fn accuracy(env: &Env, exact: &Database, snap: &Snapshot, out: &mut Outcome) -> f64 {
    let mut ws = TwigWorkspace::default();
    let mut factors = Vec::with_capacity(ACCURACY_SET);
    for k in env.pool.by_mass() {
        if factors.len() == ACCURACY_SET {
            break;
        }
        let path = &env.pool.twigs[k].canonical;
        let Some(real) = out.op("exact count", exact.count(path)) else {
            continue;
        };
        if real == 0 {
            continue;
        }
        let Some(est) = out.op("accuracy estimate", snap.estimate_with(&mut ws, path)) else {
            continue;
        };
        out.check(sane(est.value) && est.value > 0.0, || {
            format!("estimate {} for {path} (real {real})", est.value)
        });
        let real = real as f64;
        factors.push((est.value / real).max(real / est.value));
    }
    out.check(factors.len() == ACCURACY_SET, || {
        format!(
            "accuracy set has {} twigs, want {ACCURACY_SET}",
            factors.len()
        )
    });
    gmean(&factors)
}

/// Checks that `a` and `b` estimate every canonical pool twig
/// bit-identically (and sanely); `what` names the pair in failures.
pub fn same_estimates(env: &Env, a: &Snapshot, b: &Snapshot, what: &str, out: &mut Outcome) {
    let mut ws = TwigWorkspace::default();
    let mut differ = 0;
    for twig in &env.pool.twigs {
        let (Some(x), Some(y)) = (
            out.op("estimate", a.estimate_with(&mut ws, &twig.canonical)),
            out.op("estimate", b.estimate_with(&mut ws, &twig.canonical)),
        ) else {
            continue;
        };
        out.check(sane(x.value) && sane(y.value), || {
            format!(
                "{what}: estimate of {} is {} / {}",
                twig.canonical, x.value, y.value
            )
        });
        if x.value.to_bits() != y.value.to_bits() {
            differ += 1;
        }
    }
    out.check(differ == 0, || {
        format!(
            "{what}: {differ} of {} twigs estimate differently",
            env.pool.twigs.len()
        )
    });
}
