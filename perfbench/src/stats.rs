//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) by nearest rank, reordering `v` in place.
/// `NaN` for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let k = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable_by(k, f64::total_cmp).1
}

/// The fast-end share of windows whose mean the read metrics report.
/// On a shared host, contention from other tenants slows whole
/// stretches of a run by up to ~40% with no steal time showing; the
/// fastest windows track the uncontended cost.
pub const FAST: f64 = 0.1;

/// `v` sorted ascending.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Number of values in the fast share of `n` (at least one, if any).
fn fast_count(n: usize) -> usize {
    ((n as f64 * FAST).ceil() as usize).max(1).min(n)
}

/// Fast-end latency: the mean of the lowest `FAST` share of `v`.
pub fn fast_latency(v: &[f64]) -> f64 {
    let s = sorted(v);
    mean(&s[..fast_count(s.len())])
}

/// Fast-end rate: the mean of the highest `FAST` share of `v`.
pub fn fast_rate(v: &[f64]) -> f64 {
    let s = sorted(v);
    mean(&s[s.len() - fast_count(s.len())..])
}

/// Interquartile mean: the mean of the middle half of `v`. As robust
/// as the median, but not stuck on one integer nanosecond value.
pub fn iq_mean(v: &[f64]) -> f64 {
    let s = sorted(v);
    let (lo, hi) = (s.len() / 4, s.len() - s.len() / 4);
    mean(&s[lo..hi.max(lo + 1).min(s.len())])
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// [`quantile`] over integer nanosecond samples.
pub fn quantile_ns(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let k = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(k).1 as f64
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean of positive factors.
pub fn gmean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// A duration in milliseconds, for the `*_ms` metrics.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
