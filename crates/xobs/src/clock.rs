//! Monotonic timestamps for span timing.
//!
//! This module is the **only** place in `xobs` allowed to call
//! `Instant::now()` — enforced by `clippy::disallowed_methods` (the
//! root `clippy.toml` lists the clock reads), which confines raw
//! wall-clock reads so every warm-path timing goes through
//! [`crate::Recorder`] spans and stays auditable from one file.
//! Everything else in the crate handles opaque [`Timestamp`] values and
//! nanosecond deltas.
#![expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned clock read for span timing"
)]

use std::time::Instant;

/// An opaque monotonic timestamp. Cheap to copy; subtract two of them
/// (via [`Timestamp::ns_since`] / [`Timestamp::elapsed_ns`]) to get a
/// duration in nanoseconds. Never compares across processes.
#[derive(Debug, Clone, Copy)]
pub struct Timestamp(Instant);

/// Reads the monotonic clock once. This is the single sanctioned
/// `Instant::now()` call site for the whole crate.
#[inline]
pub fn now() -> Timestamp {
    Timestamp(Instant::now())
}

impl Timestamp {
    /// Nanoseconds elapsed between this timestamp and a fresh clock
    /// read, saturating at `u64::MAX` (584 years — unreachable).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        saturate(self.0.elapsed().as_nanos())
    }

    /// Nanoseconds from `earlier` to `self`; 0 if `earlier` is not
    /// actually earlier (monotonic clocks can tie).
    #[inline]
    pub fn ns_since(&self, earlier: Timestamp) -> u64 {
        saturate(self.0.saturating_duration_since(earlier.0).as_nanos())
    }
}

#[inline]
fn saturate(ns: u128) -> u64 {
    if ns > u64::MAX as u128 {
        u64::MAX
    } else {
        ns as u64
    }
}
