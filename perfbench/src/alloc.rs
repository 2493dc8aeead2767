//! A counting global allocator.
//!
//! Counting is off by default and the hot path pays one relaxed load of
//! the `ON` flag. The benchmark switches it on only around untimed
//! sections (setup heap, traced replays), so timed loops never pay the
//! atomic increments. Counters are process-wide: a section must not
//! overlap another thread's unrelated work if its counts are to repeat.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc(size: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

#[inline]
fn note_free(size: usize) {
    if ON.load(Relaxed) {
        FREED.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Allocation activity over one counted section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes handed out.
    pub bytes: u64,
    /// Bytes returned.
    pub freed: u64,
}

impl Counts {
    /// Net bytes still held at the end of the section.
    pub fn live(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

fn read() -> Counts {
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        freed: FREED.load(Relaxed),
    }
}

/// Runs `f` with counting on and returns its result with the activity
/// it caused (on every thread).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = read();
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let after = read();
    let counts = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        freed: after.freed - before.freed,
    };
    (out, counts)
}
