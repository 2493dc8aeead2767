//! Offline stand-in for the `arc-swap` crate: an atomically swappable
//! `Arc<T>` whose read side never blocks, never spins on a lock, and
//! allocates nothing.
//!
//! The build container has no network access, so this mirrors the
//! subset of the real crate's API the workspace uses — [`ArcSwap::new`],
//! [`ArcSwap::from_pointee`], [`ArcSwap::load`], [`ArcSwap::load_full`],
//! [`ArcSwap::store`], [`ArcSwap::swap`] — with the same semantics:
//! swapping the workspace dependency for the real `arc-swap` is a
//! one-line change in the root manifest.
//!
//! ## How it works
//!
//! The cell holds a raw pointer obtained from [`Arc::into_raw`] in an
//! `AtomicPtr`. Readers protect the pointer they are about to
//! dereference with a **hazard pointer**: publish the pointer into a
//! per-guard slot of a global, append-only registry, then re-read the
//! cell to confirm the pointer is still current (retrying on the rare
//! concurrent swap). Writers swap the cell pointer and move the old
//! value onto a retire list; a retired value is dropped only once no
//! hazard slot protects it. The read path is therefore a handful of
//! atomic operations — no locks, no reference-count contention on the
//! shared `Arc` — and obstruction-free: it retries only while a writer
//! is actively publishing, which in this workspace happens once per
//! collection mutation, not per read.
//!
//! Registry slots are recycled, never freed; the registry's footprint
//! is bounded by the maximum number of *simultaneous* guards ever live
//! (threads × nesting depth), not by call counts.

// `load` stays lock-free: a lock call from clippy.toml's lists needs an
// `#[expect]`, and only writer-side code has one.
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// One hazard slot: the pointer a guard is currently protecting, plus
/// the recycling flag. Nodes are leaked `Box`es linked into a global
/// list — they live for the process, so `&'static` references to them
/// are always valid.
struct HazardSlot {
    /// The raw pointer some live guard protects (null when idle). Typed
    /// `*mut ()` because one registry serves every `ArcSwap<T>`.
    protected: AtomicPtr<()>,
    /// Whether a live guard owns this slot; cleared on guard drop so the
    /// slot can be recycled by any later guard on any thread.
    active: AtomicBool,
    next: *const HazardSlot,
}

// SAFETY: `next` is written once before the node is published to the
// registry (inside `acquire_slot`, while the node is still exclusively
// owned) and read-only afterwards; the atomics are Sync by themselves.
unsafe impl Sync for HazardSlot {}
// SAFETY: same argument — the node carries no thread-affine state.
unsafe impl Send for HazardSlot {}

/// Head of the global hazard-slot registry (append-only linked list).
static REGISTRY: AtomicPtr<HazardSlot> = AtomicPtr::new(std::ptr::null_mut());

/// Claims an idle slot, recycling a released one when possible and
/// appending a fresh node otherwise. Lock-free: a walk plus one CAS.
fn acquire_slot() -> &'static HazardSlot {
    let mut cur = REGISTRY.load(Ordering::Acquire);
    while !cur.is_null() {
        // SAFETY: registry nodes are leaked and never freed, so any
        // pointer read from the list stays valid forever.
        let slot = unsafe { &*cur };
        if !slot.active.load(Ordering::Relaxed)
            && slot
                .active
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return slot;
        }
        cur = slot.next.cast_mut();
    }
    let slot = Box::leak(Box::new(HazardSlot {
        protected: AtomicPtr::new(std::ptr::null_mut()),
        active: AtomicBool::new(true),
        next: std::ptr::null(),
    }));
    let mut head = REGISTRY.load(Ordering::Acquire);
    loop {
        slot.next = head;
        match REGISTRY.compare_exchange_weak(
            head,
            slot as *mut HazardSlot,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return slot,
            Err(h) => head = h,
        }
    }
}

/// Collects every pointer currently protected by an active slot.
fn protected_set() -> Vec<usize> {
    let mut out = Vec::new();
    let mut cur = REGISTRY.load(Ordering::Acquire);
    while !cur.is_null() {
        // SAFETY: registry nodes are leaked and never freed.
        let slot = unsafe { &*cur };
        let p = slot.protected.load(Ordering::SeqCst);
        if !p.is_null() {
            out.push(p as usize);
        }
        cur = slot.next.cast_mut();
    }
    out
}

/// An atomically swappable `Arc<T>`. Reads are lock-free and do not
/// touch the `Arc`'s reference counts; writes are serialized only
/// against each other (on the internal retire list), never against
/// readers.
pub struct ArcSwap<T> {
    /// Current value, as an owning raw pointer (`Arc::into_raw`).
    ptr: AtomicPtr<T>,
    /// Swapped-out values awaiting reclamation, each an owning pointer
    /// still protected by at least one hazard slot at its last scan.
    /// Writer-side only — the read path never touches this lock.
    retired: Mutex<Vec<usize>>,
}

// SAFETY: the cell hands out &T and Arc<T> across threads and drops T
// from whichever thread retires last, so both bounds are required; the
// hazard-pointer protocol makes the raw-pointer plumbing thread-safe.
unsafe impl<T: Send + Sync> Send for ArcSwap<T> {}
// SAFETY: see the Send impl above.
unsafe impl<T: Send + Sync> Sync for ArcSwap<T> {}

/// A read guard: dereferences to the snapshot value, keeps it protected
/// (and therefore alive) until dropped. Cheap — no allocation, no
/// reference counting.
pub struct Guard<'a, T> {
    slot: &'static HazardSlot,
    ptr: *const T,
    _cell: PhantomData<&'a ArcSwap<T>>,
}

impl<T> std::ops::Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: `ptr` came from `Arc::into_raw` and is protected by
        // this guard's hazard slot, so no writer has dropped it.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        self.slot
            .protected
            .store(std::ptr::null_mut(), Ordering::Release);
        self.slot.active.store(false, Ordering::Release);
    }
}

impl<T> ArcSwap<T> {
    /// A cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcSwap {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// A cell holding `Arc::new(value)`.
    pub fn from_pointee(value: T) -> Self {
        ArcSwap::new(Arc::new(value))
    }

    /// Lock-free read: returns a guard dereferencing to the current
    /// value. The guard must be dropped before the cell itself can be;
    /// hold it across a whole read operation and the value is immutable
    /// and alive for the duration, no matter how many swaps land
    /// meanwhile.
    pub fn load(&self) -> Guard<'_, T> {
        let slot = acquire_slot();
        loop {
            let p = self.ptr.load(Ordering::Acquire);
            slot.protected.store(p.cast(), Ordering::SeqCst);
            // Revalidate: if the cell still holds `p`, any writer that
            // retires `p` afterwards is guaranteed (by the SeqCst
            // store/scan pair) to observe our hazard and keep it alive.
            if self.ptr.load(Ordering::SeqCst) == p {
                return Guard {
                    slot,
                    ptr: p,
                    _cell: PhantomData,
                };
            }
        }
    }

    /// Like [`ArcSwap::load`], but returns an owned `Arc` (one extra
    /// strong count) that outlives the cell.
    pub fn load_full(&self) -> Arc<T> {
        let guard = self.load();
        // SAFETY: `guard.ptr` came from `Arc::into_raw` and the guard
        // keeps the allocation alive across the count increment.
        unsafe {
            Arc::increment_strong_count(guard.ptr);
            Arc::from_raw(guard.ptr)
        }
    }

    /// Publishes `new` as the current value; the previous value is
    /// dropped once no reader protects it.
    pub fn store(&self, new: Arc<T>) {
        let old = self
            .ptr
            .swap(Arc::into_raw(new).cast_mut(), Ordering::SeqCst);
        self.retire(old);
    }

    /// Publishes `new` and returns the previous value.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        let old = self
            .ptr
            .swap(Arc::into_raw(new).cast_mut(), Ordering::SeqCst);
        // SAFETY: `old` came from `Arc::into_raw`; the cell's own strong
        // count is retired below, and the caller receives a *new* count,
        // so live guards stay safe even if the caller drops it at once.
        let returned = unsafe {
            Arc::increment_strong_count(old);
            Arc::from_raw(old)
        };
        self.retire(old);
        returned
    }

    /// Moves a swapped-out owning pointer onto the retire list, then
    /// drops every retired pointer no hazard slot protects.
    #[expect(
        clippy::disallowed_methods,
        reason = "writer-side retire list; load() never acquires it"
    )]
    fn retire(&self, old: *const T) {
        let locked = self.retired.lock();
        let mut retired = match locked {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        retired.push(old as usize);
        let hazards = protected_set();
        retired.retain(|&p| {
            if hazards.contains(&p) {
                true
            } else {
                // SAFETY: `p` was pushed by a writer as an owning
                // `Arc::into_raw` pointer and no reader protects it, so
                // this strong count is the retire list's to release.
                unsafe { drop(Arc::from_raw(p as *const T)) };
                false
            }
        });
    }
}

impl<T: Default> Default for ArcSwap<T> {
    fn default() -> Self {
        ArcSwap::from_pointee(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ArcSwap").field(&*self.load()).finish()
    }
}

impl<T> Drop for ArcSwap<T> {
    fn drop(&mut self) {
        // No guard can outlive the cell (guards borrow it), so the
        // current and every still-retired value are exclusively ours.
        let p = *self.ptr.get_mut();
        // SAFETY: the cell owns one strong count of its current value.
        unsafe { drop(Arc::from_raw(p)) };
        let retired = match self.retired.get_mut() {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        for &r in retired.iter() {
            // SAFETY: retired pointers are owning counts pushed by
            // `retire`; with no guards left they are safe to release.
            unsafe { drop(Arc::from_raw(r as *const T)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_sees_stores() {
        let cell = ArcSwap::from_pointee(1u64);
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        assert_eq!(*cell.load_full(), 2);
        let old = cell.swap(Arc::new(3));
        assert_eq!(*old, 2);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn guard_keeps_old_value_alive_across_swaps() {
        struct DropFlag(Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ArcSwap::from_pointee(DropFlag(drops.clone()));
        let guard = cell.load();
        cell.store(Arc::new(DropFlag(drops.clone())));
        // The old value is retired but protected by `guard`.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(guard);
        // The next store's reclamation pass frees both retired values.
        cell.store(Arc::new(DropFlag(drops.clone())));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_guards_protect_independently() {
        let a = ArcSwap::from_pointee(10u32);
        let b = ArcSwap::from_pointee(20u32);
        let ga = a.load();
        let gb = b.load();
        a.store(Arc::new(11));
        b.store(Arc::new(21));
        assert_eq!((*ga, *gb), (10, 20));
        drop((ga, gb));
        assert_eq!((*a.load(), *b.load()), (11, 21));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let cell = Arc::new(ArcSwap::from_pointee(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = &cell;
                let stop = &stop;
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "values must be monotone");
                        last = v;
                    }
                });
            }
            for i in 1..=2000u64 {
                cell.store(Arc::new(i));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), 2000);
    }
}
