//! The allocation-counting test harness.
//!
//! A function marked `// xcheck: no_alloc` promises zero steady-state
//! heap allocations; this crate is what holds it to that: a counting
//! [`GlobalAlloc`] wrapper around [`System`] plus assertion helpers, so
//! a test can pin a marked hot path — callees included, which no
//! token-level scan sees — at exactly zero allocations.
//!
//! Usage, from a test binary (integration test or unit-test module):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;
//!
//! #[test]
//! fn hot_path_is_allocation_free() {
//!     xcheck_rt::assert_counting();      // fails if the line above is missing
//!     warm_up();                         // first calls may fill caches
//!     xcheck_rt::assert_zero_alloc("hot path", || hot_path());
//! }
//! ```
//!
//! Beside the count it keeps the thread's live heap bytes (allocated minus
//! freed, [`live_bytes`]) and the highest value they reach inside a closure
//! ([`peak_in`]), so a test can pin what a structure holds, not only how
//! often it asks.
//!
//! The allocator must be installed *per test binary* (a
//! `#[global_allocator]` in this library would force itself on every
//! crate that links it, tests and production binaries alike).
//! [`assert_counting`] exists so a binary that forgot the declaration
//! cannot pass the zero-allocation assertion vacuously.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocator shim that counts every allocation and reallocation and the
/// bytes they hold, delegating the actual memory management to [`System`].
///
/// The counts are **per thread**: `cargo test` runs tests on concurrent
/// threads within one binary, and a process-global counter would let one
/// test's allocations fail another's zero-allocation assertion. A
/// measured closure must therefore do its allocating work on the calling
/// thread (all the harness tests in this workspace do). A block freed on
/// another thread than the one that allocated it is subtracted there.
pub struct CountingAlloc;

/// One thread's counters.
struct Counters {
    allocations: Cell<u64>,
    /// Bytes allocated minus bytes freed (requested sizes, not the
    /// allocator's rounding).
    live: Cell<i64>,
    /// The highest `live` since [`peak_in`] last reset it.
    peak: Cell<i64>,
}

thread_local! {
    // const-initialized so that reading it never allocates (a lazily
    // initialized thread-local could recurse into the allocator).
    static COUNTERS: Counters = const {
        Counters {
            allocations: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Records one allocation (`counted`) that moves the live bytes by `delta`.
fn record(counted: bool, delta: i64) {
    // try_with: allocations during thread teardown (after this TLS slot
    // is destroyed) are simply not counted rather than aborting.
    let _ = COUNTERS.try_with(|c| {
        c.allocations.set(c.allocations.get() + u64::from(counted));
        let live = c.live.get() + delta;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: pure delegation to `System`; the counter is a const-init
// thread-local cell with no effect on allocation behavior.
#[expect(
    unsafe_code,
    reason = "implementing GlobalAlloc requires an unsafe trait impl; it is pure delegation to System plus a per-thread counter"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, bytes(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, bytes(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -bytes(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, bytes(new_size) - bytes(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations (+ reallocations) observed so far **on the calling
/// thread**.
///
/// Only meaningful when [`CountingAlloc`] is installed as the binary's
/// `#[global_allocator]`; otherwise it stays at 0 forever (which is what
/// [`assert_counting`] detects).
pub fn allocations() -> u64 {
    COUNTERS.with(|c| c.allocations.get())
}

/// Heap bytes allocated minus bytes freed so far **on the calling thread**
/// (the sizes asked for, not the allocator's rounding). The difference of
/// two readings is what the code between them left allocated.
pub fn live_bytes() -> i64 {
    COUNTERS.with(|c| c.live.get())
}

/// The most heap bytes `f` held at once on the calling thread, above what
/// was live when it started: its transient peak, whatever it frees before
/// returning. An enclosing `peak_in` still sees the peak reached inside.
pub fn peak_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (start, outer) = COUNTERS.with(|c| (c.live.get(), c.peak.replace(c.live.get())));
    let result = f();
    let peak = COUNTERS.with(|c| {
        let peak = c.peak.get();
        c.peak.set(peak.max(outer));
        peak
    });
    (u64::try_from(peak - start).unwrap_or(0), result)
}

/// Number of heap allocations performed by `f` on the calling thread.
pub fn count_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

/// Asserts that [`CountingAlloc`] is actually installed, by performing a
/// heap allocation and checking the counter moved. Call this first in
/// every harness test: without it, a test binary that forgot its
/// `#[global_allocator]` declaration would pass zero-allocation
/// assertions vacuously.
///
/// # Panics
///
/// Panics when the counter does not advance across a boxed allocation.
pub fn assert_counting() {
    let (allocs, probe) = count_in(|| std::hint::black_box(Box::new(0xA5u8)));
    drop(probe);
    assert!(
        allocs > 0,
        "xcheck-rt: allocation counter did not move; declare \
         `#[global_allocator] static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;` \
         in this test binary"
    );
}

/// Runs `f` and asserts it performed exactly zero heap allocations.
/// `label` names the pinned path in the failure message.
///
/// # Panics
///
/// Panics when `f` allocates.
pub fn assert_zero_alloc<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let (allocs, result) = count_in(f);
    assert_eq!(
        allocs, 0,
        "xcheck-rt: `{label}` is marked `// xcheck: no_alloc` but performed \
         {allocs} heap allocation(s) in steady state"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counter_counts_and_zero_assertion_holds_for_stack_work() {
        assert_counting();
        let (allocs, sum) = count_in(|| (0u64..64).sum::<u64>());
        assert_eq!(allocs, 0);
        assert_eq!(sum, 2016);
        let product = assert_zero_alloc("stack-only arithmetic", || {
            std::hint::black_box(7u64) * std::hint::black_box(6u64)
        });
        assert_eq!(product, 42);
    }

    #[test]
    fn heap_work_is_counted() {
        assert_counting();
        let (allocs, v) = count_in(|| {
            let mut v = Vec::with_capacity(8);
            v.push(1u32);
            std::hint::black_box(v)
        });
        assert!(allocs >= 1, "with_capacity must register");
        assert_eq!(v.len(), 1);
        let (allocs, _) = count_in(|| {
            let mut v: Vec<u8> = Vec::new();
            for i in 0..1024 {
                v.push(i as u8);
            }
            std::hint::black_box(v)
        });
        assert!(allocs >= 1, "growth reallocations must register");
    }

    #[test]
    fn live_bytes_follow_what_is_held_and_the_peak_what_was_held_at_once() {
        assert_counting();
        let before = live_bytes();
        let kept: Vec<u8> = Vec::with_capacity(1000);
        assert_eq!(live_bytes() - before, 1000);
        let (peak, grown) = peak_in(|| {
            let scratch: Vec<u64> = Vec::with_capacity(512); // 4096 bytes
            drop(std::hint::black_box(scratch));
            let mut grown: Vec<u8> = Vec::with_capacity(100);
            grown.reserve_exact(200); // realloc: 100 -> 200 bytes
            grown
        });
        assert_eq!(peak, 4096, "the freed scratch, not the 200 kept");
        assert_eq!(live_bytes() - before, 1000 + 200);
        // Nested: the outer closure sees the inner peak, the inner only its own.
        let (outer, inner) = peak_in(|| {
            let held: Vec<u8> = Vec::with_capacity(64);
            let (inner, ()) = peak_in(|| drop(std::hint::black_box(vec![0u8; 128])));
            drop(held);
            inner
        });
        assert_eq!((outer, inner), (64 + 128, 128));
        drop((kept, grown));
        assert_eq!(live_bytes(), before);
    }
}
