//! The live metric registry (reached only with the `enabled` feature).
//!
//! A process-global table of named series. Registration (first use of a
//! name) takes a write lock once; every recording afterwards is a read
//! lock plus a handful of relaxed atomic read-modify-writes on the slot,
//! so concurrent recorders never lose an observation — counts sum
//! exactly, which the concurrency tests pin down. Slots are leaked
//! (`Box::leak`) so recorded guards can hold `&'static` references
//! without reference counting; the set of distinct metric names bounds
//! the leak.

#![expect(
    clippy::disallowed_types,
    reason = "slots are shared by concurrent recorders: every access is a Relaxed operation on an independent statistic (counts sum exactly, a cross-field view may tear) and publishes no other memory; each site's `ordering:` comment says which case it is"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::hist::{bucket_of, quantile, BUCKETS};
use crate::{Metric, SeriesStats, Snapshot};

/// What a slot measures; decides the snapshot section it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Nanosecond durations recorded by span guards.
    SpanNs,
    /// Monotonic sum.
    Counter,
    /// Last-write-wins level.
    Gauge,
}

/// One named series: histogram statistics for spans, a single
/// atomic for counters/gauges (stored in `total`).
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) name: &'static str,
    kind: Kind,
    count: AtomicU64,
    total: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Slot {
    fn new(name: &'static str, kind: Kind) -> Self {
        let hist = kind == Kind::SpanNs;
        Slot {
            name,
            kind,
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: if hist {
                (0..BUCKETS).map(|_| AtomicU64::new(0)).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Records one histogram observation.
    pub(crate) fn record(&self, value: u64) {
        // ordering: independent monotonic stats; readers tolerate torn cross-field views
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed); // ordering: same
        self.min.fetch_min(value, Ordering::Relaxed); // ordering: same
        self.max.fetch_max(value, Ordering::Relaxed); // ordering: same
        if let Some(bucket) = self.buckets.get(bucket_of(value)) {
            bucket.fetch_add(1, Ordering::Relaxed); // ordering: same
        }
    }

    /// Adds to a counter.
    pub(crate) fn add(&self, delta: u64) {
        // ordering: pure accumulators; no other memory is published through them
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(delta, Ordering::Relaxed); // ordering: same
    }

    /// Sets a gauge.
    pub(crate) fn set(&self, value: u64) {
        // ordering: last-writer-wins gauge; no cross-field invariant to order against
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.store(value, Ordering::Relaxed); // ordering: same
    }

    fn reset(&self) {
        // ordering: callers quiesce recorders before reset; no ordering can save a racing reset anyway
        self.count.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed); // ordering: same
        self.min.store(u64::MAX, Ordering::Relaxed); // ordering: same
        self.max.store(0, Ordering::Relaxed); // ordering: same
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed); // ordering: same
        }
    }

    fn stats(&self) -> SeriesStats {
        // ordering: snapshot reads are advisory; fields may tear between loads by design
        let count = self.count.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed) // ordering: same
        };
        let max = self.max.load(Ordering::Relaxed); // ordering: same
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // ordering: same
            .collect();
        // Quantile estimates are bucket upper bounds; clamping into the
        // observed [min, max] tightens them for free (a single
        // observation reports itself exactly).
        let clamp = |v: u64| v.clamp(min, max.max(min));
        SeriesStats {
            name: self.name.to_string(),
            count,
            total: self.total.load(Ordering::Relaxed), // ordering: same
            min,
            max,
            p50: clamp(quantile(&counts, 0.50)),
            p99: clamp(quantile(&counts, 0.99)),
        }
    }
}

static REGISTRY: RwLock<Vec<&'static Slot>> = RwLock::new(Vec::new());

fn read_slots() -> RwLockReadGuard<'static, Vec<&'static Slot>> {
    match REGISTRY.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_slots() -> RwLockWriteGuard<'static, Vec<&'static Slot>> {
    match REGISTRY.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The slot registered under `name`, creating it with `kind` on first
/// use. A name keeps its original kind for the life of the process;
/// callers use one name per instrument.
pub(crate) fn slot(name: &'static str, kind: Kind) -> &'static Slot {
    if let Some(found) = read_slots().iter().find(|s| s.name == name) {
        return found;
    }
    let mut slots = write_slots();
    // Another thread may have registered the name between the locks.
    if let Some(found) = slots.iter().find(|s| s.name == name) {
        return found;
    }
    let slot: &'static Slot = Box::leak(Box::new(Slot::new(name, kind)));
    slots.push(slot);
    slot
}

/// Zeroes every registered series (names stay registered).
pub(crate) fn reset_all() {
    for slot in read_slots().iter() {
        slot.reset();
    }
}

/// A deterministic snapshot: every section sorted by name.
pub(crate) fn snapshot_all() -> Snapshot {
    let mut snap = Snapshot {
        enabled: crate::enabled(),
        ..Snapshot::default()
    };
    for slot in read_slots().iter() {
        match slot.kind {
            Kind::SpanNs => snap.spans.push(slot.stats()),
            Kind::Counter => snap.counters.push(Metric {
                name: slot.name.to_string(),
                // ordering: advisory snapshot read of a monotonic counter
                value: slot.total.load(Ordering::Relaxed),
            }),
            Kind::Gauge => snap.gauges.push(Metric {
                name: slot.name.to_string(),
                // ordering: advisory snapshot read of a last-writer-wins gauge
                value: slot.total.load(Ordering::Relaxed),
            }),
        }
    }
    snap.spans.sort_by(|a, b| a.name.cmp(&b.name));
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

#[cfg(test)]
mod tests {
    //! Edge cases of the log2-histogram aggregation surface, driven on
    //! span slots of the tests' own (outside the global registry): the
    //! value `0` (its own bucket), `u64::MAX` (the clamped tail bucket),
    //! exact power-of-two bucket boundaries, and exactness under
    //! concurrent recording.
    use super::*;

    fn stats_of(values: impl IntoIterator<Item = u64>) -> SeriesStats {
        let slot = Slot::new("test.hist", Kind::SpanNs);
        for v in values {
            slot.record(v);
        }
        slot.stats()
    }

    #[test]
    fn zero_is_its_own_bucket() {
        let s = stats_of([0; 5]);
        assert_eq!(s.count, 5);
        assert_eq!(s.total, 0);
        assert_eq!((s.min, s.max), (0, 0));
        assert_eq!((s.p50, s.p99), (0, 0), "all-zero series estimates zero");
    }

    #[test]
    fn u64_max_lands_in_the_tail_bucket() {
        let s = stats_of([0, u64::MAX]);
        assert_eq!(s.count, 2);
        assert_eq!(s.total, u64::MAX, "0 + u64::MAX must not wrap");
        assert_eq!((s.min, s.max), (0, u64::MAX));
        // Rank 1 of 2 is the zero observation; rank 2 the tail bucket, whose
        // upper bound is u64::MAX itself.
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, u64::MAX);
    }

    #[test]
    fn power_of_two_boundaries_stay_inside_min_max() {
        // Both edges of a mid-range bucket: 2^20 and 2^21 - 1 share bucket 21,
        // so every quantile estimate is the bucket's upper bound — but the
        // snapshot clamps it into the observed range.
        let s = stats_of([1 << 20, (1 << 21) - 1]);
        assert_eq!((s.min, s.max), (1 << 20, (1 << 21) - 1));
        assert_eq!(s.p50, (1 << 21) - 1, "shared bucket's upper bound");
        assert_eq!(s.p99, (1 << 21) - 1);

        // A single observation reports itself, not its bucket's bound.
        let s = stats_of([1000]);
        assert_eq!((s.min, s.p50, s.p99, s.max), (1000, 1000, 1000, 1000));

        // A sweep of exact powers of two: estimates must never escape the
        // observed [min, max] envelope, even for the 1 -> 2 -> 4 low buckets.
        let s = stats_of((0..48u32).map(|exp| 1u64 << exp));
        assert_eq!(s.count, 48);
        assert_eq!((s.min, s.max), (1, 1u64 << 47));
        assert!(s.min <= s.p50 && s.p50 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let slot = Slot::new("test.hist.racing", Kind::SpanNs);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let slot = &slot;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Thread t records the range [t*P + 1, (t+1)*P]; the
                        // global extremes are 1 and THREADS * P.
                        slot.record(t * PER_THREAD + i + 1);
                    }
                });
            }
        });
        let s = slot.stats();
        let n = THREADS * PER_THREAD;
        assert_eq!(s.count, n, "no lost observations");
        assert_eq!(s.total, n * (n + 1) / 2, "totals sum exactly");
        assert_eq!(s.min, 1, "fetch_min is exact under contention");
        assert_eq!(s.max, n, "fetch_max is exact");
        assert!(s.min <= s.p50 && s.p99 <= s.max);
    }
}
