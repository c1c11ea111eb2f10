//! A zero-dependency scoped thread pool for deterministic data-parallel
//! fan-out.
//!
//! The rekey datapath has several embarrassingly parallel stages —
//! encoding independent FEC blocks, sealing independent key-tree subtree
//! groups, deriving per-member USR packets — and this crate gives them a
//! single minimal primitive: [`map`] / [`map_mut`] over a slice, with
//! results returned **in input order** regardless of worker scheduling.
//! Work distribution is a shared index queue, so an expensive item does
//! not stall the items behind it on one worker.
//!
//! Everything runs on [`std::thread::scope`]: no global pool, no
//! channels, no `unsafe`, no dependencies. Worker count resolves, in
//! priority order, from a [`with_workers`] override (thread-local, used
//! by tests to force a parallel or sequential run deterministically),
//! the `REKEY_THREADS` environment variable, and the machine's available
//! parallelism. With one worker (or one item) the map degenerates to a
//! plain sequential loop on the calling thread — same closure, same
//! order, no threads spawned.
//!
//! # Determinism
//!
//! For a pure closure `f`, `map(items, f)` returns exactly
//! `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for every
//! worker count: items never migrate between slots, results are slotted
//! by index, and each item is processed exactly once. Parallelism changes
//! wall-clock time only, never output — the property the protocol's
//! "parallel encode is bit-identical to sequential" tests pin down.
//!
//! # Schedule perturbation
//!
//! That guarantee is only worth what the tests that pin it can reach, and
//! the OS scheduler rarely cooperates: on a quiet machine workers claim
//! indices in nearly sorted order every run. [`with_schedule`] (or the
//! `XCHECK_SCHED_SEED` environment variable for ad-hoc runs) installs a
//! seeded adversarial schedule — task pickup runs through a Fisher–Yates
//! permutation of the index space and workers inject `yield_now` points
//! pseudo-randomly — so a bit-identity test can re-run the same workload
//! under many materially different interleavings. Results are still
//! returned in input order; a correct caller cannot tell the difference,
//! which is exactly what the perturbation gates assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Worker-count override installed by [`with_workers`] on this thread.
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Schedule-perturbation seed installed by [`with_schedule`].
    static SCHED_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `body` with the worker count pinned to `workers` on the current
/// thread, restoring the previous setting afterwards (also on panic).
///
/// `with_workers(1, ..)` forces the sequential path; tests use larger
/// counts to exercise the parallel path even on single-core machines.
/// The override is thread-local, so concurrent tests cannot race on it
/// the way an environment variable would.
pub fn with_workers<R>(workers: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.with(|cell| cell.replace(Some(workers.max(1)))));
    body()
}

/// Runs `body` with schedule perturbation pinned to `seed` on the current
/// thread, restoring the previous setting afterwards (also on panic).
///
/// Every [`map`] / [`map_mut`] under `body` — including maps issued by
/// the workers themselves, which inherit the seed — draws its task-pickup
/// permutation and yield points from `seed`. Distinct seeds produce
/// materially different interleavings; the same seed reproduces one
/// exactly (up to OS preemption). Like [`with_workers`], the override is
/// thread-local so concurrent tests cannot race on it.
pub fn with_schedule<R>(seed: u64, body: impl FnOnce() -> R) -> R {
    with_schedule_opt(Some(seed), body)
}

/// [`with_schedule`] over an optional seed; workers use it to re-install
/// the calling thread's setting (including "none") inside the scope.
fn with_schedule_opt<R>(seed: Option<u64>, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCHED_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(SCHED_OVERRIDE.with(|cell| cell.replace(seed)));
    body()
}

/// The active schedule-perturbation seed on this thread: the
/// [`with_schedule`] override if present, else the `XCHECK_SCHED_SEED`
/// environment variable, else `None` (natural scheduling).
pub fn schedule_seed() -> Option<u64> {
    if let Some(seed) = SCHED_OVERRIDE.with(Cell::get) {
        return Some(seed);
    }
    if let Ok(raw) = std::env::var("XCHECK_SCHED_SEED") {
        if let Ok(seed) = raw.trim().parse::<u64>() {
            return Some(seed);
        }
    }
    None
}

/// SplitMix64 finalizer: the crate's only PRNG, strong enough to decouple
/// yield points and shuffles from the seed's bit patterns.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded in-place Fisher–Yates shuffle; the same seed always produces
/// the same permutation of a same-length slice, which is what keeps
/// [`map`] and [`map_mut`] pickup orders aligned for one seed.
fn shuffle_in_place<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Seeded Fisher–Yates permutation of `0..n`: the adversarial task-pickup
/// order for one perturbed map.
fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle_in_place(&mut order, seed);
    order
}

/// Pseudo-randomly (by `seed` and item index) hands the OS a preemption
/// point, so perturbed runs explore interleavings a quiet machine never
/// produces naturally. Roughly one item in four yields.
fn maybe_yield(seed: u64, idx: usize) {
    if splitmix64(seed ^ ((idx as u64) << 1 | 1)) & 3 == 0 {
        std::thread::yield_now();
    }
}

/// The worker count maps on this thread will use: the [`with_workers`]
/// override if present, else the `REKEY_THREADS` environment variable,
/// else [`std::thread::available_parallelism`]. Always at least 1.
pub fn max_workers() -> usize {
    if let Some(n) = WORKER_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("REKEY_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Applies `f` to every element, in parallel, returning results in input
/// order.
///
/// `f` receives the element index and a shared reference. See the crate
/// docs for the determinism guarantee.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope joins its workers.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let sched = schedule_seed();
    let workers = max_workers().min(items.len());
    if workers <= 1 {
        let _busy = obs::span("taskpool.worker_busy");
        record_worker_share(items.len());
        let Some(seed) = sched else {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        };
        // Perturbed sequential run: process in the shuffled order (this
        // is where single-core machines get their interleaving coverage),
        // then slot results back.
        let mut pairs: Vec<(usize, R)> = shuffled_order(items.len(), seed)
            .into_iter()
            .map(|idx| (idx, f(idx, &items[idx])))
            .collect();
        pairs.sort_unstable_by_key(|(idx, _)| *idx);
        return pairs.into_iter().map(|(_, r)| r).collect();
    }
    obs::gauge_set("taskpool.workers", workers as u64);
    let order = sched.map(|seed| shuffled_order(items.len(), seed));
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, order, f, collected) = (&next, &order, &f, &collected);
            scope.spawn(move || {
                // Label this worker's flight-recorder track (no-op unless
                // trace recording is on).
                obs::trace::set_thread_track("map", w as u32);
                // Workers inherit the caller's perturbation seed so maps
                // nested inside `f` are perturbed too.
                with_schedule_opt(sched, || {
                    let _busy = obs::span("taskpool.worker_busy");
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // xcheck-ordering: work-stealing ticket counter; results are slotted by index, so claim order is irrelevant
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        if ticket >= items.len() {
                            break;
                        }
                        let idx = order.as_ref().map_or(ticket, |o| o[ticket]);
                        if let Some(seed) = sched {
                            maybe_yield(seed, idx);
                        }
                        local.push((idx, f(idx, &items[idx])));
                    }
                    record_worker_share(local.len());
                    lock_ignoring_poison(collected).append(&mut local);
                });
            });
        }
    });
    into_input_order(collected, items.len())
}

/// Applies `f` to every element through a mutable reference, in parallel,
/// returning results in input order.
///
/// Each element is handed to exactly one worker, so the mutable borrows
/// never alias. This is the shape block encoding wants: the closure
/// mutates per-block state (row caches, parity cursors) and returns the
/// minted packets.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope joins its workers.
pub fn map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let sched = schedule_seed();
    let workers = max_workers().min(items.len());
    if workers <= 1 {
        let _busy = obs::span("taskpool.worker_busy");
        record_worker_share(items.len());
        let Some(seed) = sched else {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        };
        // Perturbed sequential run: visit items in the shuffled order,
        // then slot results back into input order.
        let mut shuffled: Vec<(usize, &mut T)> = items.iter_mut().enumerate().collect();
        shuffle_in_place(&mut shuffled, seed);
        let mut pairs: Vec<(usize, R)> = shuffled
            .into_iter()
            .map(|(idx, item)| (idx, f(idx, item)))
            .collect();
        pairs.sort_unstable_by_key(|(idx, _)| *idx);
        return pairs.into_iter().map(|(_, r)| r).collect();
    }
    obs::gauge_set("taskpool.workers", workers as u64);
    let total = items.len();
    // Exclusive hand-off queue: each worker claims `(index, &mut item)`
    // pairs, in input order naturally or in the seeded shuffle when
    // perturbation is on.
    let queue: Mutex<Box<dyn Iterator<Item = (usize, &mut T)> + Send>> = match sched {
        None => Mutex::new(Box::new(items.iter_mut().enumerate())),
        Some(seed) => {
            let mut shuffled: Vec<(usize, &mut T)> = items.iter_mut().enumerate().collect();
            shuffle_in_place(&mut shuffled, seed);
            Mutex::new(Box::new(shuffled.into_iter()))
        }
    };
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queue, f, collected) = (&queue, &f, &collected);
            scope.spawn(move || {
                // Label this worker's flight-recorder track (no-op unless
                // trace recording is on).
                obs::trace::set_thread_track("map", w as u32);
                // Workers inherit the caller's perturbation seed so maps
                // nested inside `f` are perturbed too.
                with_schedule_opt(sched, || {
                    let _busy = obs::span("taskpool.worker_busy");
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let next = lock_ignoring_poison(queue).next();
                        let Some((idx, item)) = next else { break };
                        if let Some(seed) = sched {
                            maybe_yield(seed, idx);
                        }
                        local.push((idx, f(idx, item)));
                    }
                    record_worker_share(local.len());
                    lock_ignoring_poison(collected).append(&mut local);
                });
            });
        }
    });
    into_input_order(collected, total)
}

/// Records one worker's slice of a map: how many tasks it pulled off the
/// shared queue, both as a per-worker distribution and as a running
/// total. No-ops (like every `obs` call) unless the `obs` feature is on.
fn record_worker_share(tasks: usize) {
    obs::counter_add("taskpool.tasks", tasks as u64);
    obs::observe("taskpool.tasks_per_worker", tasks as u64);
}

/// Locks a mutex, proceeding through poisoning: a poisoned lock here only
/// means another worker panicked, and that panic is already propagating
/// via the scope join.
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sorts collected `(index, result)` pairs back into input order.
fn into_input_order<R>(collected: Mutex<Vec<(usize, R)>>, expected: usize) -> Vec<R> {
    let mut pairs = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    debug_assert_eq!(
        pairs.len(),
        expected,
        "every item yields exactly one result"
    );
    pairs.sort_unstable_by_key(|(idx, _)| *idx);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 3, 8] {
            let out = with_workers(workers, || map(&items, |i, &v| v * 2 + i as u64));
            let expect: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &v)| v * 2 + i as u64)
                .collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_mut_mutates_each_item_exactly_once() {
        for workers in [1, 2, 5] {
            let mut items: Vec<u32> = vec![0; 64];
            let indices = with_workers(workers, || {
                map_mut(&mut items, |i, slot| {
                    *slot += 1;
                    i
                })
            });
            assert!(items.iter().all(|&v| v == 1), "workers = {workers}");
            assert_eq!(indices, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map(&empty, |_, &v| v).is_empty());
        let mut one = vec![41u8];
        assert_eq!(
            with_workers(4, || map_mut(&mut one, |_, v| {
                *v += 1;
                *v
            })),
            vec![42]
        );
    }

    #[test]
    fn with_workers_restores_previous_setting() {
        let outer = with_workers(3, || {
            let inner = with_workers(7, max_workers);
            assert_eq!(inner, 7);
            max_workers()
        });
        assert_eq!(outer, 3);
    }

    #[test]
    fn zero_override_clamps_to_one() {
        assert_eq!(with_workers(0, max_workers), 1);
    }

    #[test]
    fn with_schedule_restores_previous_setting() {
        assert_eq!(SCHED_OVERRIDE.with(Cell::get), None);
        let outer = with_schedule(3, || {
            let inner = with_schedule(7, schedule_seed);
            assert_eq!(inner, Some(7));
            schedule_seed()
        });
        assert_eq!(outer, Some(3));
        assert_eq!(SCHED_OVERRIDE.with(Cell::get), None);
    }

    #[test]
    fn shuffled_order_is_a_permutation_and_seed_sensitive() {
        let a = shuffled_order(64, 1);
        let b = shuffled_order(64, 2);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(a, (0..64).collect::<Vec<_>>(), "seeded order must differ");
        assert_ne!(a, b, "different seeds give different orders");
        assert_eq!(a, shuffled_order(64, 1), "same seed reproduces");
    }

    #[test]
    fn perturbed_map_is_bit_identical_to_natural_map() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &v)| v * 2 + i as u64)
            .collect();
        for workers in [1, 4] {
            for seed in 0..8u64 {
                let out = with_workers(workers, || {
                    with_schedule(seed, || map(&items, |i, &v| v * 2 + i as u64))
                });
                assert_eq!(out, expect, "workers = {workers}, seed = {seed}");
            }
        }
    }

    #[test]
    fn perturbed_map_mut_mutates_each_item_exactly_once() {
        for workers in [1, 3] {
            for seed in 0..8u64 {
                let mut items: Vec<u32> = vec![0; 64];
                let indices = with_workers(workers, || {
                    with_schedule(seed, || {
                        map_mut(&mut items, |i, slot| {
                            *slot += 1;
                            i
                        })
                    })
                });
                assert!(items.iter().all(|&v| v == 1), "seed = {seed}");
                assert_eq!(indices, (0..64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn perturbed_sequential_run_really_visits_items_shuffled() {
        use std::sync::Mutex;
        let items: Vec<u8> = vec![0; 32];
        let visited = Mutex::new(Vec::new());
        with_workers(1, || {
            with_schedule(11, || map(&items, |i, _| visited.lock().unwrap().push(i)))
        });
        let visited = visited.into_inner().unwrap();
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "every item visited");
        assert_ne!(
            visited, sorted,
            "perturbed pickup must not be in input order"
        );
    }

    #[test]
    fn workers_inherit_the_perturbation_seed() {
        let items: Vec<u8> = vec![0; 4];
        let seeds = with_workers(2, || {
            with_schedule(5, || map(&items, |_, _| schedule_seed()))
        });
        assert_eq!(seeds, vec![Some(5); 4], "nested maps see the seed");
    }

    #[test]
    fn parallel_matches_sequential_for_pure_closures() {
        let items: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 100]).collect();
        let hash = |_, v: &Vec<u8>| -> u64 {
            v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let sequential = with_workers(1, || map(&items, hash));
        let parallel = with_workers(6, || map(&items, hash));
        assert_eq!(sequential, parallel);
    }
}
