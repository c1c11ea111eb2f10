//! Pins the feature-off contract: with `enabled` compiled out, the whole
//! recording surface — the `// xcheck: no_alloc`-marked entry points plus
//! span guards, reset, and snapshot — performs **zero heap allocations**.
//! The feature-on build of the same calls performs plenty; the `xcheck-rt`
//! counting allocator is validated against that, so a broken counter
//! cannot pass the off-path silently — and once their slots are
//! registered, the marked entry points allocate nothing there either.

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

/// Exercises every recording entry point `rounds` times.
fn hammer(rounds: u64) {
    for i in 0..rounds {
        let _whole = obs::span("test.noalloc.outer");
        {
            let _nested = obs::span("test.noalloc.inner");
            obs::counter_add("test.noalloc.counter", i);
        }
        obs::gauge_set("test.noalloc.gauge", i);
    }
}

#[test]
fn off_path_records_nothing_and_allocates_nothing() {
    xcheck_rt::assert_counting();

    if obs::enabled() {
        // Feature-on build: instead validate that the counting allocator
        // actually counts, so the zero assertion below is meaningful.
        let (allocs, _) = xcheck_rt::count_in(|| {
            hammer(64);
            obs::snapshot()
        });
        assert!(
            allocs > 0,
            "enabled-path hammer must allocate (registry slots, snapshot vectors)"
        );
        // With the four slots registered, the marked entry points
        // (`span`, `counter_add`, `gauge_set`) record without allocating.
        xcheck_rt::assert_zero_alloc("obs entry points, slots registered", || hammer(4096));
        return;
    }

    // Warm-up outside the measured window (test harness machinery may
    // allocate lazily on first use).
    hammer(8);

    let snap = xcheck_rt::assert_zero_alloc("obs disabled stubs", || {
        hammer(4096);
        let snap = obs::snapshot();
        obs::reset();
        snap
    });

    assert!(!snap.enabled);
    assert!(snap.spans.is_empty() && snap.counters.is_empty());
    // An empty snapshot's JSON still materializes (allocates) — outside
    // the measured window, and still deterministic.
    assert!(obs::json::well_formed(&snap.to_json()));
}
