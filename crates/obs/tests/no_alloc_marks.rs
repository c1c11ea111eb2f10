//! Pins the event-log hot path (`trace::instant`, span begin/end
//! via `obs::span`) at **zero steady-state heap allocations**, in both
//! feature states:
//!
//! * feature off — every trace entry point is a no-op stub;
//! * feature on, recording off — the off-path is one relaxed load;
//! * feature on, recording on — after warm-up (log reserved by
//!   `enable`, this thread's track taken) an event is a lock, a clock
//!   read and a push into the reserved log.
//!
//! Complements `no_alloc_off.rs`, which pins the aggregate-instrument
//! stubs; together they hold every `// xcheck: no_alloc` mark in this
//! crate to the counting allocator.

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

/// Exercises the log's hot path `rounds` times: instants plus nested
/// span begin/end pairs (the begin/end hooks ride on `obs::span`).
fn hammer(rounds: u64) {
    for _ in 0..rounds {
        let _outer = obs::span("test.trace_noalloc.outer");
        {
            let _inner = obs::span("test.trace_noalloc.inner");
            obs::trace::instant("test.trace_noalloc.mark");
        }
        obs::trace::instant("test.trace_noalloc.tick");
    }
}

#[test]
fn recorder_hot_path_is_allocation_free() {
    xcheck_rt::assert_counting();

    // Recording off (the shipped default): zero allocations whether or
    // not the feature is compiled in.
    assert!(!obs::trace::is_recording());
    hammer(8); // warm-up: registry slots for the span names
    xcheck_rt::assert_zero_alloc("trace hot path, recording off", || hammer(4096));

    if !obs::enabled() {
        // Feature off: enable() is a stub too; the whole surface stays
        // allocation-free and drains empty.
        let trace = xcheck_rt::assert_zero_alloc("trace disabled stubs", || {
            obs::trace::enable();
            hammer(64);
            obs::trace::disable();
            obs::trace::clear();
            obs::trace::drain()
        });
        assert!(trace.events.is_empty() && trace.tracks.is_empty());
        return;
    }

    // Feature on, recording on: `enable` reserves the log (the steady
    // state's setup, not its cost); warm up once, then measure.
    obs::trace::enable();
    hammer(8);
    xcheck_rt::assert_zero_alloc("trace hot path, recording on", || hammer(1024));
    obs::trace::disable();

    // The measured events really landed in the log (1024
    // hammer rounds x 6 events, plus warm-up) — the zero-alloc window
    // was recording, not silently dropping.
    let trace = obs::trace::drain();
    let marks = trace
        .events
        .iter()
        .filter(|e| e.name == "test.trace_noalloc.mark")
        .count();
    assert!(marks >= 1024, "expected >= 1024 instants, got {marks}");
    assert_eq!(trace.dropped_total(), 0, "log overflowed during hammer");
}
