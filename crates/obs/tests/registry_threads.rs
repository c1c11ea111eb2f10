//! Concurrency contract of the global registry: observations recorded
//! from racing threads are never lost — counts sum exactly (exact totals
//! and extremes are pinned on a slot directly, in `registry.rs`).

#[test]
fn racing_recorders_sum_exactly() {
    if !obs::enabled() {
        return; // nothing to record without the feature
    }
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    let _span = obs::span("test.threads.span");
                    obs::counter_add("test.threads.counter", 1);
                }
            });
        }
    });

    let snap = obs::snapshot();
    assert_eq!(snap.counter("test.threads.counter"), THREADS * PER_THREAD);
    let span = snap.span("test.threads.span").expect("span registered");
    assert_eq!(span.count, THREADS * PER_THREAD);

    // Reset semantics, checked after the race so the registry-wide
    // `obs::reset()` cannot zero the racing series mid-hammer.
    reset_zeroes_but_keeps_names();
}

fn reset_zeroes_but_keeps_names() {
    obs::counter_add("test.threads.reset_ctr", 41);
    drop(obs::span("test.threads.reset_span"));
    obs::reset();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("test.threads.reset_ctr"), 0);
    let span = snap.span("test.threads.reset_span").expect("name survives");
    assert_eq!((span.count, span.total, span.min, span.max), (0, 0, 0, 0));
}
