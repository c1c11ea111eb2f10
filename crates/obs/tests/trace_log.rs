//! The event log's contract, driven through the public `obs::trace` API
//! in a process of its own (recording is a process-global latch): overflow
//! keeps the oldest events, concurrent threads get tracks of their own
//! that nest, a disarmed log retains nothing, and `clear` / `drain` leave
//! track identity and the log alone. Without the `enabled` feature the
//! tests are vacuous no-ops, matching the crate's feature contract.

use std::sync::{Barrier, Mutex, MutexGuard};

use obs::trace::{self, EventKind, Trace};

/// Serialises the tests (one log per process) and hands each an empty,
/// disarmed log. `None` when there is no log to test.
fn fresh_log() -> Option<MutexGuard<'static, ()>> {
    static SERIAL: Mutex<()> = Mutex::new(());
    if !obs::enabled() {
        return None;
    }
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    trace::disable();
    trace::clear();
    Some(guard)
}

/// Per track: timestamps never go back, and every end closes the most
/// recent open begin.
fn assert_tracks_nest(trace: &Trace) {
    for info in &trace.tracks {
        let mut open: Vec<&str> = Vec::new();
        let mut last_t = 0;
        for ev in trace.events.iter().filter(|e| e.track == info.track) {
            assert!(last_t <= ev.t_ns, "track {} went back in time", info.track);
            last_t = ev.t_ns;
            match ev.kind {
                EventKind::Begin => open.push(&ev.name),
                EventKind::End => assert_eq!(open.pop(), Some(ev.name.as_str())),
                EventKind::Instant => {}
            }
        }
        assert!(open.is_empty(), "track {} left {open:?} open", info.track);
    }
}

#[test]
fn overflow_keeps_the_oldest_events_in_order_and_counts_the_rest() {
    let Some(_serial) = fresh_log() else { return };
    const MARKS: [&str; 3] = ["test.log.a", "test.log.b", "test.log.c"];
    trace::enable();
    let mut sent = 0u64;
    while trace::drain().dropped_total() == 0 {
        for _ in 0..4096 {
            trace::instant(MARKS[sent as usize % 3]);
            sent += 1;
        }
    }
    for _ in 0..100 {
        trace::instant(MARKS[sent as usize % 3]);
        sent += 1;
    }
    trace::disable();

    let full = trace::drain();
    let kept = full.events.len() as u64;
    assert!(kept > 0 && kept < sent, "kept {kept} of {sent}");
    assert_eq!(full.dropped_total(), sent - kept);
    assert_eq!(full.tracks.len(), 1);
    assert_eq!(
        (full.tracks[0].events, full.tracks[0].dropped),
        (kept, sent - kept)
    );
    // What was kept is the prefix: event i is the i-th one sent.
    for (i, ev) in full.events.iter().enumerate() {
        assert_eq!(ev.name, MARKS[i % 3], "event {i}");
    }
    assert_tracks_nest(&full);
}

#[test]
fn concurrent_threads_get_distinct_tracks_that_nest() {
    let Some(_serial) = fresh_log() else { return };
    trace::enable();
    let both_alive = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                both_alive.wait();
                for _ in 0..200 {
                    let _outer = obs::span("test.log.outer");
                    let _inner = obs::span("test.log.inner");
                    trace::instant("test.log.mark");
                }
            });
        }
    });
    trace::disable();

    let trace = trace::drain();
    assert_eq!(trace.tracks.len(), 2, "tracks: {:?}", trace.tracks);
    assert_ne!(trace.tracks[0].track, trace.tracks[1].track);
    for info in &trace.tracks {
        assert_eq!(info.label, format!("thread-{}", info.track));
        assert_eq!((info.events, info.dropped), (200 * 5, 0));
    }
    assert_tracks_nest(&trace);
    assert!(obs::json::well_formed(&trace.to_chrome_json()));
}

#[test]
fn disarmed_events_are_dropped_and_clear_keeps_track_identity() {
    let Some(_serial) = fresh_log() else { return };
    assert!(!trace::is_recording());
    drop(obs::span("test.log.ghost"));
    trace::instant("test.log.ghost");
    assert!(trace::drain().events.is_empty(), "nothing armed the log");

    trace::enable();
    assert!(trace::is_recording());
    drop(obs::span("test.log.kept"));
    trace::disable();
    drop(obs::span("test.log.ghost"));

    let before = trace::drain();
    assert_eq!(before.events.len(), 2);
    assert!(before.events.iter().all(|e| e.name == "test.log.kept"));
    assert_eq!(trace::drain(), before, "drain leaves the log as it was");

    trace::clear();
    assert_eq!(trace::drain(), Trace::default());
    trace::enable();
    trace::instant("test.log.again");
    trace::disable();
    let after = trace::drain();
    assert_eq!(after.events.len(), 1);
    assert_eq!(after.events[0].track, before.events[0].track);
}
