//! Event tracing: one bounded log of timestamped span begin/end and
//! instant events, exported as Chrome trace-event JSON (`trace/v1`,
//! loadable in Perfetto or `chrome://tracing`).
//!
//! The aggregate instruments in the crate root answer "how much time
//! did stage X take in total"; the log answers "*when* did every stage
//! run, on which thread" — one track per recording thread, so the
//! stages of a rekey read left to right on the caller's track. The
//! product spawns no threads, so a trace has one track; a test that
//! records from threads of its own gets one track each.
//!
//! # Recording model
//!
//! * Recording is **off by default**, even in `enabled` builds. A call
//!   to [`enable`] fixes the trace epoch, reserves the log and opens
//!   recording; all timestamps are nanoseconds since that epoch. While
//!   recording is off an event costs one relaxed load of the latch.
//! * The log is one `Mutex<Vec<Event>>`. The product is one sequential
//!   pipeline — every traced run the repo can produce records between
//!   ten and a few hundred events on a single track — so the lock is
//!   uncontended and a multi-writer structure would have nothing to do.
//!   The clock is read under the lock, so log order is time order.
//! * The log is **bounded**: it never grows past the reservation made
//!   by [`enable`], so the armed steady state allocates nothing.
//!   Overflow keeps the oldest events and counts the drops
//!   ([`TrackInfo::dropped`], gated to zero by the overhead bench) — a
//!   truncated-but-consistent prefix beats a wrapped trace with
//!   dangling span ends.
//! * A thread takes its **track** index from a global counter on its
//!   first event and keeps it in a thread-local for life, so begin/end
//!   pairs nest LIFO per track — which is what Perfetto needs to draw
//!   them as nested slices.
//!
//! Without the `enabled` cargo feature every entry point is an
//! inlineable no-op and [`drain`] returns an empty [`Trace`]; the data
//! model and export below stay available so tooling compiles either way.
//!
//! [`enable`]: crate::trace::enable
//! [`drain`]: crate::trace::drain
//! [`TrackInfo::dropped`]: crate::trace::TrackInfo::dropped
//! [`Trace`]: crate::trace::Trace

#![expect(
    clippy::disallowed_types,
    reason = "two atomics: RECORDING is an advisory latch and NEXT_TRACK a ticket counter; the events themselves are ordered and published by the log's mutex, so Relaxed is enough at every site (each carries its `ordering:` comment)"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;

/// What one recorded event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (matching [`EventKind::End`] closes it, LIFO per track).
    Begin,
    /// A span closed.
    End,
    /// A point-in-time marker.
    Instant,
}

/// One event of a drained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Track (recording thread) the event was recorded on.
    pub track: u32,
    /// Nanoseconds since the [`enable`] epoch.
    pub t_ns: u64,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Span or marker name.
    pub name: String,
}

/// One track (recording thread) present in a drained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// Stable track id (order of first event; doubles as the Chrome `tid`).
    pub track: u32,
    /// Human label: `thread-<track>`.
    pub label: String,
    /// Events drained from this track.
    pub events: u64,
    /// Events of this track lost to log overflow.
    pub dropped: u64,
}

/// A drained trace: the event stream plus per-track metadata.
///
/// Events are in log order, which is time order (the clock is read
/// under the log's lock), so each track's own events are monotone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All events, in log order.
    pub events: Vec<TraceEvent>,
    /// Tracks that recorded or lost at least one event, by track id.
    pub tracks: Vec<TrackInfo>,
}

impl Trace {
    /// Schema tag written into the Chrome JSON form.
    pub const SCHEMA: &'static str = "trace/v1";

    /// Total events lost to log overflow across all tracks.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Exports the trace as Chrome trace-event JSON (the `traceEvents`
    /// array format), loadable in Perfetto and `chrome://tracing`.
    ///
    /// One Chrome thread per track (`pid` 1, `tid` = track id), with a
    /// `thread_name` metadata record carrying the track label.
    /// Timestamps are microseconds with nanosecond precision (three
    /// decimals). Per-track nesting is repaired: matching is LIFO per
    /// track, mirroring guard nesting; stray ends are skipped and ends
    /// missing after overflow (or a recording toggle mid-span) are
    /// synthesized at the track's last timestamp, so the export always
    /// nests properly.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        // (t_ns, track, seq, kind, name); synthetic closes get seq
        // u64::MAX so they sort after everything else at the same time.
        let mut rows: Vec<(u64, u32, u64, EventKind, &str)> = Vec::new();
        for info in &self.tracks {
            let mut stack: Vec<&TraceEvent> = Vec::new();
            let mut last_t = 0u64;
            let mut seq = 0u64;
            for ev in self.events.iter().filter(|e| e.track == info.track) {
                last_t = last_t.max(ev.t_ns);
                match ev.kind {
                    EventKind::Begin => {
                        stack.push(ev);
                        rows.push((ev.t_ns, ev.track, seq, ev.kind, &ev.name));
                    }
                    EventKind::End => {
                        // Close intervening unmatched begins (recording
                        // toggles can orphan them) so B/E stay LIFO.
                        if stack.iter().any(|b| b.name == ev.name) {
                            while let Some(open) = stack.pop() {
                                rows.push((ev.t_ns, ev.track, seq, EventKind::End, &open.name));
                                seq += 1;
                                if open.name == ev.name {
                                    break;
                                }
                            }
                        }
                    }
                    EventKind::Instant => {
                        rows.push((ev.t_ns, ev.track, seq, ev.kind, &ev.name));
                    }
                }
                seq += 1;
            }
            while let Some(open) = stack.pop() {
                rows.push((last_t, info.track, u64::MAX, EventKind::End, &open.name));
            }
        }
        rows.sort_by_key(|a| (a.0, a.1, a.2));

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", Self::SCHEMA);
        w.field_u64("dropped", self.dropped_total());
        w.key("traceEvents");
        w.begin_array();
        for info in &self.tracks {
            w.begin_object();
            w.field_str("ph", "M");
            w.field_str("name", "thread_name");
            w.field_u64("pid", 1);
            w.field_u64("tid", u64::from(info.track));
            w.key("args");
            w.begin_object();
            w.field_str("name", &info.label);
            w.end_object();
            w.end_object();
        }
        for (t_ns, track, _, kind, name) in rows {
            w.begin_object();
            let ph = match kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            };
            w.field_str("ph", ph);
            w.field_str("name", name);
            w.field_str("cat", "rekey");
            w.field_u64("pid", 1);
            w.field_u64("tid", u64::from(track));
            w.key("ts");
            w.value_f64(t_ns as f64 / 1000.0, 3);
            if matches!(kind, EventKind::Instant) {
                w.field_str("s", "t");
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut text = w.finish();
        text.push('\n');
        text
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Events the log holds before it overflows. The largest traced run the
/// repo produces (`bench_churn --trace-out`) records 4394.
const CAPACITY: usize = 1 << 14;

/// The recording latch. Advisory: an event racing a toggle may be kept
/// or lost either way; the log's mutex, not the latch, orders the events.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// The next unclaimed track index.
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LOG: Mutex<Log> = Mutex::new(Log {
    events: Vec::new(),
    dropped: BTreeMap::new(),
});

thread_local! {
    /// The calling thread's track, taken on its first event.
    // ordering: a ticket counter; only the uniqueness of the tickets matters, nothing is published through it
    static TRACK: u32 = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
}

struct Event {
    t_ns: u64,
    name: &'static str,
    kind: EventKind,
    track: u32,
}

struct Log {
    /// Never grows past the `CAPACITY` reserved by [`enable`].
    events: Vec<Event>,
    /// Events rejected because the log was full, by track.
    dropped: BTreeMap<u32, u64>,
}

fn log() -> MutexGuard<'static, Log> {
    match LOG.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Appends one event to the log. Allocation-free while the log has room;
/// past that, the first drop a track suffers allocates its counter.
// xcheck: no_alloc
fn record(kind: EventKind, name: &'static str) {
    let track = TRACK.with(|track| *track);
    let mut log = log();
    if log.events.len() < CAPACITY {
        let since_epoch = EPOCH.get_or_init(Instant::now).elapsed();
        log.events.push(Event {
            t_ns: u64::try_from(since_epoch.as_nanos()).unwrap_or(u64::MAX),
            name,
            kind,
            track,
        });
    } else {
        *log.dropped.entry(track).or_default() += 1;
    }
}

/// Records one event on the calling thread's track if recording is open
/// (the hook [`crate::span`] and its guard emit begin/end through).
#[inline]
// xcheck: no_alloc
pub(crate) fn event(kind: EventKind, name: &'static str) {
    if is_recording() {
        record(kind, name);
    }
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Opens recording: fixes the trace epoch (first call only) and reserves
/// the log, so no event recorded afterwards allocates.
///
/// Recording is off by default even in `enabled` builds, so binaries can
/// compare instrumented-but-idle against actively-recording runs.
/// Without the `enabled` feature this is a no-op.
pub fn enable() {
    if !crate::enabled() {
        return;
    }
    let _ = EPOCH.get_or_init(Instant::now);
    let mut log = log();
    let room = CAPACITY.saturating_sub(log.events.len());
    log.events.reserve_exact(room);
    drop(log);
    // ordering: advisory latch (see `RECORDING`); the reservation above is published by the log's mutex
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stops recording; already-recorded events stay drainable.
pub fn disable() {
    // ordering: advisory latch (see `RECORDING`); a racing event may still land
    RECORDING.store(false, Ordering::Relaxed);
}

/// Whether recording is currently open (always `false` without the
/// `enabled` feature).
#[inline]
#[must_use]
// xcheck: no_alloc
pub fn is_recording() -> bool {
    // ordering: advisory latch (see `RECORDING`); the off path is this one load
    crate::enabled() && RECORDING.load(Ordering::Relaxed)
}

/// Records a point-in-time marker on the calling thread's track.
#[inline]
// xcheck: no_alloc
pub fn instant(name: &'static str) {
    event(EventKind::Instant, name);
}

/// Copies the log out as a [`Trace`]; the log itself is left as it was,
/// so draining twice returns the same trace. Typically called right
/// after [`disable`].
#[must_use]
pub fn drain() -> Trace {
    let log = log();
    // (events, dropped) per track.
    let mut per_track: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ev in &log.events {
        per_track.entry(ev.track).or_default().0 += 1;
    }
    for (&track, &dropped) in &log.dropped {
        per_track.entry(track).or_default().1 = dropped;
    }
    Trace {
        events: log
            .events
            .iter()
            .map(|ev| TraceEvent {
                track: ev.track,
                t_ns: ev.t_ns,
                kind: ev.kind,
                name: ev.name.to_string(),
            })
            .collect(),
        tracks: per_track
            .into_iter()
            .map(|(track, (events, dropped))| TrackInfo {
                track,
                label: format!("thread-{track}"),
                events,
                dropped,
            })
            .collect(),
    }
}

/// Rewinds the log to empty, keeping its reservation; threads keep
/// their track ids. Like [`crate::reset`], callers quiesce recorders
/// first.
pub fn clear() {
    let mut log = log();
    log.events.clear();
    log.dropped.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: u32, t_ns: u64, kind: EventKind, name: &str) -> TraceEvent {
        TraceEvent {
            track,
            t_ns,
            kind,
            name: name.to_string(),
        }
    }

    fn two_track_trace() -> Trace {
        Trace {
            events: vec![
                ev(0, 100, EventKind::Begin, "stage.mint"),
                ev(1, 150, EventKind::Begin, "stage.seal"),
                ev(0, 300, EventKind::End, "stage.mint"),
                ev(1, 400, EventKind::End, "stage.seal"),
                ev(0, 500, EventKind::Instant, "mark"),
            ],
            tracks: vec![
                TrackInfo {
                    track: 0,
                    label: "thread-0".to_string(),
                    events: 3,
                    dropped: 0,
                },
                TrackInfo {
                    track: 1,
                    label: "thread-1".to_string(),
                    events: 2,
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn chrome_export_is_well_formed_and_labeled() {
        let json = two_track_trace().to_chrome_json();
        assert!(crate::json::well_formed(&json));
        assert!(json.contains("\"schema\": \"trace/v1\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"thread-0\""));
        assert!(json.contains("\"thread-1\""));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"i\""));
        // 100 ns -> 0.100 us.
        assert!(json.contains("\"ts\": 0.100"));
    }

    #[test]
    fn chrome_export_synthesizes_missing_ends() {
        let trace = Trace {
            events: vec![
                ev(0, 10, EventKind::Begin, "open"),
                ev(0, 50, EventKind::Instant, "late"),
                ev(0, 60, EventKind::End, "stray"),
            ],
            tracks: vec![TrackInfo {
                track: 0,
                label: "t".to_string(),
                events: 3,
                dropped: 1,
            }],
        };
        let json = trace.to_chrome_json();
        assert!(crate::json::well_formed(&json));
        // The unmatched begin gains a synthetic E; the stray end vanishes.
        let begins = json.matches("\"ph\": \"B\"").count();
        let ends = json.matches("\"ph\": \"E\"").count();
        assert_eq!((begins, ends), (1, 1));
        assert!(json.contains("\"dropped\": 1"));
    }
}
