//! Flight-recorder event tracing: per-thread bounded ring buffers of
//! timestamped span begin/end and instant events, drained into one
//! deterministic merged stream and exported as Chrome trace-event JSON
//! (`trace/v1`, loadable in Perfetto or `chrome://tracing`).
//!
//! The aggregate instruments in the crate root answer "how much time
//! did stage X take in total"; the recorder answers "*when* did every
//! stage run, on which thread" — one track per recording thread, so the
//! stages of a rekey read left to right on the caller's track and
//! concurrent recorders (figure-grid workers) get tracks of their own.
//!
//! # Recording model
//!
//! * Recording is **off by default**, even in `enabled` builds. A call
//!   to [`enable`] fixes the trace epoch and opens recording; all
//!   timestamps are nanoseconds since that epoch.
//! * Each recording thread owns one **bounded ring** of `(t, meta)`
//!   slot pairs. The owning thread is the only writer; the cursor and
//!   slots are relaxed atomics so [`drain`] can read them without
//!   `unsafe` after writers quiesce (scoped workers are joined before
//!   any drain). Overflow keeps the oldest events and
//!   counts the drops ([`TrackInfo::dropped`], gated to zero by the
//!   overhead bench) — a truncated-but-consistent prefix beats a
//!   wrapped trace with dangling span ends.
//! * The hot path ([`instant`], span begin/end via [`crate::span`]) is
//!   **zero steady-state allocation**: names are interned once into a
//!   process-global table and cached per thread, so after warm-up an
//!   event is a clock read plus two relaxed stores.
//! * Rings outlive their threads (a drained trace includes joined
//!   workers) and are **adopted** by later threads: a fresh worker
//!   claims the lowest-numbered free ring, so repeated rekeys reuse the
//!   same small track set instead of growing one track per short-lived
//!   thread.
//!
//! Without the `enabled` cargo feature every entry point is an
//! inlineable no-op and [`drain`] returns an empty [`Trace`]; the data
//! model and export below stay available so tooling compiles either way.
//!
//! [`enable`]: crate::trace::enable
//! [`drain`]: crate::trace::drain
//! [`TrackInfo::dropped`]: crate::trace::TrackInfo::dropped
//! [`instant`]: crate::trace::instant
//! [`Trace`]: crate::trace::Trace

use crate::json::JsonWriter;

// ---------------------------------------------------------------------------
// Data model (available with and without the `enabled` feature)
// ---------------------------------------------------------------------------

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

/// One event of the drained, merged stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Track (ring) the event was recorded on.
    pub track: u32,
    /// Nanoseconds since the [`enable`] epoch.
    pub t_ns: u64,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Span or marker name.
    pub name: String,
}

/// One track (per-thread ring) present in a drained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// Stable track id (ring creation order; doubles as the Chrome `tid`).
    pub track: u32,
    /// Human label: `thread-<track>`.
    pub label: String,
    /// Events drained from this track.
    pub events: u64,
    /// Events lost to ring overflow on this track.
    pub dropped: u64,
}

/// A drained trace: the merged event stream plus per-track metadata.
///
/// The merge is deterministic given the recorded events: sorted by
/// `(t_ns, track, position-in-ring)`, which preserves each track's own
/// recording order exactly (per-track timestamps are monotone because
/// each ring has a single writing thread and a monotonic clock).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All events, merged and sorted as described above.
    pub events: Vec<TraceEvent>,
    /// Tracks that contributed at least one event, by track id.
    pub tracks: Vec<TrackInfo>,
}

impl Trace {
    /// Schema tag written into the Chrome JSON form.
    pub const SCHEMA: &'static str = "trace/v1";

    /// Total events lost to ring overflow across all tracks.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Matched `[begin, end)` intervals of every span named `name`,
    /// across all tracks, in deterministic (track, begin-order) order.
    ///
    /// Matching is LIFO per track, mirroring guard nesting. A begin
    /// with no recorded end (ring overflow, or recording switched off
    /// mid-span) closes at the track's last event timestamp; an end
    /// with no begin is dropped.
    #[must_use]
    pub fn span_intervals(&self, name: &str) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for info in &self.tracks {
            let mut stack: Vec<u64> = Vec::new();
            let mut last_t = 0u64;
            for ev in self.events.iter().filter(|e| e.track == info.track) {
                last_t = last_t.max(ev.t_ns);
                if ev.name != name {
                    continue;
                }
                match ev.kind {
                    EventKind::Begin => stack.push(ev.t_ns),
                    EventKind::End => {
                        if let Some(begin) = stack.pop() {
                            out.push((begin, ev.t_ns));
                        }
                    }
                    EventKind::Instant => {}
                }
            }
            for begin in stack {
                out.push((begin, last_t.max(begin)));
            }
        }
        out
    }

    /// The `[first begin, last end]` activity window of the named span
    /// over the whole trace, or `None` if it never ran.
    #[must_use]
    pub fn span_window(&self, name: &str) -> Option<(u64, u64)> {
        let intervals = self.span_intervals(name);
        let lo = intervals.iter().map(|&(b, _)| b).min()?;
        let hi = intervals.iter().map(|&(_, e)| e).max()?;
        Some((lo, hi))
    }

    /// Exports the trace as Chrome trace-event JSON (the `traceEvents`
    /// array format), loadable in Perfetto and `chrome://tracing`.
    ///
    /// One Chrome thread per track (`pid` 1, `tid` = track id), with a
    /// `thread_name` metadata record carrying the track label.
    /// Timestamps are microseconds with nanosecond precision (three
    /// decimals). Per-track nesting is repaired the same way
    /// [`Trace::span_intervals`] does: stray ends are skipped, ends
    /// missing after overflow are synthesized at the track's last
    /// timestamp, so the export always nests properly.
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
// Live recorder (enabled builds)
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod rec {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
    use std::time::Instant;

    use super::{EventKind, Trace, TraceEvent, TrackInfo};

    /// Default ring capacity: events per thread before overflow. One
    /// 2^20 rekey records a few thousand events per thread.
    pub(super) const DEFAULT_CAPACITY: usize = 1 << 14;

    const KIND_BEGIN: u64 = 0;
    const KIND_END: u64 = 1;
    const KIND_INSTANT: u64 = 2;

    // xcheck-ordering: recording on/off is an advisory latch; events racing
    // a toggle may be kept or lost either way, which drain tolerates
    static RECORDING: AtomicBool = AtomicBool::new(false);
    // xcheck-ordering: capacity is read once per ring creation; any
    // in-flight value is a valid capacity
    static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    static NAMES: OnceLock<RwLock<Vec<&'static str>>> = OnceLock::new();

    /// One event slot: timestamp plus `(name_id << 2) | kind`.
    struct Slot {
        t: AtomicU64,
        meta: AtomicU64,
    }

    /// One per-thread bounded ring. The claiming thread is the only
    /// writer; everything is atomics so the (post-quiesce) drain can
    /// read without `unsafe`.
    struct Ring {
        track: u32,
        slots: Box<[Slot]>,
        /// Events written so far (never exceeds `slots.len()`).
        head: AtomicUsize,
        /// Events rejected because the ring was full.
        dropped: AtomicU64,
        /// Claimed by a live thread (freed on thread exit).
        in_use: AtomicBool,
    }

    impl Ring {
        fn new(track: u32, capacity: usize) -> Self {
            let mut slots = Vec::with_capacity(capacity);
            for _ in 0..capacity {
                slots.push(Slot {
                    t: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                });
            }
            Ring {
                track,
                slots: slots.into_boxed_slice(),
                head: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                in_use: AtomicBool::new(true),
            }
        }

        // xcheck: no_alloc
        fn push(&self, t: u64, meta: u64) {
            // xcheck-ordering: single-writer ring; drains run only after the writer quiesces, so cursor and slots need no publication ordering
            let h = self.head.load(Ordering::Relaxed);
            if h >= self.slots.len() {
                self.dropped.fetch_add(1, Ordering::Relaxed); // xcheck-ordering: same
                return;
            }
            if let Some(slot) = self.slots.get(h) {
                slot.t.store(t, Ordering::Relaxed); // xcheck-ordering: same
                slot.meta.store(meta, Ordering::Relaxed); // xcheck-ordering: same
            }
            self.head.store(h + 1, Ordering::Relaxed); // xcheck-ordering: same
        }
    }

    /// The calling thread's claim on a ring plus its private name cache
    /// (interned ids keyed by the `&'static str` data pointer, so the
    /// steady state takes no locks).
    struct Local {
        ring: Arc<Ring>,
        names: Vec<(usize, u32)>,
    }

    impl Drop for Local {
        fn drop(&mut self) {
            // xcheck-ordering: advisory free flag; claimers serialize on the registry mutex
            self.ring.in_use.store(false, Ordering::Relaxed);
        }
    }

    thread_local! {
        static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    }

    fn rings() -> MutexGuard<'static, Vec<Arc<Ring>>> {
        let lock = RINGS.get_or_init(|| Mutex::new(Vec::new()));
        match lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims the lowest-numbered free ring, or creates one.
    #[cold]
    fn claim_ring() -> Arc<Ring> {
        let mut rings = rings();
        for ring in rings.iter() {
            // xcheck-ordering: the registry mutex serializes claimers; the flag is only advisory against the owner's release
            if !ring.in_use.load(Ordering::Relaxed) {
                ring.in_use.store(true, Ordering::Relaxed); // xcheck-ordering: same
                return Arc::clone(ring);
            }
        }
        let track = u32::try_from(rings.len()).unwrap_or(u32::MAX);
        // xcheck-ordering: single racy read of a configuration cell
        let ring = Arc::new(Ring::new(track, CAPACITY.load(Ordering::Relaxed)));
        rings.push(Arc::clone(&ring));
        ring
    }

    #[cold]
    fn init_local(slot: &mut Option<Local>) {
        if slot.is_none() {
            *slot = Some(Local {
                ring: claim_ring(),
                names: Vec::with_capacity(32),
            });
        }
    }

    /// Interns `name`, registering it on first global sight.
    #[cold]
    fn intern_miss(local: &mut Local, name: &'static str) -> u32 {
        let lock = NAMES.get_or_init(|| RwLock::new(Vec::new()));
        let id = 'id: {
            if let Ok(names) = lock.read() {
                if let Some(i) = names.iter().position(|&n| n == name) {
                    break 'id u32::try_from(i).unwrap_or(0);
                }
            }
            match lock.write() {
                Ok(mut names) => {
                    if let Some(i) = names.iter().position(|&n| n == name) {
                        u32::try_from(i).unwrap_or(0)
                    } else {
                        names.push(name);
                        u32::try_from(names.len() - 1).unwrap_or(0)
                    }
                }
                Err(_) => 0,
            }
        };
        local.names.push((name.as_ptr() as usize, id));
        id
    }

    // xcheck: no_alloc
    fn cached_id(names: &[(usize, u32)], name: &'static str) -> Option<u32> {
        let key = name.as_ptr() as usize;
        names
            .iter()
            .find(|&&(ptr, _)| ptr == key)
            .map(|&(_, id)| id)
    }

    // xcheck: no_alloc
    pub(super) fn record(kind: u64, name: &'static str) {
        // xcheck-ordering: advisory recording latch (see declaration)
        if !RECORDING.load(Ordering::Relaxed) {
            return;
        }
        let t = now_ns();
        // try_with: events fired during thread teardown are dropped
        // rather than aborting.
        let _ = LOCAL.try_with(|cell| {
            if let Ok(mut borrow) = cell.try_borrow_mut() {
                if borrow.is_none() {
                    init_local(&mut borrow);
                }
                let Some(local) = borrow.as_mut() else {
                    return;
                };
                let id = match cached_id(&local.names, name) {
                    Some(id) => id,
                    None => intern_miss(local, name),
                };
                local.ring.push(t, (u64::from(id) << 2) | kind);
            }
        });
    }

    // xcheck: no_alloc
    fn now_ns() -> u64 {
        let epoch = EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // xcheck: no_alloc
    pub(super) fn span_begin(name: &'static str) {
        record(KIND_BEGIN, name);
    }

    // xcheck: no_alloc
    pub(super) fn span_end(name: &'static str) {
        record(KIND_END, name);
    }

    // xcheck: no_alloc
    pub(super) fn instant(name: &'static str) {
        record(KIND_INSTANT, name);
    }

    pub(super) fn enable(capacity: usize) {
        let _ = EPOCH.get_or_init(Instant::now);
        // xcheck-ordering: configuration cells; see declarations
        CAPACITY.store(capacity.max(16), Ordering::Relaxed);
        RECORDING.store(true, Ordering::Relaxed); // xcheck-ordering: same
    }

    pub(super) fn disable() {
        // xcheck-ordering: advisory recording latch (see declaration)
        RECORDING.store(false, Ordering::Relaxed);
    }

    pub(super) fn is_recording() -> bool {
        // xcheck-ordering: advisory recording latch (see declaration)
        RECORDING.load(Ordering::Relaxed)
    }

    pub(super) fn drain() -> Trace {
        let name_table: Vec<&'static str> =
            match NAMES.get_or_init(|| RwLock::new(Vec::new())).read() {
                Ok(names) => names.clone(),
                Err(_) => Vec::new(),
            };
        let mut trace = Trace::default();
        // (t, track, ring position) is the deterministic merge key.
        let mut keyed: Vec<(u64, u32, usize, EventKind, u32)> = Vec::new();
        for ring in rings().iter() {
            // xcheck-ordering: drain runs after writers quiesce (see Ring)
            let n = ring.head.load(Ordering::Relaxed).min(ring.slots.len());
            let dropped = ring.dropped.load(Ordering::Relaxed); // xcheck-ordering: same
            if n == 0 && dropped == 0 {
                continue;
            }
            for (pos, slot) in ring.slots.iter().take(n).enumerate() {
                let t = slot.t.load(Ordering::Relaxed); // xcheck-ordering: same
                let meta = slot.meta.load(Ordering::Relaxed); // xcheck-ordering: same
                let kind = match meta & 0b11 {
                    KIND_BEGIN => EventKind::Begin,
                    KIND_END => EventKind::End,
                    _ => EventKind::Instant,
                };
                let id = usize::try_from(meta >> 2).unwrap_or(usize::MAX);
                keyed.push((
                    t,
                    ring.track,
                    pos,
                    kind,
                    u32::try_from(id).unwrap_or(u32::MAX),
                ));
            }
            trace.tracks.push(TrackInfo {
                track: ring.track,
                label: format!("thread-{}", ring.track),
                events: n as u64,
                dropped,
            });
        }
        keyed.sort_unstable_by_key(|a| (a.0, a.1, a.2));
        trace.events = keyed
            .into_iter()
            .map(|(t_ns, track, _, kind, id)| TraceEvent {
                track,
                t_ns,
                kind,
                name: name_table
                    .get(id as usize)
                    .copied()
                    .unwrap_or("?")
                    .to_string(),
            })
            .collect();
        trace.tracks.sort_by_key(|t| t.track);
        trace
    }

    pub(super) fn clear() {
        for ring in rings().iter() {
            // xcheck-ordering: clear runs with recorders quiesced, like reset
            ring.head.store(0, Ordering::Relaxed);
            ring.dropped.store(0, Ordering::Relaxed); // xcheck-ordering: same
        }
    }
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Opens recording: fixes the trace epoch (first call only) and sets the
/// per-thread ring capacity for rings created afterwards.
///
/// Recording is off by default even in `enabled` builds, so binaries can
/// compare instrumented-but-idle against actively-recording runs.
#[cfg(feature = "enabled")]
pub fn enable(capacity_per_thread: usize) {
    rec::enable(capacity_per_thread);
}

/// Opens recording (no-op: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
// xcheck: no_alloc
pub fn enable(_capacity_per_thread: usize) {}

/// Default per-thread ring capacity for [`enable`].
#[cfg(feature = "enabled")]
pub const DEFAULT_CAPACITY: usize = rec::DEFAULT_CAPACITY;

/// Default per-thread ring capacity for [`enable`].
#[cfg(not(feature = "enabled"))]
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Stops recording; already-recorded events stay drainable.
#[cfg(feature = "enabled")]
pub fn disable() {
    rec::disable();
}

/// Stops recording (no-op: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
// xcheck: no_alloc
pub fn disable() {}

/// Whether recording is currently open.
#[cfg(feature = "enabled")]
#[must_use]
pub fn is_recording() -> bool {
    rec::is_recording()
}

/// Whether recording is currently open (always `false`: feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
#[must_use]
// xcheck: no_alloc
pub fn is_recording() -> bool {
    false
}

/// Records a point-in-time marker on the calling thread's track.
#[cfg(feature = "enabled")]
pub fn instant(name: &'static str) {
    rec::instant(name);
}

/// Records a marker (no-op: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
// xcheck: no_alloc
pub fn instant(_name: &'static str) {}

/// Drains every ring into one deterministic merged [`Trace`]. Call with
/// recorders quiesced (all worker scopes joined) — typically right after
/// [`disable`].
#[cfg(feature = "enabled")]
#[must_use]
pub fn drain() -> Trace {
    rec::drain()
}

/// Drains the recorder (always empty: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
#[must_use]
pub fn drain() -> Trace {
    Trace::default()
}

/// Rewinds every ring to empty (track ids survive). Like
/// [`crate::reset`], callers quiesce recorders first.
#[cfg(feature = "enabled")]
pub fn clear() {
    rec::clear();
}

/// Rewinds the recorder (no-op: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn clear() {}

/// Span-begin hook for [`crate::span`] (crate-internal).
#[cfg(feature = "enabled")]
// xcheck: no_alloc
pub(crate) fn span_begin(name: &'static str) {
    rec::span_begin(name);
}

/// Span-end hook for [`crate::SpanGuard`] (crate-internal).
#[cfg(feature = "enabled")]
// xcheck: no_alloc
pub(crate) fn span_end(name: &'static str) {
    rec::span_end(name);
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
    fn span_intervals_match_lifo_and_close_orphans() {
        let trace = Trace {
            events: vec![
                ev(0, 10, EventKind::Begin, "a"),
                ev(0, 20, EventKind::Begin, "a"),
                ev(0, 30, EventKind::End, "a"),
                ev(0, 90, EventKind::Instant, "x"),
            ],
            tracks: vec![TrackInfo {
                track: 0,
                label: String::new(),
                events: 4,
                dropped: 0,
            }],
        };
        // Inner (20,30) matches; outer begin at 10 closes at last t (90).
        assert_eq!(trace.span_intervals("a"), vec![(20, 30), (10, 90)]);
        assert_eq!(trace.span_window("a"), Some((10, 90)));
        assert_eq!(trace.span_window("nope"), None);
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

    #[cfg(feature = "enabled")]
    mod live {
        use super::super::*;

        // One test drives the whole live recorder: recording is a
        // process-global latch, so splitting this across parallel test
        // threads would interleave enable/disable windows.
        #[test]
        fn record_drain_export_roundtrip() {
            enable(DEFAULT_CAPACITY);
            assert!(is_recording());
            {
                let _outer = crate::span("test.trace.outer");
                let _inner = crate::span("test.trace.inner");
                instant("test.trace.mark");
            }
            let handle = std::thread::spawn(|| {
                let _w = crate::span("test.trace.worker");
            });
            let _ = handle.join();
            disable();
            assert!(!is_recording());

            let trace = drain();
            assert!(trace.tracks.len() >= 2, "tracks: {:?}", trace.tracks);
            for info in &trace.tracks {
                assert_eq!(info.label, format!("thread-{}", info.track));
            }

            let outer = trace.span_intervals("test.trace.outer");
            let inner = trace.span_intervals("test.trace.inner");
            assert_eq!(outer.len(), 1);
            assert_eq!(inner.len(), 1);
            // Guard drop order closes inner before outer.
            assert!(outer[0].0 <= inner[0].0 && inner[0].1 <= outer[0].1);
            assert!(trace.span_window("test.trace.worker").is_some());

            // Timestamps are monotone per track, by single-writer design.
            for info in &trace.tracks {
                let ts: Vec<u64> = trace
                    .events
                    .iter()
                    .filter(|e| e.track == info.track)
                    .map(|e| e.t_ns)
                    .collect();
                assert!(ts.windows(2).all(|w| w[0] <= w[1]), "track {}", info.track);
            }

            let json = trace.to_chrome_json();
            assert!(crate::json::well_formed(&json));
            assert!(json.contains("test.trace.mark"));

            // Events recorded while disabled are not retained.
            let before = drain().events.len();
            let _ghost = crate::span("test.trace.ghost");
            drop(_ghost);
            assert_eq!(drain().events.len(), before);

            // clear() rewinds but keeps tracks claimable.
            clear();
            assert!(drain().events.is_empty());
        }
    }
}
