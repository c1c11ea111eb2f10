//! Zero-dependency tracing + metrics for the rekey pipeline.
//!
//! The paper this workspace reproduces is a *performance analysis*:
//! server cost per stage, bandwidth overhead, rounds to success. This
//! crate gives every pipeline stage a first-class way to report where
//! the time and bytes actually go: no dependencies, deterministic
//! output, and zero cost when switched off.
//!
//! Three instruments:
//!
//! * **Spans** — [`span("stage.mark")`](span) returns a guard that
//!   records the enclosed wall time (monotonic clock) on drop. Guards
//!   nest freely; each records its own elapsed time. Aggregation is
//!   count / total / min / max plus p50/p99 from a fixed-bucket log2
//!   histogram ([`hist`]), so recording is allocation-free and O(1).
//! * **Counters** — [`counter_add`] monotonic sums (packets minted,
//!   bytes sealed, cache hits).
//! * **Gauges** — [`gauge_set`] last-write-wins levels (current group
//!   size, parity ratio in parts-per-thousand).
//!
//! [`snapshot`] collects everything into a [`Snapshot`] that serializes
//! deterministically ([`Snapshot::to_json`], sections and entries sorted
//! by name) or renders as a human table ([`Snapshot::render_table`]).
//!
//! Two event-level layers build on the same instrumentation points:
//! [`trace`], a bounded event log that turns span begin/end into
//! per-thread tracks exportable as Chrome/Perfetto trace JSON, and
//! [`series`], an interval-keyed time-series recorder for
//! per-rekey-interval curves.
//!
//! # Feature gating
//!
//! Everything above is real only with the `enabled` cargo feature.
//! Each recording entry point is written once and tests [`enabled`], a
//! constant, first, so without the feature it compiles to an inlineable
//! no-op: no clock reads, no atomics, no heap allocation (a test pins
//! the off-path at exactly zero allocations), and [`snapshot`] finds an
//! empty registry and returns an empty [`Snapshot`]. Cargo unifies the
//! feature across the build, so the root's and `bench`'s `obs` feature
//! (which forwards to `obs/enabled`) lights up the whole pipeline; a
//! single crate's tests take `--features obs/enabled`.

// Panic-free outside tests; an exception is a reasoned `#[expect]` (ci.sh denies clippy warnings).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

/// Fixed-bucket log2 histograms behind span aggregation.
pub mod hist;
/// Deterministic hand-rolled JSON writer shared with the bench emitters.
pub mod json;
/// Interval-keyed time-series recorder (`obs_series/v1`).
pub mod series;
/// Bounded event log with Chrome/Perfetto export (`trace/v1`).
pub mod trace;

#[cfg_attr(
    not(any(test, feature = "enabled")),
    expect(
        dead_code,
        reason = "compiled in both builds so each entry point below is written once; without the feature nothing reaches the recording half of it"
    )
)]
mod registry;

use json::JsonWriter;

/// Whether the metrics layer is compiled in (`enabled` cargo feature).
///
/// Binaries use this to fail fast when asked to emit observability data
/// from a build that cannot collect any.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Live guard of one span; records the elapsed nanoseconds on drop.
///
/// Hold it for the duration of the stage being measured:
///
/// ```
/// let _span = obs::span("stage.example");
/// // ... the work being timed ...
/// ```
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    slot: &'static registry::Slot,
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.slot.record(ns);
        trace::event(trace::EventKind::End, self.slot.name);
    }
}

/// Starts a span named `name`; the returned guard records its wall time
/// into the span's histogram when dropped. Nested spans each record
/// their own elapsed time. While the event log is recording
/// ([`trace::enable`]), the guard also emits begin/end trace events, so
/// every instrumented stage shows up on its thread's track for free.
#[inline]
// xcheck: no_alloc
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        trace::event(trace::EventKind::Begin, name);
        SpanGuard {
            slot: registry::slot(name, registry::Kind::SpanNs),
            start: std::time::Instant::now(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard {}
    }
}

/// Adds `delta` to the counter `name`.
#[inline]
// xcheck: no_alloc
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        registry::slot(name, registry::Kind::Counter).add(delta);
    }
}

/// Sets the gauge `name` to `value`.
#[inline]
// xcheck: no_alloc
pub fn gauge_set(name: &'static str, value: u64) {
    if enabled() {
        registry::slot(name, registry::Kind::Gauge).set(value);
    }
}

/// Zeroes every registered series (names stay registered). Benchmarks
/// call this between cells so each snapshot covers exactly one workload.
pub fn reset() {
    registry::reset_all();
}

/// Collects a deterministic snapshot of every registered series (empty,
/// with [`Snapshot::enabled`] false, when the feature is off).
#[must_use]
pub fn snapshot() -> Snapshot {
    registry::snapshot_all()
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Aggregated statistics of one span series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesStats {
    /// Series name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (nanoseconds for spans).
    pub total: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate (log2-bucket upper bound, clamped to [min, max]).
    pub p50: u64,
    /// 99th-percentile estimate (same construction as `p50`).
    pub p99: u64,
}

/// One counter or gauge reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Point-in-time copy of every registered series, sections and entries
/// sorted by name so two snapshots of identical state serialize to
/// identical bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether the producing build had the metrics layer compiled in.
    pub enabled: bool,
    /// Span (duration) series, sorted by name; all fields nanoseconds.
    pub spans: Vec<SeriesStats>,
    /// Counters, sorted by name.
    pub counters: Vec<Metric>,
    /// Gauges, sorted by name.
    pub gauges: Vec<Metric>,
}

impl Snapshot {
    /// Schema tag written into the JSON form.
    pub const SCHEMA: &'static str = "obs/v2";

    /// Sum of `total` over the named span series (nanoseconds). Missing
    /// names contribute zero — convenient for stage-coverage arithmetic.
    #[must_use]
    pub fn span_total_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .map(|s| s.total)
            .sum()
    }

    /// The named span series, if present.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SeriesStats> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The named counter value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Serializes deterministically to a single-line JSON object (plus a
    /// trailing newline), schema `obs/v2`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", Self::SCHEMA);
        w.field_bool("enabled", self.enabled);
        w.key("spans");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_u64("count", s.count);
            w.field_u64("total_ns", s.total);
            w.field_u64("min_ns", s.min);
            w.field_u64("max_ns", s.max);
            w.field_u64("p50_ns", s.p50);
            w.field_u64("p99_ns", s.p99);
            w.end_object();
        }
        w.end_array();
        for (key, metrics) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            w.key(key);
            w.begin_array();
            for m in metrics {
                w.begin_object();
                w.field_str("name", &m.name);
                w.field_u64("value", m.value);
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Renders a fixed-width human table (one block per non-empty
    /// section). Callers print it to stderr under one lock so it never
    /// interleaves with other diagnostics.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.enabled {
            out.push_str("obs: disabled (rebuild with --features obs)\n");
            return out;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "obs spans                        count    total_ms      p50_ms      p99_ms      max_ms"
            );
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
                    s.name,
                    s.count,
                    ms(s.total),
                    ms(s.p50),
                    ms(s.p99),
                    ms(s.max),
                );
            }
        }
        for (title, metrics) in [
            ("obs counters", &self.counters),
            ("obs gauges", &self.gauges),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}");
            for m in metrics {
                let _ = writeln!(out, "  {:<28} {:>20}", m.name, m.value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            enabled: true,
            spans: vec![SeriesStats {
                name: "stage.mark".to_string(),
                count: 3,
                total: 3_000_000,
                min: 900_000,
                max: 1_200_000,
                p50: 1_000_000,
                p99: 1_200_000,
            }],
            counters: vec![Metric {
                name: "uka.keys_sealed".to_string(),
                value: 171,
            }],
            gauges: vec![Metric {
                name: "scenario.users".to_string(),
                value: 4,
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let snap = sample();
        let a = snap.to_json();
        let b = snap.clone().to_json();
        assert_eq!(a, b);
        assert!(json::well_formed(&a));
        assert!(a.contains("\"schema\": \"obs/v2\""));
        assert!(a.contains("\"name\": \"stage.mark\""));
        assert!(a.contains("\"total_ns\": 3000000"));
        assert!(a.contains("\"uka.keys_sealed\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn table_lists_every_section() {
        let table = sample().render_table();
        assert!(table.contains("stage.mark"));
        assert!(table.contains("uka.keys_sealed"));
        assert!(table.contains("scenario.users"));
        assert!(table.lines().all(|l| !l.is_empty()));
    }

    #[test]
    fn helpers_tolerate_missing_names() {
        let snap = sample();
        assert_eq!(snap.span_total_ns(&["stage.mark", "stage.none"]), 3_000_000);
        assert!(snap.span("stage.none").is_none());
        assert_eq!(snap.counter("uka.keys_sealed"), 171);
        assert_eq!(snap.counter("nope"), 0);
    }

    #[test]
    fn disabled_snapshot_renders_hint() {
        let table = Snapshot::default().render_table();
        assert!(table.contains("disabled"));
    }

    #[cfg(feature = "enabled")]
    mod live {
        // Global-registry behavior; each test uses its own metric names
        // so parallel test threads cannot interfere.
        #[test]
        fn span_guard_records_on_drop() {
            {
                let _g = crate::span("test.lib.span_drop");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let snap = crate::snapshot();
            let s = snap.span("test.lib.span_drop").expect("registered");
            assert_eq!(s.count, 1);
            assert!(s.total >= 1_000_000, "slept >= 1ms, got {} ns", s.total);
            assert!(s.min <= s.p50 && s.p50 <= s.p99 && s.p99 <= s.max);
        }

        #[test]
        fn counters_and_gauges_accumulate() {
            crate::counter_add("test.lib.ctr", 2);
            crate::counter_add("test.lib.ctr", 3);
            crate::gauge_set("test.lib.gauge", 7);
            crate::gauge_set("test.lib.gauge", 9);
            let snap = crate::snapshot();
            assert_eq!(snap.counter("test.lib.ctr"), 5);
            let gauge = snap
                .gauges
                .iter()
                .find(|g| g.name == "test.lib.gauge")
                .expect("gauge registered");
            assert_eq!(gauge.value, 9);
        }
    }
}
