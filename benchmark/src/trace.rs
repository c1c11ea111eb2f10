//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (`layers.rs`); nothing inside the product is touched. A span is
//! (name, start, end, parent, interval id). Per-receiver calls inside one
//! packet's delivery loop are too short to carry a span each, so their time is
//! measured by chained clock reads and folded into the enclosing span with
//! [`Recorder::add`]. Everything stays in memory; aggregates cover every
//! interval, full spans are kept for the first [`KEPT_INTERVALS`] only and
//! written as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Intervals whose spans are kept in full for the trace file.
pub const KEPT_INTERVALS: u32 = 8;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the kept list.
    pub parent: Option<usize>,
    pub interval: u32,
    /// Folded child time: `(layer, ns)` measured inside this span without a
    /// span of its own.
    pub folded: Vec<(&'static str, u64)>,
}

/// Totals of one span name over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub total_ns: u64,
    /// Total minus the time covered by child spans and folded children.
    pub self_ns: u64,
    pub calls: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    interval: u32,
    intervals: u32,
    open: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    counters: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder that records (`on`) or one whose every call is a no-op —
    /// the "spans off" side of the tracing-overhead measurement.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            interval: 0,
            intervals: 0,
            open: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Forgets everything recorded so far (called after warm-up).
    pub fn reset(&mut self) {
        *self = Recorder::new(self.on);
    }

    /// Starts the next interval; spans recorded until the next call carry
    /// its id.
    pub fn next_interval(&mut self) {
        self.interval = self.intervals;
        self.intervals += 1;
    }

    pub fn intervals(&self) -> u32 {
        self.intervals
    }

    /// Nanoseconds since the recorder was created; 0 when off, so chained
    /// reads cost a branch on the untraced side.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        let kept = (self.interval < KEPT_INTERVALS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.kept),
                interval: self.interval,
                folded: Vec::new(),
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    #[inline]
    pub fn end(&mut self, name: &'static str) {
        self.end_calls(name, 1);
    }

    /// Ends a span that covered `calls` calls into the layer.
    pub fn end_calls(&mut self, name: &'static str, calls: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let open = self.open.pop().expect("end without begin");
        assert_eq!(open.name, name, "spans must close in LIFO order");
        let dur = end_ns - open.start_ns;
        let agg = self.aggs.entry(name).or_default();
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.calls += calls;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Folds `ns` of `calls` calls into layer `name` as a child of the
    /// current span.
    pub fn add(&mut self, name: &'static str, ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.total_ns += ns;
        agg.self_ns += ns;
        agg.calls += calls;
        if let Some(open) = self.open.last_mut() {
            open.child_ns += ns;
            if let Some(i) = open.kept {
                self.spans[i].folded.push((name, ns));
            }
        }
    }

    /// Adds to a plain counter (work done, not time).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_default() += n;
        }
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): the
    /// kept spans as complete events, the whole-run aggregates and the host
    /// facts under `metadata`.
    pub fn to_chrome_json(&self, workload: &str, host: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"interval\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.interval
            );
            // One key per layer: a span may fold the same layer twice.
            let mut folded: BTreeMap<&str, u64> = BTreeMap::new();
            for &(name, ns) in &s.folded {
                *folded.entry(name).or_default() += ns;
            }
            for (name, ns) in folded {
                let _ = write!(out, ",\"{name}.ns\":{ns}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"workload\":\"{workload}\",\"intervals\":{},\"kept_intervals\":{}",
            self.intervals,
            KEPT_INTERVALS.min(self.intervals)
        );
        for (k, v) in host {
            let _ = write!(out, ",\"{k}\":\"{v}\"");
        }
        out.push_str(",\"aggregates\":{");
        for (i, (name, a)) in self.aggs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"total_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                a.total_ns, a.self_ns, a.calls
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("}}}\n");
        out
    }
}

/// Checks that spans nest: every child lies inside its parent and shares its
/// interval, and no span's children (spans plus folded time) outlast it, so
/// self time is never negative.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        child_ns[i] += s.folded.iter().map(|&(_, ns)| ns).sum::<u64>();
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) names a later parent", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaks out of its parent {}",
                    s.name, parent.name
                ));
            }
            if s.interval != parent.interval {
                return Err(format!("span {i} ({}) changes interval", s.name));
            }
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.end_ns - s.start_ns {
            return Err(format!("span {i} ({}) has negative self time", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_folded_time() {
        let mut r = Recorder::new(true);
        r.next_interval();
        r.begin("outer");
        r.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end("inner");
        r.add("folded", 1_000, 3);
        r.end("outer");
        let (outer, inner) = (r.agg("outer"), r.agg("inner"));
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 1_000);
        assert_eq!(
            r.agg("folded"),
            Agg {
                total_ns: 1_000,
                self_ns: 1_000,
                calls: 3
            }
        );
        check_nesting(r.spans()).unwrap();
        let json = r.to_chrome_json("w", &[("nproc", "2".into())]);
        assert!(json.contains("\"folded.ns\":1000") && json.contains("\"nproc\":\"2\""));
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.next_interval();
        r.begin("x");
        r.add("y", 5, 1);
        r.count("c", 1);
        r.end("x");
        assert!(r.spans().is_empty());
        assert_eq!(r.agg("x"), Agg::default());
        assert_eq!(r.counter("c"), 0);
        assert_eq!(r.now(), 0);
    }

    #[test]
    fn only_the_first_intervals_keep_spans() {
        let mut r = Recorder::new(true);
        for _ in 0..KEPT_INTERVALS + 3 {
            r.next_interval();
            r.begin("interval");
            r.end("interval");
        }
        assert_eq!(r.spans().len(), KEPT_INTERVALS as usize);
        assert_eq!(r.agg("interval").calls, u64::from(KEPT_INTERVALS) + 3);
    }

    #[test]
    fn nesting_check_rejects_a_leaking_child() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            interval: 0,
            folded: Vec::new(),
        };
        assert!(check_nesting(&[span(0, 10, None), span(2, 8, Some(0))]).is_ok());
        assert!(check_nesting(&[span(0, 10, None), span(2, 12, Some(0))]).is_err());
        let mut heavy = span(0, 10, None);
        heavy.folded.push(("x", 11));
        assert!(check_nesting(&[heavy]).is_err());
    }
}
