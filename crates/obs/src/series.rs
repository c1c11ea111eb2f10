//! Interval-keyed time-series recorder (`obs_series/v1`).
//!
//! The scenario engine's per-interval statistics and the aggregate obs
//! instruments both collapse a whole run into end-of-run totals; this
//! module keeps the *curve*: one row per rekey interval, one column per
//! metric (encryptions per member, bytes on wire, tree depth, resident
//! bytes, per-stage wall deltas), serialized deterministically so two
//! identical runs emit identical bytes.
//!
//! Unlike the recorder in [`crate::trace`], this is a plain data
//! container with no feature gate — callers always get the explicit
//! columns they [`SeriesRecorder::set`]; only the
//! [`SeriesRecorder::snapshot_deltas`] stage-wall columns depend on the
//! `enabled` feature (they delta [`crate::snapshot`], which is empty in
//! disabled builds).
//!
//! [`SeriesRecorder::set`]: crate::series::SeriesRecorder::set
//! [`SeriesRecorder::snapshot_deltas`]: crate::series::SeriesRecorder::snapshot_deltas

use crate::json::JsonWriter;
use crate::Snapshot;

/// One recorded row: the interval key plus values for the columns known
/// at the time (later-added columns backfill as 0 on emit).
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    interval: u64,
    values: Vec<Option<f64>>,
}

/// Records named per-interval series and emits `obs_series/v1` JSON.
///
/// Usage per interval: [`begin_interval`](Self::begin_interval), then
/// any number of [`set`](Self::set) calls, then optionally
/// [`snapshot_deltas`](Self::snapshot_deltas) to capture what the obs
/// span totals and counters advanced by during the interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRecorder {
    names: Vec<String>,
    rows: Vec<Row>,
    last: Snapshot,
}

impl SeriesRecorder {
    /// Schema tag written into the JSON form.
    pub const SCHEMA: &'static str = "obs_series/v1";

    /// An empty recorder whose delta baseline is the current obs state,
    /// so the first interval's deltas do not include prior work.
    #[must_use]
    pub fn new() -> Self {
        SeriesRecorder {
            names: Vec::new(),
            rows: Vec::new(),
            last: crate::snapshot(),
        }
    }

    /// Opens the row keyed by `interval`; subsequent [`set`](Self::set)
    /// calls land there.
    pub fn begin_interval(&mut self, interval: u64) {
        self.rows.push(Row {
            interval,
            values: Vec::new(),
        });
    }

    /// Sets the named column in the current row (last write wins).
    /// With no open row, one is opened keyed by the row count.
    pub fn set(&mut self, name: &str, value: f64) {
        if self.rows.is_empty() {
            let key = self.rows.len() as u64;
            self.begin_interval(key);
        }
        let col = match self.names.iter().position(|n| n == name) {
            Some(col) => col,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        if let Some(row) = self.rows.last_mut() {
            if row.values.len() <= col {
                row.values.resize(col + 1, None);
            }
            row.values[col] = Some(value);
        }
    }

    /// Captures what every obs span total and counter advanced by since
    /// the previous call (or since [`new`](Self::new)), as columns
    /// `span.<name>_ms` and `counter.<name>` in the current row. Rows
    /// record nothing in disabled builds (the snapshot is empty).
    pub fn snapshot_deltas(&mut self) {
        let snap = crate::snapshot();
        for span in &snap.spans {
            let prev = self.last.span_total_ns(&[span.name.as_str()]);
            let delta = span.total.saturating_sub(prev);
            if delta > 0 {
                self.set(&format!("span.{}_ms", span.name), delta as f64 / 1e6);
            }
        }
        for counter in &snap.counters {
            let delta = counter
                .value
                .saturating_sub(self.last.counter(&counter.name));
            if delta > 0 {
                self.set(&format!("counter.{}", counter.name), delta as f64);
            }
        }
        self.last = snap;
    }

    /// Number of recorded rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The named column over all rows (unset cells read 0.0), or `None`
    /// if the column was never set.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let col = self.names.iter().position(|n| n == name)?;
        Some(
            self.rows
                .iter()
                .map(|row| row.values.get(col).copied().flatten().unwrap_or(0.0))
                .collect(),
        )
    }

    /// Serializes deterministically (columns sorted by name, one row per
    /// recorded interval, unset cells as 0) to `obs_series/v1` JSON with
    /// a trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        order.sort_by(|&a, &b| self.names[a].cmp(&self.names[b]));
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", Self::SCHEMA);
        w.field_bool("enabled", crate::enabled());
        w.field_u64("points", self.rows.len() as u64);
        w.key("intervals");
        w.begin_array();
        for row in &self.rows {
            w.value_u64(row.interval);
        }
        w.end_array();
        w.key("series");
        w.begin_array();
        for &col in &order {
            w.begin_object();
            w.field_str("name", &self.names[col]);
            w.key("values");
            w.begin_array();
            for row in &self.rows {
                let v = row.values.get(col).copied().flatten().unwrap_or(0.0);
                w.value_f64(v, 3);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut text = w.finish();
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_columns_and_backfill() {
        let mut rec = SeriesRecorder::new();
        rec.begin_interval(0);
        rec.set("users", 100.0);
        rec.begin_interval(1);
        rec.set("users", 120.0);
        rec.set("joins", 20.0);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        assert_eq!(rec.column("users"), Some(vec![100.0, 120.0]));
        // Column added on row 1 backfills row 0 with 0.
        assert_eq!(rec.column("joins"), Some(vec![0.0, 20.0]));
        assert_eq!(rec.column("nope"), None);
    }

    #[test]
    fn set_without_interval_opens_a_row() {
        let mut rec = SeriesRecorder::new();
        rec.set("x", 1.0);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.column("x"), Some(vec![1.0]));
    }

    #[test]
    fn json_is_deterministic_sorted_and_well_formed() {
        let mut rec = SeriesRecorder::new();
        rec.begin_interval(7);
        rec.set("zeta", 2.5);
        rec.set("alpha", 1.0);
        let a = rec.to_json();
        let b = rec.clone().to_json();
        assert_eq!(a, b);
        assert!(crate::json::well_formed(&a));
        assert!(a.contains("\"schema\": \"obs_series/v1\""));
        assert!(a.contains("\"points\": 1"));
        // Columns sorted by name regardless of insertion order.
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta);
        assert!(a.ends_with('\n'));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn snapshot_deltas_capture_span_and_counter_advances() {
        let mut rec = SeriesRecorder::new();
        rec.begin_interval(0);
        {
            let _g = crate::span("test.series.stage");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::counter_add("test.series.ctr", 5);
        rec.snapshot_deltas();
        rec.begin_interval(1);
        crate::counter_add("test.series.ctr", 2);
        rec.snapshot_deltas();
        let walls = rec
            .column("span.test.series.stage_ms")
            .expect("span column");
        assert!(walls[0] >= 1.0, "first interval wall: {walls:?}");
        let ctr = rec.column("counter.test.series.ctr").expect("ctr column");
        assert_eq!(ctr[1], 2.0, "second interval delta: {ctr:?}");
        assert!(crate::json::well_formed(&rec.to_json()));
    }
}
