//! The side outputs of an obs-enabled bench run, parsed and checked for
//! structure: the Chrome trace export (balanced B/E nesting, monotone
//! per-track timestamps, one labelled track per taskpool worker), the
//! `obs_scale/v1` per-stage snapshot, and the `obs_series/v1` columns.
//! Needs `--features obs`; without it there is nothing to record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use bench::jsonv::{parse, Value};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench_obs_out_{tag}_{}.json", std::process::id()))
}

fn run(cmd: &mut Command) {
    let out = cmd.env_remove("REKEY_OBS").output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("output written");
    let _ = std::fs::remove_file(path);
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} in {v:?}"))
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} in {v:?}"))
}

/// Checks the trace structurally and returns its track labels.
fn validate_trace(doc: &Value) -> Vec<String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("events");
    assert!(!events.is_empty());
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    // Per track: last timestamp and open-span depth.
    let mut tracks: BTreeMap<u64, (f64, i64)> = BTreeMap::new();
    for e in events {
        assert_eq!(number(e, "pid"), 1.0);
        let tid = number(e, "tid") as u64;
        let ph = text(e, "ph");
        if ph == "M" {
            let name = text(e.get("args").expect("args"), "name");
            labels.insert(tid, name.to_string());
            continue;
        }
        let (last, depth) = tracks.entry(tid).or_insert((-1.0, 0));
        let ts = number(e, "ts");
        assert!(ts >= *last, "ts not monotone on track {tid}");
        *last = ts;
        match ph {
            "B" => *depth += 1,
            "E" => {
                *depth -= 1;
                assert!(*depth >= 0, "E without B on track {tid}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (tid, (_, depth)) in &tracks {
        assert_eq!(*depth, 0, "unclosed spans on track {tid}");
        assert!(labels.contains_key(tid), "unlabelled track {tid}");
    }
    labels.into_values().collect()
}

#[test]
fn scale_trace_and_stage_snapshot_have_the_expected_structure() {
    if !obs::enabled() {
        return;
    }
    let (out, trace, snap) = (
        temp_path("scale"),
        temp_path("scale_trace"),
        temp_path("scale_obs"),
    );
    // The smoke cell's seal fan-out is ~0.1 ms of work, so on a box that
    // runs the scoped workers one after another each would adopt the
    // previous one's freed ring; the perturbation seed's yield points
    // keep at least two alive at once.
    run(Command::new(env!("CARGO_BIN_EXE_bench_scale"))
        .env("XCHECK_SCHED_SEED", "1")
        .arg("--smoke")
        .args(["--out", out.to_str().expect("utf8")])
        .args(["--trace-out", trace.to_str().expect("utf8")])
        .args(["--obs-out", snap.to_str().expect("utf8")]));
    let _ = std::fs::remove_file(&out);

    // The identity replay's four-worker leg fans the seal chunks out, so
    // at least two `map-*` worker tracks appear next to the caller's.
    let labels = validate_trace(&load(&trace));
    let workers = labels.iter().filter(|l| l.starts_with("map-")).count();
    assert!(workers >= 2, "worker tracks: {labels:?}");

    let snap = load(&snap);
    assert_eq!(text(&snap, "schema"), "obs_scale/v1");
    assert!(number(&snap, "coverage_pct") > 0.0);
    let obs = snap.get("obs").expect("embedded snapshot");
    assert_eq!(text(obs, "schema"), "obs/v1");
    assert_eq!(obs.get("enabled"), Some(&Value::Bool(true)));
    let spans = obs.get("spans").and_then(Value::as_arr).expect("spans");
    let names: Vec<&str> = spans.iter().map(|s| text(s, "name")).collect();
    for expected in [
        "stage.mark",
        "stage.mint",
        "stage.seal",
        "keytree.mark_batch",
        "uka.build",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}

#[test]
fn churn_trace_and_series_have_the_expected_structure() {
    if !obs::enabled() {
        return;
    }
    let (out, trace, series) = (
        temp_path("churn"),
        temp_path("churn_trace"),
        temp_path("churn_series"),
    );
    run(Command::new(env!("CARGO_BIN_EXE_bench_churn"))
        .arg("--smoke")
        .args(["--out", out.to_str().expect("utf8")])
        .args(["--trace-out", trace.to_str().expect("utf8")])
        .args(["--series-out", series.to_str().expect("utf8")]));
    let _ = std::fs::remove_file(&out);
    validate_trace(&load(&trace));

    let series = load(&series);
    assert_eq!(text(&series, "schema"), "obs_series/v1");
    let points = number(&series, "points") as usize;
    assert!(points > 0);
    let intervals = series.get("intervals").and_then(Value::as_arr);
    assert_eq!(intervals.map(<[Value]>::len), Some(points));
    let columns = series
        .get("series")
        .and_then(Value::as_arr)
        .expect("series");
    for column in columns {
        let values = column.get("values").and_then(Value::as_arr);
        assert_eq!(
            values.map(<[Value]>::len),
            Some(points),
            "{}",
            text(column, "name")
        );
    }
    let names: Vec<&str> = columns.iter().map(|c| text(c, "name")).collect();
    for required in [
        "users",
        "joins",
        "leaves",
        "enc_per_member",
        "bytes_on_wire",
        "max_depth",
        "mean_depth",
        "resident_bytes",
    ] {
        assert!(names.contains(&required), "missing {required}: {names:?}");
    }
}
