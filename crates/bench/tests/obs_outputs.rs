//! The side outputs of an obs-enabled `bench_churn` run, parsed and
//! checked for structure: the Chrome trace export (balanced B/E nesting,
//! monotone per-track timestamps, every track labelled, the stages of a
//! real interval nested where they run) and the `obs_series/v1` columns.
//! Needs `--features obs`; without it there is nothing to record.

use std::collections::{BTreeMap, BTreeSet};
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

/// What [`validate_trace`] saw: the track labels, and every span name with
/// the name of the span it opened inside (`""` at the top of a track).
struct TraceShape {
    labels: Vec<String>,
    nesting: BTreeSet<(String, String)>,
}

/// Checks the trace structurally and returns its shape.
fn validate_trace(doc: &Value) -> TraceShape {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("events");
    assert!(!events.is_empty());
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    // Per track: last timestamp and the stack of open spans.
    let mut tracks: BTreeMap<u64, (f64, Vec<String>)> = BTreeMap::new();
    let mut nesting = BTreeSet::new();
    for e in events {
        assert_eq!(number(e, "pid"), 1.0);
        let tid = number(e, "tid") as u64;
        let ph = text(e, "ph");
        if ph == "M" {
            let name = text(e.get("args").expect("args"), "name");
            labels.insert(tid, name.to_string());
            continue;
        }
        let (last, open) = tracks.entry(tid).or_insert((-1.0, Vec::new()));
        let ts = number(e, "ts");
        assert!(ts >= *last, "ts not monotone on track {tid}");
        *last = ts;
        match ph {
            "B" => {
                let name = text(e, "name").to_string();
                nesting.insert((name.clone(), open.last().cloned().unwrap_or_default()));
                open.push(name);
            }
            "E" => assert_eq!(
                open.pop().as_deref(),
                Some(text(e, "name")),
                "E closes the innermost B on track {tid}"
            ),
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (tid, (_, open)) in &tracks {
        assert!(open.is_empty(), "unclosed spans on track {tid}: {open:?}");
        assert!(labels.contains_key(tid), "unlabelled track {tid}");
    }
    TraceShape {
        labels: labels.into_values().collect(),
        nesting,
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
    // The datapath is sequential: the traced replay is one track (the
    // caller's), every stage of a real interval closed and nested in the
    // span that runs it.
    let shape = validate_trace(&load(&trace));
    assert_eq!(shape.labels.len(), 1, "tracks: {:?}", shape.labels);
    for (stage, parent) in [
        ("rekey.batch", "scenario.interval"),
        ("stage.mark", "keytree.mark_batch"),
        ("stage.mint", "keytree.mark_batch"),
        ("stage.seal", "uka.build"),
        ("stage.encode", "fec.block_build"),
    ] {
        assert!(
            shape
                .nesting
                .contains(&(stage.to_string(), parent.to_string())),
            "{stage} not nested under {parent}: {:?}",
            shape.nesting
        );
    }

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
