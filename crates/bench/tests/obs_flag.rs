//! `bench_churn`, the one report binary with sinks, must honor
//! `--obs-out`/`REKEY_OBS=1` when the metrics layer is compiled in, and
//! fail fast — one clear line, nonzero exit — when it is not. The sinks
//! are tested in-process and branch on [`obs::enabled`], so the same test
//! covers whichever way this crate was built; the binary is spawned only
//! where it exits before running anything. A malformed command line is one
//! usage line and exit 2, never a panic.

use std::process::Command;

use bench::{ObsSink, TraceSink};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bench_obs_{tag}_{}.json", std::process::id()))
}

#[test]
fn obs_sink_writes_the_snapshot_or_errors_cleanly() {
    let path = temp_path("sink");
    let resolved = ObsSink::resolve(Some(path.to_str().expect("utf8").to_string()));
    let trace = TraceSink::resolve(Some("unused.json".to_string()));
    if !obs::enabled() {
        for e in [resolved.expect_err("no obs"), trace.expect_err("no obs")] {
            assert!(e.contains("rebuild with `--features obs`"), "{e}");
            assert_eq!(e.lines().count(), 1, "{e}");
        }
        return;
    }
    assert!(trace.is_ok_and(|t| t.active()));
    let sink = resolved.expect("obs build");
    assert!(sink.active);
    drop(obs::span("rekey.batch"));
    let mut err = Vec::new();
    sink.emit(&obs::snapshot(), &mut err).expect("emit");
    let err = String::from_utf8(err).expect("utf8");
    assert!(err.contains("obs spans"), "table on stderr: {err}");
    assert!(err.ends_with(&format!("wrote obs snapshot to {}\n", path.display())));
    let json = std::fs::read_to_string(&path).expect("snapshot written");
    let _ = std::fs::remove_file(&path);
    assert!(obs::json::well_formed(&json));
    assert!(json.contains("\"schema\": \"obs/v2\""), "{json}");
    assert!(json.contains("rekey.batch"), "{json}");
}

#[test]
fn an_inactive_sink_emits_nothing() {
    let sink = ObsSink::default();
    let mut err = Vec::new();
    sink.emit(&obs::snapshot(), &mut err).expect("emit");
    assert!(err.is_empty());
    assert!(!TraceSink::default().active());
}

fn bench_churn(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_churn"))
        .args(args)
        .env_remove("REKEY_OBS")
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    (out.status.code(), stderr)
}

#[test]
fn a_sink_on_a_build_without_obs_exits_1_before_running() {
    if obs::enabled() {
        return; // an obs build would run the whole grid
    }
    let path = temp_path("flag");
    let (code, stderr) = bench_churn(&["--obs-out", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("rebuild with `--features obs`"), "{stderr}");
    assert!(!path.exists(), "no snapshot from a no-op build");
}

#[test]
fn missing_value_or_unknown_flag_is_one_usage_line() {
    let usage = "usage: [--out VALUE] [--obs-out VALUE] [--trace-out VALUE] [--series-out VALUE]";
    for args in [
        &["--out"][..],
        &["--smoke"],
        &["--check", "BENCH_churn.json"],
    ] {
        let (code, stderr) = bench_churn(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.ends_with(&format!("{usage}\n")), "{stderr}");
    }
}
