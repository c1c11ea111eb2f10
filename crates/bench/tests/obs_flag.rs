//! `bench_churn`, the one report binary with sinks, must honor
//! `--obs-out`/`REKEY_OBS=1` when the metrics layer is compiled in, and
//! fail fast — one clear line, nonzero exit — when it is not. Both sides
//! branch on [`obs::enabled`] so the same test covers whichever way this
//! binary was built. A malformed command line is one usage line and exit
//! 2, never a panic.

use std::path::PathBuf;
use std::process::Command;

use bench::jsonv::{parse, Value};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench_obs_{tag}_{}.json", std::process::id()))
}

fn bench_churn() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_churn"));
    // Quick workload; make sure an ambient REKEY_OBS doesn't leak in.
    cmd.env("REKEY_QUICK", "1").env_remove("REKEY_OBS");
    cmd
}

#[test]
fn obs_out_flag_writes_snapshot_or_errors_cleanly() {
    let obs_path = temp_path("flag");
    let out_path = temp_path("flag_main");
    let result = bench_churn()
        .args([
            "--smoke",
            "--out",
            out_path.to_str().expect("utf8 temp path"),
            "--obs-out",
            obs_path.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("spawn bench_churn");
    if obs::enabled() {
        assert!(
            result.status.success(),
            "obs build must honor --obs-out: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        let text = std::fs::read_to_string(&obs_path).expect("snapshot written");
        let snap = parse(&text).expect("snapshot parses");
        assert_eq!(snap.get("schema").and_then(Value::as_str), Some("obs/v2"));
        let spans = snap.get("spans").and_then(Value::as_arr).expect("spans");
        let name = |s: &Value| s.get("name").and_then(Value::as_str).map(str::to_string);
        let names: Vec<String> = spans.iter().filter_map(name).collect();
        assert!(names.iter().any(|n| n == "rekey.batch"), "{names:?}");
        // The report itself came out too, and passes its own check.
        let report = std::fs::read_to_string(&out_path).expect("report written");
        assert_eq!(bench::report::CHURN.check(&report), Vec::<String>::new());
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains("obs spans"), "table on stderr: {stderr}");
    } else {
        assert_eq!(result.status.code(), Some(1), "nonzero exit");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(
            stderr.lines().count(),
            1,
            "exactly one error line, got: {stderr}"
        );
        assert!(
            stderr.contains("rebuild with `--features obs`"),
            "error names the fix: {stderr}"
        );
        assert!(!obs_path.exists(), "no snapshot from a no-op build");
    }
    let _ = std::fs::remove_file(&obs_path);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn rekey_obs_env_takes_the_same_gate() {
    let out_path = temp_path("env_main");
    let result = bench_churn()
        .env("REKEY_OBS", "1")
        .args(["--smoke", "--out", out_path.to_str().expect("utf8")])
        .output()
        .expect("spawn bench_churn");
    let stderr = String::from_utf8_lossy(&result.stderr);
    if obs::enabled() {
        assert!(result.status.success(), "{stderr}");
        assert!(stderr.contains("obs spans"), "table on stderr: {stderr}");
    } else {
        assert_eq!(result.status.code(), Some(1));
        assert!(stderr.contains("rebuild with `--features obs`"), "{stderr}");
    }
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn missing_value_or_unknown_flag_is_one_usage_line() {
    let churn = env!("CARGO_BIN_EXE_bench_churn");
    let cases = [
        (churn, &["--out"][..], "usage: [--smoke] [--out VALUE]"),
        (churn, &["--smoke", "--check"], "usage: [--smoke]"),
        (churn, &["--reps", "3"], "usage: [--smoke]"),
        // The tolerance band is gone, and so is its flag.
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            &["--band", "3"],
            "usage: [--check] [--baseline",
        ),
    ];
    for (bin, args, usage) in cases {
        let result = Command::new(bin).args(args).output().expect("spawn");
        assert_eq!(result.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
