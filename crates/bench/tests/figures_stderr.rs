//! Regression for stderr hygiene in `all_figures`: the per-figure
//! `[time]` lines (and the obs table, when compiled in) go through one
//! stderr lock, so they must come out whole lines and must never leak into
//! the byte-comparable figure stdout.

use std::process::Command;

fn all_figures() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_figures"));
    cmd.env("REKEY_QUICK", "1")
        .env("REKEY_FIGURES", "fig06,fig07")
        .env_remove("REKEY_OBS");
    cmd
}

#[test]
fn stderr_diagnostics_never_split_or_leak_into_stdout() {
    let mut cmd = all_figures();
    if obs::enabled() {
        cmd.env("REKEY_OBS", "1");
    }
    let result = cmd.output().expect("run all_figures");
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );

    let stdout = String::from_utf8(result.stdout).expect("utf8 stdout");
    assert!(stdout.starts_with("# Figure regeneration run"));
    assert!(stdout.contains("### Figure 6"));
    assert!(stdout.contains("### Figure 7"));
    assert!(!stdout.contains("[time]"), "timing leaked into stdout");
    assert!(!stdout.contains("obs "), "obs table leaked into stdout");

    let stderr = String::from_utf8(result.stderr).expect("utf8 stderr");
    // A `[time]` fragment anywhere but the start of a line means a
    // diagnostic line was split.
    for line in stderr.lines() {
        if line.contains("[time]") {
            assert!(line.starts_with("[time] "), "split stderr line: {line:?}");
        }
    }
    let time_lines = stderr.lines().filter(|l| l.starts_with("[time] ")).count();
    assert_eq!(time_lines, 3, "fig06 + fig07 + total, got: {stderr}");
    if obs::enabled() {
        assert!(stderr.contains("obs spans"), "table present: {stderr}");
        for line in stderr.lines() {
            if line.contains("obs spans") {
                assert!(
                    line.starts_with("obs spans"),
                    "split table header: {line:?}"
                );
            }
        }
    }
}

#[test]
fn unknown_figure_filter_aborts() {
    let result = all_figures()
        .env("REKEY_FIGURES", "fig06,not_a_figure")
        .output()
        .expect("run all_figures");
    assert_eq!(result.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("not_a_figure"), "{stderr}");
}
