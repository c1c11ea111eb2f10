//! The five committed `BENCH_*.json` reports against their `Spec`s, the
//! report writer against the reader, and the `--check` / `bench_diff
//! --check` exit codes CI relies on.

use std::path::PathBuf;
use std::process::Command;

use bench::jsonv::{parse, Value};
use bench::report::{self, Cli, Spec, SPECS};
use bench::{ObsSink, TraceSink};

fn committed(spec: &Spec) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(spec.file)
}

fn temp_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_reports_{tag}_{}", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

#[test]
fn committed_reports_are_full_mode_and_pass_their_spec() {
    for spec in SPECS {
        let text = std::fs::read_to_string(committed(spec)).expect(spec.file);
        let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.file));
        assert_eq!(
            Spec::of(&doc).map(|s| s.file),
            Some(spec.file),
            "schema lookup"
        );
        assert_eq!(
            doc.get("mode").and_then(Value::as_str),
            Some("full"),
            "{}",
            spec.file
        );
        assert_eq!(spec.check(&text), Vec::<String>::new(), "{}", spec.file);
        // `check` passing means every key is in the column table and every
        // column is in the report; the next test proves both oracles fire.
    }
}

#[test]
fn committed_figures_report_compares_serial_against_a_real_fan_out() {
    // At one worker the "parallel" column is the serial run timed twice.
    let text = std::fs::read_to_string(committed(&report::FIGURES)).expect("committed");
    let workers = parse(&text)
        .expect("parses")
        .get("workers")
        .and_then(Value::as_f64);
    assert!(workers >= Some(2.0), "workers = {workers:?}");
}

#[test]
fn check_rejects_unclassified_null_and_missing_keys() {
    for spec in SPECS {
        let text = std::fs::read_to_string(committed(spec)).expect(spec.file);
        let body = text
            .trim_end()
            .strip_suffix('}')
            .expect("object")
            .trim_end();

        let unclassified = spec.check(&format!("{body},\n  \"surprise_ms\": 1.0\n}}\n"));
        assert_eq!(unclassified.len(), 1, "{unclassified:?}");
        assert!(
            unclassified[0].contains("surprise_ms is not in the"),
            "{unclassified:?}"
        );

        // A measurement that was not finite is written as null.
        let (column, _) = spec.columns.last().expect("columns");
        let key = column.rsplit('.').next().expect("key");
        let at = text
            .rfind(&format!("\"{key}\": "))
            .expect("last key present")
            + key.len()
            + 4;
        let end = at + text[at..].find([',', '\n', '}']).expect("value ends");
        let nulled = format!("{}null{}", &text[..at], &text[end..]);
        let problems = spec.check(&nulled);
        assert!(
            problems
                .iter()
                .any(|p| p.ends_with(&format!("{key} is null"))),
            "{}: {problems:?}",
            spec.file
        );

        let without_mode = text.replacen("\"mode\": \"full\",", "", 1);
        assert!(!spec.check(&without_mode).is_empty(), "{}", spec.file);
    }
}

#[test]
fn a_rendered_report_parses_back_to_what_was_written() {
    let cli = Cli {
        smoke: true,
        obs: ObsSink::default(),
        trace: TraceSink::default(),
        series_out: None,
    };
    let mut w = report::begin(&report::SCALE, &cli);
    w.key("scale");
    w.begin_array();
    for (n, ms) in [(1024u64, 0.125), (4096, f64::INFINITY)] {
        w.begin_object();
        w.field_u64("n", n);
        report::measured(&mut w, "plan_ms", ms);
        report::measured(&mut w, "seal_enc_per_sec", 4750593.824);
        w.end_object();
    }
    w.end_array();
    let text = report::finish(w);

    // Rows are one per line, so a committed report diffs by row.
    let row_lines: Vec<&str> = text.lines().filter(|l| l.contains("\"n\": ")).collect();
    assert_eq!(row_lines.len(), 2, "{text}");
    assert!(
        row_lines[0].starts_with("    {") && row_lines[0].ends_with("},"),
        "{text}"
    );

    let doc = parse(&text).expect("parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("bench_scale/v4")
    );
    assert_eq!(doc.get("mode").and_then(Value::as_str), Some("smoke"));
    let rows = doc.get("scale").and_then(Value::as_arr).expect("rows");
    assert_eq!(rows[0].get("n"), Some(&Value::Num(1024.0)));
    assert_eq!(rows[0].get("plan_ms"), Some(&Value::Num(0.125)));
    assert_eq!(
        rows[0].get("seal_enc_per_sec"),
        Some(&Value::Num(4750593.824))
    );
    // Not finite: null, never a 0.0 that reads as an improvement.
    assert_eq!(rows[1].get("plan_ms"), Some(&Value::Null));
    let problems = report::SCALE.check(&text);
    assert!(
        problems
            .iter()
            .any(|p| p == "scale[n=4096].plan_ms is null"),
        "{problems:?}"
    );
}

fn check_exit(bin: &str, path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .arg("--check")
        .arg(path)
        .output()
        .expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_flag_exits_1_on_input_that_is_not_the_report() {
    let bench_rekey = env!("CARGO_BIN_EXE_bench_rekey");
    let good = std::fs::read_to_string(committed(&report::REKEY)).expect("committed");
    assert_eq!(
        check_exit(bench_rekey, &committed(&report::REKEY)).0,
        Some(0)
    );
    let cases = [
        ("truncated", good[..good.len() / 2].to_string()),
        // Balanced braces, not JSON: the old brace counter accepted this.
        ("not_json", "{\"a\": }".to_string()),
        (
            "wrong_version",
            good.replace("bench_rekey/v3", "bench_rekey/v2"),
        ),
        // One rebuilt packet as dear as the whole half-erased block.
        (
            "slow_first_row",
            good.replace("\"first_row_ms\": 0.", "\"first_row_ms\": 9."),
        ),
    ];
    for (tag, text) in cases {
        let path = temp_file(tag, &text);
        let (code, stderr) = check_exit(bench_rekey, &path);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(stderr.contains("BENCH check FAILED"), "{tag}: {stderr}");
        let _ = std::fs::remove_file(&path);
    }
    // Another report's file is the wrong schema, and a missing file fails.
    let (code, stderr) = check_exit(bench_rekey, &committed(&report::SCALE));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("schema is not bench_rekey/v3"), "{stderr}");
    assert_eq!(
        check_exit(bench_rekey, &PathBuf::from("/no/such/report")).0,
        Some(1)
    );
}

fn bench_diff(baseline: &std::path::Path, candidate: &std::path::Path) -> (Option<i32>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--candidate")
        .arg(candidate)
        .arg("--check")
        .output()
        .expect("spawn bench_diff");
    let verdict = parse(&String::from_utf8_lossy(&out.stdout)).expect("verdict JSON on stdout");
    (out.status.code(), verdict)
}

#[test]
fn sentinel_intersects_every_committed_report_with_itself() {
    for spec in SPECS {
        let path = committed(spec);
        let (code, verdict) = bench_diff(&path, &path);
        assert_eq!(code, Some(0), "{}: {verdict:?}", spec.file);
        assert_eq!(verdict.get("verdict").and_then(Value::as_str), Some("pass"));
        let count = |key| verdict.get(key).and_then(Value::as_f64).expect("count");
        // BENCH_obs.json has the fewest: two walls and two exact counts.
        assert!(count("compared") >= 4.0, "{}: {verdict:?}", spec.file);
        assert_eq!(
            count("only_baseline") + count("only_candidate"),
            0.0,
            "{}",
            spec.file
        );
    }
}

#[test]
fn sentinel_check_exits_1_on_a_lost_saving_and_ignores_the_host() {
    let spec = &report::SCALE;
    let good = std::fs::read_to_string(committed(spec)).expect("committed");
    // Every row's SoA saving gone: higher-better despite the `_pct` name.
    const KEY: &str = "\"bytes_reduction_pct\": ";
    let lost: String = good
        .lines()
        .map(|line| match line.find(KEY) {
            Some(at) => {
                let end = at + line[at..].find('}').expect("row closes");
                format!("{}{KEY}0.000{}\n", &line[..at], &line[end..])
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_eq!(
        spec.check(&lost),
        Vec::<String>::new(),
        "still a valid report"
    );
    let path = temp_file("lost_saving", &lost);
    let (code, verdict) = bench_diff(&committed(spec), &path);
    assert_eq!(code, Some(1), "{verdict:?}");
    assert_eq!(verdict.get("improved"), Some(&Value::Num(0.0)));
    let failures = verdict
        .get("failures")
        .and_then(Value::as_arr)
        .expect("failures");
    assert_eq!(failures.len(), 18, "one per scale row");
    let _ = std::fs::remove_file(&path);

    // A figures report from a host with another core count (a `1` put in
    // front of the committed one) still intersects row for row.
    let figures = std::fs::read_to_string(committed(&report::FIGURES)).expect("committed");
    let other_host = figures.replacen("\"workers\": ", "\"workers\": 1", 1);
    assert_ne!(figures, other_host);
    let path = temp_file("other_host", &other_host);
    let (code, verdict) = bench_diff(&committed(&report::FIGURES), &path);
    assert_eq!(code, Some(0), "{verdict:?}");
    assert!(verdict.get("compared").and_then(Value::as_f64) >= Some(80.0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sentinel_check_exits_1_when_the_grids_share_no_cell() {
    // A smoke grid disjoint from the committed one (every N prefixed with a
    // 9) shares the `schema` header and nothing else: nothing was compared.
    let spec = &report::SCALE;
    let good = std::fs::read_to_string(committed(spec)).expect("committed");
    let disjoint = good
        .replace("\"mode\": \"full\"", "\"mode\": \"smoke\"")
        .replace("{\"n\": ", "{\"n\": 9");
    assert_eq!(
        spec.check(&disjoint),
        Vec::<String>::new(),
        "a valid report"
    );
    let path = temp_file("disjoint_grid", &disjoint);
    let (code, verdict) = bench_diff(&committed(spec), &path);
    assert_eq!(code, Some(1), "{verdict:?}");
    assert_eq!(verdict.get("compared"), Some(&Value::Num(0.0)));
    assert_eq!(
        verdict.get("failures").and_then(Value::as_arr),
        Some(&[][..])
    );
    let _ = std::fs::remove_file(&path);
}
