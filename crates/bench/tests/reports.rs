//! The three committed `BENCH_*.json` reports against their `Spec`s, the
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

/// The bytes of the scalar that follows the `"key": ` starting at `key_at`.
fn value_range(text: &str, key_at: usize, key: &str) -> std::ops::Range<usize> {
    let start = key_at + key.len() + 4;
    start..start + text[start..].find([',', '\n', '}']).expect("value ends")
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

        // A ratio that was not finite is written as null.
        let (column, _) = spec.columns.last().expect("columns");
        let key = column.rsplit('.').next().expect("key");
        let key_at = text.rfind(&format!("\"{key}\": ")).expect("key present");
        let value = value_range(&text, key_at, key);
        let nulled = format!("{}null{}", &text[..value.start], &text[value.end..]);
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
    for (n, bytes) in [(1024u64, 27.125), (4096, f64::INFINITY)] {
        w.begin_object();
        w.field_u64("n", n);
        w.field_u64("encryptions", 940);
        report::ratio(&mut w, "resident_bytes_per_node", bytes);
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
        Some("bench_scale/v5")
    );
    assert_eq!(doc.get("mode").and_then(Value::as_str), Some("smoke"));
    let rows = doc.get("scale").and_then(Value::as_arr).expect("rows");
    assert_eq!(rows[0].get("n"), Some(&Value::Num(1024.0)));
    assert_eq!(rows[0].get("encryptions"), Some(&Value::Num(940.0)));
    assert_eq!(
        rows[0].get("resident_bytes_per_node"),
        Some(&Value::Num(27.125))
    );
    // Not finite: null, which no check accepts.
    assert_eq!(rows[1].get("resident_bytes_per_node"), Some(&Value::Null));
    let problems = report::SCALE.check(&text);
    assert!(
        problems
            .iter()
            .any(|p| p == "scale[n=4096].resident_bytes_per_node is null"),
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
    let bench_scale = env!("CARGO_BIN_EXE_bench_scale");
    let good = std::fs::read_to_string(committed(&report::SCALE)).expect("committed");
    assert_eq!(
        check_exit(bench_scale, &committed(&report::SCALE)).0,
        Some(0)
    );
    let without_acceptance_row: String = good
        .lines()
        .filter(|line| !line.contains("\"n\": 1048576, \"d\": 8, \"joins\": 64,"))
        .flat_map(|line| [line, "\n"])
        .collect();
    assert_ne!(good, without_acceptance_row);
    let cases = [
        ("truncated", good[..good.len() / 2].to_string()),
        // Balanced braces, not JSON: the old brace counter accepted this.
        ("not_json", "{\"a\": }".to_string()),
        (
            "wrong_version",
            good.replace("bench_scale/v5", "bench_scale/v4"),
        ),
        // A full-mode grid that stops short of the million-user cell.
        ("no_acceptance_row", without_acceptance_row),
    ];
    for (tag, text) in cases {
        let path = temp_file(tag, &text);
        let (code, stderr) = check_exit(bench_scale, &path);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(stderr.contains("BENCH check FAILED"), "{tag}: {stderr}");
        let _ = std::fs::remove_file(&path);
    }
    // Another report's file is the wrong schema, and a missing file fails.
    let (code, stderr) = check_exit(bench_scale, &committed(&report::CHURN));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("schema is not bench_scale/v5"), "{stderr}");
    assert_eq!(
        check_exit(bench_scale, &PathBuf::from("/no/such/report")).0,
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
        // BENCH_scale.json has the fewest: two facts for each of 18 cells.
        assert!(count("compared") >= 36.0, "{}: {verdict:?}", spec.file);
        assert_eq!(
            count("only_baseline") + count("only_candidate"),
            0.0,
            "{}",
            spec.file
        );
    }
}

/// The committed report with the last character of the first `key` value
/// swapped for another digit, diffed against the original: the exit code
/// and the paths that failed.
fn diff_after_changing_one_character(spec: &Spec, key: &str) -> (Option<i32>, Vec<String>) {
    let good = std::fs::read_to_string(committed(spec)).expect("committed");
    let key_at = good.find(&format!("\"{key}\": ")).expect("key present");
    let value = value_range(&good, key_at, key);
    let digit = good[value.clone()].rfind(|c: char| c.is_ascii_alphanumeric());
    let at = value.start + digit.expect("a digit");
    let swapped = if &good[at..=at] == "0" { "1" } else { "0" };
    let edited = format!("{}{swapped}{}", &good[..at], &good[at + 1..]);
    assert_eq!(
        spec.check(&edited),
        Vec::<String>::new(),
        "still a valid report"
    );
    let path = temp_file(key, &edited);
    let (code, verdict) = bench_diff(&committed(spec), &path);
    let _ = std::fs::remove_file(&path);
    let failures = verdict.get("failures").and_then(Value::as_arr);
    let path_of = |f: &Value| f.get("path").and_then(Value::as_str).map(str::to_string);
    let paths = failures.expect("failures").iter().filter_map(path_of);
    (code, paths.collect())
}

#[test]
fn sentinel_check_exits_1_on_one_changed_character_of_a_figure_digest() {
    let (code, failed) = diff_after_changing_one_character(&report::FIGURES, "digest");
    assert_eq!(code, Some(1), "{failed:?}");
    assert_eq!(failed, ["figures[name=fig06].digest"]);
}

#[test]
fn sentinel_check_exits_1_on_the_last_digit_of_a_ratio() {
    // No band: a byte-per-node or encryptions-per-member figure that moved
    // in its third decimal is a changed output, in either direction.
    for (spec, key, path) in [
        (
            &report::SCALE,
            "resident_bytes_per_node",
            "scale[d=4,joins=64,leaves=64,n=16384].resident_bytes_per_node",
        ),
        (
            &report::CHURN,
            "enc_per_member_mean",
            "churn[compaction=false,d=4,intervals=256,kind=flash_crowd,n=1024].enc_per_member_mean",
        ),
    ] {
        let (code, failed) = diff_after_changing_one_character(spec, key);
        assert_eq!(code, Some(1), "{key}: {failed:?}");
        assert_eq!(failed, [path], "{key}");
    }
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
