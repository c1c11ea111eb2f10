//! Report sentinel: compares a freshly generated `BENCH_*.json` against a
//! committed baseline and emits a machine-readable verdict.
//!
//! What each key means comes from the report's [`Spec`], looked up by
//! the `schema` string both reports must share — never from the key's
//! name. The two reports are flattened into `(path, leaf)` rows. An
//! object's [`Kind::Id`] keys (`n`, `d`, `joins`, `kind`, …) become a
//! sorted `[k=v,…]` coordinate on its path instead of a positional index,
//! so a row matches its counterpart by *what it describes*, not by where
//! it sat in an array — a smoke-mode grid and a full-mode grid intersect
//! exactly on the cells they share, and cells unique to one side are
//! counted (`only_baseline` / `only_candidate`) but never fail the diff.
//!
//! Matched leaves must be **equal**. Every row of every report is a
//! deterministic fact (a count, a byte total, a depth, a digest), so any
//! difference means the program's output changed. There is no tolerance
//! to tune and no direction to get wrong; speed is not a report row (the
//! repository benchmark gates it).
//!
//! A diff that compared nothing proves nothing, so zero matched rows is
//! a `fail` verdict, as is any unequal row. The `schema`/`mode` header is
//! not a row: both reports must carry the same schema before anything is
//! compared, so two grids that share no cell compare nothing. The verdict
//! JSON (`bench_diff/v2`) lists every failure with both values; `--check`
//! turns a `fail` into a non-zero exit for CI.
//!
//! Flags: `--baseline PATH --candidate PATH [--out PATH] [--check]`.

use bench::jsonv::{parse, Value};
use bench::report::{render, Args, Kind, Row, Spec};
use obs::json::JsonWriter;

const SCHEMA: &str = "bench_diff/v2";

struct Failure {
    path: String,
    baseline: String,
    candidate: String,
}

struct Diff {
    compared: usize,
    only_baseline: usize,
    only_candidate: usize,
    failures: Vec<Failure>,
}

impl Diff {
    /// `pass` only when something was compared and all of it was equal.
    fn verdict(&self) -> &'static str {
        if self.compared > 0 && self.failures.is_empty() {
            "pass"
        } else {
            "fail"
        }
    }
}

fn diff(spec: &Spec, baseline: &Value, candidate: &Value) -> Result<Diff, String> {
    // Identity keys are the coordinates, not rows to compare.
    let compared_rows = |doc| -> Result<Vec<Row>, String> {
        let mut rows = spec.rows(doc)?;
        rows.retain(|row| row.kind == Kind::Exact);
        Ok(rows)
    };
    let base_rows = compared_rows(baseline)?;
    let cand_rows = compared_rows(candidate)?;

    let mut consumed = vec![false; cand_rows.len()];
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for base in &base_rows {
        let found = cand_rows
            .iter()
            .enumerate()
            .find(|(i, row)| !consumed[*i] && row.path == base.path);
        let Some((idx, cand)) = found else {
            continue;
        };
        consumed[idx] = true;
        compared += 1;
        if base.leaf != cand.leaf {
            failures.push(Failure {
                path: base.path.clone(),
                baseline: render(base.leaf),
                candidate: render(cand.leaf),
            });
        }
    }
    let only_candidate = consumed.iter().filter(|c| !**c).count();
    Ok(Diff {
        compared,
        only_baseline: base_rows.len() - compared,
        only_candidate,
        failures,
    })
}

fn render_verdict(d: &Diff, baseline: &str, candidate: &str) -> String {
    let mut w = JsonWriter::new();
    w.line_per_element(2);
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_str("baseline", baseline);
    w.field_str("candidate", candidate);
    for (key, count) in [
        ("compared", d.compared),
        ("matched", d.compared - d.failures.len()),
        ("only_baseline", d.only_baseline),
        ("only_candidate", d.only_candidate),
    ] {
        w.field_u64(key, count as u64);
    }
    w.key("failures");
    w.begin_array();
    for f in &d.failures {
        w.begin_object();
        w.field_str("path", &f.path);
        w.field_str("baseline", &f.baseline);
        w.field_str("candidate", &f.candidate);
        w.end_object();
    }
    w.end_array();
    w.field_str("verdict", d.verdict());
    w.end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

fn fail(code: i32, msg: String) -> ! {
    eprintln!("bench_diff: {msg}");
    std::process::exit(code)
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(1, format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| fail(1, format!("{path}: {e}")))
}

fn main() {
    let args = Args::parse(&["--baseline", "--candidate", "--out"], &["--check"]);
    let (Some(base_path), Some(cand_path)) = (args.value("--baseline"), args.value("--candidate"))
    else {
        fail(
            2,
            "--baseline and --candidate are both required".to_string(),
        );
    };

    let base = load(&base_path);
    let cand = load(&cand_path);
    let Some(spec) = Spec::of(&base) else {
        fail(1, format!("{base_path}: no known BENCH schema"));
    };
    if Spec::of(&cand).map(|other| other.schema) != Some(spec.schema) {
        fail(1, format!("{cand_path}: schema is not {}", spec.schema));
    }
    let d = diff(spec, &base, &cand).unwrap_or_else(|e| fail(1, e));
    let verdict = render_verdict(&d, &base_path, &cand_path);
    if let Some(path) = args.value("--out") {
        std::fs::write(&path, &verdict)
            .unwrap_or_else(|e| fail(1, format!("cannot write {path}: {e}")));
        println!("bench_diff verdict: {}", d.verdict());
    } else {
        print!("{verdict}");
    }

    eprintln!(
        "bench_diff: {} vs {}: {} compared, {} differ \
         ({} baseline-only, {} candidate-only rows)",
        base_path,
        cand_path,
        d.compared,
        d.failures.len(),
        d.only_baseline,
        d.only_candidate,
    );
    for f in &d.failures {
        eprintln!(
            "  FAIL {}: baseline {} vs candidate {}",
            f.path, f.baseline, f.candidate,
        );
    }
    if d.compared == 0 {
        eprintln!("  FAIL: the reports share no row, so nothing was compared");
    }
    if args.switch("--check") && d.verdict() == "fail" {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::report::SCALE;

    fn run(spec: &Spec, base: &str, cand: &str) -> Diff {
        let (base, cand) = (parse(base).expect("parse"), parse(cand).expect("parse"));
        diff(spec, &base, &cand).expect("every key classified")
    }

    #[test]
    fn coordinates_replace_indices_and_the_header_is_no_row() {
        let doc = parse(
            "{\"schema\": \"bench_scale/v5\", \"mode\": \"full\", \"scale\": [\
             {\"n\": 4, \"d\": 2, \"encryptions\": 1}, {\"d\": 2, \"n\": 8, \"encryptions\": 2}]}",
        )
        .expect("parse");
        let rows = SCALE.rows(&doc).expect("every key classified");
        let compared = rows.iter().filter(|r| r.kind == Kind::Exact);
        let paths: Vec<&str> = compared.map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["scale[d=2,n=4].encryptions", "scale[d=2,n=8].encryptions"]
        );
    }

    #[test]
    fn a_key_outside_the_column_table_is_an_error() {
        let doc = parse("{\"scale\": [{\"n\": 4, \"surprise_ms\": 1.0}]}").expect("parse");
        let err = SCALE.rows(&doc).err().expect("unclassified");
        assert!(err.contains("scale.surprise_ms"), "{err}");
    }

    #[test]
    fn any_difference_in_a_matched_row_fails() {
        let row = |enc: u32, bytes: &str| {
            format!(
                "{{\"scale\": [{{\"n\": 4, \"encryptions\": {enc}, \
                 \"resident_bytes_per_node\": {bytes}}}]}}"
            )
        };
        let d = run(&SCALE, &row(940, "27.000"), &row(941, "27.000"));
        assert_eq!(d.compared, 2);
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].path, "scale[n=4].encryptions");
        assert_eq!(d.verdict(), "fail");
        // No direction is an improvement: fewer bytes is a difference too.
        let d = run(&SCALE, &row(940, "27.000"), &row(940, "26.999"));
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].path, "scale[n=4].resident_bytes_per_node");
    }

    #[test]
    fn an_empty_intersection_is_a_failure() {
        // The shared header is no intersection.
        let row = |n: u32| {
            format!(
                "{{\"schema\": \"bench_scale/v5\", \"mode\": \"smoke\", \
                 \"scale\": [{{\"n\": {n}, \"encryptions\": 1}}]}}"
            )
        };
        let d = run(&SCALE, &row(4), &row(8));
        assert_eq!((d.compared, d.only_baseline, d.only_candidate), (0, 1, 1));
        assert!(d.failures.is_empty());
        assert_eq!(d.verdict(), "fail");
    }
}
