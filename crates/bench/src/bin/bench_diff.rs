//! Bench regression sentinel: compares a freshly generated `BENCH_*.json`
//! against a committed baseline and emits a machine-readable verdict.
//!
//! What each key means comes from the report's [`Spec`], looked up by
//! the `schema` string both reports must share — never from the key's
//! name. The two reports are flattened into `(path, leaf)` rows. An
//! object's [`Kind::Id`] keys (`n`, `d`, `joins`, `kind`, …) become a
//! sorted `[k=v,…]` coordinate on its path instead of a positional index,
//! so a row matches its counterpart by *what it measured*, not by where
//! it sat in an array — a smoke-mode grid and a full-mode grid intersect
//! exactly on the cells they share, and cells unique to one side are
//! counted (`only_baseline` / `only_candidate`) but never fail the diff.
//! [`Kind::Context`] keys (`mode`, the host's worker count, …) are
//! dropped.
//!
//! Matched leaves compare under one of two rules:
//!
//! * **band** — [`Kind::Lower`] / [`Kind::Higher`] measurements: fail
//!   only when the candidate has *worsened* past a multiplicative band
//!   (default 3×, `--band` overrides) plus an absolute floor of 1.0 that
//!   keeps sub-unit measurements from failing on noise. Latency may grow
//!   to `band × baseline`, throughput may shrink to `baseline / band`.
//!   Improvements never fail — they are counted (`improved`) so a stale
//!   baseline is visible without blocking CI.
//! * **exact** — [`Kind::Exact`] keys (counts, digests, byte totals,
//!   booleans): any difference is a failure. These are the determinism
//!   sentinels — a changed `digest` or `bytes_on_wire_total` means the
//!   datapath's output changed, not its speed.
//!
//! A diff that compared nothing proves nothing, so zero matched rows is
//! a `fail` verdict, as is any failed row. The `schema` header is not a
//! row: both reports must carry the same one before anything is compared,
//! so two grids that share no cell compare nothing. The verdict JSON
//! (`bench_diff/v1`) lists every failure with its rule and both values;
//! `--check` turns a `fail` into a non-zero exit for CI.
//!
//! Flags: `--baseline PATH --candidate PATH [--out PATH] [--band RATIO]
//! [--check]`.

use bench::jsonv::{parse, Value};
use bench::report::{render, Args, Kind, Row, Spec};
use obs::json::JsonWriter;

const SCHEMA: &str = "bench_diff/v1";
const DEFAULT_BAND: f64 = 3.0;
const ABS_FLOOR: f64 = 1.0;

/// Whether `cand` regressed past the band against `base` in the key's
/// direction. The bound is the multiplicative ratio — latency may grow
/// to `band × base`, throughput may shrink to `base / band` — plus the
/// absolute floor, expressed additively so a negative baseline still
/// gets a sane allowance.
fn regressed(base: f64, cand: f64, higher_is_better: bool, band: f64) -> bool {
    if higher_is_better {
        base - cand > ABS_FLOOR + (band - 1.0) / band * base.abs()
    } else {
        cand - base > ABS_FLOOR + (band - 1.0) * base.abs()
    }
}

struct Failure {
    path: String,
    rule: &'static str,
    baseline: String,
    candidate: String,
}

struct Diff {
    compared: usize,
    matched: usize,
    /// Banded rows where the candidate beat the baseline by more than
    /// the band — the baseline is stale, not broken.
    improved: usize,
    only_baseline: usize,
    only_candidate: usize,
    failures: Vec<Failure>,
}

impl Diff {
    /// `pass` only when something was compared and none of it failed.
    fn verdict(&self) -> &'static str {
        if self.compared > 0 && self.failures.is_empty() {
            "pass"
        } else {
            "fail"
        }
    }
}

fn diff(spec: &Spec, baseline: &Value, candidate: &Value, band: f64) -> Result<Diff, String> {
    // Identity keys are the coordinates, context keys describe the run
    // and the schema string is what chose `spec`: none is a row to compare.
    let compared_rows = |doc| -> Result<Vec<Row>, String> {
        let mut rows = spec.rows(doc)?;
        rows.retain(|row| !matches!(row.kind, Kind::Id | Kind::Context) && row.column != "schema");
        Ok(rows)
    };
    let base_rows = compared_rows(baseline)?;
    let cand_rows = compared_rows(candidate)?;

    let mut consumed = vec![false; cand_rows.len()];
    let mut compared = 0usize;
    let mut improved = 0usize;
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
        let banded = match (base.kind, base.leaf, cand.leaf) {
            (Kind::Lower, Value::Num(a), Value::Num(b)) => Some((*a, *b, false)),
            (Kind::Higher, Value::Num(a), Value::Num(b)) => Some((*a, *b, true)),
            _ => None,
        };
        let (rule, ok) = match banded {
            Some((a, b, higher_is_better)) => {
                // An improvement past the band is the regression check
                // with the roles swapped: the baseline is stale.
                if regressed(b, a, higher_is_better, band) {
                    improved += 1;
                }
                ("band", !regressed(a, b, higher_is_better, band))
            }
            None => ("exact", base.leaf == cand.leaf),
        };
        if !ok {
            failures.push(Failure {
                path: base.path.clone(),
                rule,
                baseline: render(base.leaf),
                candidate: render(cand.leaf),
            });
        }
    }
    let only_candidate = consumed.iter().filter(|c| !**c).count();
    Ok(Diff {
        compared,
        matched: compared - failures.len(),
        improved,
        only_baseline: base_rows.len() - compared,
        only_candidate,
        failures,
    })
}

fn render_verdict(d: &Diff, baseline: &str, candidate: &str, band: f64) -> String {
    let mut w = JsonWriter::new();
    w.line_per_element(2);
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_str("baseline", baseline);
    w.field_str("candidate", candidate);
    w.field_f64("band", band, 1);
    for (key, count) in [
        ("compared", d.compared),
        ("matched", d.matched),
        ("improved", d.improved),
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
        w.field_str("rule", f.rule);
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
    let args = Args::parse(
        &["--baseline", "--candidate", "--out", "--band"],
        &["--check"],
    );
    let (Some(base_path), Some(cand_path)) = (args.value("--baseline"), args.value("--candidate"))
    else {
        fail(
            2,
            "--baseline and --candidate are both required".to_string(),
        );
    };
    let band = match args.value("--band").map(|b| b.parse::<f64>()) {
        None => DEFAULT_BAND,
        Some(Ok(band)) if band >= 1.0 => band,
        Some(_) => fail(2, "--band must be a number >= 1".to_string()),
    };

    let base = load(&base_path);
    let cand = load(&cand_path);
    let Some(spec) = Spec::of(&base) else {
        fail(1, format!("{base_path}: no known BENCH schema"));
    };
    if Spec::of(&cand).map(|other| other.schema) != Some(spec.schema) {
        fail(1, format!("{cand_path}: schema is not {}", spec.schema));
    }
    let d = diff(spec, &base, &cand, band).unwrap_or_else(|e| fail(1, e));
    let verdict = render_verdict(&d, &base_path, &cand_path, band);
    if let Some(path) = args.value("--out") {
        std::fs::write(&path, &verdict)
            .unwrap_or_else(|e| fail(1, format!("cannot write {path}: {e}")));
        println!("bench_diff verdict: {}", d.verdict());
    } else {
        print!("{verdict}");
    }

    eprintln!(
        "bench_diff: {} vs {}: {} compared, {} matched, {} improved, {} failures \
         ({} baseline-only, {} candidate-only rows)",
        base_path,
        cand_path,
        d.compared,
        d.matched,
        d.improved,
        d.failures.len(),
        d.only_baseline,
        d.only_candidate,
    );
    for f in &d.failures {
        eprintln!(
            "  FAIL [{}] {}: baseline {} vs candidate {}",
            f.rule, f.path, f.baseline, f.candidate,
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
    use bench::report::{FIGURES, SCALE};

    fn run(spec: &Spec, base: &str, cand: &str) -> Diff {
        let (base, cand) = (parse(base).expect("parse"), parse(cand).expect("parse"));
        diff(spec, &base, &cand, 3.0).expect("every key classified")
    }

    fn paths(spec: &Spec, text: &str) -> Vec<String> {
        let doc = parse(text).expect("parse");
        let rows = spec.rows(&doc).expect("every key classified");
        let compared = rows
            .iter()
            .filter(|r| !matches!(r.kind, Kind::Id | Kind::Context));
        compared.map(|r| r.path.clone()).collect()
    }

    #[test]
    fn coordinates_replace_indices_and_context_keys_vanish() {
        let got = paths(
            &SCALE,
            "{\"mode\": \"full\", \"scale\": [\
             {\"n\": 4, \"d\": 2, \"plan_ms\": 1.0}, {\"d\": 2, \"n\": 8, \"plan_ms\": 2.0}]}",
        );
        assert_eq!(
            got,
            vec!["scale[d=2,n=4].plan_ms", "scale[d=2,n=8].plan_ms"]
        );
    }

    #[test]
    fn a_key_outside_the_column_table_is_an_error() {
        let doc = parse("{\"scale\": [{\"n\": 4, \"surprise_ms\": 1.0}]}").expect("parse");
        let err = SCALE.rows(&doc).err().expect("unclassified");
        assert!(err.contains("scale.surprise_ms"), "{err}");
    }

    #[test]
    fn band_rule_fails_only_on_regressions() {
        let slow_ok = |base: f64, cand: f64| !regressed(base, cand, false, 3.0);
        // Latency: 3x slower passes (plus the floor), beyond fails,
        // faster is always free.
        assert!(slow_ok(10.0, 30.0));
        assert!(!slow_ok(10.0, 35.0));
        assert!(slow_ok(10.0, 0.001));
        // Sub-unit noise rides the absolute floor.
        assert!(slow_ok(0.001, 0.9));
        // Sign-safe: a negative baseline drifting positive.
        assert!(slow_ok(-0.4, 0.4));
        // Throughput: lower is the regression direction, bounded at
        // base / band (a 3x drop passes, an 11x drop fails).
        let fast_ok = |base: f64, cand: f64| !regressed(base, cand, true, 3.0);
        assert!(fast_ok(9000.0, 3000.0));
        assert!(!fast_ok(9000.0, 800.0));
        assert!(fast_ok(9000.0, 90000.0));
    }

    #[test]
    fn direction_comes_from_the_column_table_not_the_name() {
        // `bytes_reduction_pct` ends in `_pct` but higher is better:
        // losing the whole SoA saving is a failure, not an improvement.
        let row = |pct: &str| {
            format!(
                "{{\"scale\": [{{\"n\": 4, \"bytes_reduction_pct\": {pct}, \"plan_ms\": 9.0}}]}}"
            )
        };
        let d = run(&SCALE, &row("28.0"), &row("0.0"));
        assert_eq!(d.improved, 0);
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].path, "scale[n=4].bytes_reduction_pct");
        assert_eq!(d.failures[0].rule, "band");
        assert_eq!(d.verdict(), "fail");
        // And the other way round it is the improvement.
        let d = run(&SCALE, &row("0.0"), &row("28.0"));
        assert_eq!((d.improved, d.failures.len()), (1, 0));
    }

    #[test]
    fn diff_flags_exact_mismatches_and_tolerates_banded_drift() {
        let row = |enc: u32, ms: f64| {
            format!("{{\"scale\": [{{\"n\": 4, \"encryptions\": {enc}, \"plan_ms\": {ms}}}]}}")
        };
        let d = run(&SCALE, &row(940, 10.0), &row(941, 25.0));
        assert_eq!(d.compared, 2);
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].path, "scale[n=4].encryptions");
        assert_eq!(d.failures[0].rule, "exact");
    }

    #[test]
    fn host_worker_count_does_not_split_figures_reports() {
        let report = |workers: u32| {
            format!(
                "{{\"schema\": \"bench_figures/v1\", \"mode\": \"full\", \"workers\": {workers}, \
                 \"figures\": [{{\"name\": \"fig06\", \"serial_ms\": 10.0, \
                 \"byte_identical\": true}}]}}"
            )
        };
        let d = run(&FIGURES, &report(1), &report(2));
        assert_eq!((d.compared, d.only_baseline, d.only_candidate), (2, 0, 0));
        assert_eq!(d.verdict(), "pass");
    }

    #[test]
    fn an_empty_intersection_is_a_failure() {
        // The shared header is no intersection.
        let row = |n: u32| {
            format!(
                "{{\"schema\": \"bench_scale/v4\", \"mode\": \"smoke\", \
                 \"scale\": [{{\"n\": {n}, \"plan_ms\": 1.0}}]}}"
            )
        };
        let d = run(&SCALE, &row(4), &row(8));
        assert_eq!((d.compared, d.only_baseline, d.only_candidate), (0, 1, 1));
        assert!(d.failures.is_empty());
        assert_eq!(d.verdict(), "fail");
    }
}
