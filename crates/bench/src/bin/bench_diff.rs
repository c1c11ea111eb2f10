//! Bench regression sentinel: compares a freshly generated `BENCH_*.json`
//! against a committed baseline and emits a machine-readable verdict.
//!
//! The two reports are flattened into `(path, leaf)` rows. Objects that
//! carry identity keys (`n`, `d`, `joins`, `kind`, `workers`, …) get a
//! sorted `[k=v,…]` coordinate appended to their path instead of a
//! positional index, so a row matches its counterpart by *what it
//! measured*, not by where it sat in an array — a smoke-mode grid and a
//! full-mode grid intersect exactly on the cells they share, and cells
//! unique to one side are counted (`only_baseline` / `only_candidate`)
//! but never fail the diff.
//!
//! Matched leaves compare under one of two rules, chosen by key name:
//!
//! * **band** — timing/throughput keys (`*_ms`, `*_ns`, `*_pct`,
//!   `*_pps`, `*_mbps`, or containing `wall`/`speedup`/`overhead`/
//!   `per_sec`/`busy`): fail only when the candidate has *worsened*
//!   past a multiplicative band (default 3×, `--band` overrides) plus
//!   an absolute floor of 1.0 that keeps sub-unit measurements from
//!   failing on noise. Worsening reads in the key's regression
//!   direction — latency (`*_ms`/`*_ns`) may grow to `band × baseline`,
//!   throughput/speedup may shrink to `baseline / band`. Improvements
//!   never fail — they are counted (`improved`) so a stale baseline is
//!   visible without blocking CI.
//! * **exact** — everything else (counts, digests, byte totals, booleans,
//!   schema strings): any difference is a failure. These are the
//!   determinism sentinels — a changed `digest` or `bytes_on_wire_total`
//!   means the datapath's output changed, not its speed.
//!
//! `mode` and the documented-jitter keys (`overlapped`, `overlap_pct`)
//! are ignored. The verdict JSON (`bench_diff/v1`) lists every failure
//! with its rule and both values; `--check` turns failures into a
//! non-zero exit for CI.
//!
//! Flags: `--baseline PATH --candidate PATH [--out PATH] [--band RATIO]
//! [--check]`.

use bench::jsonv::{parse, Value};

const SCHEMA: &str = "bench_diff/v1";
const DEFAULT_BAND: f64 = 3.0;
const ABS_FLOOR: f64 = 1.0;

/// Scalar fields that identify a row rather than measure it: they become
/// path coordinates and are excluded from leaf comparison.
const ID_KEYS: [&str; 14] = [
    "kind",
    "n",
    "d",
    "joins",
    "leaves",
    "compaction",
    "workers",
    "intervals",
    "name",
    "figure",
    "id",
    "k",
    "packet_len",
    "erasures",
];

/// Keys excluded from comparison entirely: `mode` distinguishes smoke
/// from full on purpose, and the overlap columns are documented in
/// `bench_scale` as scheduling jitter, not gated properties.
const IGNORED_KEYS: [&str; 3] = ["mode", "overlapped", "overlap_pct"];

#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl Leaf {
    fn render(&self) -> String {
        match self {
            Leaf::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{n:.0}")
                } else {
                    format!("{n}")
                }
            }
            Leaf::Str(s) => s.clone(),
            Leaf::Bool(b) => b.to_string(),
            Leaf::Null => "null".to_string(),
        }
    }
}

fn scalar(value: &Value) -> Option<Leaf> {
    match value {
        Value::Num(n) => Some(Leaf::Num(*n)),
        Value::Str(s) => Some(Leaf::Str(s.clone())),
        Value::Bool(b) => Some(Leaf::Bool(*b)),
        Value::Null => Some(Leaf::Null),
        Value::Arr(_) | Value::Obj(_) => None,
    }
}

/// The `[k=v,…]` coordinate for an object, from its scalar identity
/// fields, sorted by key so source order never affects matching.
fn coordinate(fields: &[(String, Value)]) -> String {
    let mut ids: Vec<(String, String)> = fields
        .iter()
        .filter(|(k, _)| ID_KEYS.contains(&k.as_str()))
        .filter_map(|(k, v)| scalar(v).map(|leaf| (k.clone(), leaf.render())))
        .collect();
    if ids.is_empty() {
        return String::new();
    }
    ids.sort();
    let parts: Vec<String> = ids.into_iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("[{}]", parts.join(","))
}

fn flatten(value: &Value, path: &str, rows: &mut Vec<(String, Leaf)>) {
    match value {
        Value::Obj(fields) => {
            let here = format!("{path}{}", coordinate(fields));
            for (key, child) in fields {
                if IGNORED_KEYS.contains(&key.as_str()) {
                    continue;
                }
                if ID_KEYS.contains(&key.as_str()) && scalar(child).is_some() {
                    continue; // consumed as a coordinate
                }
                let child_path = if here.is_empty() {
                    key.clone()
                } else {
                    format!("{here}.{key}")
                };
                flatten(child, &child_path, rows);
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                // Rows with identity coordinates match by coordinate, not
                // position; everything else keeps its index.
                let coordinated =
                    matches!(item, Value::Obj(fields) if !coordinate(fields).is_empty());
                let child_path = if coordinated {
                    path.to_string()
                } else {
                    format!("{path}[{i}]")
                };
                flatten(item, &child_path, rows);
            }
        }
        _ => {
            if let Some(leaf) = scalar(value) {
                rows.push((path.to_string(), leaf));
            }
        }
    }
}

/// How the regression direction reads for a timing/throughput key:
/// `Some(true)` when higher is better (throughput, speedup),
/// `Some(false)` when lower is better (latency, overhead), `None` for
/// deterministic keys that compare exactly.
fn timing_direction(path: &str) -> Option<bool> {
    let key = path.rsplit('.').next().unwrap_or(path);
    let key = key.split('[').next().unwrap_or(key);
    const HIGHER: [&str; 4] = ["_pps", "_mbps", "per_sec", "speedup"];
    const LOWER_SUFFIX: [&str; 3] = ["_ms", "_ns", "_pct"];
    const LOWER_MARKER: [&str; 3] = ["wall", "overhead", "busy"];
    if HIGHER.iter().any(|m| key.ends_with(m) || key.contains(m)) {
        return Some(true);
    }
    if LOWER_SUFFIX.iter().any(|s| key.ends_with(s)) || LOWER_MARKER.iter().any(|m| key.contains(m))
    {
        return Some(false);
    }
    None
}

/// Whether `cand` regressed past the band against `base` in the key's
/// direction. The bound is the multiplicative ratio — latency may grow
/// to `band × base`, throughput may shrink to `base / band` — plus the
/// absolute floor, expressed additively so a negative baseline
/// (e.g. a negative `overhead_pct`) still gets a sane allowance.
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
    baseline: Leaf,
    candidate: Leaf,
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

fn diff(baseline: &Value, candidate: &Value, band: f64) -> Diff {
    let mut base_rows = Vec::new();
    let mut cand_rows = Vec::new();
    flatten(baseline, "", &mut base_rows);
    flatten(candidate, "", &mut cand_rows);

    let mut consumed = vec![false; cand_rows.len()];
    let mut compared = 0usize;
    let mut matched = 0usize;
    let mut improved = 0usize;
    let mut failures = Vec::new();
    for (path, base_leaf) in &base_rows {
        let found = cand_rows
            .iter()
            .enumerate()
            .find(|(i, (p, _))| !consumed[*i] && p == path);
        let Some((idx, (_, cand_leaf))) = found else {
            continue;
        };
        consumed[idx] = true;
        compared += 1;
        let banded = match (base_leaf, cand_leaf) {
            (Leaf::Num(a), Leaf::Num(b)) => timing_direction(path).map(|dir| (*a, *b, dir)),
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
            None => ("exact", base_leaf == cand_leaf),
        };
        if ok {
            matched += 1;
        } else {
            failures.push(Failure {
                path: path.clone(),
                rule,
                baseline: base_leaf.clone(),
                candidate: cand_leaf.clone(),
            });
        }
    }
    let only_candidate = consumed.iter().filter(|c| !**c).count();
    Diff {
        compared,
        matched,
        improved,
        only_baseline: base_rows.len() - compared,
        only_candidate,
        failures,
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_verdict(d: &Diff, baseline: &str, candidate: &str, band: f64) -> String {
    let failures: Vec<String> = d
        .failures
        .iter()
        .map(|f| {
            format!(
                "    {{\"path\": \"{}\", \"rule\": \"{}\", \"baseline\": \"{}\", \
                 \"candidate\": \"{}\"}}",
                escape(&f.path),
                f.rule,
                escape(&f.baseline.render()),
                escape(&f.candidate.render()),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"baseline\": \"{}\",\n  \
         \"candidate\": \"{}\",\n  \"band\": {band:.1},\n  \"compared\": {},\n  \
         \"matched\": {},\n  \"improved\": {},\n  \"only_baseline\": {},\n  \
         \"only_candidate\": {},\n  \
         \"failures\": [\n{}\n  ],\n  \"verdict\": \"{}\"\n}}\n",
        escape(baseline),
        escape(candidate),
        d.compared,
        d.matched,
        d.improved,
        d.only_baseline,
        d.only_candidate,
        failures.join(",\n"),
        if d.failures.is_empty() {
            "pass"
        } else {
            "fail"
        },
    )
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(1);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut band = DEFAULT_BAND;
    let mut check = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a path")),
            "--candidate" => candidate = Some(it.next().expect("--candidate needs a path")),
            "--out" => out_path = Some(it.next().expect("--out needs a path")),
            "--band" => {
                band = it
                    .next()
                    .expect("--band needs a ratio")
                    .parse()
                    .expect("--band must be a number >= 1");
            }
            "--check" => check = true,
            other => {
                eprintln!(
                    "unknown flag {other}; use --baseline PATH --candidate PATH \
                     [--out PATH] [--band RATIO] [--check]"
                );
                std::process::exit(2);
            }
        }
    }
    let (Some(base_path), Some(cand_path)) = (baseline, candidate) else {
        eprintln!("bench_diff: --baseline and --candidate are both required");
        std::process::exit(2);
    };
    if band < 1.0 {
        eprintln!("bench_diff: --band must be >= 1");
        std::process::exit(2);
    }

    let base = load(&base_path);
    let cand = load(&cand_path);
    let d = diff(&base, &cand, band);
    let verdict = render_verdict(&d, &base_path, &cand_path, band);
    if let Some(path) = &out_path {
        std::fs::write(path, &verdict).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot write {path}: {e}");
            std::process::exit(1);
        });
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
            f.rule,
            f.path,
            f.baseline.render(),
            f.candidate.render(),
        );
    }
    if out_path.is_none() {
        print!("{verdict}");
    } else {
        println!(
            "bench_diff verdict: {}",
            if d.failures.is_empty() {
                "pass"
            } else {
                "fail"
            }
        );
    }
    if check && !d.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(text: &str) -> Vec<(String, Leaf)> {
        let mut out = Vec::new();
        flatten(&parse(text).expect("parse"), "", &mut out);
        out
    }

    #[test]
    fn coordinates_replace_indices_for_identified_rows() {
        let got = rows(
            "{\"scale\": [{\"n\": 4, \"d\": 2, \"wall_ms\": 1.0}, \
             {\"n\": 8, \"d\": 2, \"wall_ms\": 2.0}]}",
        );
        let paths: Vec<&str> = got.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec!["scale[d=2,n=4].wall_ms", "scale[d=2,n=8].wall_ms"]
        );
    }

    #[test]
    fn plain_arrays_keep_indices_and_ignored_keys_vanish() {
        let got = rows("{\"mode\": \"full\", \"xs\": [1, 2], \"overlap_pct\": 50.0}");
        let paths: Vec<&str> = got.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["xs[0]", "xs[1]"]);
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
        // Sign-safe: a negative overhead drifting positive.
        assert!(slow_ok(-0.4, 0.4));
        // Throughput: lower is the regression direction, bounded at
        // base / band (a 3x drop passes, an 11x drop fails).
        let fast_ok = |base: f64, cand: f64| !regressed(base, cand, true, 3.0);
        assert!(fast_ok(9000.0, 3000.0));
        assert!(!fast_ok(9000.0, 800.0));
        assert!(fast_ok(9000.0, 90000.0));
    }

    #[test]
    fn timing_keys_classify_by_suffix_and_marker() {
        for (key, higher) in [
            ("a.wall_ms", false),
            ("b[n=4].seal_enc_per_sec", true),
            ("speedup", true),
            ("batch_wall_ms_mean", false),
            ("mint_busy_ns", false),
            ("overhead_pct", false),
            ("encode.parity_pps", true),
        ] {
            assert_eq!(timing_direction(key), Some(higher), "{key}");
        }
        for key in ["digest", "bytes_on_wire_total", "encryptions", "schema"] {
            assert_eq!(timing_direction(key), None, "{key} should compare exactly");
        }
    }

    #[test]
    fn diff_flags_exact_mismatches_and_tolerates_banded_drift() {
        let base = parse(
            "{\"schema\": \"x/v1\", \"rows\": [{\"n\": 4, \"digest\": \"abc\", \
             \"wall_ms\": 10.0}]}",
        )
        .expect("parse");
        let cand = parse(
            "{\"schema\": \"x/v1\", \"rows\": [{\"n\": 4, \"digest\": \"abd\", \
             \"wall_ms\": 25.0}]}",
        )
        .expect("parse");
        let d = diff(&base, &cand, 3.0);
        assert_eq!(d.compared, 3);
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].path, "rows[n=4].digest");
        assert_eq!(d.failures[0].rule, "exact");
    }

    #[test]
    fn disjoint_grids_count_as_unmatched_not_failed() {
        let base = parse("{\"rows\": [{\"n\": 4, \"wall_ms\": 1.0}]}").expect("parse");
        let cand = parse("{\"rows\": [{\"n\": 8, \"wall_ms\": 9.0}]}").expect("parse");
        let d = diff(&base, &cand, 3.0);
        assert_eq!(d.compared, 0);
        assert_eq!(d.only_baseline, 1);
        assert_eq!(d.only_candidate, 1);
        assert!(d.failures.is_empty());
    }
}
