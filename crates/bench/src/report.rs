//! What a BENCH report is — the one place that knows.
//!
//! Three binaries (`bench_scale`, `bench_churn`, `bench_figures`) each
//! compute something and commit the result as a `BENCH_*.json`;
//! `bench_diff` compares a fresh run against the committed one. A report
//! row is an exact fact — a count, a byte total, a depth, a digest — that
//! any run on any host reproduces to the last digit. Nothing here is
//! timed: speed is gated by the repository benchmark (`BENCHMARK.json`,
//! alternated parent/change pairs) and nowhere else. Everything the four
//! share lives here:
//!
//! * the command line ([`main`]): `--smoke`, `--out PATH`, `--check PATH`
//!   plus whichever of `--obs-out` / `--trace-out` / `--series-out` the
//!   binary implements ([`Spec::sinks`]). An unknown flag or a missing
//!   value prints one usage line and exits 2. `--check` validates an
//!   existing report; a generating run validates its own output the same
//!   way, so a broken gate fails the run that computed it;
//! * the JSON text ([`begin`], [`ratio`], [`finish`]), written through
//!   [`JsonWriter`] with one row per line so committed reports diff
//!   cleanly. A non-finite ratio is written as `null`, which every check
//!   rejects;
//! * one [`Spec`] per schema string: a column table giving every key a
//!   [`Kind`] — there are two, so a stopwatch column can only be declared
//!   [`Kind::Exact`] and fails the first diff against another run — and
//!   the report's gates as a plain function over the parsed document.
//!   Gates are functions, not `(path, comparator, bound)` triples, because
//!   the real ones are relations between columns
//!   (`max_depth_final <= ideal(users_final, d) + 2`).

use obs::json::JsonWriter;

use crate::jsonv::{self, Value};
use crate::{env_on, write_file, ObsSink, TraceSink};

/// What a report key means to a reader of two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Names the row it sits in: becomes a `[k=v]` coordinate that rows
    /// match on, never compared itself.
    Id,
    /// Deterministic output (counts, digests, byte totals, identity
    /// verdicts): any difference is a failure.
    Exact,
}

/// One report schema: where it is committed, which optional flags its
/// binary takes, what each key means, and which gates hold.
pub struct Spec {
    /// The `schema` string the report carries.
    pub schema: &'static str,
    /// File name of the committed report; the default `--out`.
    pub file: &'static str,
    /// The sink flags the binary implements, out of `--obs-out`,
    /// `--trace-out` and `--series-out`.
    pub sinks: &'static [&'static str],
    /// Whether `REKEY_QUICK=1` selects the smoke workload (it does not
    /// for `bench_figures`, whose full run *is* the quick-mode grid).
    pub quick_env: bool,
    /// Column path (object keys joined by `.`, arrays transparent) to
    /// kind, for every key but the shared `schema`/`mode` header.
    pub columns: &'static [(&'static str, Kind)],
    /// The report's own gates, over a document that already parsed and
    /// has every column present, classified and non-null: pushes one
    /// line per gate that does not hold.
    pub gates: fn(&Value, &mut Vec<String>),
}

/// Joins a column path and a key.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

impl Spec {
    /// The spec whose `schema` string this report carries.
    pub fn of(doc: &Value) -> Option<&'static Spec> {
        let schema = doc.get("schema").and_then(Value::as_str)?;
        SPECS.iter().copied().find(|s| s.schema == schema)
    }

    /// The kind of the key at `column`, `None` when the table lacks it.
    pub fn kind(&self, column: &str) -> Option<Kind> {
        let found = self.columns.iter().find(|(path, _)| *path == column);
        found.map(|&(_, kind)| kind)
    }

    /// Validates report text. Returns the problems found (empty = valid):
    /// it must parse, carry this schema and a known mode, hold every
    /// column of the table and no key outside it, hold no `null`, and
    /// pass the spec's gates.
    pub fn check(&self, text: &str) -> Vec<String> {
        let doc = match jsonv::parse(text) {
            Ok(doc) => doc,
            Err(e) => return vec![e],
        };
        if doc.get("schema").and_then(Value::as_str) != Some(self.schema) {
            return vec![format!("schema is not {}", self.schema)];
        }
        let rows = match self.rows(&doc) {
            Ok(rows) => rows,
            Err(e) => return vec![e],
        };
        let mut problems = Vec::new();
        if !matches!(mode(&doc), Some("smoke" | "full")) {
            problems.push("mode is neither \"smoke\" nor \"full\"".to_string());
        }
        for row in &rows {
            if *row.leaf == Value::Null {
                problems.push(format!("{} is null", row.path));
            }
        }
        for (column, _) in self.columns {
            if !rows.iter().any(|row| row.column == *column) {
                problems.push(format!("missing {column}"));
            }
        }
        if problems.is_empty() {
            (self.gates)(&doc, &mut problems);
        }
        problems
    }

    /// Flattens a report into one row per scalar under the `schema`/`mode`
    /// header (which names the report and the grid, and is no row). A key
    /// the column table lacks is an error: guessing what it means is the
    /// bug the table exists to prevent.
    pub fn rows<'a>(&self, doc: &'a Value) -> Result<Vec<Row<'a>>, String> {
        let mut rows = Vec::new();
        self.flatten(doc, "", "", &mut rows)?;
        Ok(rows)
    }

    fn flatten<'a>(
        &self,
        value: &'a Value,
        column: &str,
        path: &str,
        rows: &mut Vec<Row<'a>>,
    ) -> Result<(), String> {
        match value {
            Value::Obj(fields) => {
                let here = format!("{path}{}", self.coordinate(column, fields));
                for (key, child) in fields {
                    if column.is_empty() && matches!(key.as_str(), "schema" | "mode") {
                        continue;
                    }
                    self.flatten(child, &join(column, key), &join(&here, key), rows)?;
                }
            }
            Value::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    // Rows with identity coordinates match by coordinate,
                    // not position; everything else keeps its index.
                    let coordinated = matches!(item, Value::Obj(fields)
                        if !self.coordinate(column, fields).is_empty());
                    let child_path = if coordinated {
                        path.to_string()
                    } else {
                        format!("{path}[{i}]")
                    };
                    self.flatten(item, column, &child_path, rows)?;
                }
            }
            leaf => {
                let Some(kind) = self.kind(column) else {
                    return Err(format!(
                        "{column} is not in the {} column table",
                        self.schema
                    ));
                };
                rows.push(Row {
                    column: column.to_string(),
                    path: path.to_string(),
                    kind,
                    leaf,
                });
            }
        }
        Ok(())
    }

    /// The `[k=v,…]` coordinate of the object at `column`, from its
    /// scalar [`Kind::Id`] fields, sorted by key so source order never
    /// affects matching.
    fn coordinate(&self, column: &str, fields: &[(String, Value)]) -> String {
        let mut ids: Vec<String> = fields
            .iter()
            .filter(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)))
            .filter(|(k, _)| self.kind(&join(column, k)) == Some(Kind::Id))
            .map(|(k, v)| format!("{k}={}", render(v)))
            .collect();
        if ids.is_empty() {
            return String::new();
        }
        ids.sort();
        format!("[{}]", ids.join(","))
    }
}

/// One scalar of a report, as [`Spec::rows`] flattens it.
pub struct Row<'a> {
    /// Its column path, the key into [`Spec::columns`].
    pub column: String,
    /// Where it sits: the column path with each enclosing object's
    /// identity coordinate attached (`scale[d=8,n=4096].encryptions`), or
    /// a positional index where an array element has none — so two
    /// reports' rows match by *what they describe*, not by array position.
    pub path: String,
    /// What the column table says the key means.
    pub kind: Kind,
    /// The value.
    pub leaf: &'a Value,
}

/// A scalar as text, for coordinates and failure lines.
pub fn render(leaf: &Value) -> String {
    match leaf {
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
        Value::Num(n) => format!("{n}"),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        _ => "null".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// Process arguments split against a fixed grammar: each flag with its
/// value (empty for a switch).
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Parses the process arguments: each of `value_flags` takes one
    /// value, each of `switches` none. Anything else — or a value flag
    /// with nothing after it — prints one usage line and exits 2.
    pub fn parse(value_flags: &[&str], switches: &[&str]) -> Args {
        let mut parsed = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let problem = if switches.contains(&arg.as_str()) {
                parsed.push((arg, String::new()));
                continue;
            } else if !value_flags.contains(&arg.as_str()) {
                format!("unknown flag {arg}")
            } else if let Some(value) = args.next() {
                parsed.push((arg, value));
                continue;
            } else {
                format!("{arg} needs a value")
            };
            let mut usage: Vec<String> = switches.iter().map(|s| format!("[{s}]")).collect();
            usage.extend(value_flags.iter().map(|f| format!("[{f} VALUE]")));
            eprintln!("{problem}; usage: {}", usage.join(" "));
            std::process::exit(2);
        }
        Args(parsed)
    }

    /// The value given for `flag` (the last one, when repeated).
    pub fn value(&self, flag: &str) -> Option<String> {
        let found = self.0.iter().rev().find(|(f, _)| f == flag);
        found.map(|(_, v)| v.clone())
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }
}

/// What a generating run was asked for.
pub struct Cli {
    /// The CI-speed workload: `--smoke`, or `REKEY_QUICK=1` where the
    /// spec honours it.
    pub smoke: bool,
    /// `--obs-out` / `REKEY_OBS`.
    pub obs: ObsSink,
    /// `--trace-out`.
    pub trace: TraceSink,
    /// `--series-out`.
    pub series_out: Option<String>,
}

impl Cli {
    /// The `mode` string the report carries.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Prints the one line and exits 1.
pub fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Prints each problem behind `prefix` and exits 1 if there is any.
fn exit_on(prefix: &str, problems: &[String]) {
    for p in problems {
        eprintln!("{prefix}: {p}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

/// The whole `main` of a report binary: parses the command line, then
/// either checks an existing report (`--check`) or calls `run` for the
/// rendered JSON, writes it, and checks what it wrote. Exits 1 on a
/// failed check, an `Err` from `run`, or a sink the build cannot serve.
pub fn main(spec: &Spec, run: impl FnOnce(&Cli) -> std::io::Result<String>) {
    let mut value_flags = vec!["--out", "--check"];
    value_flags.extend(spec.sinks);
    let args = Args::parse(&value_flags, &["--smoke"]);
    let obs = ObsSink::resolve(args.value("--obs-out")).unwrap_or_else(|msg| fail(msg));
    let trace = TraceSink::resolve(args.value("--trace-out")).unwrap_or_else(|msg| fail(msg));

    if let Some(path) = args.value("--check") {
        let problems = match std::fs::read_to_string(&path) {
            Ok(text) => spec.check(&text),
            Err(e) => vec![format!("cannot read {path}: {e}")],
        };
        exit_on("BENCH check FAILED", &problems);
        println!("BENCH check ok: {path}");
        return;
    }

    let cli = Cli {
        smoke: args.switch("--smoke") || (spec.quick_env && env_on("REKEY_QUICK")),
        obs,
        trace,
        series_out: args.value("--series-out"),
    };
    let out = args.value("--out").unwrap_or_else(|| spec.file.to_string());
    let json = run(&cli)
        .and_then(|json| write_file(&out, &json).map(|()| json))
        .unwrap_or_else(|e| fail(format!("FAILED: {e}")));
    println!("wrote {out}");
    exit_on("FAILED", &spec.check(&json));
}

// ---------------------------------------------------------------------------
// JSON text
// ---------------------------------------------------------------------------

/// Opens a report: the root object with its `schema` and `mode`. Root
/// fields, section fields and rows each get a line of their own.
pub fn begin(spec: &Spec, cli: &Cli) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.line_per_element(2);
    w.begin_object();
    w.field_str("schema", spec.schema);
    w.field_str("mode", cli.mode());
    w
}

/// Writes one ratio of two exact counts (bytes per node, encryptions per
/// member, mean depth): three decimals, or `null` when it is not finite.
pub fn ratio(w: &mut JsonWriter, key: &str, value: f64) {
    if value.is_finite() {
        w.field_f64(key, value, 3);
    } else {
        w.key(key);
        w.value_null();
    }
}

/// Closes the root object and returns the report text.
pub fn finish(mut w: JsonWriter) -> String {
    w.end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// The three specs
// ---------------------------------------------------------------------------

use Kind::{Exact, Id};

/// Every report schema `bench_diff` can compare.
pub static SPECS: [&Spec; 3] = [&SCALE, &CHURN, &FIGURES];

/// `BENCH_scale.json`: what one batch costs the million-user key tree.
pub static SCALE: Spec = Spec {
    schema: "bench_scale/v5",
    file: "BENCH_scale.json",
    sinks: &[],
    quick_env: true,
    columns: &[
        ("scale.n", Id),
        ("scale.d", Id),
        ("scale.joins", Id),
        ("scale.leaves", Id),
        ("scale.encryptions", Exact),
        ("scale.resident_bytes_per_node", Exact),
    ],
    gates: scale_gates,
};

/// `BENCH_churn.json`: long-horizon churn over the scenario engine.
pub static CHURN: Spec = Spec {
    schema: "bench_churn/v3",
    file: "BENCH_churn.json",
    sinks: &["--obs-out", "--trace-out", "--series-out"],
    quick_env: true,
    columns: &[
        ("identity.kind", Id),
        ("identity.n", Id),
        ("identity.d", Id),
        ("identity.compaction", Id),
        ("identity.replay_matches", Exact),
        ("churn.kind", Id),
        ("churn.n", Id),
        ("churn.d", Id),
        ("churn.compaction", Id),
        ("churn.intervals", Id),
        ("churn.users_final", Exact),
        ("churn.enc_per_member_mean", Exact),
        ("churn.bytes_on_wire_total", Exact),
        ("churn.max_depth_run", Exact),
        ("churn.max_depth_final", Exact),
        ("churn.mean_depth_final", Exact),
        ("churn.resident_bytes_peak", Exact),
        ("churn.resident_bytes_final", Exact),
        ("churn.resident_nonmonotonic", Exact),
        ("churn.relocations_total", Exact),
        ("churn.digest", Exact),
    ],
    gates: churn_gates,
};

/// `BENCH_figures.json`: the text of every figure, by digest.
pub static FIGURES: Spec = Spec {
    schema: "bench_figures/v2",
    file: "BENCH_figures.json",
    sinks: &[],
    quick_env: false,
    columns: &[
        ("figures.name", Id),
        ("figures.bytes", Exact),
        ("figures.digest", Exact),
    ],
    gates: |doc, problems| {
        // The committed report is the digest of every figure, not of some.
        if mode(doc) != Some("full") {
            return;
        }
        for (name, _) in crate::ALL_FIGURES {
            let is = |row: &Value| row.get("name").and_then(Value::as_str) == Some(*name);
            if !rows(doc, "figures").iter().any(is) {
                problems.push(format!("full-mode report is missing figure {name}"));
            }
        }
    },
};

fn mode(doc: &Value) -> Option<&str> {
    doc.get("mode").and_then(Value::as_str)
}

/// The value at a `.`-joined path of object keys.
fn at<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

fn is_true(doc: &Value, path: &str) -> bool {
    at(doc, path).and_then(Value::as_bool) == Some(true)
}

fn num(row: &Value, key: &str) -> Option<f64> {
    row.get(key).and_then(Value::as_f64)
}

fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_arr).unwrap_or(&[])
}

fn scale_gates(doc: &Value, problems: &mut Vec<String>) {
    // A full-mode report must reach the size the grid exists for.
    let acceptance = [1048576.0, 8.0, 64.0, 64.0].map(Some);
    let is_acceptance = |r: &Value| ["n", "d", "joins", "leaves"].map(|k| num(r, k)) == acceptance;
    if mode(doc) == Some("full") && !rows(doc, "scale").iter().any(is_acceptance) {
        problems.push("full-mode report is missing the N=2^20, d=8, J=L=64 row".to_string());
    }
}

/// Full-mode reports must additionally satisfy the acceptance criteria:
/// bounded final depth and non-monotonic resident bytes on the
/// compaction-on mass-departure and oscillation rows.
fn churn_gates(doc: &Value, problems: &mut Vec<String>) {
    use grouprekey::scenario::ScenarioKind;
    if !is_true(doc, "identity.replay_matches") {
        problems.push("a second run of the identity scenario did not match the first".to_string());
    }
    let kind_of = |row: &Value| row.get("kind").and_then(Value::as_str).map(str::to_string);
    let rows = rows(doc, "churn");
    for kind in ScenarioKind::ALL {
        if !rows
            .iter()
            .any(|r| kind_of(r).as_deref() == Some(kind.name()))
        {
            problems.push(format!("missing trace family {}", kind.name()));
        }
    }
    if mode(doc) != Some("full") {
        return;
    }
    for row in rows {
        let kind = kind_of(row).unwrap_or_default();
        let one_sided = kind == "mass_departure" || kind == "oscillation";
        if !one_sided || !is_true(row, "compaction") {
            continue;
        }
        let show = |key| row.get(key).map(render).unwrap_or_default();
        let label = format!("{kind} n={} d={}", show("n"), show("d"));
        let (Some(users), Some(d), Some(depth_final), Some(peak), Some(fin)) = (
            num(row, "users_final"),
            num(row, "d"),
            num(row, "max_depth_final"),
            num(row, "resident_bytes_peak"),
            num(row, "resident_bytes_final"),
        ) else {
            problems.push(format!("{label}: row lacks a numeric gate column"));
            continue;
        };
        // Bounded depth: within 2 levels of the balanced ideal for the
        // *final* population (compaction budget + trailing churn slack).
        let mut ideal = 0.0;
        let mut cap = 1.0;
        while cap < users.max(1.0) {
            cap *= d.max(2.0);
            ideal += 1.0;
        }
        if depth_final > ideal + 2.0 {
            problems.push(format!(
                "{label}: unbounded depth: final depth {depth_final} vs ideal {ideal} \
                 for {users} users"
            ));
        }
        if !is_true(row, "resident_nonmonotonic") {
            problems.push(format!("{label}: monotonic resident_bytes trajectory"));
        }
        // An ended mass departure must also settle well below peak, not
        // just dip somewhere (oscillation legitimately refills).
        if kind == "mass_departure" && fin * 2.0 > peak {
            problems.push(format!(
                "{label}: resident_bytes stuck near peak: final {fin} vs peak {peak}"
            ));
        }
    }
}
