//! What a BENCH report is — the one place that knows.
//!
//! Three binaries (`bench_scale`, `bench_churn`, `bench_figures`) each
//! compute one fixed grid and commit the result as a `BENCH_*.json`. A
//! report row is an exact fact — a count, a byte total, a depth, a digest —
//! that any run on any host reproduces to the last digit, so the sentinel
//! is `cmp` between a fresh run and the committed file. Nothing here is
//! timed: speed is gated by the repository benchmark (`BENCHMARK.json`,
//! alternated parent/change pairs) and nowhere else. Everything the three
//! share lives here:
//!
//! * the command line ([`main`]): `--out PATH` plus whichever of
//!   `--obs-out` / `--trace-out` / `--series-out` the binary implements
//!   ([`Spec::sinks`]). An unknown flag or a missing value prints one
//!   usage line and exits 2;
//! * the JSON text ([`begin`], [`ratio`], [`finish`]), written through
//!   [`JsonWriter`] with one row per line so committed reports diff by
//!   row. A ratio that is not finite fails the run, naming its key.
//!
//! A report's gates are typed checks in its own binary, run on what it
//! computed before the file is written (`bench_churn`'s bounded depth,
//! memory reclamation and replay identity), so a broken gate fails the run
//! that computed it and names the row.

use obs::json::JsonWriter;

use crate::{write_file, ObsSink, TraceSink};

/// One report: its schema string, where it is committed, and which sink
/// flags its binary takes.
pub struct Spec {
    /// The `schema` string the report carries.
    pub schema: &'static str,
    /// File name of the committed report; the default `--out`.
    pub file: &'static str,
    /// The sink flags the binary implements, out of `--obs-out`,
    /// `--trace-out` and `--series-out`.
    pub sinks: &'static [&'static str],
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// Process arguments split against a fixed grammar: each flag with its
/// value.
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Parses the process arguments: each of `flags` takes one value.
    /// Anything else — or a flag with nothing after it — prints one usage
    /// line and exits 2.
    pub fn parse(flags: &[&str]) -> Args {
        let mut parsed = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let problem = if !flags.contains(&arg.as_str()) {
                format!("unknown flag {arg}")
            } else if let Some(value) = args.next() {
                parsed.push((arg, value));
                continue;
            } else {
                format!("{arg} needs a value")
            };
            let usage: Vec<String> = flags.iter().map(|f| format!("[{f} VALUE]")).collect();
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
}

/// What a generating run was asked for.
pub struct Cli {
    /// `--obs-out` / `REKEY_OBS`.
    pub obs: ObsSink,
    /// `--trace-out`.
    pub trace: TraceSink,
    /// `--series-out`.
    pub series_out: Option<String>,
}

/// Prints the one line and exits 1.
pub fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// The whole `main` of a report binary: parses the command line, calls
/// `run` for the rendered JSON and writes it. Exits 1 on an `Err` from
/// `run` (a failed gate among them) or a sink the build cannot serve.
pub fn main(spec: &Spec, run: impl FnOnce(&Cli) -> std::io::Result<String>) {
    let mut flags = vec!["--out"];
    flags.extend(spec.sinks);
    let args = Args::parse(&flags);
    let cli = Cli {
        obs: ObsSink::resolve(args.value("--obs-out")).unwrap_or_else(|msg| fail(msg)),
        trace: TraceSink::resolve(args.value("--trace-out")).unwrap_or_else(|msg| fail(msg)),
        series_out: args.value("--series-out"),
    };
    let out = args.value("--out").unwrap_or_else(|| spec.file.to_string());
    run(&cli)
        .and_then(|json| write_file(&out, &json))
        .unwrap_or_else(|e| fail(format!("FAILED: {e}")));
    println!("wrote {out}");
}

// ---------------------------------------------------------------------------
// JSON text
// ---------------------------------------------------------------------------

/// Opens a report: the root object with its `schema`. Root fields,
/// section fields and rows each get a line of their own.
pub fn begin(spec: &Spec) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.line_per_element(2);
    w.begin_object();
    w.field_str("schema", spec.schema);
    w
}

/// Writes one ratio of two exact counts (bytes per node, encryptions per
/// member, mean depth) with three decimals. A value that is not finite is
/// an error naming `key`: no report carries a `null`.
pub fn ratio(w: &mut JsonWriter, key: &str, value: f64) -> std::io::Result<()> {
    if !value.is_finite() {
        return Err(std::io::Error::other(format!(
            "{key} is not finite: {value}"
        )));
    }
    w.field_f64(key, value, 3);
    Ok(())
}

/// Closes the root object and returns the report text.
pub fn finish(mut w: JsonWriter) -> String {
    w.end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}
