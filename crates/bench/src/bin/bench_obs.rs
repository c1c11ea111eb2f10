//! Observability-overhead benchmark: emits `BENCH_obs.json`.
//!
//! Answers the question the flight recorder raises: what does recording
//! cost? The acceptance cell (N = 2^20, d = 8, J = L = 64; N = 2^12
//! under `--smoke`) runs legs of eight consecutive wide rekey builds
//! (`process_batch_in` + `rekeymsg::plan_and_seal`, the datapath
//! `bench_scale` rows time) — recorder off, then recorder on —
//! interleaved so thermal/cache drift hits both legs equally, taking
//! the min leg wall over reps for each side. A single build is ~1.5 ms
//! on the reference container, small enough that a percentage gate on
//! one build is scheduling noise; the eight-build leg amortises it.
//! The recorder's off path is additionally pinned at exactly zero
//! allocations (`off_path_allocs`, counted by the
//! `xcheck_rt::CountingAlloc` global allocator over a span+instant
//! hammer with recording disarmed).
//!
//! Flags: `--smoke` shrinks the cell; `--out PATH` overrides the output
//! path; `--check PATH` validates an existing report (gates: overhead
//! ≤ 5% in full mode; `off_path_allocs == 0`, no dropped events and one
//! track per worker always); `--trace-out PATH` additionally writes one
//! recorder-on build's Chrome trace-event JSON. Measurement requires a
//! build with `--features obs`; `--check` works on any build.

use std::hint::black_box;
use std::time::Instant;

use keytree::{Batch, KeyTree, MarkScratch, MemberId};
use rekeymsg::Layout;
use wirecrypto::{KeyGen, SymKey};
use xcheck_rt::CountingAlloc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const SCHEMA: &str = "bench_obs/v2";
const WORKERS: usize = 2;
const OVERHEAD_BOUND_PCT: f64 = 5.0;

#[derive(Clone, Copy)]
struct Cell {
    n: u32,
    d: u32,
    joins: usize,
    leaves: usize,
}

fn acceptance_cell(smoke: bool) -> Cell {
    Cell {
        n: if smoke { 1 << 12 } else { 1 << 20 },
        d: 8,
        joins: 64,
        leaves: 64,
    }
}

fn make_batch(cell: Cell, keygen: &mut KeyGen) -> Batch {
    let n = cell.n;
    let stride = (n / (2 * cell.leaves.max(1)) as u32).max(1);
    let leaves: Vec<MemberId> = (0..cell.leaves as u32).map(|i| (i * stride) % n).collect();
    let joins: Vec<(MemberId, SymKey)> = (0..cell.joins as u32)
        .map(|i| (n + i, keygen.next_key()))
        .collect();
    Batch::new(joins, leaves)
}

/// One wide rekey build over a fresh copy of `base`, timed end to end
/// (marking + mint + plan + seal, the same datapath `bench_scale` rows
/// time). Returns the wall in milliseconds.
fn run_rep(
    base: &KeyTree,
    keygen: &KeyGen,
    cell: Cell,
    tree: &mut KeyTree,
    scratch: &mut MarkScratch,
) -> f64 {
    tree.clone_from(base);
    let mut kg = keygen.clone();
    let batch = make_batch(cell, &mut kg);
    let start = Instant::now();
    let outcome = tree.process_batch_in(batch, &mut kg, scratch);
    let wide = rekeymsg::plan_and_seal(tree, &outcome, 1, &Layout::DEFAULT)
        .unwrap_or_else(|e| unreachable!("wide build has no wire cap: {e}"));
    let wall = start.elapsed().as_secs_f64() * 1000.0;
    black_box(&wide);
    wall
}

struct Measurement {
    recorder_off_ms: f64,
    recorder_on_ms: f64,
    /// One recorder-on build, drained: event/track/drop counts and the
    /// `--trace-out` export.
    trace: obs::trace::Trace,
}

/// Builds summed into one timed leg; ~12 ms of work per leg on the
/// reference container, large enough to amortise scheduler spikes that
/// swamp a single ~1.5 ms build.
const LEG_BUILDS: usize = 8;

/// Interleaved off/on legs (of `LEG_BUILDS` builds each) under `WORKERS`
/// workers; min leg wall per side, reported per build.
fn measure(cell: Cell, reps: usize) -> Measurement {
    let mut keygen = KeyGen::from_seed(0x0B5E_0B5E_u64);
    let base = KeyTree::balanced(cell.n, cell.d, &mut keygen);
    let mut tree = base.clone();
    let mut scratch = MarkScratch::new();

    taskpool::with_workers(WORKERS, || {
        // One untimed warm-up per leg: first-touch page faults, span-name
        // interning, and ring claiming all happen here, not on the clock.
        // The recorder-on warm-up doubles as the reported trace.
        run_rep(&base, &keygen, cell, &mut tree, &mut scratch);
        obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
        run_rep(&base, &keygen, cell, &mut tree, &mut scratch);
        obs::trace::disable();
        let trace = obs::trace::drain();
        obs::trace::clear();

        let mut off_best = f64::INFINITY;
        let mut on_best = f64::INFINITY;
        for _ in 0..reps {
            let mut off_leg = 0.0;
            for _ in 0..LEG_BUILDS {
                off_leg += run_rep(&base, &keygen, cell, &mut tree, &mut scratch);
            }
            off_best = off_best.min(off_leg);

            obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
            let mut on_leg = 0.0;
            for _ in 0..LEG_BUILDS {
                on_leg += run_rep(&base, &keygen, cell, &mut tree, &mut scratch);
            }
            obs::trace::disable();
            obs::trace::clear();
            on_best = on_best.min(on_leg);
        }

        Measurement {
            recorder_off_ms: off_best / LEG_BUILDS as f64,
            recorder_on_ms: on_best / LEG_BUILDS as f64,
            trace,
        }
    })
}

/// Allocations made by the recorder surface — span begin/end pairs plus
/// instants — while recording is disarmed. The contract is exactly zero:
/// a disarmed recorder must be free. Warm-up happens first so one-time
/// interning never pollutes the count.
fn count_off_path_allocs() -> u64 {
    let hammer = |rounds: usize| {
        for _ in 0..rounds {
            let _outer = obs::span("bench.obs.off_path");
            let _inner = obs::span("bench.obs.off_path.inner");
            obs::trace::instant("bench.obs.off_path.mark");
        }
    };
    hammer(8);
    let (allocs, ()) = xcheck_rt::count_in(|| hammer(4096));
    allocs
}

struct Report {
    mode: &'static str,
    cell: Cell,
    reps: usize,
    measurement: Measurement,
    off_path_allocs: u64,
}

impl Report {
    fn overhead_pct(&self) -> f64 {
        if self.measurement.recorder_off_ms > 0.0 {
            100.0 * (self.measurement.recorder_on_ms - self.measurement.recorder_off_ms)
                / self.measurement.recorder_off_ms
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let m = &self.measurement;
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{}\",\n  \
             \"cell\": {{\"n\": {}, \"d\": {}, \"joins\": {}, \"leaves\": {}}},\n  \
             \"workers\": {WORKERS},\n  \"reps\": {},\n  \
             \"recorder_off_ms\": {},\n  \"recorder_on_ms\": {},\n  \"overhead_pct\": {},\n  \
             \"off_path_allocs\": {},\n  \
             \"events\": {},\n  \"tracks\": {},\n  \"dropped\": {}\n}}\n",
            self.mode,
            self.cell.n,
            self.cell.d,
            self.cell.joins,
            self.cell.leaves,
            self.reps,
            fmt_f(m.recorder_off_ms),
            fmt_f(m.recorder_on_ms),
            fmt_f(self.overhead_pct()),
            self.off_path_allocs,
            m.trace.events.len(),
            m.trace.tracks.len(),
            m.trace.dropped_total(),
        )
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

/// Validates a previously emitted `BENCH_obs.json` against the acceptance
/// gates. Returns a list of problems (empty = valid).
fn check_report(text: &str) -> Vec<String> {
    use bench::jsonv::{parse, Value};
    let mut problems = Vec::new();
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e],
    };
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        problems.push(format!("schema is not {SCHEMA}"));
    }
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    let full = doc.get("mode").and_then(Value::as_str) == Some("full");
    match num("off_path_allocs") {
        Some(0.0) => {}
        Some(n) => problems.push(format!("off_path_allocs = {n}, want exactly 0")),
        None => problems.push("missing off_path_allocs".to_string()),
    }
    match num("tracks") {
        Some(t) if t >= WORKERS as f64 => {}
        Some(t) => problems.push(format!("only {t} tracks recorded, want >= {WORKERS}")),
        None => problems.push("missing tracks".to_string()),
    }
    match num("dropped") {
        Some(0.0) => {}
        Some(n) => problems.push(format!("{n} events dropped; rings undersized for the cell")),
        None => problems.push("missing dropped".to_string()),
    }
    // The timing gates bind only in full mode: the smoke cell's sub-ms
    // walls make percentages pure scheduling noise.
    if full {
        match num("overhead_pct") {
            Some(p) if p <= OVERHEAD_BOUND_PCT => {}
            Some(p) => problems.push(format!(
                "recorder overhead {p:.3}% exceeds the {OVERHEAD_BOUND_PCT}% bound"
            )),
            None => problems.push("missing overhead_pct".to_string()),
        }
    }
    problems
}

fn main() {
    xcheck_rt::assert_counting();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = std::env::var("REKEY_QUICK").is_ok_and(|v| v != "0");
    let mut out_path = "BENCH_obs.json".to_string();
    let mut check_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--check" => check_path = Some(it.next().expect("--check needs a path")),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            other => {
                eprintln!(
                    "unknown flag {other}; use [--smoke] [--out PATH] [--check PATH] \
                     [--trace-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("BENCH check FAILED: cannot read {path}");
            std::process::exit(1);
        };
        let problems = check_report(&text);
        if problems.is_empty() {
            println!("BENCH check ok: {path}");
            return;
        }
        for p in &problems {
            eprintln!("BENCH check FAILED: {p}");
        }
        std::process::exit(1);
    }

    if !obs::enabled() {
        eprintln!(
            "bench_obs measures the flight recorder, which this binary was built without; \
             rebuild with `--features obs`"
        );
        std::process::exit(1);
    }

    let mode = if smoke { "smoke" } else { "full" };
    let reps = if smoke { 2 } else { 12 };
    let cell = acceptance_cell(smoke);
    eprintln!(
        "obs overhead: N=2^{} d={} J={} L={} workers={WORKERS} ({mode})",
        cell.n.trailing_zeros(),
        cell.d,
        cell.joins,
        cell.leaves
    );

    let off_path_allocs = count_off_path_allocs();
    let measurement = measure(cell, reps);

    let report = Report {
        mode,
        cell,
        reps,
        off_path_allocs,
        measurement,
    };

    let m = &report.measurement;
    eprintln!(
        "  recorder off {:>8.3} ms, on {:>8.3} ms ({:+.2}%), {} events on {} tracks, {} dropped",
        m.recorder_off_ms,
        m.recorder_on_ms,
        report.overhead_pct(),
        m.trace.events.len(),
        m.trace.tracks.len(),
        m.trace.dropped_total(),
    );
    eprintln!("  off-path allocations over 4096 span+instant rounds: {off_path_allocs}");

    if let Some(path) = &trace_out {
        std::fs::write(path, report.measurement.trace.to_chrome_json()).expect("write trace JSON");
        eprintln!("wrote trace to {path}");
    }
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");

    // Self-check the fresh report with the same gates `--check` applies,
    // so a regression fails the generating run, not just later CI.
    let problems = check_report(&json);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("FAILED: {p}");
        }
        std::process::exit(1);
    }
}
