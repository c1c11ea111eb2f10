//! Observability-overhead benchmark: emits `BENCH_obs.json`.
//!
//! Answers the question the event log (`obs::trace`) raises: what does
//! recording cost? The acceptance cell (N = 2^20, d = 8, J = L = 64; N = 2^12
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
//! Flags are the shared report flags (`bench::report`): `--smoke`
//! shrinks the cell; `--check` gates overhead ≤ 5% in full mode, and
//! `off_path_allocs == 0` and no dropped events always;
//! `--trace-out PATH` additionally writes one recorder-on
//! build's Chrome trace-event JSON. Measurement requires a build with
//! `--features obs`; `--check` works on any build.

use std::hint::black_box;
use std::time::Instant;

use bench::report::{self, Cli, OBS};
use bench::{make_batch, Cell};
use keytree::{KeyTree, MarkScratch};
use rekeymsg::Layout;
use wirecrypto::KeyGen;
use xcheck_rt::CountingAlloc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

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
    let mut plan_scratch = rekeymsg::PlanScratch::new();
    let wide = rekeymsg::plan_and_seal(tree, &outcome, 1, &Layout::DEFAULT, &mut plan_scratch)
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

/// Interleaved off/on legs (of `LEG_BUILDS` builds each); min leg wall
/// per side, reported per build.
fn measure(cell: Cell, reps: usize) -> Measurement {
    let mut keygen = KeyGen::from_seed(0x0B5E_0B5E_u64);
    let base = KeyTree::balanced(cell.n, cell.d, &mut keygen);
    let mut tree = base.clone();
    let mut scratch = MarkScratch::new();

    // One untimed warm-up per leg: first-touch page faults, span-slot
    // registration and the log's reservation all happen here, not on the
    // clock.
    // The recorder-on warm-up doubles as the reported trace.
    run_rep(&base, &keygen, cell, &mut tree, &mut scratch);
    obs::trace::enable();
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

        obs::trace::enable();
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
}

/// Allocations made by the recorder surface — span begin/end pairs plus
/// instants — while recording is disarmed. The contract is exactly zero:
/// a disarmed recorder must be free. Warm-up happens first so one-time
/// span-slot registration never pollutes the count.
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

fn overhead_pct(m: &Measurement) -> f64 {
    100.0 * (m.recorder_on_ms - m.recorder_off_ms) / m.recorder_off_ms
}

fn render(cli: &Cli, cell: Cell, reps: usize, m: &Measurement, off_path_allocs: u64) -> String {
    let mut w = report::begin(&OBS, cli);
    w.key("cell");
    w.begin_object();
    cell.write_fields(&mut w);
    w.end_object();
    w.field_u64("reps", reps as u64);
    report::measured(&mut w, "recorder_off_ms", m.recorder_off_ms);
    report::measured(&mut w, "recorder_on_ms", m.recorder_on_ms);
    report::measured(&mut w, "overhead_pct", overhead_pct(m));
    w.field_u64("off_path_allocs", off_path_allocs);
    w.field_u64("events", m.trace.events.len() as u64);
    w.field_u64("tracks", m.trace.tracks.len() as u64);
    w.field_u64("dropped", m.trace.dropped_total());
    report::finish(w)
}

fn run(cli: &Cli) -> std::io::Result<String> {
    bench::needs_obs_build("bench_obs measures the event log").map_err(std::io::Error::other)?;
    let reps = if cli.smoke { 2 } else { 12 };
    let cell = Cell::acceptance(cli.smoke);
    eprintln!(
        "obs overhead: N=2^{} d={} J={} L={} ({})",
        cell.n.trailing_zeros(),
        cell.d,
        cell.joins,
        cell.leaves,
        cli.mode()
    );

    let off_path_allocs = count_off_path_allocs();
    let m = measure(cell, reps);
    eprintln!(
        "  recorder off {:>8.3} ms, on {:>8.3} ms ({:+.2}%), {} events on {} tracks, {} dropped",
        m.recorder_off_ms,
        m.recorder_on_ms,
        overhead_pct(&m),
        m.trace.events.len(),
        m.trace.tracks.len(),
        m.trace.dropped_total(),
    );
    eprintln!("  off-path allocations over 4096 span+instant rounds: {off_path_allocs}");

    if let Some(path) = &cli.trace.path {
        bench::write_file(path, &m.trace.to_chrome_json())?;
        eprintln!("wrote trace to {path}");
    }
    Ok(render(cli, cell, reps, &m, off_path_allocs))
}

fn main() {
    xcheck_rt::assert_counting();
    report::main(&OBS, run);
}
