//! Tracked simulation-engine benchmark: emits `BENCH_figures.json`.
//!
//! Renders every figure of `all_figures` at the quick-mode workload (the
//! `REKEY_QUICK=1` parameters, so the tracked baseline is a fixed
//! workload) three times: once unmeasured, so cold-start cost (page
//! faults, lazily built tables) lands on neither side, then timed with the
//! figure grid pinned to one worker (the serial engine) and timed at the
//! session's default worker count. Records per figure the serial and
//! parallel wall time, the speedup, and whether the two timed runs
//! produced byte-identical figure text — the engine's core determinism
//! contract. A final section measures the engine's raw packet rate on a
//! standard transport experiment.
//!
//! Flags are the shared report flags (`bench::report`), without the obs
//! sinks: `--smoke` runs a cheap figure subset (same JSON shape);
//! `--check` fails on a report that is malformed or records a
//! serial/parallel divergence.

use std::time::Instant;

use bench::report::{self, Cli, FIGURES};
use bench::{FigFn, Mode, ALL_FIGURES, SMOKE_FIGURES};
use grouprekey::experiment::{run_experiment, ExperimentParams};

struct FigureReport {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    byte_identical: bool,
}

impl FigureReport {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }
}

fn run_figure(name: &'static str, f: FigFn) -> FigureReport {
    // Warm-up render, unmeasured: whichever timed leg went first would
    // otherwise pay the figure's cold-start cost.
    let _ = f(Mode::QUICK, &mut std::io::sink());

    let mut serial_out: Vec<u8> = Vec::new();
    let start = Instant::now();
    let serial_res = bench::with_workers(1, || f(Mode::QUICK, &mut serial_out));
    let serial_ms = start.elapsed().as_secs_f64() * 1000.0;

    let mut parallel_out: Vec<u8> = Vec::new();
    let start = Instant::now();
    let parallel_res = f(Mode::QUICK, &mut parallel_out);
    let parallel_ms = start.elapsed().as_secs_f64() * 1000.0;

    FigureReport {
        name,
        serial_ms,
        parallel_ms,
        byte_identical: serial_res.is_ok() && parallel_res.is_ok() && serial_out == parallel_out,
    }
}

struct EngineReport {
    users: usize,
    messages: usize,
    packets: f64,
    wall_s: f64,
}

/// Raw engine packet rate: one standard quick-mode transport experiment,
/// counting every multicast ENC/parity and unicast USR packet the server
/// put on the wire.
fn bench_engine() -> EngineReport {
    let params = ExperimentParams {
        messages: Mode::QUICK.messages,
        seed: 42,
        ..ExperimentParams::default()
    };
    let users = params.net.n_users.max(params.n as usize);
    let start = Instant::now();
    let reports = run_experiment(params);
    let wall_s = start.elapsed().as_secs_f64();
    let packets: f64 = reports
        .iter()
        .map(|r| r.bandwidth_overhead * r.enc_packets as f64 + r.usr_packets as f64)
        .sum();
    EngineReport {
        users,
        messages: reports.len(),
        packets,
        wall_s,
    }
}

fn render(cli: &Cli, workers: usize, figures: &[FigureReport], eng: &EngineReport) -> String {
    let totals = FigureReport {
        name: "totals",
        serial_ms: figures.iter().map(|f| f.serial_ms).sum(),
        parallel_ms: figures.iter().map(|f| f.parallel_ms).sum(),
        byte_identical: figures.iter().all(|f| f.byte_identical),
    };
    let mut w = report::begin(&FIGURES, cli);
    w.field_u64("workers", workers as u64);
    w.key("figures");
    w.begin_array();
    for f in figures {
        w.begin_object();
        w.field_str("name", f.name);
        report::measured(&mut w, "serial_ms", f.serial_ms);
        report::measured(&mut w, "parallel_ms", f.parallel_ms);
        report::measured(&mut w, "speedup", f.speedup());
        w.field_bool("byte_identical", f.byte_identical);
        w.end_object();
    }
    w.end_array();
    w.key("totals");
    w.begin_object();
    report::measured(&mut w, "serial_ms", totals.serial_ms);
    report::measured(&mut w, "parallel_ms", totals.parallel_ms);
    report::measured(&mut w, "speedup", totals.speedup());
    w.field_bool("byte_identical", totals.byte_identical);
    w.end_object();
    w.key("engine");
    w.begin_object();
    w.field_u64("users", eng.users as u64);
    w.field_u64("messages", eng.messages as u64);
    report::measured(&mut w, "packets", eng.packets);
    report::measured(&mut w, "wall_s", eng.wall_s);
    report::measured(&mut w, "packets_per_sec", eng.packets / eng.wall_s);
    w.end_object();
    report::finish(w)
}

fn run(cli: &Cli) -> std::io::Result<String> {
    let workers = bench::grid_workers();
    let selected: Vec<(&'static str, FigFn)> = ALL_FIGURES
        .iter()
        .filter(|(name, _)| !cli.smoke || SMOKE_FIGURES.contains(name))
        .copied()
        .collect();

    eprintln!(
        "figures: {} of {} ({}), {} worker(s), quick-mode grid",
        selected.len(),
        ALL_FIGURES.len(),
        cli.mode(),
        workers
    );
    let mut figures = Vec::with_capacity(selected.len());
    for (name, f) in selected {
        let rep = run_figure(name, f);
        eprintln!(
            "  {name}: serial {:.0} ms, parallel {:.0} ms, speedup {:.2}x, identical={}",
            rep.serial_ms,
            rep.parallel_ms,
            rep.speedup(),
            rep.byte_identical
        );
        figures.push(rep);
    }
    eprintln!("engine: packet rate on the standard quick experiment");
    let eng = bench_engine();
    eprintln!(
        "  {} users, {} messages, {:.0} packets in {:.2} s ({:.0} pkt/s)",
        eng.users,
        eng.messages,
        eng.packets,
        eng.wall_s,
        eng.packets / eng.wall_s
    );
    Ok(render(cli, workers, &figures, &eng))
}

fn main() {
    report::main(&FIGURES, run);
}
