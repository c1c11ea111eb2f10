//! Long-horizon churn report over the scenario engine: emits
//! `BENCH_churn.json`.
//!
//! Sweeps the five adversarial trace families (`flash_crowd`, `diurnal`,
//! `mass_departure`, `oscillation`, `storm`; see `grouprekey::scenario`)
//! × group size N × tree degree d × compaction {off, on}, running each
//! combination for hundreds of rekey intervals and recording the
//! trajectory-level metrics the paper's Poisson analysis cannot see:
//!
//! * `enc_per_member_mean` — mean distinct encryptions per current
//!   member per interval (the server-cost density);
//! * `bytes_on_wire_total` — total multicast ENC bytes over the run;
//! * `max_depth_run` / `max_depth_final` / `mean_depth_final` — tree
//!   skew: with compaction off, one-sided traces leave survivors
//!   stranded at the historical depth; with compaction on, depth must
//!   track the *current* group size;
//! * `resident_bytes_peak` / `resident_bytes_final` — memory: a
//!   mass-departure trace must not pin the SoA arrays at peak forever;
//! * `relocations_total` — members compaction moved.
//!
//! Every row is exact (the scenario engine is seeded and sequential) and
//! nothing is timed; the interval's speed is the repository benchmark's.
//!
//! The `identity` section runs the mass-departure acceptance row
//! (compaction on) a second time in the same process and compares the
//! whole report, digest included, with the grid's run of it — the check
//! that catches `HashMap`-order or global-state leakage into the rekey
//! stream.
//!
//! Flags are the shared report flags (`bench::report`): `--smoke` shrinks
//! the grid (same JSON shape); `--check` includes the bounded-depth and
//! memory-reclamation acceptance criteria on full-mode reports;
//! `--obs-out <path>` (or `REKEY_OBS=1`) snapshots the `scenario.*` /
//! `stage.*` metrics over the acceptance row (requires `--features obs`).
//!
//! `--series-out <path>` replays the acceptance row once more with a
//! per-interval [`obs::series::SeriesRecorder`] attached and writes the
//! `obs_series/v1` time-series (users/churn/enc-per-member/bytes-on-
//! wire/depth/resident-bytes curves, plus per-interval stage-wall deltas
//! in obs-enabled builds). `--trace-out <path>` records that same replay
//! in the event log and writes Chrome trace-event JSON (open in
//! Perfetto; requires `--features obs`). The replay's digest must match
//! the grid run's — recording must not perturb the rekey stream.

use bench::report::{self, Cli, CHURN};
use grouprekey::scenario::{self, ScenarioConfig, ScenarioKind, ScenarioReport};
use grouprekey::ServerOptions;
use keytree::CompactionPolicy;
use obs::json::JsonWriter;

#[derive(Clone, Copy, PartialEq)]
struct Cell {
    kind: ScenarioKind,
    n: u32,
    d: u32,
    compaction: bool,
    intervals: usize,
}

fn grid(smoke: bool) -> Vec<Cell> {
    let (sizes, degrees, intervals): (&[u32], &[u32], usize) = if smoke {
        (&[256], &[4], 24)
    } else {
        (&[1 << 10, 1 << 13], &[4, 8], 256)
    };
    let mut cells = Vec::new();
    for kind in ScenarioKind::ALL {
        for &n in sizes {
            for &d in degrees {
                for compaction in [false, true] {
                    cells.push(Cell {
                        kind,
                        n,
                        d,
                        compaction,
                        intervals,
                    });
                }
            }
        }
    }
    if smoke {
        // One cheap cell of the full grid, compaction on, so `bench_diff`
        // against the committed report has a digest to compare.
        cells.push(Cell {
            kind: ScenarioKind::MassDeparture,
            n: 1 << 10,
            d: 4,
            compaction: true,
            intervals: 256,
        });
    }
    cells
}

/// The identity-gate cell: the acceptance row — mass departure with
/// compaction on at the largest N in the grid.
fn identity_cell(smoke: bool) -> Cell {
    Cell {
        kind: ScenarioKind::MassDeparture,
        n: if smoke { 256 } else { 1 << 13 },
        d: 4,
        compaction: true,
        intervals: if smoke { 24 } else { 256 },
    }
}

fn config_for(cell: Cell) -> ScenarioConfig {
    let mut options = ServerOptions {
        degree: cell.d,
        ..ServerOptions::default()
    };
    if cell.compaction {
        options.compaction = CompactionPolicy::DEFAULT_ON;
    }
    ScenarioConfig {
        kind: cell.kind,
        seed: 0xC4E2_0007 ^ u64::from(cell.n) ^ (u64::from(cell.d) << 32),
        initial_users: cell.n,
        intervals: cell.intervals,
        options,
    }
}

struct CellReport {
    cell: Cell,
    report: ScenarioReport,
    users_final: usize,
    mean_depth_final: f64,
    max_depth_final: u32,
    /// Whether `resident_bytes` strictly dropped at any point in the
    /// trajectory — the memory-reclamation acceptance signal.
    resident_nonmonotonic: bool,
}

fn bench_cell(cell: Cell) -> CellReport {
    let report = scenario::run(config_for(cell));
    let last = report.stats.last().expect("at least one interval");
    let resident_nonmonotonic = report
        .stats
        .windows(2)
        .any(|w| w[1].resident_bytes < w[0].resident_bytes);
    CellReport {
        cell,
        users_final: last.users,
        mean_depth_final: last.mean_depth,
        max_depth_final: last.max_depth,
        resident_nonmonotonic,
        report,
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Writes the coordinates a grid row and the identity header share.
fn cell_fields(w: &mut JsonWriter, cell: Cell) {
    w.field_str("kind", cell.kind.name());
    w.field_u64("n", u64::from(cell.n));
    w.field_u64("d", u64::from(cell.d));
    w.field_bool("compaction", cell.compaction);
}

fn render(cli: &Cli, cells: &[CellReport], id_cell: Cell, replay_matches: bool) -> String {
    let mut w = report::begin(&CHURN, cli);
    w.key("identity");
    w.begin_object();
    cell_fields(&mut w, id_cell);
    w.field_bool("replay_matches", replay_matches);
    w.end_object();
    w.key("churn");
    w.begin_array();
    for r in cells {
        w.begin_object();
        cell_fields(&mut w, r.cell);
        w.field_u64("intervals", r.cell.intervals as u64);
        w.field_u64("users_final", r.users_final as u64);
        report::ratio(
            &mut w,
            "enc_per_member_mean",
            r.report.mean_enc_per_member(),
        );
        w.field_u64("bytes_on_wire_total", r.report.total_bytes_on_wire() as u64);
        w.field_u64("max_depth_run", u64::from(r.report.max_depth()));
        w.field_u64("max_depth_final", u64::from(r.max_depth_final));
        report::ratio(&mut w, "mean_depth_final", r.mean_depth_final);
        w.field_u64("resident_bytes_peak", r.report.peak_resident_bytes() as u64);
        w.field_u64(
            "resident_bytes_final",
            r.report.final_resident_bytes() as u64,
        );
        w.field_bool("resident_nonmonotonic", r.resident_nonmonotonic);
        w.field_u64("relocations_total", r.report.total_relocations() as u64);
        w.field_str("digest", &format!("{:016x}", r.report.digest));
        w.end_object();
    }
    w.end_array();
    report::finish(w)
}

fn run(cli: &Cli) -> std::io::Result<String> {
    let cells = grid(cli.smoke);
    eprintln!("churn: {} trace runs ({})", cells.len(), cli.mode());
    let id_cell = identity_cell(cli.smoke);
    let mut obs_snapshot: Option<obs::Snapshot> = None;
    let mut reports = Vec::with_capacity(cells.len());
    for cell in cells {
        if cli.obs.active {
            obs::reset();
        }
        let r = bench_cell(cell);
        if cli.obs.active && cell == id_cell {
            obs_snapshot = Some(obs::snapshot());
        }
        eprintln!(
            "  {:<14} N={:<5} d={:<2} compact={:<5} users {:>5} depth {}->{} \
             enc/mem {:>6.3} reloc {:>5}",
            cell.kind.name(),
            cell.n,
            cell.d,
            cell.compaction,
            r.users_final,
            r.report.max_depth(),
            r.max_depth_final,
            r.report.mean_enc_per_member(),
            r.report.total_relocations(),
        );
        reports.push(r);
    }

    let Some(grid_run) = reports.iter().find(|r| r.cell == id_cell) else {
        return Err(std::io::Error::other(
            "the identity cell is not in the grid",
        ));
    };
    eprintln!(
        "identity: {} N={} d={} second run",
        id_cell.kind.name(),
        id_cell.n,
        id_cell.d
    );
    let replay_matches = scenario::run(config_for(id_cell)) == grid_run.report;
    eprintln!("  replay_matches={replay_matches}");

    // Instrumented replay of the acceptance row: per-interval time-series
    // and/or an event-log trace. The digest must match the grid
    // run's — recording is observation, not perturbation.
    if cli.series_out.is_some() || cli.trace.active() {
        cli.trace.start();
        let mut series = obs::series::SeriesRecorder::new();
        let recorded = scenario::ScenarioEngine::new(config_for(id_cell)).run_recorded(&mut series);
        cli.trace.finish()?;
        if let Some(path) = &cli.series_out {
            bench::write_file(path, &series.to_json())?;
            eprintln!("wrote {}-interval time-series to {path}", series.len());
        }
        if grid_run.report.digest != recorded.digest {
            return Err(std::io::Error::other(format!(
                "recorded replay digest {:016x} differs from grid run {:016x}",
                recorded.digest, grid_run.report.digest
            )));
        }
    }

    if let Some(snap) = obs_snapshot {
        cli.obs.emit(&snap, &mut std::io::stderr().lock())?;
    }
    Ok(render(cli, &reports, id_cell, replay_matches))
}

fn main() {
    report::main(&CHURN, run);
}
