//! Long-horizon churn report over the scenario engine: emits
//! `BENCH_churn.json`.
//!
//! Sweeps the five adversarial trace families (`flash_crowd`, `diurnal`,
//! `mass_departure`, `oscillation`, `storm`; see `grouprekey::scenario`)
//! × group size N × tree degree d × compaction {off, on}, 256 rekey
//! intervals each, and records the trajectory-level facts the paper's
//! Poisson analysis cannot see: encryptions per member, bytes on the wire,
//! tree depth (with compaction off, one-sided traces leave survivors at the
//! historical depth), resident bytes (a mass departure must not pin the SoA
//! arrays at peak) and relocations. Every row is exact (the scenario engine
//! is seeded and sequential); nothing is timed.
//!
//! Before the report is written, typed gates run on what was computed and
//! a failing one fails the run naming the row: [`GATES`] on the
//! compaction-on one-sided rows, and [`same_stream`] on a second run of the
//! [`IDENTITY`] cell in the same process, which must reproduce the grid's
//! whole report — the check that catches `HashMap`-order or global-state
//! leakage into the rekey stream.
//!
//! Flags (`bench::report`): `--out PATH`; `--obs-out PATH` (or
//! `REKEY_OBS=1`) snapshots the obs metrics over the identity cell;
//! `--series-out PATH` and `--trace-out PATH` replay that cell once more
//! with an [`obs::series::SeriesRecorder`] attached and the event log
//! armed, and write the `obs_series/v1` time-series and Chrome trace-event
//! JSON (Perfetto). The replay must match the grid run too: recording must
//! not perturb the rekey stream. `--obs-out` and `--trace-out` need
//! `--features obs`.

use bench::report::{self, Cli, Spec};
use grouprekey::scenario::{self, ScenarioConfig, ScenarioKind, ScenarioReport};
use grouprekey::ServerOptions;
use keytree::CompactionPolicy;
use obs::json::JsonWriter;
use ScenarioKind::{MassDeparture, Oscillation};

const SPEC: Spec = Spec {
    schema: "bench_churn/v3",
    file: "BENCH_churn.json",
    sinks: &["--obs-out", "--trace-out", "--series-out"],
};

/// Rekey intervals every trace runs.
const INTERVALS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    kind: ScenarioKind,
    n: u32,
    d: u32,
    compaction: bool,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in ScenarioKind::ALL {
        for n in [1 << 10, 1 << 13] {
            for d in [4, 8] {
                for compaction in [false, true] {
                    cells.push(Cell {
                        kind,
                        n,
                        d,
                        compaction,
                    });
                }
            }
        }
    }
    cells
}

/// The identity-gate cell: the acceptance row — mass departure with
/// compaction on at the largest N in the grid.
const IDENTITY: Cell = Cell {
    kind: MassDeparture,
    n: 1 << 13,
    d: 4,
    compaction: true,
};

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
        intervals: INTERVALS,
        options,
    }
}

/// One grid row: the facts the report writes for a cell.
#[derive(Debug, Clone, Copy)]
struct CellReport {
    cell: Cell,
    users_final: usize,
    enc_per_member_mean: f64,
    bytes_on_wire_total: usize,
    max_depth_run: u32,
    max_depth_final: u32,
    mean_depth_final: f64,
    resident_bytes_peak: usize,
    resident_bytes_final: usize,
    /// Whether `resident_bytes` strictly dropped at any point in the
    /// trajectory — the memory-reclamation acceptance signal.
    resident_nonmonotonic: bool,
    relocations_total: usize,
    digest: u64,
}

impl CellReport {
    fn of(cell: Cell, report: &ScenarioReport) -> CellReport {
        let last = report.stats.last().expect("at least one interval");
        CellReport {
            cell,
            users_final: last.users,
            enc_per_member_mean: report.mean_enc_per_member(),
            bytes_on_wire_total: report.total_bytes_on_wire(),
            max_depth_run: report.max_depth(),
            max_depth_final: last.max_depth,
            mean_depth_final: last.mean_depth,
            resident_bytes_peak: report.peak_resident_bytes(),
            resident_bytes_final: report.final_resident_bytes(),
            resident_nonmonotonic: report
                .stats
                .windows(2)
                .any(|w| w[1].resident_bytes < w[0].resident_bytes),
            relocations_total: report.total_relocations(),
            digest: report.digest,
        }
    }
}

/// One acceptance gate over a row: `Err` says what does not hold.
type Gate = fn(&CellReport) -> Result<(), String>;

/// What the compaction-on one-sided rows (mass departure, oscillation)
/// must show: depth tracks the *current* group, and memory comes back.
const GATES: [Gate; 3] = [bounded_depth, reclaims_memory, settles_below_peak];

/// Levels a balanced degree-`d` tree needs for `users` members.
fn ideal_depth(users: usize, d: u32) -> u32 {
    let (mut capacity, mut depth) = (1u64, 0);
    while capacity < users.max(1) as u64 {
        capacity *= u64::from(d.max(2));
        depth += 1;
    }
    depth
}

/// Final depth within 2 levels of the balanced ideal for the *final*
/// population (compaction budget + trailing churn slack).
fn bounded_depth(r: &CellReport) -> Result<(), String> {
    let ideal = ideal_depth(r.users_final, r.cell.d);
    if r.max_depth_final > ideal + 2 {
        return Err(format!(
            "unbounded depth: final depth {} vs ideal {ideal} for {} users",
            r.max_depth_final, r.users_final
        ));
    }
    Ok(())
}

/// Resident bytes drop somewhere along the trajectory.
fn reclaims_memory(r: &CellReport) -> Result<(), String> {
    if !r.resident_nonmonotonic {
        return Err("monotonic resident_bytes trajectory".to_string());
    }
    Ok(())
}

/// An ended mass departure settles well below peak, not just dips
/// somewhere (oscillation legitimately refills).
fn settles_below_peak(r: &CellReport) -> Result<(), String> {
    let (fin, peak) = (r.resident_bytes_final, r.resident_bytes_peak);
    if r.cell.kind == MassDeparture && fin * 2 > peak {
        return Err(format!(
            "resident_bytes stuck near peak: final {fin} vs peak {peak}"
        ));
    }
    Ok(())
}

/// Runs [`GATES`] on every row they bind; `Err` names the first failing
/// row and what failed.
fn check(rows: &[CellReport]) -> Result<(), String> {
    for r in rows {
        if !matches!(r.cell.kind, MassDeparture | Oscillation) || !r.cell.compaction {
            continue;
        }
        for gate in GATES {
            gate(r).map_err(|e| {
                let Cell { kind, n, d, .. } = r.cell;
                format!("{} n={n} d={d}: {e}", kind.name())
            })?;
        }
    }
    Ok(())
}

/// The identity gate: `again` (a second run of a grid cell, named by
/// `what`) is the grid run's rekey stream, whole trajectory and digest.
fn same_stream(what: &str, grid: &ScenarioReport, again: &ScenarioReport) -> Result<(), String> {
    if again == grid {
        return Ok(());
    }
    Err(format!(
        "{what} did not match the grid run (digest {:016x} vs {:016x})",
        again.digest, grid.digest
    ))
}

/// Writes the coordinates a grid row and the identity header share.
fn cell_fields(w: &mut JsonWriter, cell: Cell) {
    w.field_str("kind", cell.kind.name());
    w.field_u64("n", u64::from(cell.n));
    w.field_u64("d", u64::from(cell.d));
    w.field_bool("compaction", cell.compaction);
}

fn render(rows: &[CellReport]) -> std::io::Result<String> {
    let mut w = report::begin(&SPEC);
    w.key("identity");
    w.begin_object();
    cell_fields(&mut w, IDENTITY);
    // Written only after `same_stream` passed.
    w.field_bool("replay_matches", true);
    w.end_object();
    w.key("churn");
    w.begin_array();
    for r in rows {
        w.begin_object();
        cell_fields(&mut w, r.cell);
        w.field_u64("intervals", INTERVALS as u64);
        w.field_u64("users_final", r.users_final as u64);
        report::ratio(&mut w, "enc_per_member_mean", r.enc_per_member_mean)?;
        w.field_u64("bytes_on_wire_total", r.bytes_on_wire_total as u64);
        w.field_u64("max_depth_run", u64::from(r.max_depth_run));
        w.field_u64("max_depth_final", u64::from(r.max_depth_final));
        report::ratio(&mut w, "mean_depth_final", r.mean_depth_final)?;
        w.field_u64("resident_bytes_peak", r.resident_bytes_peak as u64);
        w.field_u64("resident_bytes_final", r.resident_bytes_final as u64);
        w.field_bool("resident_nonmonotonic", r.resident_nonmonotonic);
        w.field_u64("relocations_total", r.relocations_total as u64);
        w.field_str("digest", &format!("{:016x}", r.digest));
        w.end_object();
    }
    w.end_array();
    Ok(report::finish(w))
}

fn run(cli: &Cli) -> std::io::Result<String> {
    let gate = |result: Result<(), String>| result.map_err(std::io::Error::other);
    let cells = grid();
    eprintln!("churn: {} trace runs", cells.len());
    let mut obs_snapshot: Option<obs::Snapshot> = None;
    let mut identity_run: Option<ScenarioReport> = None;
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        if cli.obs.active {
            obs::reset();
        }
        eprintln!("  {cell:?}");
        let report = scenario::run(config_for(cell));
        rows.push(CellReport::of(cell, &report));
        if cell == IDENTITY {
            if cli.obs.active {
                obs_snapshot = Some(obs::snapshot());
            }
            identity_run = Some(report);
        }
    }
    gate(check(&rows))?;

    let identity_run = identity_run
        .ok_or_else(|| std::io::Error::other("the identity cell is not in the grid"))?;
    let again = scenario::run(config_for(IDENTITY));
    gate(same_stream("a second run", &identity_run, &again))?;

    // Instrumented replay of the identity cell: per-interval time-series
    // and/or an event-log trace. Recording is observation, not
    // perturbation, so the replay must be the grid run's stream too.
    if cli.series_out.is_some() || cli.trace.active() {
        cli.trace.start();
        let mut series = obs::series::SeriesRecorder::new();
        let recorded =
            scenario::ScenarioEngine::new(config_for(IDENTITY)).run_recorded(&mut series);
        cli.trace.finish()?;
        if let Some(path) = &cli.series_out {
            bench::write_file(path, &series.to_json())?;
            eprintln!("wrote {}-interval time-series to {path}", series.len());
        }
        gate(same_stream("the recorded replay", &identity_run, &recorded))?;
    }

    if let Some(snap) = obs_snapshot {
        cli.obs.emit(&snap, &mut std::io::stderr().lock())?;
    }
    render(&rows)
}

fn main() {
    report::main(&SPEC, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compaction-on one-sided rows of the committed `BENCH_churn.json`
    /// (kind, n, d, users_final, max_depth_final, resident bytes peak and
    /// final); every one has a non-monotone resident-bytes trajectory.
    const COMMITTED: [(ScenarioKind, u32, u32, usize, u32, usize, usize); 8] = [
        (MassDeparture, 1024, 4, 116, 4, 65522, 14888),
        (MassDeparture, 1024, 8, 105, 3, 41981, 13269),
        (MassDeparture, 8192, 4, 830, 6, 352249, 134321),
        (MassDeparture, 8192, 8, 836, 4, 335869, 100135),
        (Oscillation, 1024, 4, 1024, 5, 59672, 48664),
        (Oscillation, 1024, 8, 1024, 4, 50856, 50856),
        (Oscillation, 8192, 4, 8192, 7, 517684, 517684),
        (Oscillation, 8192, 8, 8192, 5, 311346, 238778),
    ];

    fn committed() -> Vec<CellReport> {
        let row = |(kind, n, d, users_final, depth, peak, fin)| CellReport {
            cell: Cell {
                kind,
                n,
                d,
                compaction: true,
            },
            users_final,
            enc_per_member_mean: 0.0,
            bytes_on_wire_total: 0,
            max_depth_run: depth,
            max_depth_final: depth,
            mean_depth_final: 0.0,
            resident_bytes_peak: peak,
            resident_bytes_final: fin,
            resident_nonmonotonic: true,
            relocations_total: 0,
            digest: 0,
        };
        COMMITTED.into_iter().map(row).collect()
    }

    #[test]
    fn every_gate_accepts_the_committed_rows() {
        let rows = committed();
        for r in &rows {
            for gate in GATES {
                assert_eq!(gate(r), Ok(()), "{r:?}");
            }
        }
        assert_eq!(check(&rows), Ok(()));
    }

    #[test]
    fn a_final_depth_at_ideal_plus_three_fails_naming_the_row() {
        let mut r = committed()[2];
        let ideal = ideal_depth(r.users_final, r.cell.d);
        r.max_depth_final = ideal + 2;
        assert_eq!(bounded_depth(&r), Ok(()), "ideal + 2 is within bounds");
        r.max_depth_final = ideal + 3;
        assert!(bounded_depth(&r).is_err());
        let e = check(&[r]).unwrap_err();
        assert!(
            e.starts_with("mass_departure n=8192 d=4: unbounded depth"),
            "{e}"
        );
    }

    #[test]
    fn a_monotone_resident_trajectory_fails_where_the_gates_bind() {
        for mut r in committed() {
            r.resident_nonmonotonic = false;
            assert!(reclaims_memory(&r).is_err(), "{r:?}");
            assert!(check(&[r]).is_err(), "{r:?}");
            r.cell.compaction = false;
            assert_eq!(check(&[r]), Ok(()), "compaction off is not gated");
        }
    }

    #[test]
    fn a_mass_departure_stuck_above_half_its_peak_fails() {
        let mut r = committed()[0];
        r.resident_bytes_final = r.resident_bytes_peak / 2 + 1;
        assert!(settles_below_peak(&r).is_err());
        assert!(check(&[r]).is_err());
        // Oscillation refills: its committed rows end at peak and pass.
        let refilled = committed()[5];
        assert_eq!(refilled.resident_bytes_final, refilled.resident_bytes_peak);
        assert_eq!(settles_below_peak(&refilled), Ok(()));
    }

    #[test]
    fn a_replay_that_differs_from_the_grid_run_fails() {
        let run = |digest| ScenarioReport {
            kind: MassDeparture,
            stats: Vec::new(),
            digest,
        };
        assert_eq!(same_stream("replay", &run(7), &run(7)), Ok(()));
        let e = same_stream("replay", &run(7), &run(8)).unwrap_err();
        assert!(e.starts_with("replay did not match"), "{e}");
    }
}
