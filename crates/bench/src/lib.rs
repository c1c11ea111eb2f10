//! Figure-regeneration and tracked-report harness.
//!
//! One function per figure/table of the paper's evaluation ([`figures`],
//! [`ablations`]); the `all_figures` binary runs them all, or the subset
//! named in `REKEY_FIGURES`. Output is aligned plain text (one block per
//! sub-figure) so EXPERIMENTS.md can quote it directly. The three
//! `bench_*` binaries that emit the committed `BENCH_*.json` reports share
//! [`report`]; those reports hold exact facts and no timing, so a fresh
//! run is compared with the committed file by `cmp` (the repository
//! benchmark, `BENCHMARK.json`, is the one speed gate).
//!
//! Set `REKEY_QUICK=1` to cut `all_figures`' message counts ~4x.

pub mod ablations;
pub mod figures;
pub mod report;

use std::io::{self, Write};

use grouprekey::experiment::{run_experiment, ExperimentParams};
use grouprekey::MessageReport;
use netsim::NetworkConfig;
use rekeyproto::ServerConfig;

/// Whether the environment variable `name` is set to anything but `0`.
pub fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0")
}

/// Global effort knob.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Rekey messages simulated per transport data point.
    pub messages: usize,
    /// Marking/UKA repetitions per workload data point.
    pub runs: usize,
    /// Messages for the long adaptive trajectories (figs 12–15, 21).
    pub trajectory: usize,
}

impl Mode {
    /// The `REKEY_QUICK=1` workload.
    pub const QUICK: Mode = Mode {
        messages: 3,
        runs: 2,
        trajectory: 8,
    };

    /// Reads `REKEY_QUICK` from the environment.
    pub fn from_env() -> Self {
        if env_on("REKEY_QUICK") {
            Mode::QUICK
        } else {
            Mode {
                messages: 10,
                runs: 5,
                trajectory: 25,
            }
        }
    }
}

/// Mean of `field` over `items` (0 for none).
pub fn mean<T>(items: &[T], field: impl Fn(&T) -> f64) -> f64 {
    let mut sum = 0.0;
    for item in items {
        sum += field(item);
    }
    if items.is_empty() {
        0.0
    } else {
        sum / items.len() as f64
    }
}

/// Writes a figure header.
pub fn header(out: &mut dyn Write, id: &str, caption: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "### {id} — {caption}")
}

/// Every (row, column) cell of a figure's sweep, run in order on the
/// calling thread and returned row-major: `grid(rows, cols, cell)[r][c]` is
/// `cell(r, &rows[r], &cols[c])`. The row index is passed on because a
/// figure may seed by it.
pub(crate) fn grid<R, C, T>(
    rows: &[R],
    cols: &[C],
    cell: impl Fn(usize, &R, &C) -> T,
) -> Vec<Vec<T>> {
    rows.iter()
        .enumerate()
        .map(|(r, row)| cols.iter().map(|col| cell(r, row, col)).collect())
        .collect()
}

/// Writes one panel: `head`, then per row its label followed by each of
/// its cells as `show` formats it.
pub(crate) fn table<T>(
    out: &mut dyn Write,
    head: &str,
    labels: impl IntoIterator<Item = String>,
    grid: &[Vec<T>],
    show: impl Fn(&T) -> String,
) -> io::Result<()> {
    writeln!(out, "{head}")?;
    for (label, row) in labels.into_iter().zip(grid) {
        writeln!(out, "{label}{}", row.iter().map(&show).collect::<String>())?;
    }
    Ok(())
}

/// A fixed proactivity factor `rho` at block size `k` (`rho = 1` is the
/// reactive-only baseline).
pub(crate) fn fixed_rho(k: usize, rho: f64) -> ServerConfig {
    ServerConfig {
        block_size: k,
        initial_rho: rho,
        adapt_rho: false,
        ..ServerConfig::default()
    }
}

/// Adaptive rho from `rho` at block size `k`, steering first-round NACKs
/// toward a `num_nack` that is itself held fixed.
pub(crate) fn adaptive_rho(k: usize, rho: f64, num_nack: usize) -> ServerConfig {
    ServerConfig {
        block_size: k,
        initial_rho: rho,
        initial_num_nack: num_nack,
        adapt_num_nack: false,
        ..ServerConfig::default()
    }
}

/// A transport experiment at the paper's defaults but for group size `n`
/// (leaving `L = N/4`), a share `alpha` of receivers on lossy links, and
/// the protocol `proto`.
pub(crate) fn params(
    n: u32,
    alpha: f64,
    proto: ServerConfig,
    messages: usize,
    seed: u64,
) -> ExperimentParams {
    ExperimentParams {
        protocol: proto,
        net: NetworkConfig {
            alpha,
            ..NetworkConfig::default()
        },
        messages,
        seed,
        ..ExperimentParams::default()
    }
    .with_n(n)
}

/// Runs one transport cell multicast-only: no unicast tail, so the
/// bandwidth overhead counts every packet up to full recovery.
pub(crate) fn multicast(params: ExperimentParams) -> Vec<MessageReport> {
    run_experiment(params.multicast_only())
}

/// `std::fs::write` whose error names the path.
pub fn write_file(path: &str, text: &str) -> std::io::Result<()> {
    std::fs::write(path, text)
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {path}: {e}")))
}

/// Errs, with the one line the binary should print, when `what` needs the
/// instrumentation this build compiled out.
fn needs_obs_build(what: &str) -> Result<(), String> {
    if obs::enabled() {
        return Ok(());
    }
    Err(format!(
        "{what} but this binary was built without the instrumentation layer; \
         rebuild with `--features obs`"
    ))
}

/// Where a bench binary sends its observability snapshot, resolved from
/// the `--obs-out PATH` flag and the `REKEY_OBS` environment variable.
///
/// Either source activates the sink; activation demands a build with the
/// instrumentation compiled in ([`obs::enabled`]), because a snapshot
/// from a no-op build would be silently empty. [`ObsSink::resolve`]
/// turns that mismatch into a one-line error the binary prints before
/// exiting non-zero.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// Destination for the JSON snapshot (`--obs-out PATH`), if any.
    pub path: Option<String>,
    /// Whether any observability output was requested (path given or
    /// `REKEY_OBS=1`).
    pub active: bool,
}

impl ObsSink {
    /// Resolves the sink from the parsed `--obs-out` value plus the
    /// `REKEY_OBS` environment variable. Errors (with the message the
    /// binary should print verbatim) when output is requested but the
    /// instrumentation is compiled out.
    pub fn resolve(obs_out: Option<String>) -> Result<ObsSink, String> {
        let active = env_on("REKEY_OBS") || obs_out.is_some();
        if active {
            needs_obs_build("obs output requested (--obs-out / REKEY_OBS=1)")?;
        }
        Ok(ObsSink {
            path: obs_out,
            active,
        })
    }

    /// Emits the snapshot: the human table through `err` (callers pass
    /// their stderr handle so the table shares whatever lock their other
    /// diagnostics use), and JSON to [`ObsSink::path`] when set, named on
    /// `err` once written. No-op when the sink is inactive.
    pub fn emit(&self, snap: &obs::Snapshot, err: &mut dyn std::io::Write) -> std::io::Result<()> {
        if !self.active {
            return Ok(());
        }
        err.write_all(snap.render_table().as_bytes())?;
        if let Some(path) = &self.path {
            write_file(path, &snap.to_json())?;
            writeln!(err, "wrote obs snapshot to {path}")?;
        }
        Ok(())
    }
}

/// Where a bench binary sends its event-log trace, resolved from
/// the `--trace-out PATH` flag.
///
/// Like [`ObsSink`], requesting a trace from a build without the
/// instrumentation compiled in is a hard error rather than a silently
/// empty file. The sink brackets the measured region: [`TraceSink::start`]
/// arms the event log, [`TraceSink::finish`] disarms it, drains it and
/// writes the events as Chrome trace-event JSON (open it in Perfetto or
/// `chrome://tracing`).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    /// Destination for the Chrome trace JSON (`--trace-out PATH`), if any.
    pub path: Option<String>,
}

impl TraceSink {
    /// Resolves the sink from the parsed `--trace-out` value. Errors
    /// (with the message the binary should print verbatim) when a trace
    /// is requested but the recorder is compiled out.
    pub fn resolve(trace_out: Option<String>) -> Result<TraceSink, String> {
        if trace_out.is_some() {
            needs_obs_build("trace output requested (--trace-out)")?;
        }
        Ok(TraceSink { path: trace_out })
    }

    /// Whether a trace was requested.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Arms the event log (no-op when inactive).
    pub fn start(&self) {
        if self.active() {
            obs::trace::enable();
        }
    }

    /// Disarms the recorder, drains it, and writes the Chrome trace JSON
    /// to [`TraceSink::path`], reporting counts on stderr. No-op when the
    /// sink is inactive.
    pub fn finish(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        obs::trace::disable();
        let trace = obs::trace::drain();
        write_file(path, &trace.to_chrome_json())?;
        eprintln!(
            "trace: {} events on {} tracks ({} dropped) -> {path}",
            trace.events.len(),
            trace.tracks.len(),
            trace.dropped_total(),
        );
        Ok(())
    }
}

/// A figure-regeneration entry point: writes one figure's text to `out`.
pub type FigFn = fn(Mode, &mut dyn std::io::Write) -> std::io::Result<()>;

/// Every figure and ablation in canonical `all_figures` run order,
/// labelled for timing lines and `BENCH_figures.json`.
pub const ALL_FIGURES: &[(&str, FigFn)] = &[
    ("fig06", figures::fig06),
    ("fig07", figures::fig07),
    ("fig08", figures::fig08),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig12_13", figures::fig12_13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
    ("fig19_20", figures::fig19_20),
    ("fig21", figures::fig21),
    ("sigcomm_degree", figures::sigcomm_degree),
    ("sigcomm_batch", figures::sigcomm_batch),
    ("sigcomm_sparseness", figures::sigcomm_sparseness),
    ("sigcomm_model", figures::sigcomm_model),
    ("ablation_send_order", ablations::ablation_send_order),
    ("ablation_loss_model", ablations::ablation_loss_model),
    ("ablation_uka", ablations::ablation_uka),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_row_major_and_passes_the_row_index() {
        // Three rows by two columns, so a transposed grid cannot match.
        let cells = grid(&[10, 20, 30], &[1, 2], |r, &row: &u64, &col: &u64| {
            (r, row + col)
        });
        let expect = vec![
            vec![(0, 11), (0, 12)],
            vec![(1, 21), (1, 22)],
            vec![(2, 31), (2, 32)],
        ];
        assert_eq!(cells, expect);
    }
}
