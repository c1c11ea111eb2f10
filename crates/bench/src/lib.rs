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

/// Every (row, column) cell of a figure's sweep through [`par`], returned
/// row-major: `grid(rows, cols, cell)[r][c]` is `cell(r, &rows[r],
/// &cols[c])`. The row index is passed on because a figure may seed by it.
pub(crate) fn grid<R: Sync, C: Sync, T: Send>(
    rows: &[R],
    cols: &[C],
    cell: impl Fn(usize, &R, &C) -> T + Sync,
) -> Vec<Vec<T>> {
    let at: Vec<(usize, &R, &C)> = rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| cols.iter().map(move |col| (r, row, col)))
        .collect();
    let mut done = par(&at, |&(r, row, col)| cell(r, row, col)).into_iter();
    rows.iter()
        .map(|_| done.by_ref().take(cols.len()).collect())
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

thread_local! {
    /// Worker count pinned by [`with_workers`] on this thread.
    static WORKERS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `body` with [`par`]'s worker count pinned to `workers` on the
/// current thread, restoring the previous setting afterwards (also on
/// panic). `tests/figure_identity.rs` renders each figure under
/// `with_workers(1, ..)` and `with_workers(4, ..)`; being thread-local, the
/// pin cannot race between concurrent tests the way an environment variable
/// would.
pub fn with_workers<R>(workers: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKERS.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(WORKERS.with(|cell| cell.replace(Some(workers))));
    body()
}

/// The number of grid workers [`par`] uses on this thread: the
/// [`with_workers`] pin if present, else the `REKEY_THREADS` environment
/// variable, else [`std::thread::available_parallelism`]. At least 1.
pub fn grid_workers() -> usize {
    if let Some(n) = WORKERS.with(std::cell::Cell::get) {
        return n.max(1);
    }
    std::env::var("REKEY_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `f` over independent figure-grid cells on [`grid_workers`] scoped
/// threads and returns the results in input order, so the printed tables
/// are byte-identical to a serial run at any worker count. Workers claim
/// cells from a shared index, so an expensive cell does not hold up the
/// ones behind it. This is the repo's only level of parallelism: a cell
/// runs the sequential rekey pipeline (DESIGN.md "Why the rekey path is
/// sequential").
///
/// # Panics
///
/// Resumes a cell's panic on the calling thread once every worker has
/// been joined.
#[expect(
    clippy::disallowed_types,
    reason = "a ticket counter hands grid cells to the scoped workers; results are slotted by index and published by the join, so Relaxed is enough"
)]
pub fn par<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = grid_workers().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut cells: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // ordering: ticket counter only; results are slotted by index and published by the join
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => cells.extend(done),
                // The scope joins the remaining workers before this
                // leaves it, so no cell outlives the caller's unwind.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    cells.sort_unstable_by_key(|&(i, _)| i);
    cells.into_iter().map(|(_, r)| r).collect()
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
    fn par_preserves_input_order_when_cell_costs_are_skewed() {
        // The first cells are the slow ones, so with more than one worker
        // the later cells finish first and must still land in their slots.
        let items: Vec<u64> = (0..24).collect();
        let cell = |&i: &u64| {
            if i < 3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * i
        };
        let expect: Vec<u64> = items.iter().map(cell).collect();
        for workers in [1, 2, 8] {
            assert_eq!(
                with_workers(workers, || par(&items, cell)),
                expect,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn grid_is_row_major_passes_the_row_index_and_ignores_the_worker_count() {
        // Three rows by two columns, so a transposed grid cannot match; the
        // row-0 cells are the slow ones, so with four workers the later
        // cells finish first and must still land in their slots.
        let cell = |r: usize, &row: &u64, &col: &u64| {
            if r == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            (r, row + col)
        };
        let expect = vec![
            vec![(0, 11), (0, 12)],
            vec![(1, 21), (1, 22)],
            vec![(2, 31), (2, 32)],
        ];
        for workers in [1, 4] {
            let cells = with_workers(workers, || grid(&[10, 20, 30], &[1, 2], cell));
            assert_eq!(cells, expect, "workers = {workers}");
        }
    }

    #[test]
    fn par_handles_more_workers_than_items_and_the_empty_slice() {
        let out = with_workers(8, || par(&[10u8, 20, 30], |&v| v + 1));
        assert_eq!(out, vec![11, 21, 31]);
        let empty: [u8; 0] = [];
        assert!(with_workers(8, || par(&empty, |&v| v)).is_empty());
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "counts the cells that finished across the workers; read only after `par` has joined them"
    )]
    fn a_panicking_cell_surfaces_after_every_worker_is_joined() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_workers(4, || {
                par(&items, |&i| {
                    if i == 5 {
                        panic!("cell 5 failed");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            })
        }));
        let payload = caught.expect_err("the cell's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"cell 5 failed"));
        // Nothing is still running: the other workers drained the queue
        // before the panic was resumed.
        assert_eq!(finished.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn with_workers_pins_restores_and_clamps() {
        let outer = with_workers(3, || {
            assert_eq!(with_workers(7, grid_workers), 7);
            grid_workers()
        });
        assert_eq!(outer, 3);
        assert_eq!(with_workers(0, grid_workers), 1);
    }
}
