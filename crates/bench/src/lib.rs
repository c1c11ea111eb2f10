//! Figure-regeneration and tracked-benchmark harness.
//!
//! One function per figure/table of the paper's evaluation ([`figures`],
//! [`ablations`]); the `all_figures` binary runs them all, or the subset
//! named in `REKEY_FIGURES`. Output is aligned plain text (one block per
//! sub-figure) so EXPERIMENTS.md can quote it directly. The five
//! `bench_*` binaries that emit the committed `BENCH_*.json` reports, and
//! `bench_diff` that compares them, share [`report`].
//!
//! Set `REKEY_QUICK=1` to cut message counts ~4x for smoke runs.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod jsonv;
pub mod report;

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

/// Mean of an iterator of f64.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Writes a figure header.
pub fn header(out: &mut dyn std::io::Write, id: &str, caption: &str) -> std::io::Result<()> {
    writeln!(out)?;
    writeln!(out, "### {id} — {caption}")
}

/// Fans independent figure grid cells out across the task pool, returning
/// results in input order (so the printed tables are byte-identical to a
/// serial run at any `REKEY_THREADS`; `taskpool::map` guarantees the
/// ordering).
///
/// Each cell runs with nested task-pool stages pinned to one worker: the
/// grid is the outermost (and widest) level of parallelism, so letting the
/// per-message datapath fan out again from inside a grid worker would
/// oversubscribe the cores without adding coverage.
pub fn par<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    taskpool::map(items, |_, item| taskpool::with_workers(1, || f(item)))
}

/// One cell of the server-cost grid `bench_scale` sweeps and `bench_obs`
/// measures the recorder on: group size, tree degree, and batch shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Group size N.
    pub n: u32,
    /// Key-tree degree.
    pub d: u32,
    /// Joins in the batch.
    pub joins: usize,
    /// Leaves in the batch.
    pub leaves: usize,
}

impl Cell {
    /// Writes the four coordinates into the object `w` has open.
    pub fn write_fields(&self, w: &mut obs::json::JsonWriter) {
        w.field_u64("n", u64::from(self.n));
        w.field_u64("d", u64::from(self.d));
        w.field_u64("joins", self.joins as u64);
        w.field_u64("leaves", self.leaves as u64);
    }
}

/// The cell's batch: leaves strided across the lower half of the member
/// IDs, joins appended past N with keys from `keygen`.
pub fn make_batch(cell: Cell, keygen: &mut wirecrypto::KeyGen) -> keytree::Batch {
    let n = cell.n;
    let stride = (n / (2 * cell.leaves.max(1)) as u32).max(1);
    let leaves: Vec<keytree::MemberId> =
        (0..cell.leaves as u32).map(|i| (i * stride) % n).collect();
    let joins: Vec<(keytree::MemberId, wirecrypto::SymKey)> = (0..cell.joins as u32)
        .map(|i| (n + i, keygen.next_key()))
        .collect();
    keytree::Batch::new(joins, leaves)
}

/// `std::fs::write` whose error names the path.
pub fn write_file(path: &str, text: &str) -> std::io::Result<()> {
    std::fs::write(path, text)
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {path}: {e}")))
}

/// Errs, with the one line the binary should print, when `what` needs the
/// instrumentation this build compiled out.
pub fn needs_obs_build(what: &str) -> Result<(), String> {
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

/// Where a bench binary sends its flight-recorder trace, resolved from
/// the `--trace-out PATH` flag.
///
/// Like [`ObsSink`], requesting a trace from a build without the
/// instrumentation compiled in is a hard error rather than a silently
/// empty file. The sink brackets the measured region: [`TraceSink::start`]
/// arms the recorder, [`TraceSink::finish`] disarms it, drains every
/// per-thread ring, and writes the merged stream as Chrome trace-event
/// JSON (open it in Perfetto or `chrome://tracing`).
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

    /// Arms the flight recorder (no-op when inactive).
    pub fn start(&self) {
        if self.active() {
            obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
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
