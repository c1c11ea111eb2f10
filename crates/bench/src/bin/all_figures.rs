//! Regenerates every figure and table in sequence (EXPERIMENTS.md source).
//!
//! Every cell runs in order on the calling thread. Figure text goes to
//! stdout — byte-identical across runs, so two runs can be diffed
//! directly. Per-figure wall times go to stderr so CI logs surface
//! regressions without perturbing the comparable output. All stderr
//! diagnostics — the `[time]` lines and, with `--obs-out`/`REKEY_OBS=1`,
//! the metrics table — go through one `stderr` lock held for the whole
//! run, so they never mix with figure stdout.
//!
//! `REKEY_FIGURES=name,name,..` restricts the run to a subset of figures
//! (exact names from the canonical list); unknown names abort. The
//! header and figure text are unchanged for the selected subset, so a
//! filtered run is byte-identical to the corresponding slice of a full
//! run.

use std::io::{self, Write};
use std::time::Instant;

use bench::report::{fail, Args};
use bench::{Mode, ObsSink, ALL_FIGURES};

fn main() -> io::Result<()> {
    let args = Args::parse(&["--obs-out"]);
    let obs_sink = ObsSink::resolve(args.value("--obs-out")).unwrap_or_else(|msg| fail(msg));

    let figures: Vec<&(&str, bench::FigFn)> = match std::env::var("REKEY_FIGURES") {
        Ok(filter) => {
            let wanted: Vec<&str> = filter
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            for name in &wanted {
                if !ALL_FIGURES.iter().any(|(n, _)| n == name) {
                    eprintln!("REKEY_FIGURES names unknown figure {name}");
                    std::process::exit(2);
                }
            }
            ALL_FIGURES
                .iter()
                .filter(|(n, _)| wanted.contains(n))
                .collect()
        }
        Err(_) => ALL_FIGURES.iter().collect(),
    };

    let mode = Mode::from_env();
    let mut out = io::stdout().lock();
    let mut err = io::stderr().lock();
    writeln!(
        out,
        "# Figure regeneration run (messages/point = {}, workload runs = {}, trajectory = {})",
        mode.messages, mode.runs, mode.trajectory
    )?;
    let total = Instant::now();
    for (name, f) in figures {
        let t = Instant::now();
        f(mode, &mut out)?;
        writeln!(err, "[time] {name}: {:.2}s", t.elapsed().as_secs_f64())?;
    }
    writeln!(err, "[time] total: {:.2}s", total.elapsed().as_secs_f64())?;
    obs_sink.emit(&obs::snapshot(), &mut err)
}
