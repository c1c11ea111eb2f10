//! Command line of the benchmark. See `run.sh` and `README.md`.
//!
//! With `--workload` it is one run in this process, ending in the contract's
//! JSON result line. Without, it is a *set*: every workload, each run a fresh
//! child process of this same binary, rounds interleaved round-robin
//! (`w1 w2 w3 w4 w1 ...`) because back-to-back runs on a small box see
//! different host speeds; every metric is the median over the rounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use rekeybench::run::{run, RunConfig};
use rekeybench::spec::{
    benchmark_json, Better, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use rekeybench::stats::{median, quartiles};

/// Rounds of a set.
const ROUNDS: usize = 3;
/// Seconds one `--smoke` run measures: eight runs end within 15 s.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str =
    "usage: rekeybench [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--aa | --smoke]
  --workload NAME   one run of wire_steady | wire_fec | server_scale | sim_figures
  --trace 0|1       end-to-end metrics (0, default) or the traced run's per-layer metrics (1)
  --seed N          workload seed (default 20010827)
  --seconds S       seconds one run measures (default 25)
  --aa              two sets of the same binary, runs alternated; fails when they disagree
  --smoke           one round of one-second runs (<= 15 s in all)
  --print-benchmark-json   the text of the root BENCHMARK.json
without --workload: a full set (3 rounds x 4 workloads, then one traced run each)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        aa: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    // One driver thread; the product's pool is pinned to one worker (on a
    // 2-core box two workers measure slower). An explicit setting wins and is
    // echoed with every result.
    if std::env::var_os("REKEY_THREADS").is_none() {
        std::env::set_var("REKEY_THREADS", "1");
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => one_run(workload, &args),
        None => sets(&args),
    }
}

/// One run in this process: `workload metric value unit` lines, then the
/// result line. Exits 0 once a result is printed; `correct` carries the
/// verdict.
fn one_run(workload: Workload, args: &Args) -> ExitCode {
    let result = run(&RunConfig {
        workload,
        sizing: workload.sizing(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    });
    let name = workload.name();
    for (key, value) in &result.info {
        println!("{name} {key} {value} info");
    }
    for m in &result.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name} failed_share {} ratio",
        result.failed as f64 / result.attempted as f64
    );
    if let Some(json) = &result.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{name}.trace.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("{name} trace_file {} info", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result.to_json_line());
    ExitCode::SUCCESS
}

/// What a child run printed: metric values, info facts, the verdict.
#[derive(Default)]
struct ChildRun {
    metrics: BTreeMap<String, (f64, String)>,
    info: BTreeMap<String, String>,
    correct: bool,
}

fn child_run(
    workload: Workload,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    if !out.status.success() {
        return Err(format!(
            "{} run exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut parsed = ChildRun::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, key, value, "info"] if *w == workload.name() => {
                parsed.info.insert((*key).into(), (*value).into());
            }
            [w, key, value, unit] if *w == workload.name() => {
                let v: f64 = value.parse().map_err(|e| format!("{key}: {e}"))?;
                parsed.metrics.insert((*key).into(), (v, (*unit).into()));
            }
            _ => parsed.correct |= line.starts_with("{\"correct\": true,"),
        }
    }
    Ok(parsed)
}

/// Metric → per-round values, for one workload of one set.
type Column = BTreeMap<String, (Vec<f64>, String)>;

#[derive(Default)]
struct Set {
    columns: BTreeMap<&'static str, Column>,
    digests: BTreeMap<&'static str, Vec<String>>,
    failures: Vec<String>,
}

impl Set {
    fn absorb(&mut self, workload: Workload, run: Result<ChildRun, String>, untraced: bool) {
        let name = workload.name();
        let run = match run {
            Ok(run) => run,
            Err(e) => return self.failures.push(e),
        };
        if !run.correct {
            self.failures
                .push(format!("{name}: a run failed its checks"));
        }
        if untraced {
            if let Some(d) = run.info.get("run_digest") {
                self.digests.entry(name).or_default().push(d.clone());
            }
        }
        let column = self.columns.entry(name).or_default();
        for (metric, (value, unit)) in run.metrics {
            column
                .entry(metric)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
        for key in ["host_speed_pct", "machine_drift_pct"] {
            if let Some(v) = run.info.get(key) {
                eprintln!("# {name} {key} {v}");
            }
        }
    }

    /// Same seed, same inputs: every round of a workload prints one digest.
    fn check_digests(&mut self) {
        for (name, digests) in &self.digests {
            if digests.iter().any(|d| d != &digests[0]) {
                self.failures.push(format!(
                    "{name}: same-seed runs printed different digests {digests:?}"
                ));
            }
        }
    }

    /// Medians over the rounds: end-to-end metrics first, then the layers,
    /// each in `spec.rs` order.
    fn print(&self, label: &str) {
        let order = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(["failed_share"])
            .chain(PER_LAYER.iter().map(|&(name, ..)| name));
        for workload in WORKLOADS {
            let Some(column) = self.columns.get(workload.name()) else {
                continue;
            };
            for metric in order.clone() {
                if let Some((values, unit)) = column.get(metric) {
                    println!(
                        "{label}{} {metric} {} {unit}",
                        workload.name(),
                        median(values)
                    );
                }
            }
            if let Some(digest) = self.digests.get(workload.name()).and_then(|d| d.first()) {
                println!("{label}{} run_digest {digest} info", workload.name());
            }
        }
    }
}

fn sets(args: &Args) -> ExitCode {
    let (rounds, seconds) = if args.smoke {
        (1, SMOKE_SECONDS)
    } else {
        (ROUNDS, args.seconds)
    };
    let n_sets = if args.aa { 2 } else { 1 };
    let mut sets: Vec<Set> = (0..n_sets).map(|_| Set::default()).collect();
    eprintln!(
        "# seed {} seconds {seconds} rounds {rounds} sets {n_sets} REKEY_THREADS {} nproc {}",
        args.seed,
        std::env::var("REKEY_THREADS").unwrap_or_default(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    // Untraced rounds first, then one traced run per workload; with --aa the
    // two sets alternate run by run (A.w1 B.w1 A.w2 B.w2 ...).
    for (round, trace) in (0..rounds).map(|r| (r, false)).chain([(rounds, true)]) {
        for workload in WORKLOADS {
            for (s, set) in sets.iter_mut().enumerate() {
                eprintln!(
                    "# round {round} set {} {} trace {}",
                    ["A", "B"][s],
                    workload.name(),
                    u8::from(trace)
                );
                set.absorb(workload, child_run(workload, args, seconds, trace), !trace);
            }
        }
    }

    let mut failures = Vec::new();
    for set in &mut sets {
        set.check_digests();
        failures.append(&mut set.failures);
    }
    if let [a, b] = sets.as_slice() {
        a.print("A ");
        b.print("B ");
        failures.extend(compare_sets(a, b));
    } else {
        sets[0].print("");
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: two sets of the same code must agree within the benchmark's own
/// bounds on every end-to-end metric, and exactly on digests.
fn compare_sets(a: &Set, b: &Set) -> Vec<String> {
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        let name = workload.name();
        if a.digests.get(name) != b.digests.get(name) {
            failures.push(format!("{name}: sets A and B printed different digests"));
        }
        for m in END_TO_END {
            let (Some((va, _)), Some((vb, _))) = (
                a.columns.get(name).and_then(|c| c.get(m.name)),
                b.columns.get(name).and_then(|c| c.get(m.name)),
            ) else {
                failures.push(format!("{name} {}: missing from a set", m.name));
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            println!(
                "AA {name} {} A {ma} [{} .. {}] B {mb} [{} .. {}] diff {:+.2}% bound {}%",
                m.name,
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                100.0 * (mb - ma) / ma,
                100.0 * m.bound
            );
            if worse.abs() > m.bound {
                failures.push(format!(
                    "{name} {}: A {ma} vs B {mb} differ by more than {}%",
                    m.name,
                    100.0 * m.bound
                ));
            }
        }
    }
    failures
}
