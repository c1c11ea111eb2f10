//! Tracked figure identity: emits `BENCH_figures.json`.
//!
//! Renders every figure of `all_figures` once at the quick-mode workload
//! (the `REKEY_QUICK=1` parameters, so the committed report is a fixed
//! workload) and records per figure the length of its text and a 64-bit
//! digest of it — the committed fingerprint that lets a refactor prove it
//! changed no figure without diffing 300 lines of tables by hand. The text
//! is what `REKEY_QUICK=1 REKEY_FIGURES=<name> all_figures` prints after
//! its header line.
//!
//! Nothing is timed: the figures run one after another on one thread, and
//! the figure engine's speed is the repository benchmark's `sim_figures`
//! workload.
//!
//! The one flag is `--out PATH` (`bench::report`).

use bench::report::{self, Cli, Spec};
use bench::{Mode, ALL_FIGURES};
use wirecrypto::{mac::mac64, SymKey};

const SPEC: Spec = Spec {
    schema: "bench_figures/v2",
    file: "BENCH_figures.json",
    sinks: &[],
};

fn run(_: &Cli) -> std::io::Result<String> {
    // A fixed, public key: the digest detects change, it authenticates nothing.
    let key = SymKey::from_bytes(*b"BENCH_figures/v2");
    eprintln!("figures: quick-mode grid");
    let mut w = report::begin(&SPEC);
    w.key("figures");
    w.begin_array();
    for &(name, f) in ALL_FIGURES {
        let mut text: Vec<u8> = Vec::new();
        f(Mode::QUICK, &mut text)?;
        let digest = format!("{:016x}", mac64(&key, &text));
        eprintln!("  {name}: {} bytes, {digest}", text.len());
        w.begin_object();
        w.field_str("name", name);
        w.field_u64("bytes", text.len() as u64);
        w.field_str("digest", &digest);
        w.end_object();
    }
    w.end_array();
    Ok(report::finish(w))
}

fn main() {
    report::main(&SPEC, run);
}
