//! Tracked datapath benchmark: emits `BENCH_rekey.json`.
//!
//! Measures the rekey datapath (regressions are judged by `bench_diff`
//! against the committed report, not against an in-binary baseline):
//!
//! * `encode` — single-thread FEC parity throughput at k = 64, packet
//!   length 1024, rows warm.
//! * `decode` — block reconstruction latency with half the data erased,
//!   through a persistent [`rse::Decoder`].
//! * `parallel` — bit-for-bit identity of the parallel proactive encode
//!   against a single-worker run of the same message.
//! * `batch_rekey` — end-to-end wall time of one server batch (marking,
//!   UKA, sealing, block build, round-one schedule) at group sizes
//!   N ∈ {2^10, 2^14, 2^17}.
//!
//! Flags: `--smoke` shrinks measurement windows/reps (same sections, same
//! JSON shape); `--check <path>` validates an existing JSON file and
//! exits non-zero if it is missing, malformed, or records a parallel
//! mismatch; `--out <path>` overrides the output path; `--obs-out <path>`
//! (or `REKEY_OBS=1`) dumps the metrics snapshot collected during the
//! run — JSON to the path, human table to stderr — and requires a build
//! with `--features obs`. `--trace-out <path>` records the `batch_rekey`
//! section in the flight recorder and writes Chrome trace-event JSON
//! (open in Perfetto; requires `--features obs`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use keytree::Batch;
use rse::{BlockEncoder, Decoder, Share};

const ENCODE_K: usize = 64;
const PACKET_LEN: usize = 1024;
const SCHEMA: &str = "bench_rekey/v2";

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Effort {
    window: Duration,
    reps: usize,
    rekey_reps: usize,
}

impl Effort {
    fn full() -> Self {
        Effort {
            window: Duration::from_millis(200),
            reps: 3,
            rekey_reps: 3,
        }
    }

    fn smoke() -> Self {
        Effort {
            window: Duration::from_millis(25),
            reps: 1,
            rekey_reps: 1,
        }
    }
}

/// Best ops/sec over `reps` measurement windows.
fn ops_per_sec(effort: Effort, mut op: impl FnMut()) -> f64 {
    // Warm-up: one untimed call (row caches, page faults).
    op();
    let mut best = 0.0f64;
    for _ in 0..effort.reps {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < effort.window {
            op();
            iters += 1;
        }
        let rate = iters as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

fn block(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..len).map(|b| (i * 37 + b * 11 + 5) as u8).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// Parity packets per second of one warm single-thread encoder.
fn bench_encode(effort: Effort) -> f64 {
    let data = block(ENCODE_K, PACKET_LEN);
    // Steady-state server: rows already cached, cycle through a small set
    // of parity indices so the per-packet cost alone is measured.
    const ROWS: usize = 8;
    let mut encoder = BlockEncoder::new(ENCODE_K).unwrap();
    encoder.warm(ROWS).unwrap();
    let mut out = vec![0u8; PACKET_LEN];
    let mut j = 0usize;
    ops_per_sec(effort, || {
        encoder.parity_into(j % ROWS, &data, &mut out).unwrap();
        black_box(&out);
        j += 1;
    })
}

struct DecodeReport {
    erasures: usize,
    decode_ms: f64,
}

fn bench_decode(effort: Effort) -> DecodeReport {
    let k = ENCODE_K;
    let erasures = k / 2;
    let data = block(k, PACKET_LEN);
    let mut enc = BlockEncoder::new(k).unwrap();
    // Half the data survives; the rest is reconstructed from parity.
    let mut shares: Vec<Share> = (erasures..k)
        .map(|i| Share {
            index: i,
            data: data[i].clone(),
        })
        .collect();
    for p in 0..erasures {
        shares.push(Share {
            index: k + p,
            data: enc.parity(p, &data).unwrap(),
        });
    }

    let mut decoder = Decoder::new(k).unwrap();
    let rate = ops_per_sec(effort, || {
        black_box(decoder.decode(&shares)).unwrap();
    });
    DecodeReport {
        erasures,
        decode_ms: 1000.0 / rate,
    }
}

struct ParallelReport {
    blocks: usize,
    workers: usize,
    matches_sequential: bool,
}

/// Encodes the same rekey message sequentially and with a worker pool and
/// compares the schedules byte for byte.
fn bench_parallel() -> ParallelReport {
    let workers = 4;
    let make_session = || {
        let mut server =
            grouprekey::KeyServer::bootstrap(1024, grouprekey::ServerOptions::default());
        let leaves: Vec<u32> = (0..96u32).map(|i| i * 8).collect();
        server.rekey(Batch::new(vec![], leaves))
    };
    let sequential = taskpool::with_workers(1, || {
        let mut a = make_session();
        a.session.start()
    });
    let parallel = taskpool::with_workers(workers, || {
        let mut a = make_session();
        a.session.start()
    });
    let blocks = make_session().session.blocks().block_count();
    ParallelReport {
        blocks,
        workers,
        matches_sequential: sequential == parallel,
    }
}

struct RekeyPoint {
    n: u32,
    joins: usize,
    leaves: usize,
    /// Whether the timed region covers the whole message build (marking,
    /// UKA, sealing, FEC blocks, round-one schedule) or only the key-tree
    /// batch update. The wire format's 16-bit node IDs cap full messages
    /// near N = 2^15·(d-1)/d, so at 2^17 only the tree update is timed.
    full_message: bool,
    wall_ms: f64,
}

fn bench_batch_rekey(effort: Effort) -> Vec<RekeyPoint> {
    const JOINS: usize = 64;
    const LEAVES: usize = 64;
    [1u32 << 10, 1 << 14, 1 << 17]
        .into_iter()
        .map(|n| {
            let full_message = n <= 1 << 14;
            let mut best = f64::INFINITY;
            for _ in 0..effort.rekey_reps {
                let leaves: Vec<u32> = (0..LEAVES as u32).map(|i| i * (n / 128)).collect();
                let wall = if full_message {
                    let mut server =
                        grouprekey::KeyServer::bootstrap(n, grouprekey::ServerOptions::default());
                    let joins: Vec<(u32, wirecrypto::SymKey)> = (0..JOINS as u32)
                        .map(|i| (n + i, server.mint_individual_key()))
                        .collect();
                    let batch = Batch::new(joins, leaves);
                    let start = Instant::now();
                    let artifacts = server.rekey(batch);
                    let wall = start.elapsed().as_secs_f64() * 1000.0;
                    black_box(&artifacts);
                    wall
                } else {
                    let mut keygen = wirecrypto::KeyGen::from_seed(7);
                    let mut tree = keytree::KeyTree::balanced(n, 4, &mut keygen);
                    let joins: Vec<(u32, wirecrypto::SymKey)> = (0..JOINS as u32)
                        .map(|i| (n + i, keygen.next_key()))
                        .collect();
                    let batch = Batch::new(joins, leaves);
                    let start = Instant::now();
                    let outcome = tree.process_batch(&batch, &mut keygen);
                    let wall = start.elapsed().as_secs_f64() * 1000.0;
                    black_box(&outcome);
                    wall
                };
                best = best.min(wall);
            }
            RekeyPoint {
                n,
                joins: JOINS,
                leaves: LEAVES,
                full_message,
                wall_ms: best,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// JSON emit + check
// ---------------------------------------------------------------------------

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

fn render_json(
    mode: &str,
    parity_pps: f64,
    dec: &DecodeReport,
    par: &ParallelReport,
    rekey: &[RekeyPoint],
) -> String {
    let parity_mbps = parity_pps * (ENCODE_K * PACKET_LEN) as f64 / 1e6;
    let rekey_json: Vec<String> = rekey
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"joins\": {}, \"leaves\": {}, \"full_message\": {}, \"wall_ms\": {}}}",
                p.n,
                p.joins,
                p.leaves,
                p.full_message,
                fmt_f(p.wall_ms)
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"encode\": {{\n    \
         \"k\": {ENCODE_K},\n    \"packet_len\": {PACKET_LEN},\n    \"parity_pps\": {},\n    \
         \"parity_mbps\": {}\n  }},\n  \"decode\": {{\n    \"k\": {ENCODE_K},\n    \
         \"packet_len\": {PACKET_LEN},\n    \"erasures\": {},\n    \"decode_ms\": {}\n  }},\n  \
         \"parallel\": {{\n    \"blocks\": {},\n    \
         \"workers\": {},\n    \"matches_sequential\": {}\n  }},\n  \"batch_rekey\": [\n{}\n  ]\n}}\n",
        fmt_f(parity_pps),
        fmt_f(parity_mbps),
        dec.erasures,
        fmt_f(dec.decode_ms),
        par.blocks,
        par.workers,
        par.matches_sequential,
        rekey_json.join(",\n")
    )
}

/// Structural well-formedness: balanced braces/brackets outside strings,
/// non-empty, object at the top level.
fn json_well_formed(text: &str) -> bool {
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return false;
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in trimmed.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

/// Validates a previously emitted `BENCH_rekey.json`. Returns a list of
/// problems (empty = valid).
fn check_report(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if !json_well_formed(text) {
        problems.push("not a well-formed JSON object".to_string());
        return problems;
    }
    for key in [
        "\"schema\"",
        SCHEMA,
        "\"encode\"",
        "\"parity_pps\"",
        "\"decode\"",
        "\"decode_ms\"",
        "\"parallel\"",
        "\"batch_rekey\"",
    ] {
        if !text.contains(key) {
            problems.push(format!("missing {key}"));
        }
    }
    if !text.contains("\"matches_sequential\": true") {
        problems.push("parallel encode did not match sequential".to_string());
    }
    problems
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // REKEY_QUICK shrinks the workload exactly like the figure binaries;
    // `--smoke` remains the explicit override for CI.
    let mut smoke = std::env::var("REKEY_QUICK").is_ok_and(|v| v != "0");
    let mut out_path = "BENCH_rekey.json".to_string();
    let mut check_path: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--check" => check_path = Some(it.next().expect("--check needs a path")),
            "--obs-out" => obs_out = Some(it.next().expect("--obs-out needs a path")),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            other => {
                eprintln!(
                    "unknown flag {other}; use [--smoke] [--out PATH] [--check PATH] \
                     [--obs-out PATH] [--trace-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let obs_sink = match bench::ObsSink::resolve(obs_out) {
        Ok(sink) => sink,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };
    let trace_sink = match bench::TraceSink::resolve(trace_out) {
        Ok(sink) => sink,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };

    if let Some(path) = check_path {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("BENCH check FAILED: cannot read {path}");
            std::process::exit(1);
        };
        let problems = check_report(&text);
        if problems.is_empty() {
            println!("BENCH check ok: {path}");
            return;
        }
        for p in &problems {
            eprintln!("BENCH check FAILED: {p}");
        }
        std::process::exit(1);
    }

    let effort = if smoke {
        Effort::smoke()
    } else {
        Effort::full()
    };
    let mode = if smoke { "smoke" } else { "full" };

    eprintln!("encode: k={ENCODE_K} len={PACKET_LEN} ({mode})");
    let parity_pps = bench_encode(effort);
    eprintln!("  {parity_pps:.0} pps");
    eprintln!("decode: k={ENCODE_K} half erased");
    let dec = bench_decode(effort);
    eprintln!("  {:.3} ms", dec.decode_ms);
    eprintln!("parallel: encode identity check");
    let par = bench_parallel();
    eprintln!(
        "  {} blocks, {} workers, matches_sequential={}",
        par.blocks, par.workers, par.matches_sequential
    );
    eprintln!("batch_rekey: N in {{2^10, 2^14, 2^17}}");
    trace_sink.start();
    let rekey = bench_batch_rekey(effort);
    trace_sink
        .finish(&mut std::io::stderr().lock())
        .expect("write trace JSON");
    for p in &rekey {
        eprintln!("  N={:<7} wall {:.2} ms", p.n, p.wall_ms);
    }

    let json = render_json(mode, parity_pps, &dec, &par, &rekey);
    std::fs::write(&out_path, &json).expect("write BENCH_rekey.json");
    println!("wrote {out_path}");
    if obs_sink.active() {
        let snap = obs::snapshot();
        obs_sink
            .emit(&snap, &mut std::io::stderr().lock())
            .expect("write obs snapshot");
        if let Some(path) = &obs_sink.path {
            eprintln!("wrote obs snapshot to {path}");
        }
    }
    if !par.matches_sequential {
        eprintln!("FAILED: parallel schedule differs from sequential");
        std::process::exit(1);
    }
}
