//! Tracked datapath benchmark: emits `BENCH_rekey.json`.
//!
//! Measures the rekey datapath (regressions are judged by `bench_diff`
//! against the committed report, not against an in-binary baseline):
//!
//! * `encode` — single-thread FEC parity throughput at k = 64, packet
//!   length 1024, rows warm.
//! * `decode` — block reconstruction latency with half the data erased,
//!   through a persistent [`rse::Decoder`], and beside it the latency of
//!   rebuilding one missing packet of the same block (`first_row_ms`:
//!   what a receiver that needs one packet pays).
//! * `batch_rekey` — end-to-end wall time of one server batch (marking,
//!   UKA, sealing, block build, round-one schedule) at group sizes
//!   N ∈ {2^10, 2^14, 2^17}.
//!
//! Flags are the shared report flags (`bench::report`): `--smoke` shrinks
//! measurement windows/reps (same sections, same JSON shape); `--check`
//! fails on a report that is malformed or has one row costing more than
//! a quarter of the whole decode; `--obs-out <path>` (or `REKEY_OBS=1`)
//! dumps the metrics snapshot collected during the run — JSON to the
//! path, human table to stderr;
//! `--trace-out <path>` records the `batch_rekey` section in the event
//! log and writes Chrome trace-event JSON (open in Perfetto). Both
//! require a build with `--features obs`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::report::{self, Cli, REKEY};
use keytree::Batch;
use obs::json::JsonWriter;
use rse::{BlockEncoder, Decoder, Share};

const ENCODE_K: usize = 64;
const PACKET_LEN: usize = 1024;

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
    fn new(smoke: bool) -> Self {
        if smoke {
            Effort {
                window: Duration::from_millis(25),
                reps: 1,
                // Two, not one: the first batch on a fresh tree pays the
                // allocator's page faults (3–12 ms at N = 2^17 against a
                // warm ~2 ms), and the committed full-mode row it is
                // compared with is a best-of-three.
                rekey_reps: 2,
            }
        } else {
            Effort {
                window: Duration::from_millis(200),
                reps: 3,
                rekey_reps: 3,
            }
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
    first_row_ms: f64,
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
    // What a receiver pays: the same block validated, one packet rebuilt.
    let mut row = Vec::new();
    let first_row_rate = ops_per_sec(effort, || {
        let borrowed = shares.iter().map(|s| (s.index, s.data.as_slice()));
        let missing = decoder.decode_missing(borrowed).unwrap();
        missing.row_into(0, &mut row).unwrap();
        black_box(&row);
    });
    DecodeReport {
        erasures,
        decode_ms: 1000.0 / rate,
        first_row_ms: 1000.0 / first_row_rate,
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
// Report
// ---------------------------------------------------------------------------

fn render(cli: &Cli, parity_pps: f64, dec: &DecodeReport, rekey: &[RekeyPoint]) -> String {
    let mut w = report::begin(&REKEY, cli);
    // Opens a codec section with the block shape both measure.
    let codec_section = |w: &mut JsonWriter, name: &str| {
        w.key(name);
        w.begin_object();
        w.field_u64("k", ENCODE_K as u64);
        w.field_u64("packet_len", PACKET_LEN as u64);
    };
    codec_section(&mut w, "encode");
    report::measured(&mut w, "parity_pps", parity_pps);
    let parity_mbps = parity_pps * (ENCODE_K * PACKET_LEN) as f64 / 1e6;
    report::measured(&mut w, "parity_mbps", parity_mbps);
    w.end_object();
    codec_section(&mut w, "decode");
    w.field_u64("erasures", dec.erasures as u64);
    report::measured(&mut w, "decode_ms", dec.decode_ms);
    report::measured(&mut w, "first_row_ms", dec.first_row_ms);
    w.end_object();
    w.key("batch_rekey");
    w.begin_array();
    for p in rekey {
        w.begin_object();
        w.field_u64("n", u64::from(p.n));
        w.field_u64("joins", p.joins as u64);
        w.field_u64("leaves", p.leaves as u64);
        w.field_bool("full_message", p.full_message);
        report::measured(&mut w, "wall_ms", p.wall_ms);
        w.end_object();
    }
    w.end_array();
    report::finish(w)
}

fn run(cli: &Cli) -> std::io::Result<String> {
    let effort = Effort::new(cli.smoke);
    eprintln!("encode: k={ENCODE_K} len={PACKET_LEN} ({})", cli.mode());
    let parity_pps = bench_encode(effort);
    eprintln!("  {parity_pps:.0} pps");
    eprintln!("decode: k={ENCODE_K} half erased");
    let dec = bench_decode(effort);
    eprintln!(
        "  {:.3} ms, first row {:.4} ms",
        dec.decode_ms, dec.first_row_ms
    );
    eprintln!("batch_rekey: N in {{2^10, 2^14, 2^17}}");
    cli.trace.start();
    let rekey = bench_batch_rekey(effort);
    cli.trace.finish()?;
    for p in &rekey {
        eprintln!("  N={:<7} wall {:.2} ms", p.n, p.wall_ms);
    }
    cli.obs
        .emit(&obs::snapshot(), &mut std::io::stderr().lock())?;
    Ok(render(cli, parity_pps, &dec, &rekey))
}

fn main() {
    report::main(&REKEY, run);
}
