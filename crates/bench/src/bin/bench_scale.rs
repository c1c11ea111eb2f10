//! Scale benchmark of the rekey pipeline: emits `BENCH_scale.json`.
//!
//! Sweeps the server-cost axes of the paper one decade past its largest
//! group — N ∈ {2^14, 2^17, 2^20} × d ∈ {4, 8, 16} × (J, L) ∈
//! {(64, 64), (512, 512)} — and records per cell:
//!
//! * `marking_ms` — wall time of one `process_batch_in` call (tree
//!   update, relabelling, fresh-key minting) on a pre-built tree;
//! * `seal_enc_per_sec` — raw sealing throughput over the batch's
//!   encryption edges (`wirecrypto::batch::seal_batch`: each sealed under
//!   the child key with the message-bound context, eight at a time), the
//!   cryptographic core of message build;
//! * `message_build_ms` — message build wall time at every N: the full
//!   `UkaAssignment::build_in` where the 16-bit wire IDs permit a real
//!   message (N = 2^14), the wide build (`plan_and_seal`: UKA plans plus
//!   every sealed encryption, all of the message except the 16-bit
//!   packet serialization) beyond;
//! * `plan_ms` — the UKA planning stage alone (warm-scratch
//!   `rekeymsg::plan_in`), split out of `message_build_ms`; the
//!   run-aggregated planner keeps it O(E) at every N;
//! * `resident_bytes_per_node` — SoA heap bytes over storage slots, next
//!   to the AoS-equivalent bytes the pre-rewrite `Vec<Node>` + member
//!   `HashMap` layout would hold.
//!
//! Flags are the shared report flags (`bench::report`): `--smoke` shrinks
//! the grid (same JSON shape); `--obs-out <path>` (or `REKEY_OBS=1`)
//! collects a per-stage metrics snapshot over the acceptance cell — the
//! largest N in the grid — resetting the registry between cells so the
//! snapshot covers exactly that workload. It writes
//! `{"schema": "obs_scale/v1", ..}` JSON embedding the snapshot plus a
//! stage-coverage percentage (how much of the measured batch wall time
//! the mark/mint/seal/encode spans account for) and prints the per-stage
//! table to stderr. `--trace-out <path>` runs the acceptance cell once
//! more, untimed, under the event log and writes Chrome trace-event
//! JSON — one track, the mark → mint → seal stages in batch order (open in
//! Perfetto). Both require a build with `--features obs`.

use std::hint::black_box;
use std::time::Instant;

use bench::report::{self, Cli, SCALE};
use bench::{make_batch, Cell};
use keytree::{KeyTree, MarkOutcome, MarkScratch};
use obs::json::JsonWriter;
use rekeymsg::{seal_context, Layout, UkaAssignment};
use wirecrypto::batch::seal_batch;
use wirecrypto::{KeyGen, SealedKey};

fn grid(smoke: bool) -> Vec<Cell> {
    let (sizes, churn): (&[u32], &[(usize, usize)]) = if smoke {
        (&[1 << 10, 1 << 12], &[(64, 64)])
    } else {
        (&[1 << 14, 1 << 17, 1 << 20], &[(64, 64), (512, 512)])
    };
    let mut cells = Vec::new();
    for &n in sizes {
        for d in [4u32, 8, 16] {
            for &(joins, leaves) in churn {
                cells.push(Cell {
                    n,
                    d,
                    joins,
                    leaves,
                });
            }
        }
    }
    if smoke {
        // The cheapest cell of the full grid, so `bench_diff` against the
        // committed report has a row to compare.
        cells.push(Cell {
            n: 1 << 14,
            d: 4,
            joins: 64,
            leaves: 64,
        });
    }
    cells
}

/// Seals every encryption edge of the outcome under its child key, eight
/// at a time as the message build does. Raw (packet-free) sealing works at
/// any N: `seal_context` takes the full 32-bit node ID, only the packet
/// wire format caps IDs at 16 bits.
fn seal_all(tree: &KeyTree, outcome: &MarkOutcome, msg_seq: u64) -> Vec<SealedKey> {
    let triples = outcome.encryptions.iter().map(|edge| {
        let (Some(kek), Some(plain)) = (tree.key_of(edge.child), tree.key_of(edge.parent)) else {
            unreachable!("marking emits edges only over live keys")
        };
        (kek, plain, seal_context(msg_seq, edge.child))
    });
    let mut sealed = Vec::with_capacity(outcome.encryptions.len());
    seal_batch(triples, |_, blob| sealed.push(blob));
    sealed
}

struct CellReport {
    cell: Cell,
    marking_ms: f64,
    encryptions: usize,
    seal_enc_per_sec: f64,
    /// Full `UkaAssignment::build_in` where the wire permits, the wide
    /// `plan_and_seal` build beyond — populated at every N.
    message_build_ms: f64,
    /// The UKA planning stage alone (`rekeymsg::plan_in` with a warm
    /// scratch), split out of `message_build_ms` since the run-aggregated
    /// rewrite made it O(E) — populated at every N.
    plan_ms: f64,
    resident_bytes_per_node: f64,
    aos_bytes_per_node: f64,
    /// Sum of every timed segment (marking, sealing, message build)
    /// across all reps — the denominator for obs stage coverage, which
    /// accumulates across reps the same way.
    measured_wall_ms: f64,
}

/// Whether a full UKA message build is possible: every node ID that can
/// appear in a packet must fit `u16`.
fn wire_permits_full_message(tree: &KeyTree) -> bool {
    tree.storage_len() <= u16::MAX as usize + 1
}

fn bench_cell(cell: Cell, reps: usize) -> CellReport {
    let mut keygen = KeyGen::from_seed(0x0005_CA1E_u64 + cell.d as u64);
    let base = KeyTree::balanced(cell.n, cell.d, &mut keygen);
    let mut scratch = MarkScratch::new();

    let mut marking_ms = f64::INFINITY;
    let mut seal_rate = 0.0f64;
    let mut message_build_ms = f64::INFINITY;
    let mut plan_ms = f64::INFINITY;
    let mut encryptions = 0usize;
    let mut measured_wall_ms = 0.0f64;
    let mut tree = base.clone();
    let mut plan_scratch = rekeymsg::PlanScratch::new();
    for _ in 0..reps {
        tree.clone_from(&base);
        let mut kg = keygen.clone();
        let batch = make_batch(cell, &mut kg);

        let start = Instant::now();
        let outcome = tree.process_batch_in(batch, &mut kg, &mut scratch);
        let mark_wall = start.elapsed().as_secs_f64() * 1000.0;
        marking_ms = marking_ms.min(mark_wall);
        measured_wall_ms += mark_wall;
        encryptions = outcome.encryptions.len();

        let start = Instant::now();
        let sealed = {
            // Raw sealing stands in for the in-message seal stage at the
            // sizes where no full message can be built, so it carries the
            // same stage span here.
            let _span = obs::span("stage.seal");
            seal_all(&tree, &outcome, 1)
        };
        let seal_secs = start.elapsed().as_secs_f64();
        measured_wall_ms += seal_secs * 1000.0;
        black_box(&sealed);
        if seal_secs > 0.0 {
            seal_rate = seal_rate.max(encryptions as f64 / seal_secs);
        }

        let start = Instant::now();
        if wire_permits_full_message(&tree) {
            let assignment =
                UkaAssignment::build_in(&tree, &outcome, 1, &Layout::DEFAULT, &mut plan_scratch)
                    .unwrap_or_else(|e| unreachable!("wire-size precheck passed: {e}"));
            black_box(&assignment);
        } else {
            // Wide build: the same plans and sealed bytes, minus the
            // 16-bit packet serialization the wire rules out at this N.
            let wide =
                rekeymsg::plan_and_seal(&tree, &outcome, 1, &Layout::DEFAULT, &mut plan_scratch)
                    .unwrap_or_else(|e| unreachable!("wide build has no wire cap: {e}"));
            black_box(&wide);
        }
        let wall = start.elapsed().as_secs_f64() * 1000.0;
        measured_wall_ms += wall;
        message_build_ms = message_build_ms.min(wall);

        // The planning stage alone, split out of the message build. A
        // second plan of the same outcome is bit-identical, so this adds
        // measurement without perturbing the build timing above; it is
        // deliberately left out of `measured_wall_ms` (the obs stage
        // spans cover the in-build plan, not this re-run).
        let start = Instant::now();
        let plans = rekeymsg::plan_in(&tree, &outcome, &Layout::DEFAULT, &mut plan_scratch)
            .unwrap_or_else(|e| unreachable!("DEFAULT layout fits every grid tree: {e}"));
        plan_ms = plan_ms.min(start.elapsed().as_secs_f64() * 1000.0);
        black_box(&plans);
    }

    let nodes = tree.storage_len().max(1) as f64;
    CellReport {
        cell,
        marking_ms,
        encryptions,
        seal_enc_per_sec: seal_rate,
        message_build_ms,
        plan_ms,
        resident_bytes_per_node: tree.resident_bytes() as f64 / nodes,
        aos_bytes_per_node: tree.aos_equivalent_bytes() as f64 / nodes,
        measured_wall_ms,
    }
}

/// The disjoint stage spans whose totals are compared against the
/// measured batch wall time: marking phases 1–2, fresh-key minting,
/// sealing, and FEC encoding.
const STAGE_SPANS: [&str; 4] = ["stage.mark", "stage.mint", "stage.seal", "stage.encode"];

/// Per-stage observability report for one cell: the snapshot taken right
/// after the cell ran (the registry is reset before each cell) plus the
/// coverage arithmetic against its measured wall time.
struct ObsCellReport {
    cell: Cell,
    measured_wall_ms: f64,
    stage_total_ms: f64,
    coverage_pct: f64,
    snap: obs::Snapshot,
}

impl ObsCellReport {
    fn new(cell: Cell, measured_wall_ms: f64, snap: obs::Snapshot) -> Self {
        let stage_total_ms = snap.span_total_ns(&STAGE_SPANS) as f64 / 1e6;
        let coverage_pct = 100.0 * stage_total_ms / measured_wall_ms;
        ObsCellReport {
            cell,
            measured_wall_ms,
            stage_total_ms,
            coverage_pct,
            snap,
        }
    }

    /// The `obs_scale/v1` wrapper: cell coordinates, wall/coverage
    /// numbers, and the full `obs/v2` snapshot embedded verbatim (it is
    /// `JsonWriter` output itself, so it is spliced in as the last value).
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "obs_scale/v1");
        w.key("cell");
        w.begin_object();
        self.cell.write_fields(&mut w);
        w.end_object();
        report::measured(&mut w, "measured_wall_ms", self.measured_wall_ms);
        report::measured(&mut w, "stage_total_ms", self.stage_total_ms);
        report::measured(&mut w, "coverage_pct", self.coverage_pct);
        w.key("obs");
        let mut text = w.finish();
        text.push_str(self.snap.to_json().trim_end());
        text.push_str("}\n");
        text
    }

    /// Stage breakdown + full table, written through one stderr handle.
    fn render_stderr(&self, err: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(
            err,
            "obs stage breakdown: N=2^{} d={} J={} L={}",
            self.cell.n.trailing_zeros(),
            self.cell.d,
            self.cell.joins,
            self.cell.leaves
        )?;
        for name in STAGE_SPANS {
            let total_ms = self.snap.span(name).map_or(0.0, |s| s.total as f64 / 1e6);
            let share = 100.0 * total_ms / self.measured_wall_ms;
            writeln!(err, "  {name:<14} {total_ms:>10.3} ms  {share:>5.1}%")?;
        }
        writeln!(
            err,
            "  coverage: {:.1}% of {:.3} ms measured batch wall",
            self.coverage_pct, self.measured_wall_ms
        )?;
        err.write_all(self.snap.render_table().as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

fn render(cli: &Cli, cells: &[CellReport]) -> String {
    let mut w = report::begin(&SCALE, cli);
    w.key("scale");
    w.begin_array();
    for r in cells {
        let reduction = 100.0 * (1.0 - r.resident_bytes_per_node / r.aos_bytes_per_node);
        w.begin_object();
        r.cell.write_fields(&mut w);
        report::measured(&mut w, "marking_ms", r.marking_ms);
        w.field_u64("encryptions", r.encryptions as u64);
        report::measured(&mut w, "seal_enc_per_sec", r.seal_enc_per_sec);
        report::measured(&mut w, "message_build_ms", r.message_build_ms);
        report::measured(&mut w, "plan_ms", r.plan_ms);
        report::measured(&mut w, "resident_bytes_per_node", r.resident_bytes_per_node);
        report::measured(&mut w, "aos_bytes_per_node", r.aos_bytes_per_node);
        report::measured(&mut w, "bytes_reduction_pct", reduction);
        w.end_object();
    }
    w.end_array();
    report::finish(w)
}

fn run(cli: &Cli) -> std::io::Result<String> {
    let reps = if cli.smoke { 1 } else { 3 };
    let cells = grid(cli.smoke);
    eprintln!("scale: {} cells ({})", cells.len(), cli.mode());
    // The cell whose per-stage snapshot ships when obs output is on, and
    // the one `--trace-out` records.
    let acceptance = Cell::acceptance(cli.smoke);
    let mut obs_report: Option<ObsCellReport> = None;
    let mut reports = Vec::with_capacity(cells.len());
    for cell in cells {
        if cli.obs.active {
            obs::reset();
        }
        let r = bench_cell(cell, reps);
        if cli.obs.active && cell == acceptance {
            obs_report = Some(ObsCellReport::new(
                cell,
                r.measured_wall_ms,
                obs::snapshot(),
            ));
        }
        eprintln!(
            "  N=2^{:<2} d={:<2} J={:<3} L={:<3} marking {:>8.3} ms, {:>6} enc, \
             seal {:>9.0}/s, build {:>8.3} ms (plan {:>7.3} ms), {:>5.1} B/node (AoS {:>5.1})",
            cell.n.trailing_zeros(),
            cell.d,
            cell.joins,
            cell.leaves,
            r.marking_ms,
            r.encryptions,
            r.seal_enc_per_sec,
            r.message_build_ms,
            r.plan_ms,
            r.resident_bytes_per_node,
            r.aos_bytes_per_node,
        );
        reports.push(r);
    }

    if cli.trace.active() {
        // One more, untimed, build of the acceptance cell: the rows above
        // are never measured with the recorder armed.
        cli.trace.start();
        bench_cell(acceptance, 1);
        cli.trace.finish()?;
    }

    if let Some(report) = obs_report {
        report.render_stderr(&mut std::io::stderr().lock())?;
        if let Some(path) = &cli.obs.path {
            bench::write_file(path, &report.to_json())?;
            eprintln!("wrote obs snapshot to {path}");
        }
    }
    Ok(render(cli, &reports))
}

fn main() {
    report::main(&SCALE, run);
}
