//! Scale report of the key tree: emits `BENCH_scale.json`.
//!
//! Sweeps the server-cost axes of the paper one decade past its largest
//! group — N ∈ {2^14, 2^17, 2^20} × d ∈ {4, 8, 16} × (J, L) ∈
//! {(64, 64), (512, 512)} — and records per cell what one batch on a
//! balanced tree costs, as exact counts:
//!
//! * `encryptions` — edges of the rekey subtree, the work every later
//!   stage (sealing, packing, FEC) is proportional to;
//! * `resident_bytes_per_node` — heap bytes of the tree's column arrays
//!   and member index over its storage slots, after the batch.
//!
//! Nothing is timed: how fast a batch is marked, planned and sealed is the
//! repository benchmark's `server_scale` workload (`keytree.mark.ms`,
//! `rekeymsg.build.ms`, `server.rekey.ms`).
//!
//! The one flag is `--out PATH` (`bench::report`).

use bench::report::{self, Cli, Spec};
use keytree::{Batch, KeyTree, MarkScratch, MemberId};
use wirecrypto::{KeyGen, SymKey};

const SPEC: Spec = Spec {
    schema: "bench_scale/v5",
    file: "BENCH_scale.json",
    sinks: &[],
};

/// One cell of the grid: group size, tree degree, and batch shape.
#[derive(Clone, Copy)]
struct Cell {
    n: u32,
    d: u32,
    joins: usize,
    leaves: usize,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in [1 << 14, 1 << 17, 1 << 20] {
        for d in [4u32, 8, 16] {
            for (joins, leaves) in [(64, 64), (512, 512)] {
                cells.push(Cell {
                    n,
                    d,
                    joins,
                    leaves,
                });
            }
        }
    }
    cells
}

/// The cell's batch: leaves strided across the lower half of the member
/// IDs, joins appended past N with keys from `keygen`.
fn make_batch(cell: Cell, keygen: &mut KeyGen) -> Batch {
    let n = cell.n;
    let stride = (n / (2 * cell.leaves.max(1)) as u32).max(1);
    let leaves: Vec<MemberId> = (0..cell.leaves as u32).map(|i| (i * stride) % n).collect();
    let joins: Vec<(MemberId, SymKey)> = (0..cell.joins as u32)
        .map(|i| (n + i, keygen.next_key()))
        .collect();
    Batch::new(joins, leaves)
}

/// One batch on a fresh balanced tree: its encryption edges and the
/// tree's resident bytes per storage slot afterwards.
fn bench_cell(cell: Cell) -> (usize, f64) {
    let mut keygen = KeyGen::from_seed(0x0005_CA1E_u64 + cell.d as u64);
    let mut tree = KeyTree::balanced(cell.n, cell.d, &mut keygen);
    let batch = make_batch(cell, &mut keygen);
    let outcome = tree.process_batch_in(batch, &mut keygen, &mut MarkScratch::new());
    let bytes_per_node = tree.resident_bytes() as f64 / tree.storage_len().max(1) as f64;
    (outcome.encryptions.len(), bytes_per_node)
}

fn run(_: &Cli) -> std::io::Result<String> {
    let cells = grid();
    eprintln!("scale: {} cells", cells.len());
    let mut w = report::begin(&SPEC);
    w.key("scale");
    w.begin_array();
    for cell in cells {
        let (encryptions, bytes_per_node) = bench_cell(cell);
        eprintln!(
            "  N=2^{:<2} d={:<2} J={:<3} L={:<3} {encryptions:>6} enc, {bytes_per_node:>5.1} B/node",
            cell.n.trailing_zeros(),
            cell.d,
            cell.joins,
            cell.leaves,
        );
        w.begin_object();
        w.field_u64("n", u64::from(cell.n));
        w.field_u64("d", u64::from(cell.d));
        w.field_u64("joins", cell.joins as u64);
        w.field_u64("leaves", cell.leaves as u64);
        w.field_u64("encryptions", encryptions as u64);
        report::ratio(&mut w, "resident_bytes_per_node", bytes_per_node)?;
        w.end_object();
    }
    w.end_array();
    Ok(report::finish(w))
}

fn main() {
    report::main(&SPEC, run);
}
