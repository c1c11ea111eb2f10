//! The `// xcheck: no_alloc` contract, pinned, for the
//! run-aggregated UKA planner: with a warm [`PlanScratch`] and a batch of
//! the same shape as a previous one, [`PlanScratch::compute`] — the whole
//! planning core, chain derivation and window enumeration included — must
//! perform zero heap allocations. Only materializing the output plans
//! (`plan_in`'s emit step) allocates.

use keytree::{Batch, KeyTree, MarkScratch};
use rekeymsg::{Layout, PlanScratch};
use wirecrypto::KeyGen;

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

#[test]
fn plan_compute_is_allocation_free_in_steady_state() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(47);
    let mut tree = KeyTree::balanced(1024, 4, &mut kg);
    let mut mark = MarkScratch::new();
    let mut scratch = PlanScratch::new();
    let layout = Layout::DEFAULT;

    // Warm-up: several same-shape churn batches grow the plan scratch's
    // chain/window/packet arenas to their steady-state capacity.
    let mut next_member = 5000u32;
    let batch_at = |round: u32, kg: &mut KeyGen, next: &mut u32| {
        let leaves: Vec<u32> = (0..24).map(|i| (round * 31 + i * 17) % 1024).collect();
        let joins: Vec<_> = (0..8)
            .map(|_| {
                *next += 1;
                (*next, kg.next_key())
            })
            .collect();
        Batch::new(joins, leaves)
    };
    let mut warm_packets = 0usize;
    for round in 0..4 {
        let batch = batch_at(round, &mut kg, &mut next_member);
        let outcome = tree.process_batch_in(batch, &mut kg, &mut mark);
        warm_packets = scratch
            .compute(&tree, &outcome, &layout)
            .expect("DEFAULT layout fits a depth-5 tree");
    }
    assert!(warm_packets > 0, "warm-up batches must produce packets");

    // Steady state: a batch the scratch has already seen the shape of
    // must plan without allocating. One priming call absorbs whatever
    // capacity this batch needs beyond the warm-up rounds (compute is
    // idempotent over scratch state — a replan of the same outcome is
    // bit-identical), then the measured call must be allocation-free.
    let batch = batch_at(4, &mut kg, &mut next_member);
    let outcome = tree.process_batch_in(batch, &mut kg, &mut mark);
    scratch
        .compute(&tree, &outcome, &layout)
        .expect("DEFAULT layout fits a depth-5 tree");
    let packets = xcheck_rt::assert_zero_alloc("PlanScratch::compute", || {
        scratch.compute(&tree, &outcome, &layout)
    })
    .expect("DEFAULT layout fits a depth-5 tree");

    // The planning really ran: the plans cover every user the outcome
    // serves, identically to a cold plan of the same outcome.
    assert!(packets > 0);
    let cold = rekeymsg::plan(&tree, &outcome, &layout).expect("layout fits");
    let warm = rekeymsg::plan_in(&tree, &outcome, &layout, &mut scratch).expect("layout fits");
    assert_eq!(cold, warm);
    assert_eq!(cold.len(), packets);
}
