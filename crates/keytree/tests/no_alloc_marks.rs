//! The `// xcheck: no_alloc` contract, pinned, for batch processing
//! ([`KeyTree::process_batch_compacting_in`]), compaction off and on: with
//! a warm scratch and batches that do not grow the tree's storage, the
//! topology update, tail compaction and the level sweep allocate nothing,
//! and the only allocations are the outcome's own lists — one each, made at
//! its final size — and, in a debug build, the invariant check's bitmap.

use keytree::{Batch, CompactionPolicy, KeyTree, MarkOutcome, MarkScratch};
use wirecrypto::KeyGen;

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

/// Processes `batch` and returns its outcome, asserting that the call
/// allocated exactly once per non-empty list of that outcome (and, in a
/// debug build, once more: the invariant check's path bitmap).
fn assert_outcome_only(
    label: &str,
    tree: &mut KeyTree,
    batch: Batch,
    kg: &mut KeyGen,
    scratch: &mut MarkScratch,
    policy: &CompactionPolicy,
) -> MarkOutcome {
    // The batch's own vectors move into the outcome; `joined` is collected
    // in place over the joins' buffer.
    let (allocs, outcome) =
        xcheck_rt::count_in(|| tree.process_batch_compacting_in(batch, kg, scratch, policy));
    let lists = [
        outcome.updated_knodes.is_empty(),
        outcome.encryptions.is_empty(),
        outcome.subtree().is_empty(),
        outcome.moves.is_empty(),
        outcome.relocations.is_empty(),
    ];
    let want = lists.iter().filter(|&&empty| !empty).count() as u64;
    let want = want + u64::from(cfg!(debug_assertions));
    assert_eq!(
        allocs, want,
        "xcheck-rt: `{label}` allocated {allocs} times for an outcome of {want} lists"
    );
    outcome
}

#[test]
fn marking_is_allocation_free_in_steady_state() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(41);
    let mut tree = KeyTree::balanced(64, 4, &mut kg);
    let mut scratch = MarkScratch::new();
    let off = CompactionPolicy::DISABLED;

    // Warm-up: several replace batches fill the scratch's node maps and
    // work lists to their steady-state capacity.
    let mut next_member = 1000u32;
    let batch_at = |round: u32, kg: &mut KeyGen, next: &mut u32| {
        let leaves: Vec<u32> = (0..4).map(|i| round * 4 + i).collect();
        let joins: Vec<_> = (0..4)
            .map(|_| {
                *next += 1;
                (*next, kg.next_key())
            })
            .collect();
        Batch::new(joins, leaves)
    };
    for round in 0..4 {
        let batch = batch_at(round, &mut kg, &mut next_member);
        tree.process_batch_compacting_in(batch, &mut kg, &mut scratch, &off);
    }

    // Steady state: one more batch of the same shape allocates its
    // outcome and nothing else.
    let batch = batch_at(4, &mut kg, &mut next_member);
    let outcome = assert_outcome_only(
        "KeyTree::process_batch_compacting_in (off)",
        &mut tree,
        batch,
        &mut kg,
        &mut scratch,
        &off,
    );
    assert!(!outcome.encryptions.is_empty());

    // The marking really ran: the batch's joins are live members now.
    assert!(tree.node_of_member(next_member).is_some());
    assert!(
        tree.node_of_member(30).is_some(),
        "untouched member survives"
    );
    assert!(tree.node_of_member(16).is_none(), "round-4 leave departed");
}

#[test]
fn marking_allocates_only_its_outcome_mid_compaction() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(43);
    let mut tree = KeyTree::balanced(256, 4, &mut kg);
    let mut scratch = MarkScratch::new();
    // A small per-batch budget spreads the compaction over several
    // batches, so the measured round is still actively relocating.
    let policy = CompactionPolicy {
        max_moves_per_batch: 4,
    };

    // Warm-up: a mass departure leaves every eighth member stranded
    // across the whole tree (warming the scratch's work lists at their
    // largest, and leaving plenty of tail to compact), then two empty
    // batches each compact a budget's worth of members.
    let exodus = Batch::new(vec![], (0..256).filter(|m| m % 8 != 0).collect());
    tree.process_batch_compacting_in(exodus, &mut kg, &mut scratch, &policy);
    for _ in 0..2 {
        let outcome =
            tree.process_batch_compacting_in(Batch::default(), &mut kg, &mut scratch, &policy);
        assert!(
            !outcome.relocations.is_empty(),
            "warm-up batches must compact"
        );
    }

    // Steady state: the next compacting batch allocates its outcome and
    // nothing else.
    let outcome = assert_outcome_only(
        "KeyTree::process_batch_compacting_in",
        &mut tree,
        Batch::default(),
        &mut kg,
        &mut scratch,
        &policy,
    );

    // The measured round really compacted: the budget's worth of members
    // moved, and the tree is intact.
    assert_eq!(outcome.relocations.len(), policy.max_moves_per_batch);
    assert_eq!(tree.user_count(), 32);
    tree.check_invariants()
        .expect("tree intact after compaction");
}
