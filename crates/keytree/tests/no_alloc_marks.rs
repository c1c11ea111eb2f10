//! The `// xcheck: no_alloc` contract, pinned, for
//! [`KeyTree::mark_batch_compacting_in`], compaction off and on: with a
//! warm scratch, warm moves/relocations buffers, and batches that
//! do not grow the tree's storage, phases 1–2 of batch processing — tail
//! compaction included — must perform zero heap allocations.

use keytree::{Batch, CompactionPolicy, KeyTree, MarkScratch, UserMove};
use wirecrypto::KeyGen;

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

#[test]
fn marking_is_allocation_free_in_steady_state() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(41);
    let mut tree = KeyTree::balanced(64, 4, &mut kg);
    let mut scratch = MarkScratch::new();
    let mut moves: Vec<UserMove> = Vec::new();
    // Compaction is off, so this stays empty (and an empty `Vec` never
    // allocates).
    let mut relocations: Vec<UserMove> = Vec::new();
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
        tree.mark_batch_compacting_in(
            &batch,
            &mut kg,
            &mut scratch,
            &mut moves,
            &mut relocations,
            &off,
        );
    }

    // Steady state: one more batch of the same shape must not allocate.
    let batch = batch_at(4, &mut kg, &mut next_member);
    xcheck_rt::assert_zero_alloc("KeyTree::mark_batch_compacting_in (off)", || {
        tree.mark_batch_compacting_in(
            &batch,
            &mut kg,
            &mut scratch,
            &mut moves,
            &mut relocations,
            &off,
        )
    });

    // The marking really ran: the batch's joins are live members now.
    assert!(tree.node_of_member(next_member).is_some());
    assert!(
        tree.node_of_member(30).is_some(),
        "untouched member survives"
    );
    assert!(tree.node_of_member(16).is_none(), "round-4 leave departed");
}

#[test]
fn mark_batch_compacting_in_is_allocation_free_mid_compaction() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(43);
    let mut tree = KeyTree::balanced(256, 4, &mut kg);
    let mut scratch = MarkScratch::new();
    let mut moves: Vec<UserMove> = Vec::new();
    let mut relocations: Vec<UserMove> = Vec::new();
    // A small per-batch budget spreads the compaction over several
    // batches, so the measured round is still actively relocating.
    let policy = CompactionPolicy {
        max_moves_per_batch: 4,
    };

    // Warm-up: a mass departure leaves every eighth member stranded
    // across the whole tree (warming the scratch's work lists at their
    // largest, and leaving plenty of tail to compact), then two empty
    // batches each compact a budget's worth of members, warming
    // `relocations`.
    let exodus = Batch::new(vec![], (0..256).filter(|m| m % 8 != 0).collect());
    tree.mark_batch_compacting_in(
        &exodus,
        &mut kg,
        &mut scratch,
        &mut moves,
        &mut relocations,
        &policy,
    );
    for _ in 0..2 {
        let idle = Batch::new(vec![], vec![]);
        tree.mark_batch_compacting_in(
            &idle,
            &mut kg,
            &mut scratch,
            &mut moves,
            &mut relocations,
            &policy,
        );
        assert!(!relocations.is_empty(), "warm-up batches must compact");
    }

    // Steady state: the next compacting batch must not allocate.
    let idle = Batch::new(vec![], vec![]);
    xcheck_rt::assert_zero_alloc("KeyTree::mark_batch_compacting_in", || {
        tree.mark_batch_compacting_in(
            &idle,
            &mut kg,
            &mut scratch,
            &mut moves,
            &mut relocations,
            &policy,
        )
    });

    // The measured round really compacted: the budget's worth of members
    // moved, and the tree is intact.
    assert_eq!(relocations.len(), policy.max_moves_per_batch);
    assert_eq!(tree.user_count(), 32);
    tree.check_invariants()
        .expect("tree intact after compaction");
}
