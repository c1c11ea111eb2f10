//! Property-based bit-identity of the run-aggregated UKA planner against
//! the user-by-user reference oracle (`rekeymsg::sanitize::reference_plan`),
//! across random populations, degrees, churn, layout capacities, and
//! compaction (relocation batches included). Runs under
//! `--features sanitize`, where the oracle is compiled into the crate.
#![cfg(feature = "sanitize")]

use keytree::{Batch, CompactionPolicy, KeyTree, MarkScratch, MemberId};
use proptest::prelude::*;
use rekeymsg::sanitize::{check_plan_identity, reference_plan};
use rekeymsg::{assign, AssignError, Layout, PlanScratch};
use wirecrypto::{KeyGen, SymKey};

/// Random two-batch churn on a random tree: the second batch plans
/// against a tree the first already churned (and possibly compacted),
/// so outcomes include moves, relocations, and sparse user zones.
fn workload() -> impl Strategy<Value = Work> {
    (
        (
            4u32..400,
            prop::sample::select(vec![2u32, 3, 4, 8]),
            proptest::collection::vec(any::<u32>(), 0..60),
            0u32..40,
        ),
        (
            proptest::collection::vec(any::<u32>(), 0..60),
            0u32..40,
            any::<u64>(),
            // Packet capacity in encryptions; small values force mid-run
            // splits and (at depth > capacity) whole-path overflows.
            prop::sample::select(vec![2usize, 3, 5, 8, 12, 46]),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((n, degree, l1, j1), (l2, j2, seed, capacity, compact))| Work {
                n,
                degree,
                leaves1: l1,
                joins1: j1,
                leaves2: l2,
                joins2: j2,
                seed,
                capacity,
                compact,
            },
        )
}

#[derive(Debug, Clone)]
struct Work {
    n: u32,
    degree: u32,
    leaves1: Vec<u32>,
    joins1: u32,
    leaves2: Vec<u32>,
    joins2: u32,
    seed: u64,
    capacity: usize,
    compact: bool,
}

fn dedup_leavers(seeds: &[u32], members: &[MemberId]) -> Vec<MemberId> {
    if members.is_empty() {
        return Vec::new();
    }
    let mut leavers: Vec<MemberId> = seeds
        .iter()
        .map(|&s| members[s as usize % members.len()])
        .collect();
    leavers.sort_unstable();
    leavers.dedup();
    leavers
}

/// Plans one outcome both ways and requires identical packets — or the
/// same capacity-overflow error naming the same first user.
fn check_one(tree: &KeyTree, outcome: &keytree::MarkOutcome, layout: &Layout) {
    match assign::plan(tree, outcome, layout) {
        Ok(plans) => {
            check_plan_identity(tree, outcome, &plans, layout)
                .unwrap_or_else(|e| panic!("planner diverged from oracle: {e}"));
            // A warm scratch replans bit-identically.
            let mut scratch = PlanScratch::new();
            let w1 = assign::plan_in(tree, outcome, layout, &mut scratch).unwrap();
            let w2 = assign::plan_in(tree, outcome, layout, &mut scratch).unwrap();
            assert_eq!(plans, w1);
            assert_eq!(plans, w2);
        }
        Err(AssignError::PacketCapacity { user, .. }) => {
            let err = reference_plan(tree, outcome, layout)
                .expect_err("planner overflowed but the oracle packed successfully");
            assert!(
                err.contains(&format!("user {user} ")),
                "planner blamed user {user}, oracle said: {err}"
            );
        }
        Err(other) => panic!("unexpected planner error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_aggregated_plan_matches_reference(w in workload()) {
        let mut kg = KeyGen::from_seed(w.seed);
        let mut tree = KeyTree::balanced(w.n, w.degree, &mut kg);
        let mut scratch = MarkScratch::new();
        let layout = Layout::new(3 + 6 + 22 * w.capacity);
        prop_assert_eq!(layout.encryptions_per_packet(), w.capacity);
        // An aggressive policy on batch 1's mass leaves makes batch 2 a
        // relocation batch (joiner-labeled moved users, shrunken tail).
        let policy = if w.compact {
            CompactionPolicy { slack: 2, max_moves_per_batch: 8 }
        } else {
            CompactionPolicy::DISABLED
        };

        let mut next_member = w.n;
        for (leaf_seeds, joins) in [(&w.leaves1, w.joins1), (&w.leaves2, w.joins2)] {
            let mut members = tree.member_ids();
            members.sort_unstable();
            let leavers = dedup_leavers(leaf_seeds, &members);
            let join_list: Vec<(MemberId, SymKey)> = (0..joins)
                .map(|_| {
                    next_member += 1;
                    (next_member, kg.next_key())
                })
                .collect();
            let outcome = tree.process_batch_compacting_in(
                Batch::new(join_list, leavers),
                &mut kg,
                &mut scratch,
                &policy,
            );
            check_one(&tree, &outcome, &layout);
        }
    }
}
