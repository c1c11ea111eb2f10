//! Batch to packets against the existing oracles: random batches of every
//! shape — J < L, J = L, J > L with splits, an empty batch, every member
//! leaving — on random trees, with and without compaction, each marked and
//! planned through the production path, then held to
//! `keytree::sanitize::verify_marking` (the outcome re-derived from the
//! trees before and after) and `rekeymsg::sanitize::check_plan_identity`
//! (the user-by-user reference plan). Runs under `--features sanitize`,
//! where both oracles are compiled in; `tools/ci.sh` runs it in a release
//! build.
#![cfg(feature = "sanitize")]

use keytree::sanitize::verify_marking;
use keytree::{Batch, CompactionPolicy, KeyTree, MarkScratch, MemberId};
use proptest::prelude::*;
use rekeymsg::sanitize::{check_plan_identity, reference_plan};
use rekeymsg::{assign, AssignError, Layout, PlanScratch};
use wirecrypto::{KeyGen, SymKey};

/// What one batch does to a group of `u` members.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `leaves` leavers, fewer joiners.
    FewerJoins,
    /// As many joiners as leavers.
    Replace,
    /// More joiners than leavers: fills holes, then splits.
    MoreJoins,
    /// Nothing at all (compaction may still relocate).
    Empty,
    /// Every member leaves.
    Exodus,
}

fn shape() -> impl Strategy<Value = (Shape, u32, u32)> {
    (
        prop::sample::select(vec![
            Shape::FewerJoins,
            Shape::Replace,
            Shape::MoreJoins,
            Shape::Empty,
            Shape::Exodus,
        ]),
        any::<u32>(),
        1u32..300,
    )
}

/// Marks `batch`, checks the outcome against the marking oracle, plans it
/// cold and through `warm`, and checks the plan against the reference.
fn check_batch(
    tree: &mut KeyTree,
    batch: Batch,
    kg: &mut KeyGen,
    mark: &mut MarkScratch,
    policy: &CompactionPolicy,
    layout: &Layout,
    warm: &mut PlanScratch,
) {
    let before = tree.clone();
    let outcome = tree.process_batch_compacting_in(batch.clone(), kg, mark, policy);
    verify_marking(&before, tree, &batch, &outcome)
        .unwrap_or_else(|e| panic!("marking diverged from its oracle: {e}"));
    assert_eq!(outcome.subtree().len(), outcome.updated_knodes.len());
    let cold = assign::plan(tree, &outcome, layout);
    match &cold {
        Ok(plans) => check_plan_identity(tree, &outcome, plans, layout)
            .unwrap_or_else(|e| panic!("planner diverged from its oracle: {e}")),
        Err(AssignError::PacketCapacity { user, .. }) => {
            let err = reference_plan(tree, &outcome, layout)
                .expect_err("planner overflowed but the oracle packed successfully");
            assert!(err.contains(&format!("user {user} ")), "{err}");
        }
        Err(other) => panic!("unexpected planner error: {other}"),
    }
    assert_eq!(assign::plan_in(tree, &outcome, layout, warm), cold);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_batch_shape_matches_both_oracles(
        n in 1u32..600,
        degree in prop::sample::select(vec![2u32, 3, 4, 8]),
        shapes in proptest::collection::vec(shape(), 1..5),
        seed in any::<u64>(),
        capacity in prop::sample::select(vec![3usize, 5, 12, 46]),
        compact in any::<bool>(),
    ) {
        let mut kg = KeyGen::from_seed(seed);
        let mut tree = KeyTree::balanced(n, degree, &mut kg);
        let (mut mark, mut warm) = (MarkScratch::new(), PlanScratch::new());
        let layout = Layout::new(3 + 6 + 22 * capacity);
        let policy = if compact {
            CompactionPolicy { max_moves_per_batch: 8 }
        } else {
            CompactionPolicy::DISABLED
        };
        let mut next_member = n;
        for (shape, pick, size) in shapes {
            let mut members = tree.member_ids();
            members.sort_unstable();
            let u = members.len() as u32;
            let (leaves, joins) = match shape {
                Shape::FewerJoins => (size.min(u), size.min(u) / 2),
                Shape::Replace => (size.min(u), size.min(u)),
                Shape::MoreJoins => (size.min(u) / 4, size),
                Shape::Empty => (0, 0),
                Shape::Exodus => (u, 0),
            };
            // Leavers: a run of the sorted members from a random start,
            // wrapping, so leaves cluster and prune as well as scatter.
            let start = if u == 0 { 0 } else { pick % u };
            let leavers: Vec<MemberId> = (0..leaves)
                .map(|i| members[((start + i) % u) as usize])
                .collect();
            let join_list: Vec<(MemberId, SymKey)> = (0..joins)
                .map(|_| {
                    next_member += 1;
                    (next_member, kg.next_key())
                })
                .collect();
            let batch = Batch::new(join_list, leavers);
            check_batch(&mut tree, batch, &mut kg, &mut mark, &policy, &layout, &mut warm);
        }
    }
}
