//! The marking oracle and the run-aggregated UKA planner's bit-identity
//! with the user-by-user reference (`rekeymsg::sanitize::reference_plan`)
//! at the sizes the small-world enumeration (`tests/small_worlds.rs` at the
//! root) does not reach: the `server_scale` shape, N = 4096 at d = 2 and
//! d = 8, and a join-heavy batch whose user zone spans two levels. Every
//! outcome is also held to `keytree::sanitize::verify_marking`, Lemma 4.1
//! and Theorem 4.2.

use keytree::sanitize::verify_marking;
use keytree::{ident, Batch, CompactionPolicy, KeyTree, MarkScratch, MemberId};
use rekeymsg::sanitize::{check_plan_identity, reference_plan};
use rekeymsg::{assign, AssignError, Layout, PlanScratch};
use wirecrypto::{KeyGen, SymKey};

/// Plans one outcome both ways and requires identical packets — or the
/// same capacity-overflow error naming the same first user. `warm` is a
/// scratch earlier outcomes have run through: it must replan exactly like
/// a cold one, twice.
fn check_one(
    tree: &KeyTree,
    outcome: &keytree::MarkOutcome,
    layout: &Layout,
    warm: &mut PlanScratch,
) {
    let cold = assign::plan(tree, outcome, layout);
    match &cold {
        Ok(plans) => check_plan_identity(tree, outcome, plans, layout)
            .unwrap_or_else(|e| panic!("planner diverged from oracle: {e}")),
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
    assert_eq!(assign::plan_in(tree, outcome, layout, warm), cold);
    assert_eq!(assign::plan_in(tree, outcome, layout, warm), cold);
}

/// Runs `batches` of `(joins, leaves)` over a balanced tree of `n` members
/// — fresh joiners, leavers drawn without replacement from a fixed
/// splitmix64 stream — and checks every outcome under every layout with
/// one scratch warmed across all of them. Returns how many outcomes had a
/// user zone spanning two levels.
fn churn_and_check(
    n: u32,
    degree: u32,
    batches: &[(u32, usize)],
    policy: CompactionPolicy,
    layouts: &[Layout],
) -> usize {
    let mut kg = KeyGen::from_seed(u64::from(n) ^ u64::from(degree) << 32);
    let mut tree = KeyTree::balanced(n, degree, &mut kg);
    let mut mark = MarkScratch::new();
    let mut warm = PlanScratch::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(n);
    let mut next_member = n;
    let mut two_level = 0;
    for &(joins, leaves) in batches {
        let mut members = tree.member_ids();
        members.sort_unstable();
        let mut leavers = Vec::with_capacity(leaves);
        for _ in 0..leaves.min(members.len()) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            leavers.push(members.swap_remove((z ^ (z >> 31)) as usize % members.len()));
        }
        leavers.sort_unstable();
        let join_list: Vec<(MemberId, SymKey)> = (0..joins)
            .map(|i| (next_member + i, kg.next_key()))
            .collect();
        next_member += joins;
        let batch = Batch::new(join_list, leavers);
        let before = tree.clone();
        let outcome = tree.process_batch_compacting_in(batch.clone(), &mut kg, &mut mark, &policy);
        verify_marking(&before, &tree, &batch, &outcome)
            .unwrap_or_else(|e| panic!("marking diverged from its oracle: {e}"));
        let (maxk, maxu) = (
            tree.max_knode_id().unwrap(),
            tree.highest_unode_id().unwrap(),
        );
        // Lemma 4.1: every k-node ID is below every u-node ID.
        assert!(maxk < tree.user_ids_iter().min().unwrap(), "Lemma 4.1");
        // Theorem 4.2: a member not relocated rederives its ID from maxKID.
        for m in tree.member_ids_iter() {
            let relocated = outcome.relocations.iter().any(|rl| rl.member == m);
            if let (Some(old), false) = (before.node_of_member(m), relocated) {
                let derived = ident::derive_current_id(old, maxk, degree);
                assert_eq!(derived, tree.node_of_member(m), "Theorem 4.2, member {m}");
            }
        }
        two_level += usize::from(ident::level(maxk + 1, degree) != ident::level(maxu, degree));
        for layout in layouts {
            check_one(&tree, &outcome, layout, &mut warm);
        }
    }
    two_level
}

#[test]
fn server_scale_shape_matches_reference() {
    // N = 16384, d = 4, J = L = 512, three successive batches; a
    // 12-encryption layout besides the paper's forces many more splits.
    for policy in [CompactionPolicy::DISABLED, CompactionPolicy::DEFAULT_ON] {
        churn_and_check(
            16384,
            4,
            &[(512, 512); 3],
            policy,
            &[Layout::DEFAULT, Layout::new(3 + 6 + 22 * 12)],
        );
    }
}

#[test]
fn n4096_at_degree_two_and_eight_matches_reference() {
    // At d = 2 the 13-level paths overflow an 8-encryption packet: the
    // typed error must name the oracle's first user.
    for degree in [2, 8] {
        churn_and_check(
            4096,
            degree,
            &[(256, 256), (64, 400)],
            CompactionPolicy::DISABLED,
            &[Layout::DEFAULT, Layout::new(3 + 6 + 22 * 8)],
        );
    }
}

#[test]
fn join_heavy_batch_spanning_two_levels_matches_reference() {
    // Joins split leaves, pushing users one level down while the rest
    // stay put: the user zone spans two levels, so windows come from two
    // per-level passes.
    let two_level = churn_and_check(
        1024,
        4,
        &[(600, 8), (300, 40)],
        CompactionPolicy::DISABLED,
        &[Layout::DEFAULT, Layout::new(3 + 6 + 22 * 5)],
    );
    assert_eq!(
        two_level, 2,
        "both batches must leave a two-level user zone"
    );
}
