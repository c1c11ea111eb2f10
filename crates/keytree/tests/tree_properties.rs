//! Property-based tests of the marking algorithm across random batch
//! sequences: structural invariants, Lemma 4.1, Theorem 4.2, and the
//! security-relevant delivery property (every remaining user can reach the
//! new group key through the encryptions; departed users cannot).

use std::collections::{HashMap, HashSet};

use keytree::{ident, Batch, CompactionPolicy, KeyTree, MarkScratch, MemberId, NodeId};
use proptest::prelude::*;
use wirecrypto::{KeyGen, SymKey};

/// Replays the encryptions for one user starting from its pre-batch keys
/// and returns the group key it ends up with, if any.
fn user_recovers_group_key(
    tree_before: &KeyTree,
    tree_after: &KeyTree,
    outcome: &keytree::MarkOutcome,
    member: MemberId,
) -> Option<SymKey> {
    let d = tree_after.degree();
    let uid = tree_after.node_of_member(member)?;
    let mut have: HashMap<NodeId, SymKey> = HashMap::new();
    have.insert(uid, tree_after.key_of(uid)?);
    if let Some(old) = tree_before.keys_for_member(member) {
        for (id, k) in old {
            have.entry(id).or_insert(k);
        }
    }
    for id in ident::path_to_root(uid, d) {
        if let Some(idx) = outcome.encryption_by_child(id) {
            let edge = outcome.encryptions[idx];
            // Must already hold the child key to "decrypt".
            have.contains_key(&edge.child).then_some(())?;
            have.insert(edge.parent, tree_after.key_of(edge.parent)?);
        }
    }
    have.get(&0).copied()
}

fn arbitrary_churn() -> impl Strategy<Value = (u32, u32, Vec<(usize, usize)>)> {
    // (initial users, degree, per-round (joins, leaves))
    (
        1u32..200,
        prop::sample::select(vec![2u32, 3, 4, 8]),
        proptest::collection::vec((0usize..40, 0usize..40), 1..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_preserves_all_invariants((n0, d, rounds) in arbitrary_churn(), seed in any::<u64>()) {
        let mut kg = KeyGen::from_seed(seed);
        let mut tree = KeyTree::balanced(n0, d, &mut kg);
        let mut next_member = n0;
        let mut rng_state = seed;

        for (j, l) in rounds {
            let members = {
                let mut m = tree.member_ids();
                m.sort_unstable();
                m
            };
            let l = l.min(members.len());
            // Pseudo-randomly pick leavers.
            let mut leavers: Vec<MemberId> = Vec::new();
            let mut pool = members.clone();
            for _ in 0..l {
                rng_state = rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (rng_state >> 33) as usize % pool.len();
                leavers.push(pool.swap_remove(idx));
            }
            let joins: Vec<(MemberId, SymKey)> = (0..j)
                .map(|_| {
                    let m = next_member;
                    next_member += 1;
                    (m, kg.next_key())
                })
                .collect();

            let before = tree.clone();
            let outcome = tree.process_batch(&Batch::new(joins, leavers.clone()), &mut kg);

            // Invariants.
            prop_assert_eq!(tree.check_invariants(), Ok(()));

            // Membership bookkeeping.
            for m in &leavers {
                prop_assert!(tree.node_of_member(*m).is_none());
            }
            prop_assert_eq!(
                tree.user_count(),
                before.user_count() + outcome.joined.len() - leavers.len()
            );

            // Group key changes iff membership changed.
            if !outcome.joined.is_empty() || !leavers.is_empty() {
                if tree.user_count() > 0 {
                    prop_assert_ne!(before.group_key(), tree.group_key());
                }
            } else {
                prop_assert_eq!(before.group_key(), tree.group_key());
            }

            // Delivery: every current member reaches the new group key.
            if tree.user_count() > 0 {
                let gk = tree.group_key().unwrap();
                for m in tree.member_ids() {
                    prop_assert_eq!(
                        user_recovers_group_key(&before, &tree, &outcome, m),
                        Some(gk),
                        "member {} cannot recover the group key", m
                    );
                }
            }

            // Theorem 4.2 for every member that existed before the batch
            // and remains: its new ID is derivable from its old ID and nk.
            if let Some(nk) = outcome.nk {
                for m in tree.member_ids() {
                    if let Some(old_id) = before.node_of_member(m) {
                        let new_id = tree.node_of_member(m).unwrap();
                        prop_assert_eq!(
                            ident::derive_current_id(old_id, nk, d),
                            Some(new_id),
                            "member {}: old id {}, nk {}", m, old_id, nk
                        );
                    }
                }
            }

            // Encryption IDs unique; encrypting keys all exist in the tree.
            let mut seen = HashSet::new();
            for e in &outcome.encryptions {
                prop_assert!(seen.insert(e.child), "duplicate encrypting key {}", e.child);
                prop_assert!(tree.key_of(e.child).is_some());
                prop_assert!(tree.key_of(e.parent).is_some());
                prop_assert_eq!(ident::parent(e.child, d), Some(e.parent));
                prop_assert!(outcome.updated_knodes.contains(&e.parent));
            }
        }
    }

    /// `encryption_by_child` (a binary search of `encryptions` by its
    /// documented order) finds exactly what a linear scan finds, for every
    /// node ID the tree can hold and a margin past it, across batches that
    /// join, leave, split and compact.
    #[test]
    fn encryption_by_child_is_a_linear_scan(
        (n0, d, rounds) in (
            1u32..300,
            prop::sample::select(vec![2u32, 3, 4, 8]),
            proptest::collection::vec((0usize..60, 0usize..150), 1..6),
        ),
        seed in any::<u64>(),
    ) {
        let mut kg = KeyGen::from_seed(seed);
        let mut tree = KeyTree::balanced(n0, d, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy { max_moves_per_batch: 16 };
        let mut next_member = n0;
        for (j, l) in rounds {
            let mut members = tree.member_ids();
            members.sort_unstable();
            // Every third member from a seeded offset, up to l of them.
            let skip = (seed % 3) as usize;
            let leaves: Vec<MemberId> =
                members.iter().copied().skip(skip).step_by(3).take(l).collect();
            let joins: Vec<(MemberId, SymKey)> = (next_member..next_member + j as u32)
                .map(|m| (m, kg.next_key()))
                .collect();
            next_member += j as u32;
            let outcome = tree.process_batch_compacting_in(
                Batch::new(joins, leaves),
                &mut kg,
                &mut scratch,
                &policy,
            );
            let bound = tree.storage_len() as NodeId + 2 * d;
            for id in 0..bound {
                let scan = outcome.encryptions.iter().position(|e| e.child == id);
                prop_assert_eq!(outcome.encryption_by_child(id), scan, "node {}", id);
            }
        }
    }

    /// Lemma 4.1 directly: after any single batch from a balanced start,
    /// every k-node ID is below every u-node ID.
    #[test]
    fn lemma_4_1_holds(
        n0 in 1u32..500,
        d in prop::sample::select(vec![2u32, 3, 4]),
        j in 0usize..100,
        l in 0usize..100,
        seed in any::<u64>(),
    ) {
        let mut kg = KeyGen::from_seed(seed);
        let mut tree = KeyTree::balanced(n0, d, &mut kg);
        let l = l.min(n0 as usize);
        let leaves: Vec<MemberId> = (0..l as u32).collect();
        let joins: Vec<(MemberId, SymKey)> =
            (0..j as u32).map(|i| (n0 + i, kg.next_key())).collect();
        tree.process_batch(&Batch::new(joins, leaves), &mut kg);

        if let Some(nk) = tree.max_knode_id() {
            for uid in tree.user_ids() {
                prop_assert!(nk < uid, "k-node {} >= u-node {}", nk, uid);
            }
        }
        prop_assert_eq!(tree.check_invariants(), Ok(()));
    }
}
