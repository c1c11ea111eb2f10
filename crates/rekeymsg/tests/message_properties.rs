//! Property-based tests spanning the rekey-message pipeline: block
//! partitioning and the block-ID estimator's bracketing guarantee under
//! arbitrary loss patterns. UKA's guarantees and the ENC and USR wire
//! round-trips are checked on every batch of every small tree by the
//! root's `tests/small_worlds.rs`.

use keytree::{Batch, KeyTree, MemberId};
use proptest::prelude::*;
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::{BlockSet, Layout, UkaAssignment};
use wirecrypto::{KeyGen, SymKey};

/// A random single-interval workload on a balanced tree.
fn workload() -> impl Strategy<Value = (u32, u32, Vec<u32>, u32, u64)> {
    // (n, degree, leaver seeds, joins, keygen seed)
    (
        4u32..300,
        prop::sample::select(vec![2u32, 3, 4]),
        proptest::collection::vec(any::<u32>(), 0..40),
        0u32..40,
        any::<u64>(),
    )
}

fn build(
    n: u32,
    degree: u32,
    leaver_seeds: &[u32],
    joins: u32,
    seed: u64,
) -> (KeyTree, keytree::MarkOutcome) {
    let mut kg = KeyGen::from_seed(seed);
    let mut tree = KeyTree::balanced(n, degree, &mut kg);
    let mut leavers: Vec<MemberId> = leaver_seeds.iter().map(|s| s % n).collect();
    leavers.sort_unstable();
    leavers.dedup();
    let join_list: Vec<(MemberId, SymKey)> = (0..joins).map(|i| (n + i, kg.next_key())).collect();
    let outcome = tree.process_batch(&Batch::new(join_list, leavers), &mut kg);
    (tree, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Block partitioning: every packet appears exactly once as a
    /// non-duplicate, block sizes are exactly k, and FEC bodies of
    /// duplicates equal their originals.
    #[test]
    fn block_partition_structure(
        (n, d, leavers, joins, seed) in workload(),
        k in 1usize..25,
    ) {
        let (tree, outcome) = build(n, d, &leavers, joins, seed);
        let layout = Layout::DEFAULT;
        let built = UkaAssignment::build(&tree, &outcome, 5, &layout).unwrap();
        let n_real = built.packets.len();
        prop_assume!(n_real > 0 && n_real.div_ceil(k) <= 256);
        let bs = BlockSet::new(built.packets.clone(), k, layout);

        prop_assert_eq!(bs.real_packet_count(), n_real);
        prop_assert_eq!(bs.block_count(), n_real.div_ceil(k));
        prop_assert_eq!(
            bs.duplicated_count(),
            bs.block_count() * k - n_real
        );
        let mut real_seen = 0;
        for b in 0..bs.block_count() {
            let blk = bs.block(b).unwrap();
            prop_assert_eq!(blk.packets.len(), k);
            let real = (n_real - b * k).min(k);
            for (s, p) in blk.packets.iter().enumerate() {
                let h = p.header();
                prop_assert_eq!(h.block_id as usize, b);
                prop_assert_eq!(h.seq as usize, s);
                if !h.duplicate {
                    real_seen += 1;
                    prop_assert_eq!(p.as_ref(), built.packets[b * k + s].as_ref());
                } else {
                    prop_assert_eq!(p.as_ref(), blk.packets[s % real].as_ref());
                }
            }
        }
        prop_assert_eq!(real_seen, n_real);
    }

    /// Estimator bracketing: for any loss pattern over a real message,
    /// the surviving-packet estimate always contains the true block of
    /// every user's specific packet.
    #[test]
    fn estimator_always_brackets_truth(
        (n, d, leavers, joins, seed) in workload(),
        k in 1usize..12,
        pattern in any::<u64>(),
    ) {
        let (tree, outcome) = build(n, d, &leavers, joins, seed);
        let layout = Layout::DEFAULT;
        let built = UkaAssignment::build(&tree, &outcome, 3, &layout).unwrap();
        prop_assume!(built.packets.len() > 1 && built.packets.len().div_ceil(k) <= 256);
        let bs = BlockSet::new(built.packets.clone(), k, layout);

        for (uid, pi) in built.served_users(&tree).take(20) {
            let true_block = (pi / k) as u32;
            let mut est = BlockIdEstimator::new(uid as u16);
            let mut bit = 0u32;
            for b in 0..bs.block_count() {
                for pkt in &bs.block(b).unwrap().packets {
                    // Skip the user's own packet (it "lost" it) and apply
                    // the pseudo-random loss pattern to the rest.
                    let received = (pattern >> (bit % 64)) & 1 == 1;
                    bit += 1;
                    if pkt.serves(uid as u16) {
                        continue;
                    }
                    if received {
                        est.observe(&pkt.header(), k, d);
                    }
                }
            }
            prop_assert!(est.low() <= true_block,
                "user {}: low {} > true {}", uid, est.low(), true_block);
            if let Some((lo, hi)) = est.range() {
                prop_assert!(lo <= true_block && true_block <= hi,
                    "user {}: ({}, {}) excludes {}", uid, lo, hi, true_block);
            }
        }
    }
}

/// A member whose u-node ID exceeds the 16-bit `newUserID` field gets no
/// USR packet — never one whose truncated ID addresses another user.
#[test]
fn usr_packet_refuses_ids_beyond_the_wire() {
    // N = 65536 at d = 4: u-nodes occupy IDs 21845..=87380.
    let (tree, outcome) = build(1 << 16, 4, &[0, 65535], 0, 9);
    let narrow = tree.member_ids().into_iter().find(|&m| {
        tree.node_of_member(m)
            .is_some_and(|id| id <= u32::from(u16::MAX))
    });
    let wide = tree.member_ids().into_iter().find(|&m| {
        tree.node_of_member(m)
            .is_some_and(|id| id > u32::from(u16::MAX))
    });
    let (narrow, wide) = (
        narrow.expect("a 16-bit member"),
        wide.expect("a wide member"),
    );
    let usr = rekeymsg::build_usr_packet(&tree, &outcome, narrow, 1).expect("fits the wire");
    assert_eq!(
        u32::from(usr.new_user_id),
        tree.node_of_member(narrow).unwrap()
    );
    assert_eq!(rekeymsg::build_usr_packet(&tree, &outcome, wide, 1), None);
}
