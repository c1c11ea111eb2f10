//! The lane installer against the one-agent applies it batches: through a
//! churning group — leaves, joins into a full tree (Theorem 4.2 splits),
//! compaction relocations, delivery by ENC, by USR or not at all, and
//! forged ENC frames — [`install_lanes`] over the members in order leaves
//! every agent with the same ID and path keys as [`UserAgent::apply_enc`] /
//! [`UserAgent::apply_usr`] applied to each in turn, and names the first
//! member whose apply fails with the error that apply returns.

use std::collections::BTreeMap;

use keytree::{Batch, CompactionPolicy, KeyTree, MarkScratch};
use proptest::prelude::*;
use rekeymsg::{build_usr_packet, EncPacket, Layout, UkaAssignment};
use wirecrypto::KeyGen;

use super::*;

/// One churning group: its shape and, per batch, the joins and the share
/// of members (per mille) that leave.
#[derive(Debug, Clone)]
struct Case {
    n: u32,
    d: u32,
    seed: u64,
    batches: Vec<(u32, u64)>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (16u32..1024, prop::sample::select(vec![2u32, 4, 8])),
        (any::<bool>(), any::<u64>()),
        proptest::collection::vec((0u32..40, 0u64..1200), 1..4),
    )
        .prop_map(|((n, d), (full, seed), batches)| {
            // A full tree: every join is a split.
            let n = if full {
                let mut full_n = d;
                while full_n * d <= n {
                    full_n *= d;
                }
                full_n
            } else {
                n
            };
            let batches = (batches.into_iter())
                .map(|(joins, leave)| (joins, leave.saturating_sub(400)))
                .collect();
            Case {
                n,
                d,
                seed,
                batches,
            }
        })
}

/// `pkt` with one bit of entry `at` (modulo the entry count) flipped.
fn forged(pkt: &EncPacket, at: u64, layout: &Layout) -> EncFrame {
    let count = pkt.entries().count().max(1) as u64;
    let entries = pkt.entries().enumerate().map(|(i, (id, sealed))| {
        let mut bytes = *sealed.as_bytes();
        if i as u64 == at % count {
            bytes[(at >> 8) as usize % SEALED_KEY_LEN] ^= 1 << ((at >> 16) % 8);
        }
        (id, SealedKey::from_bytes(bytes))
    });
    let pkt = EncPacket::new(pkt.header(), entries, layout).unwrap();
    EncFrame::new(pkt.emit().into(), layout).unwrap()
}

fn installs_agree(c: &Case) -> TestCaseResult {
    let layout = Layout::DEFAULT;
    let policy = CompactionPolicy {
        max_moves_per_batch: 16,
    };
    let mut kg = KeyGen::from_seed(c.seed);
    let mut tree = KeyTree::balanced(c.n, c.d, &mut kg);
    let mut scratch = MarkScratch::new();
    let mut lanes: BTreeMap<MemberId, UserAgent> = (0..c.n)
        .map(|m| {
            let node = tree.node_of_member(m).unwrap();
            let path = tree.keys_for_member(m).unwrap();
            (m, UserAgent::with_path(m, node, path[0].1, c.d, path))
        })
        .collect();
    let mut solo = lanes.clone();
    let (mut state, mut next_member) = (c.seed, c.n);
    let mut draw = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    for (step, &(joins, leave_per_mille)) in c.batches.iter().enumerate() {
        let msg_seq = step as u64 + 1;
        let mut members: Vec<MemberId> = lanes.keys().copied().collect();
        let leaving = (members.len() as u64 * leave_per_mille / 1000) as usize;
        let leaves: Vec<MemberId> = (0..leaving.min(members.len() - 1))
            .map(|_| members.swap_remove((draw() % members.len() as u64) as usize))
            .collect();
        let joins = if leaves.is_empty() {
            joins.max(1)
        } else {
            joins
        };
        let joins: Vec<(MemberId, SymKey)> = (next_member..next_member + joins)
            .map(|m| (m, kg.next_key()))
            .collect();
        next_member += joins.len() as u32;
        let outcome = tree.process_batch_compacting_in(
            Batch::new(joins.clone(), leaves.clone()),
            &mut kg,
            &mut scratch,
            &policy,
        );
        let assignment = UkaAssignment::build(&tree, &outcome, msg_seq, &layout).unwrap();

        // Half the relocated members hear of their move out of band; the
        // others learn it from a USR packet or not at all.
        for rl in &outcome.relocations {
            if draw() % 2 == 0 {
                if let (Some(a), Some(b)) = (lanes.get_mut(&rl.member), solo.get_mut(&rl.member)) {
                    a.accept_relocation(rl.new_id);
                    b.accept_relocation(rl.new_id);
                }
            }
        }
        for m in &leaves {
            lanes.remove(m);
            solo.remove(m);
        }
        for &(m, individual) in &joins {
            let node = tree.node_of_member(m).unwrap();
            lanes.insert(m, UserAgent::new(m, node, individual, c.d));
            solo.insert(m, UserAgent::new(m, node, individual, c.d));
        }

        // Per member in order: a USR packet for about a quarter, nothing
        // for one in sixteen, one forged bit in the frame for one in
        // twenty, else its ENC frame.
        let outcomes: Vec<UserOutcome> = (lanes.keys())
            .map(|&m| {
                let node = tree.node_of_member(m).unwrap();
                let pkt = &assignment.packets[assignment.packet_of_user(node).unwrap()];
                match draw() % 80 {
                    0..=19 => {
                        UserOutcome::Usr(build_usr_packet(&tree, &outcome, m, msg_seq).unwrap())
                    }
                    20..=24 => UserOutcome::Pending,
                    25..=28 => UserOutcome::Enc(forged(pkt, draw(), &layout)),
                    _ => UserOutcome::Enc(EncFrame::new(pkt.emit().into(), &layout).unwrap()),
                }
            })
            .collect();

        let mut first_failure = None;
        for ((&m, agent), got) in solo.iter_mut().zip(&outcomes) {
            let result = match got {
                UserOutcome::Enc(pkt) => agent.apply_enc(pkt, msg_seq),
                UserOutcome::Usr(pkt) => agent.apply_usr(pkt, msg_seq),
                UserOutcome::Pending => Ok(()),
            };
            if let Err(e) = result {
                first_failure.get_or_insert((m, e));
            }
        }
        let installed = install_lanes(lanes.values_mut().zip(&outcomes), msg_seq);
        prop_assert_eq!(installed, first_failure.map_or(Ok(()), Err));

        for ((&m, lane), one) in lanes.iter().zip(solo.values()) {
            prop_assert_eq!(lane.node_id(), one.node_id(), "member {}", m);
            prop_assert_eq!(lane.keys_held(), one.keys_held(), "member {}", m);
            for id in ident::path_iter(one.node_id(), c.d) {
                prop_assert_eq!(lane.key_of(id), one.key_of(id), "member {}, node {}", m, id);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lane_install_matches_one_agent_applies(c in case()) {
        installs_agree(&c)?;
    }
}
