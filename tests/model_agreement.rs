//! The two receiver models of `grouprekey::transport` — share-counting
//! `SimUser`s and `UserSession`s fed wire bytes — must produce *identical*
//! delivery dynamics when the one loop drives them with the same network
//! randomness: same per-user success rounds, same NACK counts, same server
//! decisions — for every message of a sequence delivered over one network
//! and one clock, so what a link remembers from one message to the next is
//! the same in both. This is the justification for using the fast model in
//! the figure experiments.

use std::collections::BTreeMap;

use keytree::{Batch, KeyTree, MemberId, NodeId};
use netsim::{Network, NetworkConfig};
use rekeymsg::{build_usr_packet, Layout, Packet, UkaAssignment, UsrPacket};
use rekeyproto::{ServerConfig, ServerController, UserSession};
use wirecrypto::KeyGen;

use grouprekey::sim::SimUser;
use grouprekey::transport::{self, ByteReceiver, Receiver, SimConfig, TransportScratch};

/// Messages delivered back to back on one network and one clock: the loss
/// processes (a link mid-burst at the end of a message is mid-burst at the
/// start of the next) and the clock persist, as in `ExperimentRun` and
/// `driver::Group`. The controller state does not move (`adapt_rho` off).
const MESSAGES: u32 = 5;

/// One rekey message: the tree after its batch, and what the batch made.
struct Message {
    msg_seq: u64,
    tree: KeyTree,
    outcome: keytree::MarkOutcome,
    assignment: UkaAssignment,
}

struct Scenario {
    messages: Vec<Message>,
    proto: ServerConfig,
    net_cfg: NetworkConfig,
}

fn scenario(seed: u64, alpha: f64, p_high: f64, max_rounds: usize, k: usize) -> Scenario {
    let n = 128u32;
    let mut kg = KeyGen::from_seed(seed);
    let mut tree = KeyTree::balanced(n, 4, &mut kg);
    let messages = (0..MESSAGES)
        .map(|m| {
            // Sixteen fresh leavers a message, spread over the tree.
            let leaves: Vec<u32> = (0..16u32).map(|i| i * 8 + m).collect();
            let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
            let msg_seq = u64::from(m) + 1;
            let assignment =
                UkaAssignment::build(&tree, &outcome, msg_seq, &Layout::DEFAULT).unwrap();
            Message {
                msg_seq,
                tree: tree.clone(),
                outcome,
                assignment,
            }
        })
        .collect();
    let proto = ServerConfig {
        block_size: k,
        initial_rho: 1.0,
        adapt_rho: false,
        max_multicast_rounds: max_rounds,
        ..ServerConfig::default()
    };
    let net_cfg = NetworkConfig {
        n_users: n as usize,
        alpha,
        p_high,
        seed: seed ^ 0xBEEF,
        ..NetworkConfig::default()
    };
    Scenario {
        messages,
        proto,
        net_cfg,
    }
}

/// Per-user success rounds, round-one NACK count, bandwidth overhead.
type Delivery = (BTreeMap<NodeId, usize>, usize, f64);

/// Delivers the scenario's messages, in order, through the one transport
/// loop to receivers of model `R`, on one network seeded by the scenario
/// alone and one clock. A member's link is its member ID for as long as it
/// stays.
fn deliver<R: Receiver>(
    sc: &Scenario,
    receiver: impl Fn(&Message, usize, NodeId) -> R,
    usr_packet: impl Fn(&Message, MemberId) -> Packet,
) -> Vec<Delivery> {
    let controller = ServerController::new(sc.proto);
    let mut net = Network::new(sc.net_cfg);
    let mut clock = 0.0f64;
    let mut scratch = TransportScratch::new();

    sc.messages
        .iter()
        .map(|msg| {
            let mut session = controller.begin_message(msg.assignment.packets.clone(), 100);
            let mut members = msg.tree.member_ids();
            members.sort_unstable();
            let mut receivers: Vec<R> = members
                .iter()
                .map(|&m| receiver(msg, m as usize, msg.tree.node_of_member(m).unwrap()))
                .collect();

            let stats = transport::run(
                &mut net,
                &mut clock,
                &mut session,
                &mut receivers,
                &SimConfig::default(),
                &mut scratch,
                |slot| usr_packet(msg, members[slot]),
            );
            assert_eq!(stats.unserved, 0, "run did not converge");

            let per_user = receivers
                .iter()
                .map(|r| (r.node_id(), r.success_round().expect("all served")))
                .collect();
            (
                per_user,
                session.first_round_nack_count(),
                session.bandwidth_overhead(),
            )
        })
        .collect()
}

/// Real packets cross the network as bytes into `UserSession`s.
fn run_byte_faithful(sc: &Scenario) -> Vec<Delivery> {
    let layout = Layout::DEFAULT;
    deliver(
        sc,
        |msg, link, node| ByteReceiver {
            session: UserSession::new(node, 4, sc.proto.block_size, layout)
                .expect_msg_id((msg.msg_seq & 0x3f) as u8),
            link,
            node,
            layout,
        },
        |msg, m| {
            let usr = build_usr_packet(&msg.tree, &msg.outcome, m, msg.msg_seq);
            Packet::Usr(usr.unwrap())
        },
    )
}

/// Share-counting `SimUser`s see the borrowed packets.
fn run_fast_model(sc: &Scenario) -> Vec<Delivery> {
    let k = sc.proto.block_size;
    deliver(
        sc,
        |msg, link, node| {
            let tb = msg.assignment.packet_of_user(node).map(|pi| (pi / k) as u8);
            SimUser::new(link, node, k, 4, tb)
        },
        |_, _| {
            Packet::Usr(UsrPacket {
                msg_id: 0,
                new_user_id: 0,
                sealed: vec![],
            })
        },
    )
}

fn assert_agreement(seed: u64, alpha: f64, p_high: f64, max_rounds: usize) {
    assert_models_agree(&scenario(seed, alpha, p_high, max_rounds, 5));
}

fn assert_models_agree(sc: &Scenario) {
    let bytes = run_byte_faithful(sc);
    let fast = run_fast_model(sc);
    assert_eq!(bytes.len(), MESSAGES as usize);
    assert_eq!(fast.len(), MESSAGES as usize);

    for (m, ((bytes_rounds, bytes_nacks, bytes_bw), (fast_rounds, fast_nacks, fast_bw))) in
        bytes.iter().zip(&fast).enumerate()
    {
        let m = m + 1;
        assert_eq!(
            bytes_nacks, fast_nacks,
            "message {m}: round-1 NACK counts differ"
        );
        assert!(
            (bytes_bw - fast_bw).abs() < 1e-12,
            "message {m}: bandwidth overhead differs: bytes {bytes_bw} vs fast {fast_bw}"
        );
        assert_eq!(
            bytes_rounds.len(),
            fast_rounds.len(),
            "message {m}: user population differs"
        );
        for (node, r) in bytes_rounds {
            assert_eq!(
                fast_rounds.get(node),
                Some(r),
                "message {m}, node {node}: byte-faithful round {r} vs fast {:?}",
                fast_rounds.get(node)
            );
        }
    }
}

#[test]
fn agreement_low_loss() {
    assert_agreement(11, 0.2, 0.20, usize::MAX);
}

#[test]
fn agreement_heavy_loss_multicast_only() {
    assert_agreement(12, 1.0, 0.30, usize::MAX);
}

#[test]
fn agreement_with_unicast_tail() {
    assert_agreement(13, 1.0, 0.30, 1);
}

#[test]
fn agreement_two_round_switch() {
    assert_agreement(14, 0.4, 0.25, 2);
}

#[test]
fn agreement_many_seeds() {
    for seed in 20..30 {
        assert_agreement(seed, 0.2, 0.20, 2);
    }
}

/// `k` well above the message's real packet count: the one block is mostly
/// cyclic duplicates, which count as shares but never feed the estimator.
#[test]
fn agreement_with_duplicate_padded_block() {
    let sc = scenario(15, 1.0, 0.30, 2, 16);
    let padded = |m: &Message| m.assignment.packets.len() < 16;
    assert!(sc.messages.iter().all(padded), "the block must be padded");
    assert_models_agree(&sc);
}
