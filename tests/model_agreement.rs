//! The two receiver models of `grouprekey::transport` — share-counting
//! `SimUser`s and `UserSession`s fed wire bytes — must produce *identical*
//! delivery dynamics when the one loop drives them with the same network
//! randomness: same per-user success rounds, same NACK counts, same server
//! decisions. This is the justification for using the fast model in the
//! figure experiments.

use std::collections::BTreeMap;

use keytree::{Batch, KeyTree, MemberId, NodeId};
use netsim::{Network, NetworkConfig};
use rekeymsg::{build_usr_packet, Layout, Packet, UkaAssignment, UsrPacket};
use rekeyproto::{ServerConfig, ServerController, UserSession};
use wirecrypto::KeyGen;

use grouprekey::sim::SimUser;
use grouprekey::transport::{self, ByteReceiver, Receiver, SimConfig, TransportScratch};

struct Scenario {
    tree: KeyTree,
    outcome: keytree::MarkOutcome,
    assignment: UkaAssignment,
    proto: ServerConfig,
    net_cfg: NetworkConfig,
}

fn scenario(seed: u64, alpha: f64, p_high: f64, max_rounds: usize, k: usize) -> Scenario {
    let n = 128u32;
    let mut kg = KeyGen::from_seed(seed);
    let mut tree = KeyTree::balanced(n, 4, &mut kg);
    let leaves: Vec<u32> = (0..32u32).map(|i| i * 4).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
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
        tree,
        outcome,
        assignment,
        proto,
        net_cfg,
    }
}

/// Per-user success rounds, round-one NACK count, bandwidth overhead.
type Delivery = (BTreeMap<NodeId, usize>, usize, f64);

/// Delivers the scenario's message through the one transport loop to
/// receivers of model `R`, on a network seeded by the scenario alone.
fn deliver<R: Receiver>(
    sc: &Scenario,
    receiver: impl Fn(usize, NodeId) -> R,
    usr_packet: impl Fn(MemberId) -> Packet,
) -> Delivery {
    let controller = ServerController::new(sc.proto);
    let mut session = controller.begin_message(sc.assignment.packets.clone(), 100);
    let mut net = Network::new(sc.net_cfg);
    let mut clock = 0.0f64;

    // Users in sorted member order; a user's link is its position.
    let mut members = sc.tree.member_ids();
    members.sort_unstable();
    let mut receivers: Vec<R> = members
        .iter()
        .enumerate()
        .map(|(idx, &m)| receiver(idx, sc.tree.node_of_member(m).unwrap()))
        .collect();

    let stats = transport::run(
        &mut net,
        &mut clock,
        &mut session,
        &mut receivers,
        &SimConfig::default(),
        &mut TransportScratch::new(),
        |slot| usr_packet(members[slot]),
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
}

/// Real packets cross the network as bytes into `UserSession`s.
fn run_byte_faithful(sc: &Scenario) -> Delivery {
    let layout = Layout::DEFAULT;
    deliver(
        sc,
        |link, node| ByteReceiver {
            session: UserSession::new(node, 4, sc.proto.block_size, layout),
            link,
            node,
            layout,
        },
        |m| Packet::Usr(build_usr_packet(&sc.tree, &sc.outcome, m, 1).unwrap()),
    )
}

/// Share-counting `SimUser`s see the borrowed packets.
fn run_fast_model(sc: &Scenario) -> Delivery {
    let k = sc.proto.block_size;
    deliver(
        sc,
        |link, node| {
            let tb = sc.assignment.packet_of_user(node).map(|pi| (pi / k) as u8);
            SimUser::new(link, node, k, 4, tb)
        },
        |_| {
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
    let (bytes_rounds, bytes_nacks, bytes_bw) = run_byte_faithful(sc);
    let (fast_rounds, fast_nacks, fast_bw) = run_fast_model(sc);

    assert_eq!(bytes_nacks, fast_nacks, "round-1 NACK counts differ");
    assert!(
        (bytes_bw - fast_bw).abs() < 1e-12,
        "bandwidth overhead differs: bytes {bytes_bw} vs fast {fast_bw}"
    );
    assert_eq!(
        bytes_rounds.len(),
        fast_rounds.len(),
        "user population differs"
    );
    for (node, r) in &bytes_rounds {
        assert_eq!(
            fast_rounds.get(node),
            Some(r),
            "node {node}: byte-faithful round {r} vs fast {:?}",
            fast_rounds.get(node)
        );
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
    assert!(sc.assignment.packets.len() < 16, "the block must be padded");
    assert_models_agree(&sc);
}
