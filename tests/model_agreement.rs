//! The two receiver models of `grouprekey::transport` — share-counting
//! `SimUser`s and `UserSession`s fed wire bytes — must produce *identical*
//! delivery dynamics when the one loop drives them with the same network
//! randomness: same per-user success rounds, same NACK counts, same server
//! decisions — for every message of a sequence delivered over one network
//! and one clock, so what a link remembers from one message to the next is
//! the same in both. This is the justification for using the fast model in
//! the figure experiments.

use std::collections::BTreeMap;

use grouprekey::sim::SimUser;
use grouprekey::transport::{self, ByteReceiver, Receiver, SimConfig, TransportScratch};
use grouprekey::{KeyServer, RekeyArtifacts, ServerOptions};
use keytree::{Batch, MemberId, NodeId};
use netsim::{Network, NetworkConfig};
use rekeymsg::{Packet, UsrPacket};
use rekeyproto::{ServerConfig, UserSession};

/// Messages delivered back to back on one network and one clock: the loss
/// processes (a link mid-burst at the end of a message is mid-burst at the
/// start of the next) and the clock persist, as in `ExperimentRun` and
/// `driver::Group`. The controller state does not move (`adapt_rho` off).
const MESSAGES: u32 = 5;

/// Members at the start of every run.
const N: u32 = 128;

struct Scenario {
    seed: u64,
    proto: ServerConfig,
    net_cfg: NetworkConfig,
}

impl Scenario {
    /// The group every run starts from, keyed from the seed.
    fn server(&self) -> KeyServer {
        let options = ServerOptions {
            protocol: self.proto,
            keygen_seed: self.seed,
            ..ServerOptions::default()
        };
        KeyServer::bootstrap(N, options)
    }

    /// Message `m`'s batch: sixteen fresh leavers, spread over the tree.
    fn batch(m: u32) -> Batch {
        Batch::new(vec![], (0..16u32).map(|i| i * 8 + m).collect())
    }
}

fn scenario(seed: u64, alpha: f64, p_high: f64, max_rounds: usize, k: usize) -> Scenario {
    let proto = ServerConfig {
        block_size: k,
        initial_rho: 1.0,
        adapt_rho: false,
        max_multicast_rounds: max_rounds,
        ..ServerConfig::default()
    };
    let net_cfg = NetworkConfig {
        n_users: N as usize,
        alpha,
        p_high,
        seed: seed ^ 0xBEEF,
        ..NetworkConfig::default()
    };
    Scenario {
        seed,
        proto,
        net_cfg,
    }
}

/// Per-user success rounds, round-one NACK count, bandwidth overhead.
type Delivery = (BTreeMap<NodeId, usize>, usize, f64);

/// Rekeys the scenario's batches, in order, on a server of the run's own,
/// and delivers each message through the one transport loop to receivers
/// of model `R`, on one network seeded by the scenario alone and one
/// clock. A member's link is its member ID for as long as it stays.
fn deliver<R: Receiver>(
    sc: &Scenario,
    receiver: impl Fn(&RekeyArtifacts, usize, NodeId) -> R,
    usr_packet: impl Fn(&KeyServer, MemberId) -> Packet,
) -> Vec<Delivery> {
    let mut server = sc.server();
    let mut net = Network::new(sc.net_cfg);
    let mut clock = 0.0f64;
    let mut scratch = TransportScratch::new();

    (0..MESSAGES)
        .map(|m| {
            let mut artifacts = server.rekey(Scenario::batch(m));
            let tree = server.tree();
            let members = tree.member_ids();
            let mut receivers: Vec<R> = members
                .iter()
                .map(|&m| receiver(&artifacts, m as usize, tree.node_of_member(m).unwrap()))
                .collect();

            let stats = transport::run(
                &mut net,
                &mut clock,
                &mut artifacts.session,
                &mut receivers,
                &SimConfig::default(),
                &mut scratch,
                |node| usr_packet(&server, tree.member_at(node).unwrap()),
            );
            assert_eq!(stats.unserved, 0, "run did not converge");

            let per_user = receivers
                .iter()
                .map(|r| (r.node_id(), r.success_round().expect("all served")))
                .collect();
            let session = &artifacts.session;
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
    deliver(
        sc,
        |artifacts, link, node| {
            let layout = artifacts.session.blocks().layout();
            let session = UserSession::new(node, 4, sc.proto.block_size, layout)
                .expect_msg_id((artifacts.msg_seq & 0x3f) as u8);
            ByteReceiver::new(session, link, node)
        },
        |server, m| Packet::Usr(server.usr_packet(m).unwrap()),
    )
}

/// Share-counting `SimUser`s see the borrowed packets.
fn run_fast_model(sc: &Scenario) -> Vec<Delivery> {
    let k = sc.proto.block_size;
    deliver(
        sc,
        |artifacts, link, node| {
            let tb = artifacts
                .assignment
                .packet_of_user(node)
                .map(|pi| (pi / k) as u8);
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
    let mut server = sc.server();
    let mut padded = (0..MESSAGES).map(|m| server.rekey(Scenario::batch(m)).assignment);
    assert!(
        padded.all(|a| a.packets.len() < 16),
        "the block must be padded"
    );
    assert_models_agree(&sc);
}
