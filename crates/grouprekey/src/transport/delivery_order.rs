//! The receiver-major multicast round against the packet-major walk it
//! replaced, which is kept here as the reference: on copies of one network,
//! session and receivers, [`run`] must end where the packet-major loop
//! ends — the same statistics, success rounds, server state and clock bits,
//! and every link in the same state (its next answers the same).

use keytree::{Batch, KeyTree, MemberId};
use netsim::NetworkConfig;
use proptest::prelude::*;
use rekeymsg::{
    build_usr_packet, EncHeader, EncPacket, NackRequest, SendOrder, UkaAssignment, UsrPacket,
};
use rekeyproto::{ServerConfig, ServerController};
use wirecrypto::KeyGen;

use super::*;
use crate::sim::SimUser;

/// The round as `run` walked it until it went receiver by receiver: each
/// packet is one `multicast_to_into` to every listener left, and the walk
/// stops, one send interval later, at the packet that finds nobody.
fn packet_major<R: Receiver>(
    net: &mut Network,
    clock: &mut f64,
    schedule: &[Packet],
    layout: &Layout,
    receivers: &mut [R],
    round: usize,
    scratch: &mut TransportScratch,
) {
    let send_interval = net.config().send_interval_ms;
    let frames = R::frames(schedule, layout);
    let mut delivered = Vec::new();
    for j in 0..schedule.len() {
        *clock += send_interval;
        let links: Vec<usize> = (scratch.listener_slots.iter())
            .map(|&slot| receivers[slot].net_index())
            .collect();
        if links.is_empty() {
            break;
        }
        net.multicast_to_into(*clock, &links, &mut delivered);
        for (&slot, &ok) in scratch.listener_slots.iter().zip(&delivered) {
            if ok {
                receivers[slot].receive_at(&frames, j, round);
            }
        }
        scratch.retain_listening(receivers);
    }
}

/// One delivery problem: a leave batch on a balanced tree, the protocol
/// and the network it crosses.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: u32,
    k: usize,
    rho: f64,
    alpha: f64,
    p_high: f64,
    p_source: f64,
    independent_loss: bool,
    send_order: SendOrder,
    max_multicast_rounds: usize,
    max_total_rounds: usize,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (1u32..300, 1usize..8, 1.0f64..3.0, any::<u64>()),
        (0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6),
        (any::<bool>(), any::<bool>(), 1usize..4, 1usize..6),
    )
        .prop_map(|((n, k, rho, seed), (alpha, p_high, p_source), flags)| {
            let (independent_loss, sequential, max_multicast_rounds, max_total_rounds) = flags;
            Case {
                n,
                k,
                rho,
                alpha,
                p_high,
                p_source,
                independent_loss,
                send_order: if sequential {
                    SendOrder::Sequential
                } else {
                    SendOrder::Interleaved
                },
                max_multicast_rounds,
                max_total_rounds,
                seed,
            }
        })
}

/// The case's message: the tree after its batch, the members in link
/// order, and what the batch made.
struct Message {
    tree: KeyTree,
    members: Vec<MemberId>,
    outcome: keytree::MarkOutcome,
    assignment: UkaAssignment,
}

fn message(c: &Case) -> Message {
    let mut kg = KeyGen::from_seed(c.seed);
    let mut tree = KeyTree::balanced(c.n, 4, &mut kg);
    // About one member in five leaves; at least one member stays.
    let mut leaves: Vec<MemberId> = (0..c.n)
        .filter(|&m| {
            (u64::from(m) ^ c.seed)
                .wrapping_mul(0x9E37_79B9)
                .is_multiple_of(5)
        })
        .collect();
    leaves.truncate(c.n as usize - 1);
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
    let mut members = tree.member_ids();
    members.sort_unstable();
    Message {
        tree,
        members,
        outcome,
        assignment,
    }
}

/// Runs the case through [`run_with`] with both round walks, each on its
/// own copy of the network, session and receivers, and compares the ends.
fn loops_agree<R: Receiver>(
    c: &Case,
    msg: &Message,
    receivers: impl Fn() -> Vec<R>,
    usr_packet: impl Fn(usize) -> Packet,
) -> TestCaseResult {
    let controller = ServerController::new(ServerConfig {
        block_size: c.k,
        initial_rho: c.rho,
        adapt_rho: false,
        max_multicast_rounds: c.max_multicast_rounds,
        send_order: c.send_order,
        ..ServerConfig::default()
    });
    let net_cfg = NetworkConfig {
        n_users: c.n as usize,
        alpha: c.alpha,
        p_high: c.p_high,
        p_source: c.p_source,
        independent_loss: c.independent_loss,
        seed: c.seed,
        ..NetworkConfig::default()
    };
    let cfg = SimConfig {
        deadline_rounds: 2,
        max_total_rounds: c.max_total_rounds,
    };
    let end = |deliver_round: DeliverRound<R>| {
        let mut net = Network::new(net_cfg);
        let mut clock = 1000.0;
        let mut session = controller.begin_message(msg.assignment.packets.clone(), 100);
        let mut rs = receivers();
        let stats = run_with(
            &mut net,
            &mut clock,
            &mut session,
            &mut rs,
            &cfg,
            &mut TransportScratch::new(),
            &usr_packet,
            deliver_round,
        );
        let won: Vec<Option<usize>> = rs.iter().map(R::success_round).collect();
        let server = (
            session.stats,
            session.first_round_demands().to_vec(),
            session.bandwidth_overhead().to_bits(),
        );
        // The links' next answers, asked past everything the run asked.
        let next: Vec<bool> = (1..=16)
            .flat_map(|i| {
                let now = clock + f64::from(i) * 250.0;
                let source = net.source_delivers(now);
                let links: Vec<bool> = (0..c.n as usize)
                    .map(|u| net.link_delivers(u, now))
                    .collect();
                std::iter::once(source).chain(links)
            })
            .collect();
        (stats, won, server, clock.to_bits(), next)
    };
    let (reference, receiver_major) = (end(packet_major), end(multicast_round));
    prop_assert_eq!(reference.0, receiver_major.0, "transport stats");
    prop_assert_eq!(reference.1, receiver_major.1, "success rounds");
    prop_assert_eq!(reference.2, receiver_major.2, "server stats");
    prop_assert_eq!(reference.3, receiver_major.3, "clock bits");
    prop_assert!(reference.4 == receiver_major.4, "next link answers differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn receiver_major_rounds_match_the_packet_major_walk(c in case()) {
        let msg = message(&c);
        let layout = Layout::DEFAULT;
        let k = c.k;
        let node = |m: MemberId| msg.tree.node_of_member(m).unwrap();
        loops_agree(
            &c,
            &msg,
            || -> Vec<SimUser> {
                (msg.members.iter().enumerate())
                    .map(|(link, &m)| {
                        let tb = msg.assignment.packet_of_user(node(m)).map(|pi| (pi / k) as u8);
                        SimUser::new(link, node(m), k, 4, tb)
                    })
                    .collect()
            },
            |_| {
                Packet::Usr(UsrPacket {
                    msg_id: 0,
                    new_user_id: 0,
                    sealed: Vec::new(),
                })
            },
        )?;
        loops_agree(
            &c,
            &msg,
            || -> Vec<ByteReceiver> {
                (msg.members.iter().enumerate())
                    .map(|(link, &m)| ByteReceiver {
                        session: UserSession::new(node(m), 4, k, layout).expect_msg_id(1),
                        link,
                        node: node(m),
                        layout,
                    })
                    .collect()
            },
            |slot| {
                let usr = build_usr_packet(&msg.tree, &msg.outcome, msg.members[slot], 1);
                Packet::Usr(usr.unwrap())
            },
        )?;
    }
}

/// Holds [`Receiver::next_read`] to its contract on one receiver's frames:
/// from every `from`, the bound lies between `from` and the first frame
/// `reads_now` takes (the frame count if none does); `exact` holds it to
/// that frame. `reads_now` must record nothing by now.
fn bound_holds<R: Receiver>(
    r: &mut R,
    frames: &R::Frames<'_>,
    len: usize,
    exact: bool,
) -> TestCaseResult {
    let reads: Vec<bool> = (0..len).map(|j| r.reads_now(frames, j)).collect();
    for from in 0..=len {
        let bound = r.next_read(frames, from);
        let first = (from..len).find(|&j| reads[j]).unwrap_or(len);
        prop_assert!(
            (from..=first).contains(&bound),
            "from {from}: bound {bound}, first frame read now {first}"
        );
        prop_assert!(
            !exact || bound == first,
            "from {from}: bound {bound}, not {first}"
        );
    }
    Ok(())
}

/// A packet the server never sends, made from one it does (`None` for the
/// byte-level forgery, a truncated frame): an ENC past `k`, one of another
/// message, one naming every ID under another `maxKID`, a USR, a NACK.
fn forged(kind: u8, real: &EncPacket, k: usize) -> Option<Packet> {
    let h = real.header();
    let enc = |h: EncHeader| EncPacket::new(h, real.entries(), &Layout::DEFAULT).ok();
    match kind {
        0 => enc(EncHeader { seq: k as u8, ..h }).map(Packet::Enc),
        1 => enc(EncHeader {
            msg_id: h.msg_id ^ 1,
            ..h
        })
        .map(Packet::Enc),
        2 => enc(EncHeader {
            frm_id: 0,
            to_id: u16::MAX,
            max_kid: h.max_kid.wrapping_add(1),
            ..h
        })
        .map(Packet::Enc),
        3 => Some(Packet::Usr(UsrPacket {
            msg_id: h.msg_id,
            new_user_id: h.frm_id,
            sealed: Vec::new(),
        })),
        4 => Some(Packet::Nack(NackPacket {
            msg_id: h.msg_id,
            requests: vec![NackRequest {
                count: 1,
                block_id: 0,
            }],
        })),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over a server-built round one, in either send order, with forged,
    /// truncated, foreign and NACK/USR frames put in: both models' bound
    /// skips no frame their `reads_now` takes — the count model's is that
    /// frame — and the byte model's is `from` until a header taught the ID.
    #[test]
    fn next_read_skips_no_frame_read_now(
        c in case(),
        forgeries in proptest::collection::vec((any::<usize>(), 0u8..6), 0..6),
    ) {
        let msg = message(&c);
        let layout = Layout::DEFAULT;
        let controller = ServerController::new(ServerConfig {
            block_size: c.k,
            send_order: c.send_order,
            ..ServerConfig::default()
        });
        let mut packets = controller.begin_message(msg.assignment.packets.clone(), 100).start();
        let real = &msg.assignment.packets;
        let mut cut = Vec::new();
        for &(at, kind) in forgeries.iter().filter(|_| !real.is_empty()) {
            match forged(kind, &real[at % real.len()], c.k) {
                Some(pkt) => packets.insert(at % (packets.len() + 1), pkt),
                None => cut.push(at),
            }
        }
        let mut bytes: Vec<Arc<[u8]>> = packets.iter().map(|p| p.emit(&layout).into()).collect();
        for at in cut {
            let frame = &bytes[at % bytes.len()];
            let short: Arc<[u8]> = frame[..frame.len() - 1].into();
            bytes.insert(at % (bytes.len() + 1), short);
        }
        let (count_frames, len) = (&packets[..], bytes.len());
        let frames = Frames::new(bytes, &layout);
        let step = (msg.members.len() / 40).max(1);
        for (link, &m) in msg.members.iter().enumerate().step_by(step) {
            let node = msg.tree.node_of_member(m).unwrap();
            let tb = msg.assignment.packet_of_user(node).map(|pi| (pi / c.k) as u8);
            let mut user = SimUser::new(link, node, c.k, 4, tb);
            bound_holds(&mut user, &count_frames, packets.len(), true)?;

            let session = UserSession::new(node, 4, c.k, layout).expect_msg_id(1);
            let mut r = ByteReceiver { session, link, node, layout };
            let mut j = 0;
            while r.session.current_id().is_none() && j < len {
                prop_assert_eq!(r.next_read(&frames, j), j, "ID unknown");
                r.reads_now(&frames, j);
                j += 1;
            }
            if r.session.current_id().is_some() {
                bound_holds(&mut r, &frames, len, false)?;
            }
        }
    }
}
