//! The `// xcheck: no_alloc` contract, pinned, for the count model
//! of the transport loop: once a rekey message is underway (share bitsets
//! sized, block-ID estimator constructed, NACK scratch warm), `SimUser`'s
//! `receive` and `end_of_round_into` must perform zero heap allocations,
//! and so must the loop that drives them
//! ([`run_message_transport_with`]) once the server has built its
//! round-one schedule. A multicast walk's bound on the next frame it must
//! read, and its question of a delivery — is it the user's own? — allocate
//! nothing in either model, nor does taking the own one. And for the byte model's last step: a
//! [`UserAgent`] that holds its path installs the new keys off the frame
//! its session kept, or off a USR packet, without allocating, and one that
//! a split moved a level down allocates at most once, to grow its path;
//! installing a whole group's outcomes eight agents at a time, each shared
//! frame's ID column indexed once in a warm scratch, allocates nothing
//! either.
//! On the server side: the cipher's
//! batch kernels allocate nothing (their callers own the output), and a
//! warm [`IntervalCollector`] admits a leave and a join mid-interval
//! without allocating — the request payload is a stack array — and opening
//! a message and building its round-one schedule allocate nothing per ENC
//! packet: every packet goes out on the body UKA wrote, and what is
//! allocated is per block and per parity.

use grouprekey::frontend::{IntervalCollector, JoinRequest, LeaveRequest};
use grouprekey::sim::{run_message_transport_with, SimConfig, SimUser, TransportScratch};
use grouprekey::transport::{ByteReceiver, Receiver};
use grouprekey::{install_lanes, InstallScratch, UserAgent};
use keytree::{Batch, KeyTree};
use netsim::{Network, NetworkConfig};
use rekeymsg::{
    build_usr_packet, EncFrame, EncHeader, EncPacket, Layout, NackPacket, Packet, ParityPacket,
    UkaAssignment,
};
use rekeyproto::{ServerConfig, ServerController, UserOutcome, UserSession};
use rse::DecodeCtx;
use wirecrypto::batch::{keystream16_batch, seal_batch, unseal_group};
use wirecrypto::{KeyGen, SealedKey};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

fn enc(block_id: u8, seq: u8, frm_id: u16, to_id: u16) -> Packet {
    Packet::Enc(
        EncPacket::new(
            EncHeader {
                msg_id: 1,
                block_id,
                seq,
                duplicate: false,
                max_kid: 63,
                frm_id,
                to_id,
            },
            Vec::new(),
            &Layout::DEFAULT,
        )
        .unwrap(),
    )
}

fn parity(block_id: u8, seq: u8) -> Packet {
    Packet::Parity(ParityPacket {
        msg_id: 1,
        block_id,
        seq,
        body: Vec::new(),
    })
}

#[test]
fn receive_and_end_of_round_into_are_allocation_free_in_steady_state() {
    xcheck_rt::assert_counting();

    // User at node 500 with FEC block size 8; its ENC packet lives in
    // block 3, which we never deliver, so the user stays busy collecting
    // shares and NACKing — the transport steady state.
    let k = 8;
    let mut user = SimUser::new(0, 500, k, 4, Some(3));

    // Warm-up: packets for every block the rounds below will touch size
    // the share bitsets, and the first ENC observation constructs the
    // block-ID estimator. Build all packets up front — constructing a
    // `Packet` allocates by design; receiving it must not.
    let warm: Vec<Packet> = vec![enc(0, 0, 100, 120), enc(4, 1, 600, 650), parity(4, 0)];
    for pkt in &warm {
        user.receive(pkt, 0);
    }
    let (mut nack, mut decode) = (NackPacket::default(), DecodeCtx::default());
    assert!(
        user.end_of_round_into(0, &mut nack, &mut decode),
        "unsatisfied user NACKs"
    );

    // Steady state: stream more shares and round boundaries. The ENC
    // headers are block 4's, above the user, as in a real message: they
    // keep block 3 a candidate.
    let stream: Vec<Packet> = (0u8..16)
        .map(|i| {
            if i % 2 == 0 {
                enc(4, 1 + (i / 2) % 7, 600, 650)
            } else {
                parity(i % 5, i)
            }
        })
        .collect();
    for (round, pkt) in stream.iter().enumerate() {
        xcheck_rt::assert_zero_alloc("SimUser::receive", || user.receive(pkt, round + 1));
        let nacked = xcheck_rt::assert_zero_alloc("SimUser::end_of_round_into", || {
            user.end_of_round_into(round + 1, &mut nack, &mut decode)
        });
        assert!(nacked, "still missing block 3, must keep NACKing");
        assert!(!nack.requests.is_empty());
    }
    assert!(!user.is_satisfied());
    assert!(
        nack.requests.iter().any(|r| r.block_id == 3),
        "block 3 is still a candidate: {:?}",
        nack.requests
    );

    // Delivering k distinct shares of the true block satisfies the user.
    for seq in 0..k as u8 {
        let pkt = parity(3, seq);
        user.receive(&pkt, 20);
    }
    assert!(
        !user.end_of_round_into(20, &mut nack, &mut decode),
        "decoded: no NACK"
    );
    assert!(user.is_satisfied());
}

#[test]
fn count_model_loop_allocates_nothing_after_the_round_one_schedule() {
    xcheck_rt::assert_counting();

    // 192 users after 64 leaves, blocks of k = 2 so the message spans
    // several blocks; every link loses 20%, and rho = 4 provisions enough
    // parity that every user recovers (directly or by decode) in round one.
    let k = 2;
    let mut kg = KeyGen::from_seed(5);
    let mut tree = KeyTree::balanced(256, 4, &mut kg);
    let leaves: Vec<u32> = (0..64u32).map(|i| i * 4).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
    let last_block = ((assignment.packets.len() - 1) / k) as u8;
    assert!(last_block >= 2, "the message must span several blocks");
    let controller = ServerController::new(ServerConfig {
        block_size: k,
        initial_rho: 4.0,
        adapt_rho: false,
        ..ServerConfig::default()
    });
    let network = || {
        Network::new(NetworkConfig {
            n_users: 256,
            alpha: 1.0,
            p_high: 0.2,
            seed: 11,
            ..NetworkConfig::default()
        })
    };
    let users = || -> Vec<SimUser> {
        let mut members = tree.member_ids();
        members.sort_unstable();
        members
            .iter()
            .enumerate()
            .map(|(idx, &m)| {
                let uid = tree.node_of_member(m).unwrap();
                let tb = assignment.packet_of_user(uid).map(|pi| (pi / k) as u8);
                SimUser::new(idx, uid, k, 4, tb)
            })
            .collect()
    };
    let cfg = SimConfig::default();
    let mut scratch = TransportScratch::new();
    let mut clock = 0.0;

    // Warm-up message: sizes the scratch (and, in an obs build,
    // registers the loop's span and counter names).
    let mut session = controller.begin_message(assignment.packets.clone(), 100);
    run_message_transport_with(
        &mut network(),
        &mut clock,
        &mut session,
        &mut users(),
        &cfg,
        &mut scratch,
    );

    // Fresh users with their share bitsets sized up front: one share of the
    // highest block, at an index no real parity of this message reaches.
    let mut warm_users = users();
    let filler = parity(last_block, 200);
    for u in &mut warm_users {
        u.receive(&filler, 1);
    }

    // What the server allocates to build round one, measured on a twin.
    let mut twin = controller.begin_message(assignment.packets.clone(), 100);
    let (schedule_allocs, _) = xcheck_rt::count_in(|| twin.start());

    let mut session = controller.begin_message(assignment.packets.clone(), 100);
    let mut net = network();
    let (allocs, stats) = xcheck_rt::count_in(|| {
        run_message_transport_with(
            &mut net,
            &mut clock,
            &mut session,
            &mut warm_users,
            &cfg,
            &mut scratch,
        )
    });
    assert_eq!(stats.total_rounds, 1, "premise: no NACK, no second round");
    assert_eq!(stats.rounds_histogram, vec![192]);
    // Beyond the schedule, one allocation: the one-slot rounds histogram
    // the call returns.
    assert_eq!(
        allocs,
        schedule_allocs + 1,
        "the count-model loop allocated per packet, per round or per user"
    );
}

#[test]
fn the_walks_own_checks_allocate_nothing() {
    xcheck_rt::assert_counting();
    // In an obs build the first count of each outcome registers its
    // name: an allocation that belongs to no receiver.
    for name in [
        "transport.frame.mine",
        "transport.frame.kept",
        "transport.frame.ruled_out",
    ] {
        obs::counter_add(name, 0);
    }

    // Count model: another user's packet and a parity are left for later;
    // the user's own packet is taken and satisfies it.
    let schedule = [enc(0, 0, 100, 120), parity(0, 0), enc(1, 0, 480, 520)];
    let frames: &[Packet] = &schedule;
    let mut user = SimUser::new(0, 500, 8, 4, Some(1));
    let taken = xcheck_rt::assert_zero_alloc("SimUser::next_read + reads_now", || {
        let own = user.next_read(&frames, 0);
        let read = user.reads_now(&frames, own);
        user.receive_at(&frames, own, 1);
        (own, read)
    });
    assert_eq!(taken, (2, true));
    assert!(user.is_satisfied());

    // Byte model, over a real message: every other user's frame is a
    // header read (the first also rederives the user's ID) and is left for
    // later, and its own frame is kept where it lies.
    let layout = Layout::DEFAULT;
    let mut kg = KeyGen::from_seed(9);
    let mut tree = KeyTree::balanced(1024, 4, &mut kg);
    let before = tree.clone();
    let leaves: Vec<u32> = (0..16u32).map(|i| i * 64 + 1).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();
    let packets: Vec<Packet> = (assignment.packets.iter())
        .map(|pkt| Packet::Enc(pkt.clone()))
        .collect();
    let frames = ByteReceiver::frames(&packets, &layout);
    let member = 500;
    let own = assignment
        .packet_of_user(tree.node_of_member(member).unwrap())
        .unwrap();
    assert!(own > 0, "the own frame comes after others");
    let old = before.node_of_member(member).unwrap();
    let mut receiver = ByteReceiver::new(
        UserSession::new(old, 4, 8, layout).expect_msg_id(1),
        0,
        tree.node_of_member(member).unwrap(),
    );
    let others: Vec<usize> = (0..packets.len()).filter(|&j| j != own).collect();
    let (bounds, taken) = xcheck_rt::assert_zero_alloc("ByteReceiver::next_read, others", || {
        // The bound is `from` until a header teaches the ID, then the own frame.
        let unknown = receiver.next_read(&frames, 0);
        let taken = others.iter().any(|&j| receiver.reads_now(&frames, j));
        ([unknown, receiver.next_read(&frames, 0)], taken)
    });
    assert_eq!(bounds, [0, own]);
    assert!(!taken);
    assert!(receiver.session.current_id().is_some(), "asking taught it");
    let mine = xcheck_rt::assert_zero_alloc("ByteReceiver::reads_now, own", || {
        let read = receiver.reads_now(&frames, own);
        receiver.receive_at(&frames, own, 1);
        read
    });
    assert!(mine && receiver.is_satisfied());
}

/// In an obs build the first unseal in the process registers the
/// `agent.unseals` counter: an allocation that belongs to no agent, made
/// here before an agent pin measures.
fn register_agent_counters() {
    obs::counter_add("agent.unseals", 0);
    obs::counter_add("agent.unseal_groups", 0);
    obs::counter_add("agent.entry_lookups", 0);
    obs::counter_add("agent.column_indexes", 0);
}

#[test]
fn apply_enc_on_an_agent_that_holds_its_path_allocates_nothing() {
    xcheck_rt::assert_counting();
    register_agent_counters();

    // 1024 users, 16 leaves: every survivor's path has new keys on it, and
    // several of the 46 pairs in its packet are not for it.
    let layout = Layout::DEFAULT;
    let mut kg = KeyGen::from_seed(9);
    let mut tree = KeyTree::balanced(1024, 4, &mut kg);
    let before = tree.clone();
    let leaves: Vec<u32> = (0..16u32).map(|i| i * 64 + 1).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();

    for member in [0u32, 2, 500, 1023] {
        let path = before.keys_for_member(member).unwrap();
        let node = before.node_of_member(member).unwrap();
        let mut agent = UserAgent::with_path(member, node, path[0].1, 4, path);
        let uid = tree.node_of_member(member).unwrap();
        let pkt = &assignment.packets[assignment.packet_of_user(uid).unwrap()];
        let frame = EncFrame::new(pkt.emit().into(), &layout).unwrap();
        xcheck_rt::assert_zero_alloc("UserAgent::apply_enc", || agent.apply_enc(&frame, 1))
            .unwrap_or_else(|e| panic!("member {member}: {e}"));
        assert_eq!(agent.group_key(), tree.group_key());
    }
}

#[test]
fn apply_usr_on_an_agent_that_holds_its_path_allocates_nothing() {
    xcheck_rt::assert_counting();
    register_agent_counters();

    // The USR packet names the user's ID and carries its changed path keys
    // root side first; the agent indexes its path slots, it does not build
    // the path.
    let mut kg = KeyGen::from_seed(9);
    let mut tree = KeyTree::balanced(1024, 4, &mut kg);
    let before = tree.clone();
    let leaves: Vec<u32> = (0..16u32).map(|i| i * 64 + 1).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);

    for member in [0u32, 2, 500, 1023] {
        let path = before.keys_for_member(member).unwrap();
        let node = before.node_of_member(member).unwrap();
        let mut agent = UserAgent::with_path(member, node, path[0].1, 4, path);
        let usr = build_usr_packet(&tree, &outcome, member, 1).unwrap();
        xcheck_rt::assert_zero_alloc("UserAgent::apply_usr", || agent.apply_usr(&usr, 1))
            .unwrap_or_else(|e| panic!("member {member}: {e}"));
        assert_eq!(agent.group_key(), tree.group_key());
    }
}

#[test]
fn apply_enc_for_a_member_a_split_moved_allocates_at_most_once() {
    xcheck_rt::assert_counting();
    register_agent_counters();

    // A full 64-member tree and one join: the first u-node splits and its
    // member moves one level down, so its path grows past the four slots
    // it had. Growing them is the one allocation allowed.
    let layout = Layout::DEFAULT;
    let mut kg = KeyGen::from_seed(8);
    let mut tree = KeyTree::balanced(64, 4, &mut kg);
    let before = tree.clone();
    let outcome = tree.process_batch(&Batch::new(vec![(100, kg.next_key())], vec![]), &mut kg);
    let [moved] = outcome.moves[..] else {
        panic!("one split move, not {:?}", outcome.moves);
    };
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();

    let member = moved.member;
    let path = before.keys_for_member(member).unwrap();
    let node = before.node_of_member(member).unwrap();
    let mut agent = UserAgent::with_path(member, node, path[0].1, 4, path);
    let uid = tree.node_of_member(member).unwrap();
    let pkt = &assignment.packets[assignment.packet_of_user(uid).unwrap()];
    let frame = EncFrame::new(pkt.emit().into(), &layout).unwrap();
    let (allocs, applied) = xcheck_rt::count_in(|| agent.apply_enc(&frame, 1));
    applied.unwrap_or_else(|e| panic!("member {member}: {e}"));
    assert!(allocs <= 1, "{allocs} allocations for a one-level move");
    assert_eq!(agent.node_id(), uid);
    assert_eq!(agent.keys_held(), 5, "a path one level deeper");
    assert_eq!(agent.group_key(), tree.group_key());
}

#[test]
fn a_warm_lane_install_allocates_nothing() {
    xcheck_rt::assert_counting();
    register_agent_counters();

    // Every survivor of 1024 users after 16 leaves, in member order: one
    // in four by USR, the rest off their ENC frames — one delivery of each
    // packet, shared, so the installer indexes its column — eight chains in
    // flight at a time. Each agent holds its path and none moves. The
    // scratch is warmed by the same install on a copy of the agents.
    let layout = Layout::DEFAULT;
    let mut kg = KeyGen::from_seed(9);
    let mut tree = KeyTree::balanced(1024, 4, &mut kg);
    let before = tree.clone();
    let leaves: Vec<u32> = (0..16u32).map(|i| i * 64 + 1).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();
    let frames: Vec<EncFrame> = (assignment.packets.iter())
        .map(|pkt| EncFrame::new(pkt.emit().into(), &layout).unwrap())
        .collect();

    let (mut agents, outcomes): (Vec<UserAgent>, Vec<UserOutcome>) = (0..1024u32)
        .filter_map(|member| {
            let uid = tree.node_of_member(member)?;
            let path = before.keys_for_member(member).unwrap();
            let node = before.node_of_member(member).unwrap();
            let agent = UserAgent::with_path(member, node, path[0].1, 4, path);
            let got = if member % 4 == 0 {
                UserOutcome::Usr(build_usr_packet(&tree, &outcome, member, 1).unwrap())
            } else {
                UserOutcome::Enc(frames[assignment.packet_of_user(uid).unwrap()].clone())
            };
            Some((agent, got))
        })
        .unzip();
    let mut scratch = InstallScratch::new();
    let mut warm = agents.clone();
    install_lanes(warm.iter_mut().zip(&outcomes), 1, &mut scratch).unwrap();
    xcheck_rt::assert_zero_alloc("install_lanes", || {
        install_lanes(agents.iter_mut().zip(&outcomes), 1, &mut scratch)
    })
    .unwrap_or_else(|(m, e)| panic!("member {m}: {e}"));
    assert!(agents.iter().all(|a| a.group_key() == tree.group_key()));
}

#[test]
fn batch_kernels_allocate_nothing() {
    xcheck_rt::assert_counting();

    // 13 inputs: one full group of eight and a padded tail.
    let mut kg = KeyGen::from_seed(21);
    let triples: Vec<_> = (0..13u64)
        .map(|i| (kg.next_key(), kg.next_key(), i << 20))
        .collect();
    let mut sealed: Vec<SealedKey> = Vec::with_capacity(triples.len());
    xcheck_rt::assert_zero_alloc("seal_batch", || {
        seal_batch(triples.iter().copied(), |_, blob| sealed.push(blob))
    });
    assert_eq!(sealed.len(), 13);
    for (blob, (kek, plain, context)) in sealed.iter().zip(&triples) {
        assert_eq!(blob.unseal(kek, *context), Ok(*plain));
    }

    let group: [_; 8] = core::array::from_fn(|i| (triples[i].0, sealed[i], triples[i].2));
    let opened = xcheck_rt::assert_zero_alloc("unseal_group", || unseal_group(&group));
    for (got, (_, plain, _)) in opened.iter().zip(&triples) {
        assert_eq!(*got, Ok(*plain));
    }

    let mut derived = [[0u8; 16]; 13];
    xcheck_rt::assert_zero_alloc("keystream16_batch", || {
        keystream16_batch(
            triples.iter().map(|&(key, _, nonce)| (key, nonce)),
            |i, bytes| derived[i] = bytes,
        )
    });
    assert!(derived.iter().all(|bytes| *bytes != [0u8; 16]));
}

#[test]
fn a_warm_collector_admits_a_leave_and_a_join_without_allocating() {
    xcheck_rt::assert_counting();

    let mut kg = KeyGen::from_seed(33);
    let keys: Vec<_> = (0..12).map(|_| kg.next_key()).collect();
    let mut collector = IntervalCollector::new();
    // Five requests of each kind leave the queues (grown 4 -> 8 at the
    // fifth push) and the hash tables (7 of 8 buckets usable) with room
    // for a sixth; signing is the requester's side and stays outside.
    for m in 0..5u32 {
        let leave = LeaveRequest::sign(m, 0, &keys[m as usize]);
        collector
            .submit_leave(leave, |m| Some(keys[m as usize]))
            .unwrap();
        let key = keys[6 + m as usize];
        collector
            .submit_join(JoinRequest::sign(100 + m, 0, &key), key, false)
            .unwrap();
    }
    let leave = LeaveRequest::sign(5, 0, &keys[5]);
    let join = JoinRequest::sign(105, 0, &keys[11]);
    xcheck_rt::assert_zero_alloc("submit_leave + submit_join", || {
        collector
            .submit_leave(leave, |m| Some(keys[m as usize]))
            .unwrap();
        collector.submit_join(join, keys[11], false).unwrap();
    });
    assert_eq!(collector.pending(), (6, 6));
}

#[test]
fn begin_message_and_start_allocate_nothing_per_enc_packet() {
    xcheck_rt::assert_counting();

    // A server_scale-shaped message, smaller: blocks of k = 10 at rho = 1.5,
    // so round one carries five proactive parities a block.
    let (layout, k) = (Layout::DEFAULT, 10);
    let mut kg = KeyGen::from_seed(17);
    let mut tree = KeyTree::balanced(4096, 4, &mut kg);
    let leaves: Vec<u32> = (0..256u32).map(|i| i * 16 + 5).collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();
    let real = assignment.packets.len();
    assert!(
        real > 2 * k && !real.is_multiple_of(k),
        "several blocks and duplicates: {real}"
    );
    let controller = ServerController::new(ServerConfig {
        block_size: k,
        initial_rho: 1.5,
        ..ServerConfig::default()
    });

    // Warm-up message: in an obs build, registers the span and
    // counter names the send path records under.
    let _ = controller
        .begin_message(assignment.packets.clone(), 100)
        .start();

    let packets = assignment.packets.clone();
    let (begin, mut session) = xcheck_rt::count_in(|| controller.begin_message(packets, 100));
    // What one block holds of its own: its packet list and its encoder.
    let (per_block, _) = xcheck_rt::count_in(|| session.blocks().block(0).cloned());
    let (start, schedule) = xcheck_rt::count_in(|| session.start());
    let blocks = session.blocks().block_count();
    let parities = session.stats.parity_multicast;
    assert_eq!(session.stats.enc_multicast, blocks * k);

    // Every ENC packet goes out on the body UKA wrote, duplicates included.
    for pkt in &schedule {
        let Packet::Enc(enc) = pkt else { continue };
        let h = enc.header();
        let first = usize::from(h.block_id) * k;
        let own = first + usize::from(h.seq) % (real - first).min(k);
        assert!(std::ptr::eq(enc.as_ref(), assignment.packets[own].as_ref()));
    }
    // Beyond a parity's body, allocations are per block: its packet list
    // and encoder, its parity list and its schedule lane; per message: the
    // controller's encoder clone, the block list, the `amax` table, the
    // lane list and the interleave's iterators and output.
    assert_eq!(
        (begin + start) as usize,
        parities + blocks * (per_block as usize + 2) + per_block as usize + 4,
        "the send path allocated per ENC packet"
    );
}
