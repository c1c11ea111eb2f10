//! The receiver stack against PROTOCOL.md §5–§9 written plainly: rounds
//! delivered packet by packet, each delivered frame fed at once to a
//! [`UserSession`] or a [`SimUser`] (the session rules have their one
//! reference in `rekeyproto`), agents as key maps unsealing one key at a
//! time. Over churning groups on twin networks, [`run`] then [`install_lanes`]
//! (what `driver::Group::rekey` runs) must end each message where it ends.

use std::collections::BTreeMap;

use keytree::{ident, Batch, CompactionPolicy, KeyTree, MarkOutcome, MarkScratch, MemberId};
use netsim::NetworkConfig;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rekeymsg::{build_usr_packet, seal_context, EncPacket, NackRequest, SendOrder};
use rekeymsg::{UkaAssignment, UsrPacket};
use rekeyproto::{ServerConfig, ServerController, UserOutcome};
use wirecrypto::{KeyGen, SealedKey, SymKey, SEALED_KEY_LEN};

use super::*;
use crate::sim::SimUser;
use crate::{install_lanes, ApplyError, InstallScratch, UserAgent};

/// PROTOCOL.md §8's loop as users live it: a multicast packet goes, a send
/// interval after the last, to every receiver still unsatisfied (until one
/// finds nobody), and what gets through is read at once; then the unicast
/// wave, a round trip, each round boundary in order, the server's decision.
fn reference_run<R: Receiver>(
    net: &mut Network,
    clock: &mut f64,
    session: &mut ServerSession,
    rs: &mut [R],
    cfg: &SimConfig,
    usr_packet: impl Fn(NodeId) -> Packet,
) -> TransportStats {
    let send = net.config().send_interval_ms;
    let rtt = 2.0 * net.config().one_way_delay_ms;
    let layout = session.blocks().layout();
    let (mut round, mut action) = (0, RoundDecision::Multicast(session.start()));
    let mut delivered = Vec::new();
    while !matches!(action, RoundDecision::Done) && round < cfg.max_total_rounds {
        round += 1;
        match &action {
            RoundDecision::Multicast(schedule) => {
                let frames = R::frames(schedule, &layout);
                for j in 0..schedule.len() {
                    *clock += send;
                    let listening: Vec<usize> =
                        (0..rs.len()).filter(|&i| !rs[i].is_satisfied()).collect();
                    if listening.is_empty() {
                        break;
                    }
                    let links: Vec<usize> = listening.iter().map(|&i| rs[i].net_index()).collect();
                    net.multicast_to_into(*clock, &links, &mut delivered);
                    for (&i, _) in listening.iter().zip(&delivered).filter(|(_, &got)| got) {
                        rs[i].receive_at(&frames, j, round);
                    }
                }
            }
            RoundDecision::Unicast(wave) => {
                let of = |node: &NodeId| rs.iter().position(|r| r.node_id() == *node);
                let targets: Vec<usize> = wave.targets.iter().filter_map(of).collect();
                for i in targets {
                    let pkt = usr_packet(rs[i].node_id());
                    let frames = R::frames(std::slice::from_ref(&pkt), &layout);
                    for _ in 0..wave.duplicates {
                        *clock += send;
                        if net.unicast(*clock, rs[i].net_index()) {
                            rs[i].receive_at(&frames, 0, round);
                        }
                    }
                }
            }
            RoundDecision::Done => {}
        }
        *clock += rtt;
        let mut nack = NackPacket::default();
        for r in rs.iter_mut() {
            if r.end_of_round_into(round, &mut nack, &mut DecodeCtx::default()) {
                session.accept_nack(r.node_id(), &nack);
            }
        }
        action = session.end_of_round();
    }
    let capped = !matches!(action, RoundDecision::Done);
    let won: Vec<usize> = rs.iter().filter_map(R::success_round).collect();
    let unserved = rs.iter().filter(|r| capped && !r.is_satisfied()).count();
    let late = won.iter().filter(|&&w| w > cfg.deadline_rounds).count();
    let in_round = |r| won.iter().filter(|&&w| w == r).count();
    let last = won.iter().copied().max().unwrap_or(0);
    TransportStats {
        total_rounds: round + usize::from(capped),
        rounds_histogram: (1..=last).map(in_round).collect(),
        missed_deadline: unserved + late,
        unserved,
    }
}

/// PROTOCOL.md §6 and §9 plainly: an agent as a key map by node ID, holding
/// the path of the ID it believes it has, its individual key at its u-node.
#[derive(Debug, Clone)]
struct MapAgent {
    node_id: NodeId,
    keys: BTreeMap<NodeId, SymKey>,
}

impl MapAgent {
    /// Moves to `new_id` in a degree-`d` tree: the individual key moves to
    /// the new u-node, and every key off the new path goes.
    fn relocate(&mut self, new_id: NodeId, d: u32) {
        let individual = self.keys.remove(&self.node_id);
        let on_path = |&id: &NodeId, _: &mut SymKey| ident::is_ancestor_or_self(id, new_id, d);
        self.keys.retain(on_path);
        self.keys.extend(individual.map(|key| (new_id, key)));
        self.node_id = new_id;
    }

    /// Applies an outcome: moves to the ID it names (Theorem 4.2 from `maxKID`
    /// for ENC; a USR packet with more keys than that path has levels is
    /// refused first), then unseals leaf to root, each key into the parent.
    fn apply(&mut self, got: &UserOutcome, msg_seq: u64, d: u32) -> Result<(), ApplyError> {
        let mut chain = Vec::new();
        match got {
            UserOutcome::Pending => return Ok(()),
            UserOutcome::Enc(frame) => {
                let max_kid = NodeId::from(frame.header().max_kid);
                let id = ident::derive_current_id(self.node_id, max_kid, d);
                self.relocate(id.ok_or(ApplyError::NotInGroup)?, d);
                for node in ident::path_iter(self.node_id, d).filter(|&node| node != 0) {
                    let c16 = u16::try_from(node).map_err(|_| ApplyError::MissingKey { node })?;
                    chain.extend(frame.entry(c16).map(|sealed| (node, sealed)));
                }
            }
            UserOutcome::Usr(pkt) => {
                // `sealed[l - 1]` is for the level-`l` node, `l` in `1..=t`.
                let (id, t) = (NodeId::from(pkt.new_user_id), pkt.sealed.len());
                let levels = ident::level(id, d) as usize;
                if t > levels {
                    return Err(ApplyError::UsrShapeMismatch);
                }
                self.relocate(id, d);
                let path = ident::path_iter(id, d).skip(levels - t);
                chain.extend(path.zip(pkt.sealed.iter().rev().copied()));
            }
        }
        for (node, sealed) in chain {
            let kek = self.keys.get(&node);
            let kek = kek.ok_or(ApplyError::MissingKey { node })?;
            let key = (sealed.unseal(kek, seal_context(msg_seq, node)))
                .map_err(|_| ApplyError::BadSeal { node })?;
            self.keys.extend(ident::parent(node, d).map(|up| (up, key)));
        }
        Ok(())
    }
}

/// Member `m` of `tree`: its agent and its key map, holding its path (after
/// bootstrap) or only its individual key (a joiner).
fn holder(tree: &KeyTree, m: MemberId, path: bool) -> (UserAgent, MapAgent) {
    let (node_id, degree) = (tree.node_of_member(m).unwrap(), tree.degree());
    let individual = tree.key_of(node_id).unwrap();
    let held = tree.keys_for_member(m).unwrap().into_iter();
    let keys = BTreeMap::from_iter(held.filter(|_| path).chain([(node_id, individual)]));
    let agent = UserAgent::with_path(m, node_id, individual, degree, keys.clone());
    (agent, MapAgent { node_id, keys })
}

/// A balanced key tree; per batch, the joins and the share of members (per
/// mille) that leave — none in about a third of batches, so that joins into
/// a full tree split; the protocol; the network; the round cap.
#[derive(Debug, Clone)]
struct Case(KeyTree, Vec<(u32, u64)>, ServerConfig, NetworkConfig, usize);

fn case() -> impl Strategy<Value = Case> {
    let d = prop::sample::select(vec![2u32, 4, 8]);
    let group = (16u32..2048, d, any::<bool>(), any::<u64>());
    let batches = proptest::collection::vec((0u32..40, 0u64..1200), 1..4);
    let proto = (1usize..8, 1.0f64..3.0, 1usize..4, 1usize..6, any::<bool>());
    let loss = (0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6, any::<bool>());
    (group, batches, proto, loss).prop_map(|((n, d, full, seed), batches, protocol, loss)| {
        // A full tree: every join is a split.
        let n = if full { d.pow(n.ilog(d)) } else { n };
        let leaves = |(joins, leave): (u32, u64)| (joins, leave.saturating_sub(400));
        let batches: Vec<(u32, u64)> = batches.into_iter().map(leaves).collect();
        let (k, rho, multicast_rounds, max_total_rounds, sequential) = protocol;
        let mut proto = ServerConfig::default();
        (proto.block_size, proto.initial_rho) = (k, rho);
        (proto.max_multicast_rounds, proto.adapt_rho) = (multicast_rounds, false);
        proto.send_order = [SendOrder::Interleaved, SendOrder::Sequential][usize::from(sequential)];
        let mut net = NetworkConfig::default();
        (net.alpha, net.p_high, net.p_source, net.independent_loss) = loss;
        (net.n_users, net.seed) = ((n + 40 * batches.len() as u32) as usize, seed);
        let tree = KeyTree::balanced(n, d, &mut KeyGen::from_seed(seed));
        Case(tree, batches, proto, net, max_total_rounds)
    })
}

/// The case's batches in turn (leavers drawn from the members, one kept;
/// never an empty batch; compaction moves up to 16), each with the tree
/// after it and what it made.
fn messages(Case(tree, batches, _, net, _): &Case) -> Vec<(KeyTree, MarkOutcome, UkaAssignment)> {
    let (mut tree, mut scratch) = (tree.clone(), MarkScratch::new());
    let mut kg = KeyGen::from_seed(!net.seed);
    let mut rng = SmallRng::seed_from_u64(net.seed);
    let mut next = tree.member_ids().len() as u32;
    let mut messages = Vec::new();
    for (msg_seq, &(joins, leave_per_mille)) in (1..).zip(batches) {
        let mut members = tree.member_ids();
        let leaving = (members.len() as u64 * leave_per_mille / 1000) as usize;
        let leaves: Vec<MemberId> = (0..leaving.min(members.len() - 1))
            .map(|_| members.swap_remove(rng.gen_range(0..members.len())))
            .collect();
        let joins = next..next + joins.max(u32::from(leaves.is_empty()));
        next = joins.end;
        let batch = Batch::new(joins.map(|m| (m, kg.next_key())).collect(), leaves);
        let policy = CompactionPolicy {
            max_moves_per_batch: 16,
        };
        let outcome = tree.process_batch_compacting_in(batch, &mut kg, &mut scratch, &policy);
        let assignment = UkaAssignment::build(&tree, &outcome, msg_seq, &Layout::DEFAULT);
        messages.push((tree.clone(), outcome, assignment.unwrap()));
    }
    messages
}

/// `pkt` with one bit of entry `at` (modulo the entry count) flipped.
fn flipped(pkt: &EncPacket, at: u64) -> EncPacket {
    let count = pkt.entries().count().max(1) as u64;
    let entries = pkt.entries().enumerate().map(|(i, (id, sealed))| {
        let mut bytes = *sealed.as_bytes();
        if i as u64 == at % count {
            bytes[(at >> 8) as usize % SEALED_KEY_LEN] ^= 1 << ((at >> 16) % 8);
        }
        (id, SealedKey::from_bytes(bytes))
    });
    EncPacket::new(pkt.header(), entries, &Layout::DEFAULT).unwrap()
}

/// One message to two copies of the receivers: [`run`] on the first twin
/// network, the reference on the second, which must end alike (stats, success
/// rounds, server state, clock bits, next link answers). Returns both copies.
fn same_message<R: Receiver>(
    nets: &mut [(Network, f64)],
    session: impl Fn() -> ServerSession,
    receivers: impl Fn() -> Vec<R>,
    cfg: &SimConfig,
    scratch: &mut TransportScratch,
    usr: impl Fn(NodeId) -> Packet + Copy,
) -> Result<[Vec<R>; 2], TestCaseError> {
    let mut rs = [receivers(), receivers()];
    let mut ends = Vec::new();
    for (side, ((net, clock), rs)) in nets.iter_mut().zip(&mut rs).enumerate() {
        let mut s = session();
        let stats = match side {
            0 => run(net, clock, &mut s, rs, cfg, scratch, usr),
            _ => reference_run(net, clock, &mut s, rs, cfg, usr),
        };
        let won: Vec<Option<usize>> = rs.iter().map(R::success_round).collect();
        let demands = s.first_round_demands().to_vec();
        let server = (s.stats, demands, s.bandwidth_overhead().to_bits());
        // The links' next answers, asked past everything the run asked.
        let mut next = Vec::new();
        for i in 1..=16 {
            let now = *clock + f64::from(i) * 250.0;
            next.push(net.source_delivers(now));
            next.extend((0..net.n_users()).map(|u| net.link_delivers(u, now)));
        }
        ends.push((stats, won, server, clock.to_bits(), next));
        *clock += 16.0 * 250.0;
    }
    let (product, reference) = (&ends[0], &ends[1]);
    prop_assert_eq!(&product.0, &reference.0, "transport stats");
    prop_assert_eq!(&product.1, &reference.1, "success rounds");
    prop_assert_eq!(&product.2, &reference.2, "server stats");
    prop_assert_eq!(product.3, reference.3, "clock bits");
    prop_assert!(product.4 == reference.4, "next link answers differ");
    Ok(rs)
}

fn receivers_agree(c: &Case) -> TestCaseResult {
    let Case(first, _, proto, net, cap) = c;
    let cfg = SimConfig {
        max_total_rounds: *cap,
        ..SimConfig::default()
    };
    let (layout, k, d) = (Layout::DEFAULT, proto.block_size, first.degree());
    let members = first.member_ids();
    let holders = members.iter().map(|&m| (m, holder(first, m, true)));
    let mut agents: BTreeMap<_, _> = holders.collect();
    let controller = ServerController::new(*proto);
    // Product and reference, byte and count model: four twin networks.
    let mut nets: [(Network, f64); 4] = core::array::from_fn(|_| (Network::new(*net), 0.0));
    let (mut scratch, mut install) = (TransportScratch::new(), InstallScratch::new());
    for (msg_seq, (tree, outcome, assignment)) in (1..).zip(&messages(c)) {
        let mix = |x: u64| (x ^ net.seed ^ msg_seq).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        // Half the relocated members hear of their move out of band; the
        // others learn it from a USR packet or not at all.
        for rl in &outcome.relocations {
            let heard = mix(rl.new_id.into()) % 2 == 0;
            if let (true, Some((agent, map))) = (heard, agents.get_mut(&rl.member)) {
                agent.accept_relocation(rl.new_id);
                map.relocate(rl.new_id, d);
            }
        }
        agents.retain(|m, _| !outcome.departed.contains(m));
        agents.extend(outcome.joined.iter().map(|&m| (m, holder(tree, m, false))));
        let members: Vec<MemberId> = agents.keys().copied().collect();
        let node = |m: &MemberId| tree.node_of_member(*m).unwrap();
        let nodes: Vec<NodeId> = members.iter().map(node).collect();
        // Forged: one ENC packet in 16 with a flipped bit, one USR packet in 16
        // with a key too many for its path, and one outcome in 32 dropped.
        let forge = |(i, pkt): (usize, &EncPacket)| match mix(i as u64) % 16 {
            0 => flipped(pkt, mix(!(i as u64))),
            _ => pkt.clone(),
        };
        let packets: Vec<EncPacket> = assignment.packets.iter().enumerate().map(forge).collect();
        let session = || controller.begin_message(packets.clone(), 100);
        let usr = |node: NodeId| {
            let member = tree.member_at(node).unwrap();
            let mut usr = build_usr_packet(tree, outcome, member, msg_seq).unwrap();
            if mix(u64::from(member)) % 16 == 0 {
                let levels = ident::level(node, d) as usize;
                usr.sealed
                    .resize(levels + 1, SealedKey::from_bytes([0; SEALED_KEY_LEN]));
            }
            Packet::Usr(usr)
        };
        let bytes = || -> Vec<ByteReceiver> {
            let byte = |(m, &node)| {
                let session = UserSession::new(agents[m].0.node_id(), d, k, layout);
                let (session, link) = (session.expect_msg_id(msg_seq as u8), *m as usize);
                ByteReceiver::new(session, link, node)
            };
            members.iter().zip(&nodes).map(byte).collect()
        };
        let [product, reference] =
            same_message(&mut nets[..2], session, bytes, &cfg, &mut scratch, usr)?;
        let counts = || -> Vec<SimUser> {
            let count = |(&m, &node)| {
                let tb = assignment.packet_of_user(node).map(|pi| (pi / k) as u8);
                SimUser::new(m as usize, node, k, d, tb)
            };
            members.iter().zip(&nodes).map(count).collect()
        };
        same_message(&mut nets[2..], session, counts, &cfg, &mut scratch, usr)?;
        let outcome_of = |(r, &m): (&ByteReceiver, &MemberId)| match mix(u64::from(m) << 20) % 32 {
            0 => UserOutcome::Pending,
            _ => r.session.outcome().clone(),
        };
        let got: Vec<UserOutcome> = product.iter().zip(&members).map(outcome_of).collect();
        let expected: Vec<UserOutcome> = reference.iter().zip(&members).map(outcome_of).collect();
        prop_assert!(got == expected, "session outcomes differ");
        let lanes = agents.values_mut().map(|(agent, _)| agent);
        let installed = install_lanes(lanes.zip(&got), msg_seq, &mut install);
        let mut first_failure = Ok(());
        for ((&m, (_, map)), expected) in agents.iter_mut().zip(&expected) {
            let applied = map.apply(expected, msg_seq, d).map_err(|e| (m, e));
            first_failure = first_failure.and(applied);
        }
        prop_assert_eq!(installed, first_failure, "first failure");
        for (&m, (agent, map)) in &agents {
            let (id, group) = (map.node_id, map.keys.get(&0).copied());
            prop_assert_eq!(agent.node_id(), id, "member {} ID", m);
            prop_assert_eq!(agent.group_key(), group, "member {} group key", m);
            prop_assert_eq!(agent.keys_held(), map.keys.len(), "member {} keys held", m);
            for id in ident::path_iter(id, d) {
                let key = map.keys.get(&id).copied();
                prop_assert_eq!(agent.key_of(id), key, "member {} path key {}", m, id);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 16 }))]
    #[test]
    fn receiver_stack_matches_the_reference_receiver(c in case()) {
        receivers_agree(&c)?;
    }
}

/// Holds [`Receiver::next_read`] to its contract on one receiver's frames:
/// from every `from`, the bound lies between `from` and the first frame
/// `reads_now` takes (the frame count if none does); `exact` holds it to
/// that frame. `reads_now` must record nothing by now.
fn bound_holds<R: Receiver>(r: &mut R, f: &R::Frames<'_>, n: usize, exact: bool) -> TestCaseResult {
    let reads: Vec<bool> = (0..n).map(|j| r.reads_now(f, j)).collect();
    for from in 0..=n {
        let bound = r.next_read(f, from);
        let first = (from..n).find(|&j| reads[j]).unwrap_or(n);
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
    let (h, mut f) = (real.header(), real.header());
    let mut nack = NackPacket::default();
    match kind {
        0 => f.seq = k as u8,
        1 => f.msg_id ^= 1,
        2 => (f.frm_id, f.to_id, f.max_kid) = (0, u16::MAX, h.max_kid.wrapping_add(1)),
        3 => {
            let (msg_id, new_user_id, sealed) = (h.msg_id, h.frm_id, Vec::new());
            return Some(Packet::Usr(UsrPacket {
                msg_id,
                new_user_id,
                sealed,
            }));
        }
        4 => {
            let (count, block_id) = (1, 0);
            (nack.msg_id, nack.requests) = (h.msg_id, vec![NackRequest { count, block_id }]);
            return Some(Packet::Nack(nack));
        }
        _ => return None,
    }
    let enc = EncPacket::new(f, real.entries(), &Layout::DEFAULT);
    enc.ok().map(Packet::Enc)
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
        let (tree, _, assignment) = &messages(&c)[0];
        let (layout, k, d) = (Layout::DEFAULT, c.2.block_size, c.0.degree());
        let controller = ServerController::new(c.2);
        let mut packets = controller.begin_message(assignment.packets.clone(), 100).start();
        let real = &assignment.packets;
        let mut cut = Vec::new();
        for &(at, kind) in forgeries.iter().filter(|_| !real.is_empty()) {
            match forged(kind, &real[at % real.len()], k) {
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
        let members = tree.member_ids();
        let step = (members.len() / 40).max(1);
        for (link, &m) in members.iter().enumerate().step_by(step) {
            let node = tree.node_of_member(m).unwrap();
            let tb = assignment.packet_of_user(node).map(|pi| (pi / k) as u8);
            let mut user = SimUser::new(link, node, k, d, tb);
            bound_holds(&mut user, &count_frames, packets.len(), true)?;

            let session = UserSession::new(node, d, k, layout).expect_msg_id(1);
            let mut r = ByteReceiver::new(session, link, node);
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
