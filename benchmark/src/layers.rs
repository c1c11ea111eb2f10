//! The adapter: every call into product code is in this file.
//!
//! The rest of the benchmark sees [`Lane`]s (one closed loop of rekey
//! intervals each), the signing helpers the generator needs, and the kernel
//! probes. A later change to a product API touches this file only. The
//! surface compiled against is listed in `README.md`.
//!
//! Each workload has a *product* lane — the product's own loop
//! (`driver::Group::rekey`, `ExperimentRun::step`) with no timer inside the
//! interval — and a *layered* lane that composes the same public calls the
//! product loop composes, with a span around each call into a layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use grouprekey::driver::Group;
use grouprekey::experiment::{ExperimentParams, ExperimentRun};
use grouprekey::frontend::IntervalCollector;
use grouprekey::sim::{run_message_transport_with, SimUser, TransportScratch};
use grouprekey::{KeyServer, RekeyArtifacts, ServerOptions, UserAgent};
use keytree::{Batch, KeyTree, MarkScratch, NodeId};
use netsim::{Network, NetworkConfig};
use rekeymsg::{Layout, Packet, UkaAssignment};
use rekeyproto::{RoundDecision, ServerController, ServerSession, UserOutcome, UserSession};
use wirecrypto::{KeyGen, SealedKey};

pub use grouprekey::frontend::{JoinRequest, LeaveRequest};
pub use grouprekey::MessageReport;
pub use keytree::MemberId;
pub use wirecrypto::SymKey as Key;

use crate::spec::{Sizing, Workload};
use crate::stats::{SpeedGauge, SplitMix64};
use crate::trace::Recorder;
use crate::workload::{Generator, Requests};

/// Key-tree degree of every workload (the paper's `d = 4`).
pub const DEGREE: u32 = 4;
/// Receivers whose key recovery `server_scale` checks per interval.
const SAMPLED_RECEIVERS: usize = 16;
/// The paper's soft deadline: a user keyed after this round is late.
pub const DEADLINE_ROUNDS: usize = 2;
/// One delivery in this many has its parse/receive split timed.
const SPLIT_EVERY: u64 = 8;

// ---------------------------------------------------------------- generator

pub fn key_from_bytes(bytes: [u8; 16]) -> Key {
    Key::from_bytes(bytes)
}

pub fn sign_leave(member: MemberId, interval: u64, key: &Key) -> LeaveRequest {
    LeaveRequest::sign(member, interval, key)
}

pub fn sign_join(member: MemberId, interval: u64, key: &Key) -> JoinRequest {
    JoinRequest::sign(member, interval, key)
}

/// Bytes of one ENC/PARITY packet on the wire.
pub fn enc_packet_len() -> usize {
    Layout::DEFAULT.enc_packet_len
}

/// `analysis::expected_encryptions_leave_only` for a full tree of `n` users.
pub fn model_encryptions_leave_only(n: u32, leaves: usize) -> f64 {
    keytree::analysis::expected_encryptions_leave_only(DEGREE, full_tree_height(n), leaves as u64)
}

/// Height `h` with `DEGREE^h == n`.
pub fn full_tree_height(n: u32) -> u32 {
    let h = n.ilog(DEGREE);
    assert_eq!(DEGREE.pow(h), n, "workload sizes are powers of the degree");
    h
}

// -------------------------------------------------------------------- lanes

/// What one interval did, as seen from outside.
pub struct IntervalOutcome {
    /// Host wall time of the interval window.
    pub wall_ns: u64,
    pub report: MessageReport,
    /// Requests submitted to the front end, and how many it refused.
    pub requests: usize,
    pub refused: usize,
    /// Receivers whose key was checked after the interval, and how many of
    /// them did not hold the server's group key (or were never served).
    pub receivers: usize,
    pub unkeyed: usize,
}

/// One closed loop of rekey intervals: generate → run → check.
pub trait Lane {
    /// Generates the next interval's inputs (untimed), runs the interval
    /// (timed), checks its outputs (untimed).
    fn interval(&mut self) -> IntervalOutcome;
    /// The server's group key after the last interval (`sim_figures` builds
    /// a fresh tree per message and has none: zeroes).
    fn group_key(&self) -> [u8; 16];
    /// The span recorder of a layered lane.
    fn recorder(&mut self) -> Option<&mut Recorder>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// The product's own loop, no timers inside the interval.
    Product,
    /// The benchmark's layered loop, spans recorded or not.
    Layered { spans: bool },
}

/// Builds a lane: bootstrap tree, agents' key paths, network, warmed FEC
/// prototype encoder, generator. This is the set-up `setup_s` times.
pub fn make_lane(workload: Workload, sizing: Sizing, seed: u64, kind: LaneKind) -> Box<dyn Lane> {
    match (workload, kind) {
        (Workload::WireSteady | Workload::WireFec, LaneKind::Product) => {
            Box::new(WireProduct::new(workload, sizing, seed))
        }
        (Workload::WireSteady | Workload::WireFec, LaneKind::Layered { spans }) => {
            Box::new(WireLayered::new(workload, sizing, seed, spans))
        }
        (Workload::ServerScale, kind) => Box::new(ServerLane::new(sizing, seed, kind)),
        (Workload::SimFigures, LaneKind::Product) => Box::new(SimProduct::new(sizing, seed)),
        (Workload::SimFigures, LaneKind::Layered { spans }) => {
            Box::new(SimLayered::new(sizing, seed, spans))
        }
    }
}

fn server_options(workload: Workload, sizing: Sizing, seed: u64) -> ServerOptions {
    let mut options = ServerOptions::default();
    options.keygen_seed ^= seed;
    options.protocol.block_size = sizing.k;
    match workload {
        // Multicast only: no unicast rescue, recovery is FEC decode.
        Workload::WireFec => options.protocol.max_multicast_rounds = usize::MAX,
        // Proactive parity is minted, so `rse` encode does work.
        Workload::ServerScale => options.protocol.initial_rho = 1.5,
        Workload::WireSteady | Workload::SimFigures => {}
    }
    options
}

fn net_config(workload: Workload, sizing: Sizing, seed: u64) -> NetworkConfig {
    NetworkConfig {
        n_users: sizing.n as usize,
        // wire_fec: every receiver sits behind a 20%-loss link.
        alpha: if workload == Workload::WireFec {
            1.0
        } else {
            NetworkConfig::default().alpha
        },
        seed,
        ..NetworkConfig::default()
    }
}

fn individual_keys(tree: &KeyTree, n: u32) -> Vec<Key> {
    (0..n)
        .map(|m| {
            tree.node_of_member(m)
                .and_then(|id| tree.key_of(id))
                .expect("bootstrap member holds an individual key")
        })
        .collect()
}

/// Front-end admission of one interval's requests: `submit_*` for each, then
/// `close_interval`. Returns the batch and the number of refusals.
fn admit(collector: &mut IntervalCollector, tree: &KeyTree, reqs: &Requests) -> (Batch, usize) {
    let mut refused = 0;
    for req in &reqs.leaves {
        let verdict = collector.submit_leave(*req, |m| {
            tree.node_of_member(m).and_then(|id| tree.key_of(id))
        });
        refused += usize::from(verdict.is_err());
    }
    for (req, key) in &reqs.joins {
        let in_group = tree.node_of_member(req.member).is_some();
        refused += usize::from(collector.submit_join(*req, *key, in_group).is_err());
    }
    (collector.close_interval(), refused)
}

fn key_bytes(key: Option<Key>) -> [u8; 16] {
    key.map_or([0; 16], Key::into_bytes)
}

/// Agents that do not hold `group_key` (the count behind
/// `Group::all_agents_synchronized`).
fn unkeyed(agents: &BTreeMap<MemberId, UserAgent>, group_key: Option<Key>) -> usize {
    agents
        .values()
        .filter(|a| a.group_key() != group_key)
        .count()
}

/// The fields of a [`MessageReport`] every loop reads off the finished server
/// session, exactly as `driver.rs` and `experiment.rs` fill them; the caller
/// adds what only it knows (the histogram, the NACK target in force).
fn session_report(
    msg_seq: u64,
    session: &ServerSession,
    assignment: &UkaAssignment,
    k: usize,
) -> MessageReport {
    MessageReport {
        msg_seq,
        enc_packets: session.real_enc_count(),
        blocks: session.blocks().block_count(),
        rho: session.rho(),
        nacks_round1: session.first_round_nack_count(),
        bandwidth_overhead: session.bandwidth_overhead(),
        server_rounds: session.stats.multicast_rounds,
        usr_packets: session.stats.usr_sent,
        usr_bytes: session.stats.usr_bytes,
        duplication_overhead: assignment.stats.duplication_overhead(),
        encoding_units: rse::cost::total_encoding_units(
            k,
            &[session.stats.parity_multicast as u64],
        ),
        ..MessageReport::default()
    }
}

// ------------------------------------------------------- wire_*: product lane

struct WireProduct {
    gen: Generator,
    group: Group,
    collector: IntervalCollector,
}

impl WireProduct {
    fn new(workload: Workload, sizing: Sizing, seed: u64) -> Self {
        let group = Group::new(
            sizing.n,
            server_options(workload, sizing, seed),
            net_config(workload, sizing, seed),
        );
        let keys = individual_keys(group.server.tree(), sizing.n);
        WireProduct {
            gen: Generator::new(seed, keys, sizing.batch, sizing.batch),
            group,
            collector: IntervalCollector::new(),
        }
    }
}

impl Lane for WireProduct {
    fn interval(&mut self) -> IntervalOutcome {
        let reqs = self.gen.next_interval();

        let t = Instant::now();
        let (batch, refused) = admit(&mut self.collector, self.group.server.tree(), &reqs);
        let report = self.group.rekey(batch);
        let wall_ns = t.elapsed().as_nanos() as u64;

        IntervalOutcome {
            wall_ns,
            report,
            requests: reqs.len(),
            refused,
            receivers: self.group.agents.len(),
            unkeyed: unkeyed(&self.group.agents, self.group.group_key()),
        }
    }

    fn group_key(&self) -> [u8; 16] {
        key_bytes(self.group.group_key())
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        None
    }
}

// ------------------------------------------------------- wire_*: layered lane

/// Replays the three steps of `KeyServer::rekey` on the same inputs, outside
/// the interval window, to split `server.rekey.ms`: marking on a pre-batch
/// clone of the tree, the UKA build on the post-batch tree, and session
/// construction. The results must equal what the server produced. The spans
/// are named `replay.*` because their time is not part of the interval.
struct RekeyReplay {
    scratch: MarkScratch,
    keygen: KeyGen,
}

impl RekeyReplay {
    fn new() -> Self {
        RekeyReplay {
            scratch: MarkScratch::new(),
            // Marking's cost does not depend on key values; any stream does.
            keygen: KeyGen::from_seed(0x7265_706C_6179),
        }
    }

    fn run(
        &mut self,
        rec: &mut Recorder,
        mut pre_tree: KeyTree,
        reqs: &Requests,
        server: &KeyServer,
        artifacts: &RekeyArtifacts,
    ) {
        let batch = Batch::new(
            reqs.joins.iter().map(|(r, key)| (r.member, *key)).collect(),
            reqs.leaves.iter().map(|r| r.member).collect(),
        );
        rec.begin("replay.keytree.mark");
        let outcome = pre_tree.process_batch_in(batch, &mut self.keygen, &mut self.scratch);
        rec.end("replay.keytree.mark");
        assert_eq!(
            outcome.encryptions, artifacts.outcome.encryptions,
            "replayed marking differs from the server's"
        );

        let layout = artifacts.session.blocks().layout();
        rec.begin("replay.rekeymsg.build");
        let assignment = UkaAssignment::build(
            server.tree(),
            &artifacts.outcome,
            artifacts.msg_seq,
            &layout,
        )
        .expect("the server built this message from the same inputs");
        rec.end("replay.rekeymsg.build");
        assert!(
            assignment.packets == artifacts.assignment.packets,
            "replayed UKA build differs from the server's bytes"
        );

        rec.begin("replay.rekeyproto.begin");
        let session = server
            .controller()
            .begin_message(assignment.packets.clone(), server.usr_len_hint());
        rec.end("replay.rekeyproto.begin");
        assert_eq!(session.real_enc_count(), artifacts.session.real_enc_count());

        record_build_counts(rec, outcome.encryptions.len(), &assignment);
    }
}

fn record_build_counts(rec: &mut Recorder, encryptions: usize, assignment: &UkaAssignment) {
    rec.count("keytree.mark.encryptions", encryptions as u64);
    rec.count(
        "rekeymsg.build.enc_packets",
        assignment.stats.packets as u64,
    );
    rec.count(
        "rekeymsg.build.entries",
        assignment.stats.entries_emitted as u64,
    );
}

/// The layered loop of the byte-faithful path: the same public calls, in the
/// same order, on the same state `driver::Group::rekey` composes — so that it
/// reproduces the product lane's reports and group keys bit for bit — with a
/// span around every call into a layer.
struct WireLayered {
    gen: Generator,
    server: KeyServer,
    agents: BTreeMap<MemberId, UserAgent>,
    net: Network,
    net_index: BTreeMap<MemberId, usize>,
    free_indices: Vec<usize>,
    clock: f64,
    collector: IntervalCollector,
    replay: RekeyReplay,
    rec: Recorder,
}

impl WireLayered {
    fn new(workload: Workload, sizing: Sizing, seed: u64, spans: bool) -> Self {
        let n = sizing.n;
        let server = KeyServer::bootstrap(n, server_options(workload, sizing, seed));
        let net = Network::new(net_config(workload, sizing, seed));
        let mut agents = BTreeMap::new();
        let mut net_index = BTreeMap::new();
        for m in 0..n {
            let tree = server.tree();
            let node = tree.node_of_member(m).expect("bootstrap member has a node");
            let path = tree
                .keys_for_member(m)
                .expect("bootstrap member has a path");
            let individual = path[0].1;
            agents.insert(m, UserAgent::with_path(m, node, individual, DEGREE, path));
            net_index.insert(m, m as usize);
        }
        let keys = individual_keys(server.tree(), n);
        WireLayered {
            gen: Generator::new(seed, keys, sizing.batch, sizing.batch),
            server,
            agents,
            net,
            net_index,
            // The network has exactly N links: J <= L frees one per joiner.
            free_indices: Vec::new(),
            clock: 0.0,
            collector: IntervalCollector::new(),
            replay: RekeyReplay::new(),
            rec: Recorder::new(spans),
        }
    }
}

impl Lane for WireLayered {
    fn interval(&mut self) -> IntervalOutcome {
        let reqs = self.gen.next_interval();
        let pre_tree = self.rec.is_on().then(|| self.server.tree().clone());
        let rec = &mut self.rec;
        rec.next_interval();

        let t = Instant::now();
        rec.begin("interval");

        rec.begin("frontend.admit");
        let (batch, refused) = admit(&mut self.collector, self.server.tree(), &reqs);
        rec.end_calls("frontend.admit", reqs.len() as u64 + 1);
        rec.count("frontend.refused", refused as u64);

        // From here to the report: `driver::Group::rekey`, step for step.
        let mut old_ids: BTreeMap<MemberId, NodeId> = self
            .agents
            .keys()
            .map(|&m| (m, self.agents[&m].node_id()))
            .collect();
        let joins = batch.joins.clone();
        let leaves = batch.leaves.clone();

        rec.begin("server.rekey");
        let mut artifacts = self.server.rekey(batch);
        rec.end("server.rekey");
        let msg_seq = artifacts.msg_seq;
        let layout = artifacts.session.blocks().layout();

        for rl in &artifacts.outcome.relocations {
            if let Some(agent) = self.agents.get_mut(&rl.member) {
                agent.accept_relocation(rl.new_id);
            }
            old_ids.insert(rl.member, rl.new_id);
        }
        for m in &leaves {
            self.agents.remove(m);
            if let Some(idx) = self.net_index.remove(m) {
                self.free_indices.push(idx);
            }
        }
        for (m, key) in &joins {
            let node = self
                .server
                .tree()
                .node_of_member(*m)
                .expect("joined member placed by the batch");
            self.agents
                .insert(*m, UserAgent::new(*m, node, *key, DEGREE));
            let idx = self.free_indices.pop().expect("a leaver freed a link");
            self.net_index.insert(*m, idx);
        }

        let k = self.server.controller().config().block_size;
        let tree = self.server.tree();
        let mut sessions: BTreeMap<MemberId, UserSession> = self
            .agents
            .keys()
            .map(|&m| {
                let old = old_ids
                    .get(&m)
                    .copied()
                    .unwrap_or_else(|| tree.node_of_member(m).expect("joiner has a node"));
                let session =
                    UserSession::new(old, DEGREE, k, layout).expect_msg_id((msg_seq & 0x3f) as u8);
                (m, session)
            })
            .collect();
        let member_of_node: BTreeMap<NodeId, MemberId> = self
            .agents
            .keys()
            .map(|&m| (tree.node_of_member(m).expect("live member has a node"), m))
            .collect();

        let send_interval = self.net.config().send_interval_ms;
        let rtt = 2.0 * self.net.config().one_way_delay_ms;
        let mut rounds = 1u64;
        rec.begin("rekeyproto.start");
        let mut action = RoundDecision::Multicast(artifacts.session.start());
        rec.end("rekeyproto.start");
        let mut members: Vec<MemberId> = Vec::new();
        let mut listeners: Vec<usize> = Vec::new();
        let mut delivered: Vec<bool> = Vec::new();

        loop {
            rec.begin("round");
            match &action {
                RoundDecision::Multicast(schedule) => {
                    for pkt in schedule {
                        rec.begin("packet");
                        self.clock += send_interval;
                        rec.begin("rekeymsg.emit");
                        let bytes = pkt.emit(&layout);
                        rec.end("rekeymsg.emit");
                        rec.count("rekeymsg.emit.bytes", bytes.len() as u64);
                        members.clear();
                        members.extend(
                            sessions
                                .iter()
                                .filter(|(_, s)| !s.is_satisfied())
                                .map(|(&m, _)| m),
                        );
                        listeners.clear();
                        listeners.extend(members.iter().map(|m| self.net_index[m]));
                        if listeners.is_empty() {
                            rec.end("packet");
                            break;
                        }
                        rec.begin("netsim.multicast");
                        self.net
                            .multicast_to_into(self.clock, &listeners, &mut delivered);
                        rec.end("netsim.multicast");

                        // Per-receiver parse + receive. One timed stretch
                        // covers the whole delivery loop; every
                        // SPLIT_EVERY-th delivery also reads the clock around
                        // the two calls, and the stretch is divided between
                        // the layers in the sampled proportion (a clock read
                        // per call would cost a tenth of the interval).
                        let (mut parse_sample, mut receive_sample, mut got) = (0u64, 0u64, 0u64);
                        let stretch_start = rec.now();
                        for (pos, &ok) in delivered.iter().enumerate() {
                            if ok {
                                let sampled = got % SPLIT_EVERY == 0;
                                let t0 = if sampled { rec.now() } else { 0 };
                                let parsed = Packet::parse(&bytes, &layout)
                                    .unwrap_or_else(|e| panic!("wire round-trip: {e:?}"));
                                let t1 = if sampled { rec.now() } else { 0 };
                                sessions
                                    .get_mut(&members[pos])
                                    .expect("member session")
                                    .receive(&parsed);
                                if sampled {
                                    parse_sample += t1 - t0;
                                    receive_sample += rec.now() - t1;
                                }
                                got += 1;
                            }
                        }
                        let stretch = rec.now() - stretch_start;
                        let parse_ns = (stretch as u128 * parse_sample as u128
                            / (parse_sample + receive_sample).max(1) as u128)
                            as u64;
                        let receive_ns = stretch - parse_ns;
                        rec.add("rekeymsg.parse", parse_ns, got);
                        rec.add("rekeyproto.user_receive", receive_ns, got);
                        rec.count("netsim.decisions", listeners.len() as u64);
                        rec.count("netsim.delivered", got);
                        rec.end("packet");
                    }
                }
                RoundDecision::Unicast(wave) => {
                    for node in &wave.targets {
                        let Some(&m) = member_of_node.get(node) else {
                            continue;
                        };
                        rec.begin("packet");
                        rec.begin("server.usr_packet");
                        let usr = self
                            .server
                            .usr_packet(m)
                            .expect("usr packet for live member");
                        rec.end("server.usr_packet");
                        rec.begin("rekeymsg.emit");
                        let bytes = Packet::Usr(usr).emit(&layout);
                        rec.end("rekeymsg.emit");
                        rec.count("rekeymsg.emit.bytes", bytes.len() as u64);
                        for _ in 0..wave.duplicates {
                            self.clock += send_interval;
                            rec.begin("netsim.unicast");
                            let ok = self.net.unicast(self.clock, self.net_index[&m]);
                            rec.end("netsim.unicast");
                            rec.count("netsim.decisions", 1);
                            if ok {
                                rec.count("netsim.delivered", 1);
                                rec.begin("rekeymsg.parse");
                                let parsed = Packet::parse(&bytes, &layout)
                                    .unwrap_or_else(|e| panic!("wire round-trip: {e:?}"));
                                rec.end("rekeymsg.parse");
                                rec.begin("rekeyproto.user_receive");
                                sessions
                                    .get_mut(&m)
                                    .expect("member session")
                                    .receive(&parsed);
                                rec.end("rekeyproto.user_receive");
                            }
                        }
                        rec.end("packet");
                    }
                }
                RoundDecision::Done => {}
            }
            self.clock += rtt;

            // Round boundary: every session decodes what it can and NACKs
            // over the (lossless) reverse path.
            rec.begin("boundary");
            let mut boundary: Vec<MemberId> = sessions.keys().copied().collect();
            boundary.sort_unstable();
            let (mut round_ns, mut emit_ns, mut parse_ns, mut accept_ns) = (0u64, 0u64, 0u64, 0u64);
            let (mut ended, mut nacks) = (0u64, 0u64);
            let mut t0 = rec.now();
            for m in boundary {
                let s = sessions.get_mut(&m).expect("member session");
                let nack = s.end_of_round();
                let t1 = rec.now();
                round_ns += t1 - t0;
                ended += 1;
                t0 = t1;
                if let Some(nack) = nack {
                    let bytes = Packet::Nack(nack).emit(&layout);
                    let t2 = rec.now();
                    let Ok(Packet::Nack(parsed)) = Packet::parse(&bytes, &layout) else {
                        unreachable!("a NACK emits and parses back as a NACK")
                    };
                    let t3 = rec.now();
                    let node = self
                        .server
                        .tree()
                        .node_of_member(m)
                        .expect("NACKing member has a node");
                    artifacts.session.accept_nack(node, &parsed);
                    let t4 = rec.now();
                    emit_ns += t2 - t1;
                    parse_ns += t3 - t2;
                    accept_ns += t4 - t3;
                    nacks += 1;
                    rec.count("rekeymsg.emit.bytes", bytes.len() as u64);
                    t0 = t4;
                }
            }
            rec.add("rekeyproto.user_round", round_ns, ended);
            rec.add("rekeymsg.emit", emit_ns, nacks);
            rec.add("rekeymsg.parse", parse_ns, nacks);
            rec.add("rekeyproto.server_round", accept_ns, nacks);
            rec.count("rekeyproto.nacks", nacks);
            rec.begin("rekeyproto.server_round");
            action = artifacts.session.end_of_round();
            rec.end("rekeyproto.server_round");
            rec.end("boundary");
            rec.end("round");

            if matches!(action, RoundDecision::Done) {
                break;
            }
            rounds += 1;
            assert!(rounds <= 64, "delivery did not complete within 64 rounds");
        }
        rec.count("rekeyproto.rounds", rounds);

        rec.begin("apply");
        let mut hist: Vec<usize> = Vec::new();
        let (mut apply_ns, mut applied) = (0u64, 0u64);
        let mut t0 = rec.now();
        for (m, s) in &sessions {
            let agent = self.agents.get_mut(m).expect("live member has an agent");
            match s.outcome() {
                UserOutcome::Enc(pkt) => agent
                    .apply_enc(pkt, msg_seq)
                    .unwrap_or_else(|e| panic!("member {m}: apply_enc: {e}")),
                UserOutcome::Usr(pkt) => agent
                    .apply_usr(pkt, msg_seq)
                    .unwrap_or_else(|e| panic!("member {m}: apply_usr: {e}")),
                UserOutcome::Pending => assert!(
                    artifacts
                        .outcome
                        .encryptions_for_user(agent.node_id(), DEGREE)
                        .is_empty(),
                    "member {m} pending but needed encryptions"
                ),
            }
            let t1 = rec.now();
            apply_ns += t1 - t0;
            applied += 1;
            t0 = t1;
            if let Some(r) = s.rounds_to_success() {
                if hist.len() < r {
                    hist.resize(r, 0);
                }
                hist[r - 1] += 1;
            }
        }
        rec.add("agent.apply", apply_ns, applied);
        rec.end("apply");

        let report = MessageReport {
            num_nack: self.server.controller().num_nack,
            rounds_histogram: hist,
            ..session_report(msg_seq, &artifacts.session, &artifacts.assignment, k)
        };
        // The product frees every session before `rekey` returns.
        drop(sessions);
        rec.end("interval");
        let wall_ns = t.elapsed().as_nanos() as u64;

        rec.count(
            "rse.parities_minted",
            artifacts.session.stats.parity_multicast as u64,
        );
        if let Some(pre_tree) = pre_tree {
            self.replay
                .run(rec, pre_tree, &reqs, &self.server, &artifacts);
        }

        IntervalOutcome {
            wall_ns,
            report,
            requests: reqs.len(),
            refused,
            receivers: self.agents.len(),
            unkeyed: unkeyed(&self.agents, self.server.tree().group_key()),
        }
    }

    fn group_key(&self) -> [u8; 16] {
        key_bytes(self.server.tree().group_key())
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.rec)
    }
}

// --------------------------------------------------------------- server_scale

/// Admission → `KeyServer::rekey` → `ServerSession::start` → `Packet::emit`
/// of every round-one packet. There is no product loop to call here — the
/// interval *is* this composition — so the product lane is the same sequence
/// written without a recorder.
struct ServerLane {
    gen: Generator,
    sampler: SplitMix64,
    server: KeyServer,
    collector: IntervalCollector,
    replay: RekeyReplay,
    /// `None` on the product lane.
    rec: Option<Recorder>,
}

impl ServerLane {
    fn new(sizing: Sizing, seed: u64, kind: LaneKind) -> Self {
        let server = KeyServer::bootstrap(
            sizing.n,
            server_options(Workload::ServerScale, sizing, seed),
        );
        let keys = individual_keys(server.tree(), sizing.n);
        ServerLane {
            gen: Generator::new(seed, keys, sizing.batch, sizing.batch),
            sampler: SplitMix64::new(seed ^ 0x7361_6D70_6C65),
            server,
            collector: IntervalCollector::new(),
            replay: RekeyReplay::new(),
            rec: match kind {
                LaneKind::Product => None,
                LaneKind::Layered { spans } => Some(Recorder::new(spans)),
            },
        }
    }

    /// An agent for `member` as it stands before the batch: a survivor holds
    /// its current path, a joiner only its granted individual key (its node
    /// is known once the batch has placed it).
    fn sample_receivers(&mut self) -> Vec<(MemberId, Option<UserAgent>)> {
        let live = self.gen.live();
        let tree = self.server.tree();
        (0..SAMPLED_RECEIVERS.min(live.len()))
            .map(|_| {
                let m = live[self.sampler.below(live.len())];
                let agent = tree.node_of_member(m).map(|node| {
                    let path = tree.keys_for_member(m).expect("member has a path");
                    UserAgent::with_path(m, node, path[0].1, DEGREE, path)
                });
                (m, agent)
            })
            .collect()
    }

    /// Every sampled receiver runs `UserSession` + `UserAgent` over the
    /// emitted bytes (lossless) and must end up holding the server's group
    /// key. Returns how many did not.
    fn check_receivers(
        &self,
        sampled: Vec<(MemberId, Option<UserAgent>)>,
        reqs: &Requests,
        emitted: &[Vec<u8>],
        msg_seq: u64,
    ) -> usize {
        let tree = self.server.tree();
        let layout = Layout::DEFAULT;
        let k = self.server.controller().config().block_size;
        let mut unkeyed = 0;
        for (m, agent) in sampled {
            let mut agent = agent.unwrap_or_else(|| {
                let node = tree.node_of_member(m).expect("joiner placed by the batch");
                let key = reqs
                    .joins
                    .iter()
                    .find_map(|(j, key)| (j.member == m).then_some(*key))
                    .expect("a member new to the tree joined in this interval");
                UserAgent::new(m, node, key, DEGREE)
            });
            let mut session = UserSession::new(agent.node_id(), DEGREE, k, layout)
                .expect_msg_id((msg_seq & 0x3f) as u8);
            for bytes in emitted {
                if session.is_satisfied() {
                    break;
                }
                session.receive(&Packet::parse(bytes, &layout).expect("emitted packet parses"));
            }
            let keyed = match session.outcome() {
                UserOutcome::Enc(pkt) => agent.apply_enc(pkt, msg_seq).is_ok(),
                UserOutcome::Usr(_) | UserOutcome::Pending => false,
            };
            if !keyed || agent.group_key() != tree.group_key() {
                unkeyed += 1;
            }
        }
        unkeyed
    }
}

impl Lane for ServerLane {
    fn interval(&mut self) -> IntervalOutcome {
        let reqs = self.gen.next_interval();
        let sampled = self.sample_receivers();
        let layout = Layout::DEFAULT;
        let mut emitted: Vec<Vec<u8>> = Vec::new();

        let (wall_ns, refused, artifacts) = match &mut self.rec {
            None => {
                let t = Instant::now();
                let (batch, refused) = admit(&mut self.collector, self.server.tree(), &reqs);
                let mut artifacts = self.server.rekey(batch);
                let schedule = artifacts.session.start();
                emitted.extend(schedule.iter().map(|pkt| pkt.emit(&layout)));
                (t.elapsed().as_nanos() as u64, refused, artifacts)
            }
            Some(rec) => {
                let pre_tree = rec.is_on().then(|| self.server.tree().clone());
                rec.next_interval();
                let t = Instant::now();
                rec.begin("interval");
                rec.begin("frontend.admit");
                let (batch, refused) = admit(&mut self.collector, self.server.tree(), &reqs);
                rec.end_calls("frontend.admit", reqs.len() as u64 + 1);
                rec.begin("server.rekey");
                let mut artifacts = self.server.rekey(batch);
                rec.end("server.rekey");
                rec.begin("rekeyproto.start");
                let schedule = artifacts.session.start();
                rec.end("rekeyproto.start");
                rec.begin("rekeymsg.emit");
                emitted.extend(schedule.iter().map(|pkt| pkt.emit(&layout)));
                rec.end_calls("rekeymsg.emit", emitted.len() as u64);
                rec.end("interval");
                let wall_ns = t.elapsed().as_nanos() as u64;

                rec.count("frontend.refused", refused as u64);
                rec.count(
                    "rekeymsg.emit.bytes",
                    emitted.iter().map(|b| b.len() as u64).sum(),
                );
                rec.count(
                    "rse.parities_minted",
                    artifacts.session.stats.parity_multicast as u64,
                );
                rec.count("rekeyproto.rounds", 1);
                if let Some(pre_tree) = pre_tree {
                    self.replay
                        .run(rec, pre_tree, &reqs, &self.server, &artifacts);
                }
                (wall_ns, refused, artifacts)
            }
        };

        let report = MessageReport {
            num_nack: self.server.controller().num_nack,
            server_rounds: 1,
            // No network: every member is keyed by round one.
            rounds_histogram: vec![self.server.tree().user_count()],
            ..session_report(
                artifacts.msg_seq,
                &artifacts.session,
                &artifacts.assignment,
                self.server.controller().config().block_size,
            )
        };
        let receivers = sampled.len();
        let unkeyed = self.check_receivers(sampled, &reqs, &emitted, artifacts.msg_seq);
        IntervalOutcome {
            wall_ns,
            report,
            requests: reqs.len(),
            refused,
            receivers,
            unkeyed,
        }
    }

    fn group_key(&self) -> [u8; 16] {
        key_bytes(self.server.tree().group_key())
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        self.rec.as_mut()
    }
}

// ---------------------------------------------------------------- sim_figures

fn experiment_params(sizing: Sizing, seed: u64) -> ExperimentParams {
    let mut params = ExperimentParams::default().with_n(sizing.n);
    params.protocol.block_size = sizing.k;
    params.seed = seed;
    params
}

/// Receivers that should be keyed by one `sim_figures` message, and how many
/// were not: the histogram must account for every survivor.
fn sim_receivers(report: &MessageReport, params: &ExperimentParams) -> (usize, usize) {
    let expected = params.n as usize - params.leaves;
    let keyed: usize = report.rounds_histogram.iter().sum();
    (
        expected,
        report.unserved_users.max(expected.abs_diff(keyed)),
    )
}

struct SimProduct {
    params: ExperimentParams,
    run: ExperimentRun,
}

impl SimProduct {
    fn new(sizing: Sizing, seed: u64) -> Self {
        let params = experiment_params(sizing, seed);
        SimProduct {
            params,
            run: ExperimentRun::new(params),
        }
    }
}

impl Lane for SimProduct {
    fn interval(&mut self) -> IntervalOutcome {
        let t = Instant::now();
        let report = self.run.step();
        let wall_ns = t.elapsed().as_nanos() as u64;
        let (receivers, unkeyed) = sim_receivers(&report, &self.params);
        IntervalOutcome {
            wall_ns,
            report,
            requests: 0,
            refused: 0,
            receivers,
            unkeyed,
        }
    }

    fn group_key(&self) -> [u8; 16] {
        [0; 16]
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        None
    }
}

/// `ExperimentRun::step` composed from its public parts. The product draws
/// its leavers from a private generator, so this lane's batches are drawn the
/// same way from the benchmark's: the work is the same in distribution, not
/// message for message.
struct SimLayered {
    params: ExperimentParams,
    net: Network,
    controller: ServerController,
    rng: SplitMix64,
    clock: f64,
    msg_seq: u64,
    users: Vec<SimUser>,
    scratch: TransportScratch,
    rec: Recorder,
}

impl SimLayered {
    fn new(sizing: Sizing, seed: u64, spans: bool) -> Self {
        let params = experiment_params(sizing, seed);
        let mut net_cfg = params.net;
        net_cfg.n_users = params.n as usize + params.joins;
        net_cfg.seed = seed;
        let mut proto = params.protocol;
        proto.seed = seed ^ 0xABCD;
        SimLayered {
            params,
            net: Network::new(net_cfg),
            controller: ServerController::new(proto),
            rng: SplitMix64::new(seed ^ 0x00C0_FFEE),
            clock: 0.0,
            msg_seq: 0,
            users: Vec::new(),
            scratch: TransportScratch::new(),
            rec: Recorder::new(spans),
        }
    }
}

impl Lane for SimLayered {
    fn interval(&mut self) -> IntervalOutcome {
        let rec = &mut self.rec;
        rec.next_interval();
        let p = &self.params;
        let t = Instant::now();
        rec.begin("interval");
        self.msg_seq += 1;
        let mut kg = KeyGen::from_seed(self.rng.next_u64());

        rec.begin("sim.tree_build");
        let mut tree = KeyTree::balanced(p.n, p.degree, &mut kg);
        rec.end("sim.tree_build");
        // Uniform leavers: partial Fisher–Yates over member ids.
        let mut pool: Vec<MemberId> = (0..p.n).collect();
        for i in 0..p.leaves {
            let pick = i + self.rng.below(pool.len() - i);
            pool.swap(i, pick);
        }
        let batch = Batch::new(Vec::new(), pool[..p.leaves].to_vec());

        rec.begin("keytree.mark");
        let outcome = tree.process_batch(&batch, &mut kg);
        rec.end("keytree.mark");
        rec.begin("rekeymsg.build");
        let assignment = UkaAssignment::build(&tree, &outcome, self.msg_seq, &p.protocol.layout)
            .expect("marking outcome seals against its own tree");
        rec.end("rekeymsg.build");
        let usr_hint = p.protocol.layout.usr_packet_len(tree.height() as usize + 1);
        let num_nack_used = self.controller.num_nack;
        rec.begin("rekeyproto.begin");
        let mut session = self
            .controller
            .begin_message(assignment.packets.clone(), usr_hint);
        rec.end("rekeyproto.begin");

        let k = p.protocol.block_size;
        let mut members = tree.member_ids();
        members.sort_unstable();
        self.users.clear();
        self.users
            .extend(members.iter().enumerate().map(|(idx, &m)| {
                let uid = tree
                    .node_of_member(m)
                    .expect("member listed by its own tree");
                let true_block = assignment.packet_of_user(uid).map(|pi| (pi / k) as u8);
                SimUser::new(idx, uid, k, p.degree, true_block)
            }));

        rec.begin("sim.transport");
        let stats = run_message_transport_with(
            &mut self.net,
            &mut self.clock,
            &mut session,
            &mut self.users,
            &p.sim,
            &mut self.scratch,
        );
        rec.end("sim.transport");
        rec.begin("rekeyproto.adjust");
        self.controller
            .absorb_feedback(&session, stats.missed_deadline);
        rec.end("rekeyproto.adjust");

        let report = MessageReport {
            num_nack: num_nack_used,
            rounds_histogram: stats.rounds_histogram,
            unserved_users: stats.unserved,
            missed_deadline: stats.missed_deadline,
            ..session_report(self.msg_seq, &session, &assignment, k)
        };
        rec.end("interval");
        let wall_ns = t.elapsed().as_nanos() as u64;

        let multicast = session.stats.enc_multicast + session.stats.parity_multicast;
        record_build_counts(rec, outcome.encryptions.len(), &assignment);
        rec.count("rse.parities_minted", session.stats.parity_multicast as u64);
        rec.count("rekeyproto.nacks", session.stats.nacks_received as u64);
        rec.count("rekeyproto.rounds", stats.total_rounds as u64);
        // Network calls happen inside the transport: counted, not timed.
        rec.add("netsim.multicast", 0, multicast as u64);
        rec.add("netsim.unicast", 0, session.stats.usr_sent as u64);
        rec.count(
            "sim.transport.packets",
            (multicast + session.stats.usr_sent) as u64,
        );
        rec.count(
            "sim.user_packets",
            (multicast * self.users.len() + session.stats.usr_sent) as u64,
        );

        let (receivers, unkeyed) = sim_receivers(&report, p);
        IntervalOutcome {
            wall_ns,
            report,
            requests: 0,
            refused: 0,
            receivers,
            unkeyed,
        }
    }

    fn group_key(&self) -> [u8; 16] {
        [0; 16]
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.rec)
    }
}

// --------------------------------------------------------------------- probes

/// Runs `body` (one batch of `per_call` operations) until at least 50 ms have
/// been spent in it; returns nanoseconds per operation at the reference host
/// speed.
fn probe(gauge: &mut SpeedGauge, per_call: u64, mut body: impl FnMut()) -> f64 {
    body();
    let scale = gauge.scale();
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_millis() < 50 {
        body();
        ops += per_call;
    }
    start.elapsed().as_nanos() as f64 * scale / ops as f64
}

/// Direct timings of the kernels below the protocol, at the workload's block
/// size `k`, the FEC body length, and `ceil(0.2 k)` erasures (the high-loss
/// receiver's expectation).
pub struct Probes {
    pub seal_ns: f64,
    pub unseal_ns: f64,
    pub mac64_ns: f64,
    pub encode_us_per_parity: f64,
    pub decode_us_per_block: f64,
    pub mul_acc_ns_per_kb: f64,
}

pub fn run_probes(k: usize, seed: u64, gauge: &mut SpeedGauge) -> Probes {
    let mut rng = SplitMix64::new(seed ^ 0x7072_6F62_6573);
    let mut random_key = || Key::from_bytes(rng.next_16());
    let (kek, plain) = (random_key(), random_key());

    let seal_ns = probe(gauge, 64, || {
        for ctx in 0..64u64 {
            black_box(SealedKey::seal(black_box(&kek), black_box(&plain), ctx));
        }
    });
    let sealed: Vec<SealedKey> = (0..64u64)
        .map(|c| SealedKey::seal(&kek, &plain, c))
        .collect();
    let unseal_ns = probe(gauge, 64, || {
        for (ctx, s) in sealed.iter().enumerate() {
            black_box(black_box(s).unseal(&kek, ctx as u64).expect("own seal"));
        }
    });
    // The request payload the front end authenticates: tag + member + interval.
    let payload = [0x5Au8; 17];
    let mac64_ns = probe(gauge, 64, || {
        for _ in 0..64 {
            black_box(wirecrypto::mac::mac64(black_box(&kek), black_box(&payload)));
        }
    });

    let body_len = Layout::DEFAULT.fec_body_len();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..body_len).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let erasures = (k as f64 * 0.2).ceil() as usize;
    let mut encoder = rse::BlockEncoder::new(k).expect("workload k is a valid block size");
    encoder
        .warm(erasures)
        .expect("erasures fit the parity space");
    let encode_ns = probe(gauge, erasures as u64, || {
        for p in 0..erasures {
            black_box(
                encoder
                    .parity(p, black_box(&data))
                    .expect("equal-length bodies"),
            );
        }
    });
    // A block that lost its first `erasures` data packets and got as many
    // parities instead.
    let shares: Vec<rse::Share> = (erasures..k)
        .map(|index| rse::Share {
            index,
            data: data[index].clone(),
        })
        .chain((0..erasures).map(|p| rse::Share {
            index: k + p,
            data: encoder.parity(p, &data).expect("equal-length bodies"),
        }))
        .collect();
    let mut decoder = rse::Decoder::new(k).expect("workload k is a valid block size");
    assert_eq!(decoder.decode(&shares).expect("k distinct shares"), data);
    let decode_ns = probe(gauge, 1, || {
        black_box(
            decoder
                .decode(black_box(&shares))
                .expect("k distinct shares"),
        );
    });

    let coeff = gf256::Gf256::alpha_pow(37);
    let mut dst = vec![0u8; body_len];
    let mul_acc_ns = probe(gauge, 16, || {
        for src in data.iter().cycle().take(16) {
            gf256::mul_acc_slice_wide(coeff, black_box(src), black_box(&mut dst));
        }
    });

    Probes {
        seal_ns,
        unseal_ns,
        mac64_ns,
        encode_us_per_parity: encode_ns / 1e3,
        decode_us_per_block: decode_ns / 1e3,
        mul_acc_ns_per_kb: mul_acc_ns * 1024.0 / body_len as f64,
    }
}
