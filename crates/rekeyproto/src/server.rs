//! The key-server side of the rekey transport protocol (Figures 2, 22, 26).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use keytree::NodeId;
use rekeymsg::blocks::proactive_parity_count;
use rekeymsg::{BlockSet, EncPacket, Layout, NackPacket, Packet, SendOrder};

use crate::adjust::{adjust_rho, update_num_nack, AdjustConfig};

/// Server-side protocol parameters (defaults are the paper's).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// FEC block size `k`.
    pub block_size: usize,
    /// Initial proactivity factor `rho`.
    pub initial_rho: f64,
    /// Initial NACK target `numNACK`.
    pub initial_num_nack: usize,
    /// Upper bound `maxNACK` for the adaptive target.
    pub max_nack: usize,
    /// Multicast rounds before switching to unicast (`usize::MAX` disables
    /// unicast entirely — used by the multicast-only bandwidth experiments).
    pub max_multicast_rounds: usize,
    /// Whether `AdjustRho` runs between messages.
    pub adapt_rho: bool,
    /// Whether the `numNACK` deadline heuristics run between messages.
    pub adapt_num_nack: bool,
    /// Order in which a round's packets are multicast.
    pub send_order: SendOrder,
    /// Wire layout.
    pub layout: Layout,
    /// RNG seed for the probabilistic `rho` decrease.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            block_size: 10,
            initial_rho: 1.0,
            initial_num_nack: 20,
            max_nack: 100,
            max_multicast_rounds: 2,
            adapt_rho: true,
            adapt_num_nack: true,
            send_order: SendOrder::Interleaved,
            layout: Layout::DEFAULT,
            seed: 7,
        }
    }
}

/// UDP header bytes counted per packet in USR byte totals.
const UDP_HEADER_LEN: usize = 8;

/// Cross-message server state: `rho`, `numNACK`, adaptation RNG, and the
/// warmed prototype FEC encoder every message's blocks are cloned from.
#[derive(Debug)]
pub struct ServerController {
    cfg: ServerConfig,
    /// Current proactivity factor.
    pub rho: f64,
    /// Current NACK target.
    pub num_nack: usize,
    rng: SmallRng,
    /// Prototype encoder for `cfg.block_size`, warmed once: the O(k²)
    /// Lagrange setup and the proactive-round coefficient rows are built
    /// here and shared (by clone) with every block of every message this
    /// controller opens.
    proto_encoder: rse::BlockEncoder,
}

impl ServerController {
    /// Creates a controller with the configured initial state.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.block_size` is not a valid FEC block size.
    pub fn new(cfg: ServerConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "the documented `# Panics`: a configuration error at construction, before any state exists"
        )]
        let Ok(mut proto_encoder) = rse::BlockEncoder::new(cfg.block_size) else {
            panic!("invalid block size {}", cfg.block_size)
        };
        // Pre-build the rows round one will need (plus a couple of
        // reactive rounds' worth); later rows still build lazily.
        let warm = (proactive_parity_count(cfg.initial_rho, cfg.block_size) + 2)
            .min(proto_encoder.max_parities());
        // Infallible: the count is clamped to the encoder's own limit.
        let _ = proto_encoder.warm(warm);
        ServerController {
            rho: cfg.initial_rho,
            num_nack: cfg.initial_num_nack,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5E55_1015),
            cfg,
            proto_encoder,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Opens a session for one rekey message. `usr_len_hint` is the
    /// typical USR packet length (3 + 20h) counted per USR packet in
    /// [`ServerStats::usr_bytes`].
    pub fn begin_message(&self, enc_packets: Vec<EncPacket>, usr_len_hint: usize) -> ServerSession {
        ServerSession::new(
            enc_packets,
            self.proto_encoder.clone(),
            self.rho,
            self.cfg,
            usr_len_hint,
        )
    }

    /// Feeds the finished session's first-round demands into `AdjustRho`
    /// and its deadline misses into the `numNACK` heuristics.
    pub fn absorb_feedback(&mut self, session: &ServerSession, missed_deadline: usize) {
        if self.cfg.adapt_rho {
            let cfg = AdjustConfig {
                k: self.cfg.block_size,
                num_nack: self.num_nack,
            };
            let draw = self.rng.gen::<f64>();
            self.rho = adjust_rho(&session.first_round_demands, self.rho, cfg, || draw);
        }
        if self.cfg.adapt_num_nack {
            self.num_nack = update_num_nack(self.num_nack, missed_deadline, self.cfg.max_nack);
        }
    }
}

/// Phase of a message session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Multicast,
    Unicast,
    Done,
}

/// Counters exposed for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// ENC packets multicast (including last-block duplicates).
    pub enc_multicast: usize,
    /// PARITY packets multicast across all rounds.
    pub parity_multicast: usize,
    /// USR packets unicast (counting duplicates).
    pub usr_sent: usize,
    /// Bytes unicast (USR + UDP headers).
    pub usr_bytes: usize,
    /// Multicast rounds actually used.
    pub multicast_rounds: usize,
    /// NACK packets received in total.
    pub nacks_received: usize,
}

/// What the server does at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundDecision {
    /// Multicast these packets (a reactive parity round).
    Multicast(Vec<Packet>),
    /// Unicast USR packets to these users.
    Unicast(UnicastSend),
    /// Every user has recovered; the message is complete.
    Done,
}

/// One unicast wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnicastSend {
    /// Users (by u-node ID) to serve.
    pub targets: Vec<NodeId>,
    /// How many duplicate copies of each USR packet to send.
    pub duplicates: usize,
}

/// Per-message server state machine.
#[derive(Debug)]
pub struct ServerSession {
    cfg: ServerConfig,
    blocks: BlockSet,
    rho: f64,
    phase: Phase,
    round: usize,
    /// `amax[i]` for the current round.
    amax: Vec<usize>,
    /// Spare `amax`-sized buffer swapped in at each round boundary so the
    /// per-round reset reuses one allocation instead of minting a fresh
    /// vector per round.
    amax_scratch: Vec<usize>,
    /// Users that NACKed since the last round boundary.
    round_nackers: Vec<NodeId>,
    /// Per-user maximum parity demand from the FIRST round (list `A`).
    first_round_demands: Vec<usize>,
    usr_len_hint: usize,
    usr_duplicates: usize,
    /// Counters.
    pub stats: ServerStats,
}

impl ServerSession {
    fn new(
        enc_packets: Vec<EncPacket>,
        proto_encoder: rse::BlockEncoder,
        rho: f64,
        cfg: ServerConfig,
        usr_len_hint: usize,
    ) -> Self {
        let blocks = BlockSet::with_encoder(enc_packets, proto_encoder, cfg.layout);
        let amax = vec![0; blocks.block_count()];
        ServerSession {
            cfg,
            blocks,
            rho,
            phase: Phase::Multicast,
            round: 0,
            amax,
            amax_scratch: Vec::new(),
            round_nackers: Vec::new(),
            first_round_demands: Vec::new(),
            usr_len_hint,
            usr_duplicates: 2,
            stats: ServerStats::default(),
        }
    }

    /// The proactivity factor this session was opened with.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The block set (for tests and drivers that need packet contents).
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// Number of real (pre-duplication) ENC packets — the `h` of the
    /// bandwidth-overhead metric.
    pub fn real_enc_count(&self) -> usize {
        self.blocks.real_packet_count()
    }

    /// Multicast bandwidth overhead so far: `h' / h`.
    pub fn bandwidth_overhead(&self) -> f64 {
        let h = self.blocks.real_packet_count();
        if h == 0 {
            return 0.0;
        }
        (self.stats.enc_multicast + self.stats.parity_multicast) as f64 / h as f64
    }

    /// First-round per-user parity demands (the `A` list for `AdjustRho`).
    pub fn first_round_demands(&self) -> &[usize] {
        &self.first_round_demands
    }

    /// Number of NACKs received at the end of the first round.
    pub fn first_round_nack_count(&self) -> usize {
        self.first_round_demands.len()
    }

    /// Starts the message: the round-one schedule (all ENC packets plus
    /// proactive parities, interleaved across blocks). An empty message
    /// completes immediately.
    pub fn start(&mut self) -> Vec<Packet> {
        assert_eq!(self.round, 0, "start called twice");
        self.round = 1;
        if self.blocks.block_count() == 0 {
            self.phase = Phase::Done;
            return Vec::new();
        }
        #[expect(
            clippy::panic,
            reason = "a size limit (255 shares a block against rho * k); ROADMAP 4b: becomes RekeyError"
        )]
        let sched = self
            .blocks
            .round_one_schedule(self.rho, self.cfg.send_order)
            .unwrap_or_else(|e| panic!("parity space exhausted in round one: {e}"));
        self.count_multicast(&sched);
        sched
    }

    fn count_multicast(&mut self, packets: &[Packet]) {
        for p in packets {
            match p {
                Packet::Enc(_) => self.stats.enc_multicast += 1,
                Packet::Parity(_) => self.stats.parity_multicast += 1,
                #[expect(
                    clippy::unreachable,
                    reason = "invariant: both callers pass a schedule `BlockSet` built, which holds ENC and PARITY only"
                )]
                _ => unreachable!("server multicasts only ENC/PARITY"),
            }
        }
    }

    /// Accepts a NACK from `user` (Figure 26, step 8).
    pub fn accept_nack(&mut self, user: NodeId, nack: &NackPacket) {
        self.stats.nacks_received += 1;
        match self.phase {
            Phase::Multicast => {
                self.round_nackers.push(user);
                let mut max_a = 0usize;
                for req in &nack.requests {
                    let a = req.count as usize;
                    max_a = max_a.max(a);
                    if let Some(slot) = self.amax.get_mut(req.block_id as usize) {
                        *slot = (*slot).max(a);
                    }
                }
                if self.round == 1 {
                    self.first_round_demands.push(max_a);
                }
            }
            Phase::Unicast => {
                // Served by the next unicast wave.
                self.round_nackers.push(user);
            }
            Phase::Done => {}
        }
    }

    /// Round boundary (the server's timeout): decides between a reactive
    /// multicast round, the switch to unicast, or completion.
    pub fn end_of_round(&mut self) -> RoundDecision {
        match self.phase {
            Phase::Done => RoundDecision::Done,
            Phase::Multicast => {
                self.stats.multicast_rounds = self.round;
                if self.round_nackers.is_empty() {
                    self.phase = Phase::Done;
                    return RoundDecision::Done;
                }
                if self.round >= self.cfg.max_multicast_rounds {
                    self.phase = Phase::Unicast;
                    return RoundDecision::Unicast(self.unicast_wave());
                }
                // Reactive multicast: amax[i] fresh parities per block.
                // Swap the demands out against the zeroed spare buffer so
                // the reset reuses its allocation round after round.
                self.amax_scratch.clear();
                self.amax_scratch.resize(self.blocks.block_count(), 0);
                std::mem::swap(&mut self.amax, &mut self.amax_scratch);
                self.round_nackers.clear();
                self.round += 1;
                match self
                    .blocks
                    .reactive_schedule(&self.amax_scratch, self.cfg.send_order)
                {
                    Ok(sched) => {
                        self.count_multicast(&sched);
                        RoundDecision::Multicast(sched)
                    }
                    Err(_) => {
                        // Parity space exhausted: fall back to unicast.
                        self.phase = Phase::Unicast;
                        RoundDecision::Unicast(self.unicast_wave())
                    }
                }
            }
            Phase::Unicast => {
                if self.round_nackers.is_empty() {
                    self.phase = Phase::Done;
                    RoundDecision::Done
                } else {
                    RoundDecision::Unicast(self.unicast_wave())
                }
            }
        }
    }

    fn unicast_wave(&mut self) -> UnicastSend {
        let mut targets = std::mem::take(&mut self.round_nackers);
        targets.sort_unstable();
        targets.dedup();
        let duplicates = self.usr_duplicates;
        self.usr_duplicates += 1;
        self.stats.usr_sent += targets.len() * duplicates;
        self.stats.usr_bytes += targets.len() * duplicates * (self.usr_len_hint + UDP_HEADER_LEN);
        UnicastSend {
            targets,
            duplicates,
        }
    }

    /// Proactive parities per block at this session's `rho`.
    pub fn proactive_per_block(&self) -> usize {
        proactive_parity_count(self.rho, self.cfg.block_size)
    }

    /// True once the message is fully delivered.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekeymsg::{EncHeader, NackRequest};
    use wirecrypto::{SealedKey, SymKey};

    fn enc(i: u16) -> EncPacket {
        let kek = SymKey::from_bytes([i as u8; 16]);
        EncPacket::new(
            EncHeader {
                msg_id: 0,
                block_id: 0,
                seq: 0,
                duplicate: false,
                max_kid: 50,
                frm_id: 100 + i,
                to_id: 100 + i,
            },
            vec![(
                100 + i,
                SealedKey::seal(&kek, &SymKey::from_bytes([9; 16]), 0),
            )],
            &Layout::DEFAULT,
        )
        .unwrap()
    }

    fn cfg() -> ServerConfig {
        ServerConfig {
            block_size: 5,
            initial_rho: 1.4,
            max_multicast_rounds: 2,
            ..ServerConfig::default()
        }
    }

    fn session(n_pkts: usize) -> ServerSession {
        let ctl = ServerController::new(cfg());
        ctl.begin_message((0..n_pkts as u16).map(enc).collect(), 100)
    }

    fn nack(reqs: &[(u8, u8)]) -> NackPacket {
        NackPacket {
            msg_id: 0,
            requests: reqs
                .iter()
                .map(|&(count, block_id)| NackRequest { count, block_id })
                .collect(),
        }
    }

    #[test]
    fn round_one_counts_match_rho() {
        let mut s = session(10); // 2 blocks of 5
        let sched = s.start();
        // ceil((1.4 - 1) * 5) = 2 parities per block.
        assert_eq!(s.proactive_per_block(), 2);
        assert_eq!(sched.len(), 10 + 2 * 2);
        assert_eq!(s.stats.enc_multicast, 10);
        assert_eq!(s.stats.parity_multicast, 4);
    }

    #[test]
    fn no_nacks_completes_after_round_one() {
        let mut s = session(10);
        s.start();
        assert_eq!(s.end_of_round(), RoundDecision::Done);
        assert!(s.is_done());
        assert_eq!(s.stats.multicast_rounds, 1);
    }

    #[test]
    fn empty_message_is_immediately_done() {
        let mut s = session(0);
        assert!(s.start().is_empty());
        assert!(s.is_done());
        assert_eq!(s.bandwidth_overhead(), 0.0);
    }

    #[test]
    fn reactive_round_sends_amax_per_block() {
        let mut s = session(10);
        s.start();
        s.accept_nack(101, &nack(&[(2, 0)]));
        s.accept_nack(105, &nack(&[(1, 0), (3, 1)]));
        match s.end_of_round() {
            RoundDecision::Multicast(pkts) => {
                // amax = [2, 3] -> 5 parity packets.
                assert_eq!(pkts.len(), 5);
                assert!(pkts.iter().all(|p| matches!(p, Packet::Parity(_))));
            }
            other => panic!("expected reactive round, got {other:?}"),
        }
        // First-round demands recorded per user (max over its requests).
        assert_eq!(s.first_round_demands(), &[2, 3]);
    }

    #[test]
    fn switches_to_unicast_after_max_rounds() {
        let mut s = session(10);
        s.start();
        s.accept_nack(101, &nack(&[(5, 0)]));
        assert!(matches!(s.end_of_round(), RoundDecision::Multicast(_)));
        s.accept_nack(101, &nack(&[(2, 0)]));
        match s.end_of_round() {
            RoundDecision::Unicast(w) => {
                assert_eq!(w.targets, vec![101]);
                assert_eq!(w.duplicates, 2);
            }
            other => panic!("expected unicast, got {other:?}"),
        }
    }

    #[test]
    fn unicast_duplicates_escalate() {
        let ctl = ServerController::new(ServerConfig {
            max_multicast_rounds: 1,
            ..cfg()
        });
        let mut s = ctl.begin_message((0..10u16).map(enc).collect(), 100);
        s.start();
        s.accept_nack(101, &nack(&[(5, 0)]));
        s.accept_nack(102, &nack(&[(5, 0)]));
        let RoundDecision::Unicast(w1) = s.end_of_round() else {
            panic!("expected unicast");
        };
        assert_eq!(w1.duplicates, 2);
        assert_eq!(w1.targets.len(), 2);
        // One user still missing.
        s.accept_nack(102, &nack(&[(5, 0)]));
        let RoundDecision::Unicast(w2) = s.end_of_round() else {
            panic!("expected second unicast wave");
        };
        assert_eq!(w2.duplicates, 3);
        assert_eq!(w2.targets, vec![102]);
        // All served.
        assert_eq!(s.end_of_round(), RoundDecision::Done);
        assert_eq!(s.stats.usr_sent, 2 * 2 + 3);
    }

    #[test]
    fn bandwidth_overhead_counts_all_multicast() {
        let mut s = session(7); // 2 blocks (5 + 2dup+3... real 7, dup 3)
        s.start();
        // h = 7; h' = 10 ENC slots + 4 parities = 14.
        assert!((s.bandwidth_overhead() - 14.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn controller_adapts_rho_from_feedback() {
        let mut ctl = ServerController::new(ServerConfig {
            block_size: 10,
            initial_rho: 1.0,
            initial_num_nack: 2,
            ..ServerConfig::default()
        });
        let mut s = ctl.begin_message((0..10u16).map(enc).collect(), 100);
        s.start();
        for (u, a) in [(101u32, 9u8), (102, 8), (103, 5), (104, 4)] {
            s.accept_nack(u, &nack(&[(a, 0)]));
        }
        let _ = s.end_of_round();
        ctl.absorb_feedback(&s, 0);
        // a sorted desc = [9,8,5,4]; a[numNACK=2] = 5 -> rho = (5+10)/10.
        assert!((ctl.rho - 1.5).abs() < 1e-9, "rho = {}", ctl.rho);
        // numNACK grew by one (no deadline misses).
        assert_eq!(ctl.num_nack, 3);
    }

    #[test]
    fn controller_num_nack_shrinks_on_misses() {
        let mut ctl = ServerController::new(ServerConfig {
            initial_num_nack: 20,
            adapt_rho: false,
            ..ServerConfig::default()
        });
        let mut s = ctl.begin_message(vec![], 100);
        s.start();
        ctl.absorb_feedback(&s, 7);
        assert_eq!(ctl.num_nack, 13);
    }
}
