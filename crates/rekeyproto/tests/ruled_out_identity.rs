//! A session holds no share of a block its block-ID estimate has ruled
//! out, and that changes nothing a user does. Over real messages — a key
//! tree after a leave batch, its UKA packets, both send orders, proactive
//! and reactive parities over one to three multicast rounds, random loss —
//! every user's NACK in every round, its success round and its outcome are
//! those of a reference that holds every share. The reference keeps its own
//! set of `(block, share index)` beside a `BlockIdEstimator` and NACKs
//! through `nack_requests_into`, fed the same frames; a block decodes in it
//! when it is a candidate, holds `k` shares and holds the user's packet.

use std::collections::BTreeSet;
use std::sync::Arc;

use keytree::{Batch, KeyTree, MemberId, NodeId};
use proptest::prelude::*;
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::{BlockSet, EncFrame, Header, Layout, NackPacket, Packet, SendOrder, UkaAssignment};
use rekeyproto::{
    nack_requests_into, RoundDecision, ServerConfig, ServerController, UserOutcome, UserSession,
};
use wirecrypto::KeyGen;

const D: u32 = 4;
const LAYOUT: Layout = Layout::DEFAULT;

/// The user as a share count sees it, every share held, plus the one fact
/// a count cannot know: which block's decode yields the user's packet.
struct KeepEveryShare {
    me: u16,
    k: usize,
    msg_id: Option<u8>,
    estimator: Option<BlockIdEstimator>,
    held: BTreeSet<(u8, usize)>,
    max_block_seen: Option<u8>,
    rounds: usize,
    success_round: Option<usize>,
    outcome: UserOutcome,
}

impl KeepEveryShare {
    fn new(me: NodeId, k: usize) -> Self {
        KeepEveryShare {
            me: u16::try_from(me).unwrap(),
            k,
            msg_id: None,
            estimator: None,
            held: BTreeSet::new(),
            max_block_seen: None,
            rounds: 0,
            success_round: None,
            outcome: UserOutcome::Pending,
        }
    }

    fn succeed(&mut self, frame: EncFrame) {
        self.outcome = UserOutcome::Enc(frame);
        self.success_round = Some(self.rounds + 1);
    }

    fn receive(&mut self, frame: &Arc<[u8]>) {
        if self.success_round.is_some() {
            return;
        }
        let (msg_id, header) = Packet::header(frame, &LAYOUT).unwrap();
        let (block, index) = match header {
            Header::Enc(h) if h.serves(self.me) => {
                return self.succeed(EncFrame::new(Arc::clone(frame), &LAYOUT).unwrap());
            }
            Header::Enc(h) => {
                let (me, k) = (self.me, self.k);
                (self
                    .estimator
                    .get_or_insert_with(|| BlockIdEstimator::new(me, k, D)))
                .observe(&h);
                (h.block_id, usize::from(h.seq))
            }
            Header::Parity { block_id, seq } => (block_id, self.k + usize::from(seq)),
            other => panic!("the server multicast {other:?}"),
        };
        self.msg_id.get_or_insert(msg_id);
        self.max_block_seen = Some(self.max_block_seen.unwrap_or(0).max(block));
        self.held.insert((block, index));
    }

    /// Distinct shares held of block `b`.
    fn count(&self, b: u8) -> usize {
        self.held.range((b, 0)..=(b, usize::MAX)).count()
    }

    /// The round boundary: the lowest candidate block with `k` shares that
    /// holds the user's packet decodes to it; otherwise the NACK.
    fn end_of_round(&mut self, blocks: &BlockSet) -> Option<NackPacket> {
        if self.success_round.is_none() {
            let range = self.estimator.as_ref().and_then(BlockIdEstimator::range);
            let decoded = (0..=self.max_block_seen.unwrap_or(0))
                .filter(|&b| range.is_none_or(|(lo, hi)| (lo..=hi).contains(&u32::from(b))))
                .filter(|&b| self.count(b) >= self.k)
                .find_map(|b| {
                    let packets = &blocks.block(b.into())?.packets;
                    packets.iter().find(|pkt| pkt.serves(self.me)).cloned()
                });
            if let Some(pkt) = decoded {
                self.succeed(EncFrame::new(pkt.emit().into(), &LAYOUT).unwrap());
            }
        }
        self.rounds += 1;
        if self.success_round.is_some() {
            return None;
        }
        let mut requests = Vec::new();
        nack_requests_into(
            self.estimator.as_ref(),
            self.max_block_seen,
            self.k,
            |b| self.count(b),
            &mut requests,
        );
        Some(NackPacket {
            msg_id: self.msg_id.unwrap_or(0),
            requests,
        })
    }
}

/// One message and how it crosses the network.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: u32,
    k: usize,
    leave_pct: u64,
    rho: f64,
    sequential: bool,
    rounds: usize,
    loss_pct: u64,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (16u32..400, 1usize..16, 1u64..40, 1.0f64..1.6),
        (any::<bool>(), 1usize..4, 0u64..60, any::<u64>()),
    )
        .prop_map(
            |((n, k, leave_pct, rho), (sequential, rounds, loss_pct, seed))| Case {
                n,
                k,
                leave_pct,
                rho,
                sequential,
                rounds,
                loss_pct,
                seed,
            },
        )
}

fn sessions_agree(c: &Case) -> TestCaseResult {
    let mut kg = KeyGen::from_seed(c.seed);
    let mut tree = KeyTree::balanced(c.n, D, &mut kg);
    let before = tree.clone();
    let leaves: Vec<MemberId> = (0..c.n)
        .filter(|&m| (u64::from(m) ^ c.seed).wrapping_mul(0x9E37_79B9) % 100 < c.leave_pct)
        .take(c.n as usize - 1)
        .collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &LAYOUT).unwrap();
    let controller = ServerController::new(ServerConfig {
        block_size: c.k,
        initial_rho: c.rho,
        adapt_rho: false,
        max_multicast_rounds: c.rounds,
        send_order: if c.sequential {
            SendOrder::Sequential
        } else {
            SendOrder::Interleaved
        },
        ..ServerConfig::default()
    });
    let mut server = controller.begin_message(assignment.packets.clone(), 100);

    // Every member, as a session that starts from its ID before the batch
    // and as the reference that knows its ID after it.
    let mut members = tree.member_ids();
    members.sort_unstable();
    let mut users: Vec<(NodeId, UserSession, KeepEveryShare)> = (members.iter())
        .map(|&m| {
            let now = tree.node_of_member(m).unwrap();
            let then = before.node_of_member(m).unwrap();
            let session = UserSession::new(then, D, c.k, LAYOUT).expect_msg_id(1);
            (now, session, KeepEveryShare::new(now, c.k))
        })
        .collect();

    let mut state = c.seed;
    let mut delivered = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 100 >= c.loss_pct
    };
    let mut round = 1;
    let mut schedule = server.start();
    loop {
        let frames: Vec<Arc<[u8]>> = schedule.iter().map(|p| p.emit(&LAYOUT).into()).collect();
        for (_, session, reference) in &mut users {
            for frame in frames.iter().filter(|_| delivered()) {
                session.receive_frame(frame).unwrap();
                reference.receive(frame);
            }
        }
        for (node, session, reference) in &mut users {
            let nack = session.end_of_round();
            prop_assert_eq!(
                &nack,
                &reference.end_of_round(server.blocks()),
                "round {}",
                round
            );
            prop_assert_eq!(session.rounds_to_success(), reference.success_round);
            prop_assert_eq!(session.outcome(), &reference.outcome);
            if let Some(nack) = nack {
                server.accept_nack(*node, &nack);
            }
        }
        match server.end_of_round() {
            RoundDecision::Multicast(parities) => schedule = parities,
            RoundDecision::Unicast(_) | RoundDecision::Done => return Ok(()),
        }
        round += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn skipping_ruled_out_shares_changes_no_nack_round_or_outcome(c in case()) {
        sessions_agree(&c)?;
    }
}
