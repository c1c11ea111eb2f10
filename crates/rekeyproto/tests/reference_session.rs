//! One reference for the receive rules, PROTOCOL.md §5 written as plainly
//! as possible (`ReferenceSession`: `rekeymsg`, `rse` and `keytree::ident`,
//! nothing of `rekeyproto`), fed every frame as it arrives. `UserSession` is
//! fed as the byte model's transport walk feeds it: what `reads_now` names
//! at once, the rest in delivery order after the walk, only if still
//! unsatisfied. They agree on every frame the session reads (its `Received`;
//! `is_own` exactly when the reference says "mine") and at every round
//! boundary on the NACK, the success round, the current ID, the outcome
//! frame's bytes and §5's work bounds: one full row exactly when the round
//! recovered by decode, and the blocks examined and given up.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use keytree::{ident, Batch, KeyTree, MemberId, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::{
    BlockSet, EncHeader, EncPacket, Layout, NackPacket, NackRequest, Packet, SendOrder,
    UkaAssignment, UsrPacket, WireError, UNPROTECTED_HEADER_LEN,
};
use rekeyproto::{
    DecodeWork, Ignored, Received, RoundDecision, ServerConfig, ServerController, UserOutcome,
    UserSession,
};
use wirecrypto::{KeyGen, SealedKey, SymKey};

const D: u32 = 4;
const LAYOUT: Layout = Layout::DEFAULT;
/// An old ID that `maxKID = WIDE_OLD` moves past the 16-bit wire fields:
/// to its leftmost child 80001, which narrows to 14465.
const WIDE_OLD: NodeId = 20_000;
const WIDE_NARROWED: u16 = (4 * WIDE_OLD + 1) as u16;
/// An old ID past the wire width itself.
const OUTSIDER: NodeId = 70_000;

/// What a frame did, in the reference's words: `Received`, or an `Err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Mine,
    Kept,
    WrongMessage,
    OutOfRange,
    Satisfied,
    RuledOut,
    Malformed,
}

impl From<Result<Received, WireError>> for Verdict {
    fn from(did: Result<Received, WireError>) -> Self {
        match did {
            Ok(Received::Mine) => Verdict::Mine,
            Ok(Received::Kept) => Verdict::Kept,
            Ok(Received::Ignored(Ignored::WrongMessage)) => Verdict::WrongMessage,
            Ok(Received::Ignored(Ignored::OutOfRange)) => Verdict::OutOfRange,
            Ok(Received::Ignored(Ignored::Satisfied)) => Verdict::Satisfied,
            Ok(Received::Ignored(Ignored::RuledOut)) => Verdict::RuledOut,
            Err(_) => Verdict::Malformed,
        }
    }
}

/// One user's reception of one rekey message, PROTOCOL.md §5 rule by rule.
#[derive(Default)]
struct ReferenceSession {
    old_id: NodeId,
    k: usize,
    pinned: Option<u8>,
    current_id: Option<NodeId>,
    /// The message ID of the first share.
    msg_id: Option<u8>,
    estimator: Option<BlockIdEstimator>,
    max_block_seen: Option<u8>,
    /// Every share kept: the latest frame for each `(block, share index)`.
    shares: BTreeMap<(u8, usize), Arc<[u8]>>,
    given_up: BTreeSet<u8>,
    rounds: usize,
    success_round: Option<usize>,
    /// The bytes of the frame that serves the user.
    outcome: Option<Vec<u8>>,
}

/// What one round boundary did.
#[derive(Debug, Default)]
struct Boundary {
    nack: Option<NackPacket>,
    examined: u32,
    given_up: u32,
    decoded: bool,
}

impl ReferenceSession {
    /// Theorem 4.2 from the first `maxKID` heard, then the ID as the 16-bit
    /// wire fields name it: none for a user they cannot carry.
    fn wire_id(&mut self, max_kid: u16) -> Option<u16> {
        if self.current_id.is_none() {
            self.current_id = ident::derive_current_id(self.old_id, max_kid.into(), D);
        }
        self.current_id.and_then(|m| u16::try_from(m).ok())
    }

    fn succeed(&mut self, frame: &[u8]) -> Verdict {
        self.outcome = Some(frame.to_vec());
        self.success_round = Some(self.rounds + 1);
        Verdict::Mine
    }

    fn receive(&mut self, frame: &[u8]) -> Verdict {
        if self.outcome.is_some() {
            return Verdict::Satisfied;
        }
        // Step 1: a packet of this message, and a share the server can have
        // sent. ENC and PARITY have the layout's length, checked first; a
        // NACK, or a frame of another message, is read no further. An empty
        // frame reads as an ENC packet of the wrong length.
        let parsed = Packet::parse(frame, &LAYOUT);
        let (kind, msg_id) = frame.first().map_or((0, 0), |&b| (b >> 6, b & 0x3f));
        if kind < 2 && parsed.is_err() {
            return Verdict::Malformed;
        }
        if kind == 3 || self.pinned.is_some_and(|id| id != msg_id) {
            return Verdict::WrongMessage;
        }
        let (block, index, enc) = match parsed {
            Err(_) => return Verdict::Malformed,
            Ok(Packet::Usr(usr)) => {
                self.current_id = Some(usr.new_user_id.into());
                return self.succeed(frame);
            }
            Ok(Packet::Enc(p)) if usize::from(p.header().seq) < self.k => {
                let h = p.header();
                (h.block_id, usize::from(h.seq), Some(h))
            }
            Ok(Packet::Parity(p)) if self.k + usize::from(p.seq) < rse::MAX_SYMBOLS => {
                (p.block_id, self.k + usize::from(p.seq), None)
            }
            Ok(_) => return Verdict::OutOfRange,
        };
        // Step 2: mine?
        let me = enc.and_then(|h| self.wire_id(h.max_kid));
        if let (Some(h), Some(m)) = (enc, me) {
            if h.serves(m) {
                return self.succeed(frame);
            }
        }
        // Step 3: the estimate, then the share, if its block is still in it.
        self.msg_id.get_or_insert(msg_id);
        self.max_block_seen = self.max_block_seen.max(Some(block));
        if let Some(h) = enc {
            // An ID the wire fields cannot carry forms no estimate.
            let Some(m) = me else {
                return Verdict::OutOfRange;
            };
            let k = self.k;
            let estimator = self
                .estimator
                .get_or_insert_with(|| BlockIdEstimator::new(m));
            estimator.observe(&h, k, D);
        }
        if !self.in_range(block) {
            return Verdict::RuledOut;
        }
        self.shares.insert((block, index), frame.into());
        Verdict::Kept
    }

    fn in_range(&self, b: u8) -> bool {
        let range = self.estimator.as_ref().and_then(BlockIdEstimator::range);
        range.is_none_or(|(lo, hi)| (lo..=hi).contains(&u32::from(b)))
    }

    /// The shares kept of block `b`, by share index.
    fn block(&self, b: u8) -> impl Iterator<Item = (usize, &Arc<[u8]>)> {
        (self.shares.range((b, 0)..=(b, usize::MAX))).map(|(&(_, index), frame)| (index, frame))
    }

    fn end_of_round(&mut self) -> Boundary {
        let mut did = Boundary::default();
        if self.outcome.is_none() {
            self.decode(&mut did);
        }
        self.rounds += 1;
        if self.outcome.is_none() {
            did.nack = Some(self.nack());
        }
        did
    }

    /// Every candidate block with `k` shares that was not given up, lowest
    /// first: decoded in full, its missing packets taken by the bracket rule.
    fn decode(&mut self, did: &mut Boundary) {
        let msg_id = self.msg_id.unwrap_or(0);
        let blocks: BTreeSet<u8> = self.shares.keys().map(|&(b, _)| b).collect();
        for b in blocks {
            if self.block(b).count() < self.k || !self.in_range(b) || self.given_up.contains(&b) {
                continue;
            }
            let shares: Vec<rse::Share> = (self.block(b))
                .map(|(index, frame)| rse::Share {
                    index,
                    data: frame[UNPROTECTED_HEADER_LEN..].to_vec(),
                })
                .collect();
            let Ok(rows) = rse::Decoder::new(self.k).and_then(|mut dec| dec.decode(&shares)) else {
                continue;
            };
            did.examined += 1;
            let bracket = self.bracket(b);
            let missing = (0..self.k).filter(|&seq| !self.shares.contains_key(&(b, seq)));
            let (inside, outside): (Vec<usize>, Vec<usize>) =
                missing.partition(|seq| bracket.contains(seq));
            for seq in inside.into_iter().chain(outside) {
                let Ok(h) = EncHeader::from_fec_body(&rows[seq], msg_id, b, seq as u8) else {
                    continue;
                };
                // A user that heard only parity learns its ID here.
                let Some(m) = self.wire_id(h.max_kid) else {
                    return;
                };
                if h.serves(m) {
                    self.succeed(&[&[msg_id, b, seq as u8][..], &rows[seq]].concat());
                    did.decoded = true;
                    return;
                }
            }
            self.given_up.insert(b);
            did.given_up += 1;
        }
    }

    /// Where UKA's ID order puts the user's packet in block `b`: after every
    /// held non-duplicate header below the user's ID, before the first one
    /// above it. The whole block while the ID is unknown.
    fn bracket(&self, b: u8) -> Range<usize> {
        let mut bracket = 0..self.k;
        let Some(m) = self.current_id.and_then(|m| u16::try_from(m).ok()) else {
            return bracket;
        };
        for (seq, frame) in self.block(b).filter(|&(seq, _)| seq < self.k) {
            let Ok(Packet::Enc(p)) = Packet::parse(frame, &LAYOUT) else {
                continue;
            };
            let h = p.header();
            if h.duplicate {
            } else if h.to_id < m {
                bracket.start = seq + 1;
            } else if h.frm_id > m {
                bracket.end = bracket.end.min(seq);
            }
        }
        bracket
    }

    /// `k - held` for each block of the estimate's range that is short of
    /// `k`. Before a header bounds it, the range runs from the estimate's
    /// low end (0 without one) to the highest block heard. When every block
    /// in it holds `k`, the lowest is asked for again in full.
    fn nack(&self) -> NackPacket {
        let estimate = self.estimator.as_ref();
        let range = estimate.and_then(BlockIdEstimator::range);
        let (lo, hi) = match (range, self.max_block_seen) {
            (Some(range), _) => range,
            (None, Some(top)) => {
                let low = estimate.map_or(0, BlockIdEstimator::low);
                (low.min(top.into()), top.into())
            }
            (None, None) => (0, 0),
        };
        let need = |b: u32| self.k.saturating_sub(self.block(b as u8).count()) as u8;
        let short = (lo..=hi.min(255)).filter(|&b| need(b) > 0);
        let mut requests: Vec<NackRequest> = short.map(|b| request(need(b), b as u8)).collect();
        if requests.is_empty() {
            requests.push(request(self.k as u8, lo as u8));
        }
        let msg_id = self.msg_id.unwrap_or(0);
        NackPacket { msg_id, requests }
    }
}

/// The reference, fed every frame at once, and the session, fed as the walk
/// feeds it.
struct Pair {
    reference: ReferenceSession,
    session: UserSession,
    /// What the session's latest recovery decoded.
    work: DecodeWork,
}

impl Pair {
    fn new(old_id: NodeId, k: usize, pinned: bool) -> Self {
        let mut reference = ReferenceSession::default();
        (reference.old_id, reference.k, reference.pinned) = (old_id, k, pinned.then_some(1));
        let mut session = UserSession::new(old_id, D, k, LAYOUT);
        if pinned {
            session = session.expect_msg_id(1);
        }
        Pair {
            reference,
            session,
            work: DecodeWork::default(),
        }
    }

    /// One round: `frames` in delivery order, then the boundary. Returns
    /// what the reference said of each frame, and the NACK.
    fn round(&mut self, frames: &[Arc<[u8]>]) -> Result<Round, TestCaseError> {
        let (mut deferred, mut stopped, mut heard) = (Vec::new(), false, Vec::new());
        for (at, frame) in frames.iter().enumerate() {
            let said = self.reference.receive(frame);
            heard.push(said);
            // The walk ends where the session takes its own frame.
            if stopped {
                continue;
            }
            let own = self.session.is_own(frame);
            prop_assert_eq!(own, said == Verdict::Mine, "is_own of frame {}", at);
            if self.session.reads_now(frame) {
                let did = Verdict::from(self.session.receive_frame(frame));
                prop_assert_eq!(did, said, "frame {}", at);
                stopped = self.session.is_satisfied();
            } else {
                deferred.push((at, frame, said));
            }
        }
        if !self.session.is_satisfied() {
            for (at, frame, said) in deferred {
                let did = Verdict::from(self.session.receive_frame(frame));
                prop_assert_eq!(did, said, "deferred frame {}", at);
            }
        }
        self.work = self.session.recover_in(&mut rse::DecodeCtx::default());
        let nack = self.session.close_round();
        let want = self.reference.end_of_round();
        let (session, reference) = (&self.session, &self.reference);
        prop_assert_eq!(&nack, &want.nack);
        prop_assert_eq!(session.rounds_to_success(), reference.success_round);
        prop_assert_eq!(session.current_id(), reference.current_id);
        let held = match session.outcome() {
            UserOutcome::Enc(frame) => Some(frame.to_packet().emit()),
            UserOutcome::Usr(usr) => Some(usr.emit()),
            UserOutcome::Pending => None,
        };
        prop_assert_eq!(held, reference.outcome.clone());
        let work = self.work;
        prop_assert_eq!(
            (work.full_rows, work.blocks, work.exhausted),
            (u32::from(want.decoded), want.examined, want.given_up)
        );
        Ok((heard, nack))
    }
}

/// What the reference said of each frame of a round, and the NACK.
type Round = (Vec<Verdict>, Option<NackPacket>);

fn request(count: u8, block_id: u8) -> NackRequest {
    NackRequest { count, block_id }
}

fn frame(pkt: &Packet) -> Arc<[u8]> {
    pkt.emit(&LAYOUT).into()
}

/// `pkt` under the fixed fields `header`, its pairs as they were.
fn relabel(pkt: &EncPacket, header: EncHeader) -> EncPacket {
    EncPacket::new(header, pkt.entries(), &LAYOUT).unwrap()
}

/// `h` with lying fixed fields, by `salt`, aimed at the user whose ID was
/// `old_id` before the batch and is `me` after it.
fn lying(mut h: EncHeader, me: Option<u16>, old_id: NodeId, k: usize, salt: u64) -> EncHeader {
    let r = (salt >> 8) as u16;
    let m = me.unwrap_or(h.frm_id);
    match salt % 8 {
        // A range near the user's ID, which may take it in.
        0 => {
            h.frm_id = m.saturating_sub(3).saturating_add(r % 6);
            h.to_id = h.frm_id.saturating_add(r >> 8 & 3);
        }
        // The far side of the user.
        1 => (h.frm_id, h.to_id) = [(1, 1), (60_000, 60_000)][usize::from(h.to_id < m)],
        // A maxKID under which the user rederives another ID, or none.
        2 => h.max_kid = [h.max_kid / 2 + r % 7, 6_000 + r % 9_000][usize::from(r >> 15)],
        // The ID a user that `maxKID` moves past the wire width narrows to.
        3 => (h.max_kid, h.frm_id, h.to_id) = (WIDE_OLD as u16, WIDE_NARROWED, WIDE_NARROWED),
        // The ID the user would hold under another maxKID: its own only if
        // that maxKID is the first the user hears.
        4 => {
            h.max_kid = h.max_kid.saturating_mul(4).saturating_add(3);
            let moved = ident::derive_current_id(old_id, h.max_kid.into(), D);
            h.frm_id = moved.and_then(|id| u16::try_from(id).ok()).unwrap_or(m);
            h.to_id = h.frm_id;
        }
        5 => h.msg_id = 2,
        // A share index past the block.
        6 => h.seq = (k + usize::from(r % 8)) as u8,
        _ => {}
    }
    h
}

/// A forged copy of `pkt`'s frame, by `salt`: a truncated prefix, lying
/// fixed fields, or a PARITY past the last code symbol or of another message.
fn forged(pkt: &Packet, me: Option<u16>, old_id: NodeId, k: usize, salt: u64) -> Arc<[u8]> {
    let whole = frame(pkt);
    match (pkt, salt % 4) {
        (_, 0) => Arc::from(&whole[..(salt >> 2) as usize % whole.len()]),
        (Packet::Enc(e), _) => {
            let lie = lying(e.header(), me, old_id, k, salt >> 2);
            frame(&Packet::Enc(relabel(e, lie)))
        }
        (Packet::Parity(p), _) => {
            let mut p = p.clone();
            p.seq = [(rse::MAX_SYMBOLS - k) as u8, p.seq][(salt >> 2) as usize % 2];
            p.msg_id = [1, 2][(salt >> 3) as usize % 2];
            frame(&Packet::Parity(p))
        }
        _ => whole,
    }
}

/// One case: a real message and how it reaches one user, drawn from `seed`.
fn real_message_case(k: usize, seed: u64) -> TestCaseResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (n, leave_pct) = (rng.gen_range(16..1200), rng.gen_range(1..40));
    let mut kg = KeyGen::from_seed(seed);
    let mut tree = KeyTree::balanced(n, D, &mut kg);
    let before = tree.clone();
    let leaves: Vec<MemberId> = (0..n)
        .filter(|&m| (u64::from(m) ^ seed).wrapping_mul(0x9E37_79B9) % 100 < leave_pct)
        .take(n as usize - 1)
        .collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &LAYOUT).unwrap();
    let mut packets = assignment.packets;

    // The user: a member, from its ID before the batch, or now and then one
    // whose ID the wire cannot carry.
    let mut members = tree.member_ids();
    members.sort_unstable();
    let member = members[rng.gen_range(0..members.len())];
    let (old_id, me) = match rng.gen_range(0..8u8) {
        0 => (WIDE_OLD, None),
        1 => (OUTSIDER, None),
        _ => {
            let now = u16::try_from(tree.node_of_member(member).unwrap()).ok();
            (before.node_of_member(member).unwrap(), now)
        }
    };
    // A packet of the user's block may lie, built into the message: the
    // code is consistent with the lie.
    let mine = me.and_then(|m| packets.iter().position(|p| p.serves(m)));
    let liar = mine.unwrap_or(0) / k * k + rng.gen_range(0..k);
    if let (Some(pkt), true) = (packets.get(liar), Some(liar) != mine) {
        let salt = rng.next_u64();
        let lie = lying(pkt.header(), me, old_id, k, (salt & !7) | (salt % 5));
        packets[liar] = relabel(pkt, lie);
    }
    // A NACK, or a USR frame of this message (whole or cut) or another one.
    let sealed = vec![SealedKey::from_bytes([3; 20]); 2];
    let new_user_id = me.unwrap_or(1003);
    let usr = |msg_id| {
        frame(&Packet::Usr(UsrPacket {
            msg_id,
            new_user_id,
            sealed,
        }))
    };
    let mut extra = match rng.gen_range(0..8u8) {
        0 => Some(usr(1)),
        1 => Some(usr(2)),
        2 => Some(Arc::from(&usr(1)[..10])),
        3 => Some(frame(&Packet::Nack(NackPacket::default()))),
        _ => None,
    };
    // How the message reaches the user: loss; forgeries (of the user's own
    // packet one in two while there are any); parity only; the own packet
    // lost; every frame heard twice; the session pinned to message 1.
    let loss_pct: u64 = [0, 10, 30, 60][rng.gen_range(0..4usize)];
    let forge_pct: u64 = [0, 5, 20][rng.gen_range(0..3usize)];
    let [parity_only, lose_mine, twice, pinned, sequential] = [(); 5].map(|()| rng.gen::<bool>());

    let controller = ServerController::new(ServerConfig {
        block_size: k,
        initial_rho: rng.gen_range(1.0..2.5),
        adapt_rho: false,
        max_multicast_rounds: rng.gen_range(1..4),
        send_order: [SendOrder::Interleaved, SendOrder::Sequential][usize::from(sequential)],
        ..ServerConfig::default()
    });
    let mut server = controller.begin_message(packets, 100);
    let mut pair = Pair::new(old_id, k, pinned);
    let mut schedule = server.start();
    loop {
        let mut frames = Vec::new();
        for pkt in &schedule {
            let (salt, lost) = (rng.next_u64(), rng.gen_range(0..100u64) < loss_pct);
            let enc = matches!(pkt, Packet::Enc(_));
            let own = matches!(pkt, Packet::Enc(e) if me.is_some_and(|m| e.serves(m)));
            let lost = lost || (enc && parity_only) || (own && lose_mine);
            let forge = forge_pct > 0 && (salt % 100 < forge_pct || own && salt & 128 == 0);
            let real = (!lost).then(|| frame(pkt));
            let fake = forge.then(|| forged(pkt, me, old_id, k, salt >> 9));
            // The forgery comes before the real frame or after it.
            let mut heard = [fake, real];
            heard.rotate_left((salt >> 8 & 1) as usize);
            for f in heard.into_iter().flatten() {
                frames.extend(std::iter::repeat_n(f, 1 + usize::from(twice)));
            }
        }
        if let Some(f) = extra.take() {
            frames.insert(rng.gen_range(0..=frames.len()), f);
        }
        if let (_, Some(nack)) = pair.round(&frames)? {
            server.accept_nack(old_id, &nack);
        }
        match server.end_of_round() {
            RoundDecision::Multicast(parities) => schedule = parities,
            RoundDecision::Unicast(_) | RoundDecision::Done => return Ok(()),
        }
    }
}

proptest! {
    // A debug build runs a sample; tools/ci.sh runs the full set in --release.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 512 }))]

    #[test]
    fn the_session_ends_every_round_where_the_reference_does(
        k in proptest::sample::select(vec![1usize, 3, 10, 32]),
        seed in any::<u64>(),
    ) {
        real_message_case(k, seed)?;
    }
}

/// The blocks of `n` ENC packets of message 1, one user each: IDs 100..
/// under `maxKID` 40 (degree 4: nobody moves).
fn toy_message(n: u16, k: usize) -> BlockSet {
    let packets = (0..n).map(|i| {
        let mut header = EncHeader::default();
        (header.msg_id, header.max_kid, header.frm_id, header.to_id) = (1, 40, 100 + i, 100 + i);
        let kek = SymKey::from_bytes([i as u8; 16]);
        let sealed = SealedKey::seal(&kek, &SymKey::from_bytes([1; 16]), 0);
        EncPacket::new(header, [(100 + i, sealed)], &LAYOUT).unwrap()
    });
    BlockSet::new(packets.collect(), k, LAYOUT)
}

/// A user whose ID does not fit the 16-bit wire fields is served by no ENC
/// packet: narrowing 65536 + 30000 to 30000 would claim the packet of user
/// 30000 (and then fail to unseal it). It still NACKs for what it saw.
#[test]
fn id_beyond_the_wire_width_claims_no_packet() -> TestCaseResult {
    let blocks = toy_message(1, 3);
    let pkt = &blocks.block(0).unwrap().packets[0];
    // Theorem 4.2 keeps both users where they are: maxKID < id <= 4 maxKID + 4.
    let mut lie = pkt.header();
    (lie.max_kid, lie.frm_id, lie.to_id) = (25_000, 29_990, 30_010);
    let heard = [frame(&Packet::Enc(relabel(pkt, lie)))];
    let wide = 65_536 + 30_000;
    let mut pair = Pair::new(wide, 3, false);
    let (said, nack) = pair.round(&heard)?;
    prop_assert_eq!(said, [Verdict::OutOfRange]);
    prop_assert_eq!(pair.session.current_id(), Some(wide));
    prop_assert_eq!(nack.expect("unsatisfied").requests[0].block_id, 0);
    let (narrow, _) = Pair::new(30_000, 3, false).round(&heard)?;
    prop_assert_eq!(narrow, [Verdict::Mine]);
    Ok(())
}

/// A frame that is no packet under the layout is an error, not a panic and
/// not a share; one from another rekey message is ignored by a pinned
/// session. Nothing of either leaves a trace: the NACK is the total-loss one.
#[test]
fn malformed_and_foreign_frames() -> TestCaseResult {
    let blocks = toy_message(3, 3);
    let pkt = &blocks.block(0).unwrap().packets[0];
    let good = frame(&Packet::Enc(pkt.clone()));
    let mut foreign = pkt.header();
    foreign.msg_id = 2;
    let heard = [
        Arc::from(&good[..500]),
        Arc::from(&[][..]),
        frame(&Packet::Enc(relabel(pkt, foreign))),
        frame(&Packet::Nack(NackPacket::default())),
    ];
    let mut pair = Pair::new(101, 3, true);
    let (said, nack) = pair.round(&heard)?;
    use Verdict::{Kept, Malformed, WrongMessage};
    prop_assert_eq!(said, [Malformed, Malformed, WrongMessage, WrongMessage]);
    prop_assert_eq!(nack.unwrap().requests, [request(3, 0)]);
    prop_assert_eq!(pair.round(&[good])?.0, [Kept]);
    Ok(())
}

/// Share indices the server cannot have sent are dropped at the door: a
/// forged ENC with `seq = k` would overwrite the real parity held at index
/// `k + 0` and the decode would produce garbage; a forged PARITY with
/// `k + seq = 255`, counted as held, would make the NACK ask for one parity
/// too few.
#[test]
fn forged_share_indices_change_neither_nack_nor_decode() -> TestCaseResult {
    let k = 3;
    let mut blocks = toy_message(6, k);
    let parities = blocks.mint_parities(0, 2).unwrap();
    let b0 = &blocks.block(0).unwrap().packets;
    let mut past_k = b0[2].header();
    (past_k.seq, past_k.frm_id, past_k.to_id) = (k as u8, 300, 300);
    let mut past_last = parities[0].clone();
    past_last.seq = (rse::MAX_SYMBOLS - k) as u8;
    // User 101's packet is block 0, seq 1; it hears seq 0, one parity and
    // the first packet of block 1, which pins its block (and so rules block
    // 1 out), then the two forgeries.
    let heard = [
        Packet::Enc(b0[0].clone()),
        Packet::Parity(parities[0].clone()),
        Packet::Enc(blocks.block(1).unwrap().packets[0].clone()),
        Packet::Enc(relabel(&b0[2], past_k)),
        Packet::Parity(past_last),
    ];
    let mut pair = Pair::new(101, k, false);
    let (said, nack) = pair.round(&heard.iter().map(frame).collect::<Vec<_>>())?;
    use Verdict::{Kept, OutOfRange, RuledOut, Satisfied};
    prop_assert_eq!(said, [Kept, Kept, RuledOut, OutOfRange, OutOfRange]);
    prop_assert_eq!(nack.unwrap().requests, [request(1, 0)]);
    let (said, nack) = pair.round(&[frame(&Packet::Parity(parities[1].clone()))])?;
    prop_assert_eq!((said, nack), (vec![Kept], None));
    prop_assert_eq!(&pair.reference.outcome, &Some(b0[1].emit()));
    let late = frame(&Packet::Enc(b0[1].clone()));
    prop_assert_eq!(Verdict::from(pair.session.receive_frame(&late)), Satisfied);
    Ok(())
}

/// A second frame for a `(block, share index)` already held replaces the
/// first and is not counted twice: heard after the real packet, a forgery
/// is what the block decodes from (to nothing of use); heard before it, the
/// forgery is gone by the time the block decodes. Its header goes with it:
/// the bracket reads the IDs of the frame held, so the forgery's, above the
/// user, leave both missing rows outside it, and the real one's put the
/// user's row inside, probed first.
#[test]
fn a_second_frame_for_a_held_share_replaces_the_first() -> TestCaseResult {
    let k = 3;
    let mut blocks = toy_message(6, k);
    let parities = blocks.mint_parities(0, 2).unwrap();
    let b0 = &blocks.block(0).unwrap().packets;
    let real = frame(&Packet::Enc(b0[0].clone()));
    let mut lie = b0[0].header();
    (lie.frm_id, lie.to_id) = (300, 300);
    let forged = frame(&Packet::Enc(relabel(&b0[0], lie)));
    let [first, second] = [0, 1].map(|i| frame(&Packet::Parity(parities[i].clone())));
    // User 101's packet is block 0, seq 1.
    let cases = [
        ([&real, &forged], false, (2, 2)),
        ([&forged, &real], true, (1, 0)),
    ];
    for (heard, recovers, probed) in cases {
        let mut pair = Pair::new(101, k, true);
        let (_, nack) = pair.round(&[heard[0].clone(), first.clone(), heard[1].clone()])?;
        let nack = nack.expect("two distinct shares of three");
        prop_assert_eq!(nack.requests[0].count, 1, "the repeated index counts once");
        pair.round(std::slice::from_ref(&second))?;
        let work = pair.work;
        prop_assert_eq!(work.blocks, 1);
        prop_assert_eq!(
            (work.rows, work.fallback_rows),
            probed,
            "rows, outside the bracket"
        );
        let expect = [None, Some(b0[1].emit())];
        prop_assert_eq!(&pair.reference.outcome, &expect[usize::from(recovers)]);
    }
    Ok(())
}

/// Blocks that decode without the user's packet are planned once, not once
/// a round: a user that heard only parity has no block estimate, examines
/// every packet of blocks 0 and 1 by its header at the first boundary (and
/// rebuilds none in full), and at the second, with nothing new, plans
/// nothing. The last share of block 2 then recovers its packet on the
/// second row: no header was heard, so no bracket, and the order is plain
/// ascending.
#[test]
fn a_block_without_the_users_packet_is_planned_exactly_once() -> TestCaseResult {
    let k = 3;
    let mut blocks = toy_message(9, k);
    // User 107's packet is block 2, seq 1.
    let mut pair = Pair::new(107, k, true);
    // Per round: the fresh parities heard per block, then the work done:
    // blocks, rows, fallback rows, full rows, blocks given up.
    let rounds: [(&[_], [u32; 5]); 3] = [
        (&[(0, k), (1, k), (2, k - 1)], [2, 2 * k as u32, 0, 0, 2]),
        (&[], [0; 5]),
        (&[(2, 1)], [1, 2, 0, 1, 0]),
    ];
    for (heard, expect) in rounds {
        let mint = |&(b, count): &(usize, usize)| blocks.mint_parities(b, count).unwrap();
        let parities = heard.iter().flat_map(mint);
        pair.round(
            &parities
                .map(|p| frame(&Packet::Parity(p)))
                .collect::<Vec<_>>(),
        )?;
        let w: DecodeWork = pair.work;
        let did = [w.blocks, w.rows, w.fallback_rows, w.full_rows, w.exhausted];
        prop_assert_eq!(did, expect);
    }
    prop_assert_eq!(pair.session.rounds_to_success(), Some(3));
    Ok(())
}
