//! The user side of the rekey transport protocol (Figures 3 and 27).

use std::sync::Arc;

use keytree::{ident, NodeId};
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::{
    EncFrame, EncHeader, Header, Layout, NackPacket, NackRequest, Packet, UsrPacket, WireError,
    PROTECTED_HEADER_LEN, UNPROTECTED_HEADER_LEN,
};

/// How a user ended up with its keys (or didn't).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserOutcome {
    /// Received its specific ENC packet — the delivered frame itself, kept
    /// by reference count — or FEC-decoded it.
    Enc(EncFrame),
    /// Served by unicast.
    Usr(UsrPacket),
    /// Still waiting.
    Pending,
}

/// What [`UserSession::receive_frame`] did with a well-formed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Received {
    /// The user's own ENC packet (the frame is kept as it lies) or a USR
    /// packet (parsed in full): satisfied.
    Mine,
    /// Another user's ENC packet, or a PARITY packet: held as a FEC share.
    Kept,
    /// Nothing was read past the header and nothing is held.
    Ignored(Ignored),
}

/// Why a frame was ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ignored {
    /// Of another rekey message than the session is pinned to, or a NACK.
    WrongMessage,
    /// No share the server can have sent (ENC `seq >= k`, PARITY past the
    /// code's last symbol), or an ENC frame at a user no ENC packet can name.
    OutOfRange,
    /// The session already holds what it needs.
    Satisfied,
    /// A share of a block outside the block-ID estimate (Appendix D): no
    /// decode or NACK looks at that block again, so it is not held.
    RuledOut,
}

/// A frame's header read against a session ([`UserSession::classify`]).
enum Class {
    /// Turned away before anything is recorded.
    Ignored(Ignored),
    /// A USR packet, parsed: the user's own.
    Usr(UsrPacket),
    /// The ENC packet that serves the user.
    OwnEnc,
    /// An ENC packet that does not serve the user, or a PARITY packet: a
    /// share the server can have sent. An ENC one carries its header and
    /// the user's ID as the wire names it (`None`: no ENC packet can).
    Share {
        msg_id: u8,
        block_id: u8,
        index: usize,
        enc: Option<(EncHeader, Option<u16>)>,
    },
}

/// What one round boundary's FEC recovery did, for whoever counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Blocks with `k` shares that were validated for decoding.
    pub blocks: u32,
    /// Missing data packets examined: each rebuilt as far as its header.
    pub rows: u32,
    /// Of those, the ones outside the bracket the received headers gave.
    pub fallback_rows: u32,
    /// Of those, the ones rebuilt in full: the one that serves the user.
    pub full_rows: u32,
    /// Blocks whose every missing packet was examined without finding the
    /// user's.
    pub exhausted: u32,
}

/// A FEC share a session holds.
#[derive(Debug)]
struct HeldShare {
    block: u8,
    /// The share index: an ENC `seq`, or `k` past a PARITY `seq` (< 256).
    index: u8,
    /// `[frm_id, to_id]` as a non-duplicate ENC share's header names them,
    /// read when the frame arrived; `None` for PARITY and duplicates.
    ids: Option<[u16; 2]>,
    /// The frame as it arrived; its FEC body is what the server's parity
    /// was computed over.
    frame: Arc<[u8]>,
}

/// Per-message user state machine.
///
/// Feed every frame the user receives through [`UserSession::receive_frame`];
/// at each round boundary call [`UserSession::end_of_round`], which either
/// reports success or produces the NACK to send. FEC decoding is attempted
/// at round boundaries, one data packet at a time, the likeliest first.
#[derive(Debug)]
pub struct UserSession {
    /// The u-node ID held before this message until `id_known`, then the
    /// current one (rederived from `maxKID`, or named by a USR packet).
    id: NodeId,
    id_known: bool,
    layout: Layout,
    /// Wire message ID this session accepts (`None` = first seen wins).
    expected_msg_id: Option<u8>,
    msg_id: Option<u8>,
    /// Received shares in arrival order. One entry per share `search`
    /// holds.
    shares: Vec<HeldShare>,
    /// The receive rules, and which `(block, share index)` are in `shares`.
    search: BlockSearch,
    outcome: UserOutcome,
    /// Round boundaries closed unsatisfied: a success comes in the round
    /// after them (1 = within the first round).
    rounds: u16,
}

impl UserSession {
    /// Creates the session. `old_id` is the u-node ID the user held before
    /// the batch (for a newly joined user, the ID granted at admission).
    pub fn new(old_id: NodeId, d: u32, k: usize, layout: Layout) -> Self {
        UserSession {
            id: old_id,
            id_known: false,
            layout,
            expected_msg_id: None,
            msg_id: None,
            shares: Vec::new(),
            search: BlockSearch::new(k, d),
            outcome: UserOutcome::Pending,
            rounds: 0,
        }
    }

    /// Restricts the session to one wire message ID: packets from other
    /// rekey messages (late retransmissions, overlap at the 6-bit
    /// wrap-around) are ignored instead of poisoning the share sets.
    pub fn expect_msg_id(mut self, msg_id: u8) -> Self {
        self.expected_msg_id = Some(msg_id & 0x3f);
        self
    }

    /// The user's current (rederived) ID, once known.
    pub fn current_id(&self) -> Option<NodeId> {
        self.id_known.then_some(self.id)
    }

    /// The wire layout frames are read under.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// True once the user holds everything it needs.
    pub fn is_satisfied(&self) -> bool {
        !matches!(self.outcome, UserOutcome::Pending)
    }

    /// The outcome so far.
    pub fn outcome(&self) -> &UserOutcome {
        &self.outcome
    }

    /// Number of rounds the user needed (defined once satisfied).
    pub fn rounds_to_success(&self) -> Option<usize> {
        self.is_satisfied().then(|| usize::from(self.rounds) + 1)
    }

    /// Handles one received packet: [`UserSession::receive_frame`] on its
    /// wire bytes, for callers that hold the struct.
    pub fn receive(&mut self, pkt: &Packet) {
        // A packet that emits is well-formed, so there is no error to pass on.
        let _ = self.receive_frame(&Arc::from(pkt.emit(&self.layout)));
    }

    /// Handles one received frame: a packet's wire bytes, shared among
    /// everyone it was delivered to. The header is read in place; the one
    /// ENC frame that serves this user is kept as it lies, a USR packet is
    /// parsed in full, and any other ENC/PARITY frame is held by reference
    /// count as a FEC share — a second frame for a `(block, share index)`
    /// already held replaces the first and is not counted twice — unless
    /// the block-ID estimate, having seen this header, rules its block out.
    /// `Err` is a frame that is not a packet under the layout.
    pub fn receive_frame(&mut self, frame: &Arc<[u8]>) -> Result<Received, WireError> {
        let (msg_id, block_id, index, enc) = match self.classify(frame)? {
            Class::Ignored(why) => return Ok(Received::Ignored(why)),
            Class::Usr(usr) => {
                (self.id, self.id_known) = (NodeId::from(usr.new_user_id), true);
                self.succeed(UserOutcome::Usr(usr));
                return Ok(Received::Mine);
            }
            Class::OwnEnc => {
                let mine = EncFrame::new(Arc::clone(frame), &self.layout)?;
                self.succeed(UserOutcome::Enc(mine));
                return Ok(Received::Mine);
            }
            Class::Share {
                msg_id,
                block_id,
                index,
                enc,
            } => (msg_id, block_id, index, enc),
        };
        self.msg_id.get_or_insert(msg_id);
        let header = enc.as_ref().map(|(header, id)| (header, *id));
        let fresh = match self.search.record(block_id, index, header) {
            Ok(fresh) => fresh,
            Err(why) => return Ok(Received::Ignored(why)),
        };
        let share = HeldShare {
            block: block_id,
            // `record` took it: below 256.
            index: index as u8,
            ids: enc
                .filter(|(h, _)| !h.duplicate)
                .map(|(h, _)| [h.frm_id, h.to_id]),
            frame: Arc::clone(frame),
        };
        if fresh {
            if self.shares.capacity() == 0 {
                // Two blocks' worth: the one being heard and the next.
                self.shares.reserve_exact(2 * self.search.k);
            }
            self.shares.push(share);
        } else if let Some(held) =
            (self.shares.iter_mut()).find(|s| (s.block, usize::from(s.index)) == (block_id, index))
        {
            *held = share;
        }
        Ok(Received::Kept)
    }

    /// True exactly when [`UserSession::receive_frame`] would answer
    /// `Ok(Mine)` for `frame`: the user's own ENC packet, or a USR packet
    /// that parses. It records only what `receive_frame` would record
    /// first: the current ID, rederived from the first ENC header that
    /// yields one, and never changed after. An ENC or PARITY frame costs
    /// the header read and no allocation.
    // xcheck: no_alloc
    pub fn is_own(&mut self, frame: &[u8]) -> bool {
        matches!(self.classify(frame), Ok(Class::Usr(_) | Class::OwnEnc))
    }

    /// Whether a receiver that defers frames must feed `frame` to
    /// [`UserSession::receive_frame`] at once: the user's own, or any while
    /// the current ID is unknown, which read later would be read under an
    /// ID a later frame taught. Fed the rest later, in delivery order, the
    /// session ends where feeding them at once would.
    // xcheck: no_alloc
    pub fn reads_now(&mut self, frame: &[u8]) -> bool {
        self.is_own(frame) || !self.id_known
    }

    /// The one reading of a frame's header against the session that
    /// [`UserSession::receive_frame`] and [`UserSession::is_own`] share:
    /// what stops at the door, whether the frame is the user's own, and
    /// otherwise which share it is. The current ID is rederived here.
    fn classify(&mut self, frame: &[u8]) -> Result<Class, WireError> {
        if self.is_satisfied() {
            return Ok(Class::Ignored(Ignored::Satisfied));
        }
        let (msg_id, header) = Packet::header(frame, &self.layout)?;
        let foreign = self.expected_msg_id.is_some_and(|id| id != msg_id);
        let (block_id, seq, enc) = match header {
            Header::Nack => return Ok(Class::Ignored(Ignored::WrongMessage)),
            _ if foreign => return Ok(Class::Ignored(Ignored::WrongMessage)),
            Header::Usr => {
                return match Packet::parse(frame, &self.layout)? {
                    Packet::Usr(usr) => Ok(Class::Usr(usr)),
                    // `parse` and `header` read the same type bits.
                    _ => Ok(Class::Ignored(Ignored::WrongMessage)),
                };
            }
            Header::Enc(enc) => (enc.block_id, enc.seq, Some(enc)),
            Header::Parity { block_id, seq } => (block_id, seq, None),
        };
        let index = match self.search.index(enc.is_some(), seq) {
            Ok(index) => index,
            Err(why) => return Ok(Class::Ignored(why)),
        };
        let (id, known, d) = (&mut self.id, &mut self.id_known, self.search.d);
        let enc = enc.map(|h| (h, wire_id(id, known, d, h.max_kid)));
        if let Some((enc, Some(m16))) = enc {
            if enc.serves(m16) {
                return Ok(Class::OwnEnc);
            }
        }
        Ok(Class::Share {
            msg_id,
            block_id,
            index,
            enc,
        })
    }

    fn succeed(&mut self, outcome: UserOutcome) {
        self.outcome = outcome;
        // The user needs no share any more.
        (self.shares, self.search.blocks) = (Vec::new(), Vec::new());
    }

    /// FEC recovery, the first half of a round boundary: attempts decoding
    /// of every candidate block with >= k shares not yet exhausted, in
    /// `ctx` — a context the caller lends and keeps, so a recovery
    /// allocates only the frame it rebuilds — and on success keeps the
    /// specific ENC packet. Returns what it decoded, for whoever counts it.
    /// [`UserSession::close_round`] is the other half.
    ///
    /// UKA orders packets by user ID, so the non-duplicate ENC headers held
    /// for a block — read when each frame arrived — bracket the `seq` the
    /// user's packet can have. The missing packets inside the bracket are
    /// examined first, the rest after them: each is rebuilt only as far as
    /// its header (six bytes, the same `k` passes), and only the one that
    /// serves is rebuilt in full, straight into its frame. The bracket only
    /// orders the work: every missing packet is examined before a block is
    /// given up, so headers that lie cost time, not the key. `current_id`
    /// is not required up front: a user that heard parity only has no
    /// bracket and learns `maxKID` from the first header rebuilt.
    pub fn recover_in(&mut self, ctx: &mut rse::DecodeCtx) -> DecodeWork {
        let mut work = DecodeWork::default();
        // A `k` that is no valid block size decodes nothing, ever.
        let k = self.search.k;
        let (false, Ok(decoder)) = (self.is_satisfied(), rse::Decoder::new(k)) else {
            return work;
        };
        // Every block with k shares, inside the estimated range if there is one.
        let msg_id = self.msg_id.unwrap_or(0);
        let mut found = None;
        'blocks: for b in 0..=self.search.max_block_seen.unwrap_or(0) {
            if !self.search.full(b) {
                continue;
            }
            // The decoder takes the block's `k` lowest share indices (one
            // frame each, `BlockSearch` saw to that): which `k` is defined.
            let Some(last) = self.search.kth_index(b) else {
                continue;
            };
            let block = self.shares.iter().filter(|s| s.block == b);
            // The held frames are borrowed, and only rows that did not
            // arrive are rebuilt: an ENC packet that arrived does not serve
            // this user, or the session would be satisfied.
            let chosen = (block.clone()).filter(|s| usize::from(s.index) <= last);
            let bodies = chosen.map(|s| (s.index.into(), &s.frame[UNPROTECTED_HEADER_LEN..]));
            let Ok(missing) = decoder.decode_missing_in(ctx, bodies) else {
                continue;
            };
            work.blocks += 1;
            let (mut lo, mut hi) = (0, k);
            if let Some(m) = self.current_id().and_then(|m| u16::try_from(m).ok()) {
                for (s, index) in block.map(|s| (s, usize::from(s.index))).filter(|s| s.1 < k) {
                    match s.ids {
                        Some([_, to_id]) if to_id < m => lo = lo.max(index + 1),
                        Some([frm_id, _]) if frm_id > m => hi = hi.min(index),
                        _ => {}
                    }
                }
            }
            let bracket = lo..hi;
            let inside = missing.indices().filter(|seq| bracket.contains(seq));
            let outside = missing.indices().filter(|seq| !bracket.contains(seq));
            for seq in inside.chain(outside) {
                let mut fixed = [0; PROTECTED_HEADER_LEN];
                if missing.prefix_into(seq, &mut fixed).is_err() {
                    continue;
                }
                work.rows += 1;
                work.fallback_rows += u32::from(!bracket.contains(&seq));
                let Ok(h) = EncHeader::from_fec_body(&fixed, msg_id, b, seq as u8) else {
                    continue;
                };
                let id = wire_id(&mut self.id, &mut self.id_known, self.search.d, h.max_kid);
                let Some(m16) = id else { return work };
                if h.serves(m16) {
                    // The one packet that serves: the rest of it, in place.
                    work.full_rows += 1;
                    let mut rebuilt = Ok(());
                    let frame =
                        EncFrame::fill_fec_body(&self.layout, msg_id, b, seq as u8, |body| {
                            rebuilt = missing.prefix_into(seq, body);
                        });
                    found = frame.ok().filter(|_| rebuilt.is_ok());
                    break 'blocks;
                }
            }
            // Examined a full block that does not contain our packet: the
            // estimator range was loose. Keep looking at other candidates.
            if let Some(slot) = self.search.blocks.get_mut(usize::from(b)) {
                slot.exhausted = true;
            }
            work.exhausted += 1;
        }
        if let Some(enc) = found {
            self.succeed(UserOutcome::Enc(enc));
        }
        work
    }

    /// Round boundary: returns the NACK to send, or `None` when satisfied.
    /// [`UserSession::recover_in`] in a fresh decode context, then
    /// [`UserSession::close_round`].
    pub fn end_of_round(&mut self) -> Option<NackPacket> {
        self.recover_in(&mut rse::DecodeCtx::default());
        self.close_round()
    }

    /// The round boundary past the recovery: an unsatisfied user counts the
    /// round and returns the NACK to send (`None` when satisfied).
    pub fn close_round(&mut self) -> Option<NackPacket> {
        if self.is_satisfied() {
            return None;
        }
        self.rounds = self.rounds.saturating_add(1);
        let mut requests = Vec::new();
        self.search.nack_into(&mut requests);
        Some(NackPacket {
            msg_id: self.msg_id.unwrap_or(0),
            requests,
        })
    }
}

/// The current ID as the 16-bit wire fields name it, rederived into `id`
/// from the first `maxKID` seen (Theorem 4.2). `None` when the user is not
/// in the tree any more, or sits at an ID the wire cannot carry: narrowing
/// 65536 + m to m would claim the packet that serves user m. Either way no
/// ENC packet serves this user: nothing to collect, no estimate.
fn wire_id(id: &mut NodeId, known: &mut bool, d: u32, max_kid: u16) -> Option<u16> {
    if !*known {
        if let Some(current) = ident::derive_current_id(*id, max_kid as NodeId, d) {
            (*id, *known) = (current, true);
        }
    }
    known.then_some(*id).and_then(|m| u16::try_from(m).ok())
}

/// The payload-free receive rules (Figure 27, Appendix D), one copy for
/// both transport models: [`UserSession`] keeps the frames beside it, the
/// share-counting `grouprekey::sim::SimUser` nothing else. Shares are held
/// as per-block bitsets: four `u64` words cover the [`rse::MAX_SYMBOLS`]
/// indices, one slot per block ID in a flat `Vec`, with a cached count.
#[derive(Debug)]
pub struct BlockSearch {
    k: usize,
    /// Tree degree.
    d: u32,
    estimator: Option<BlockIdEstimator>,
    max_block_seen: Option<u8>,
    blocks: Vec<BlockSlot>,
}

/// What a [`BlockSearch`] knows of one block: a bit per share index held,
/// how many, and whether a decode examined it in full for nothing (it is
/// not decoded again).
#[derive(Debug, Clone, Copy, Default)]
struct BlockSlot {
    shares: [u64; 4],
    count: u16,
    exhausted: bool,
}

impl BlockSearch {
    /// A search in a message of blocks of `k`, from a tree of degree `d`.
    pub fn new(k: usize, d: u32) -> Self {
        BlockSearch {
            k,
            d,
            estimator: None,
            max_block_seen: None,
            blocks: Vec::new(),
        }
    }

    /// The share index of ENC (`enc`) or PARITY `seq`, unless the server
    /// cannot have sent it: an ENC `seq >= k` would be filed where PARITY
    /// `seq - k` belongs, a PARITY past the last code symbol never decodes.
    pub fn index(&self, enc: bool, seq: u8) -> Result<usize, Ignored> {
        let (index, limit) = match enc {
            true => (usize::from(seq), self.k),
            false => (self.k + usize::from(seq), rse::MAX_SYMBOLS),
        };
        (index < limit).then_some(index).ok_or(Ignored::OutOfRange)
    }

    /// Records share `index` of `block`; true when it was not held yet. An
    /// ENC share brings its header and the user's ID as the wire names it
    /// (`None`: `OutOfRange`, no estimate). The header narrows the estimate,
    /// then a block outside it is `RuledOut`: the range only narrows, and
    /// decode and NACK look only inside it.
    // xcheck: no_alloc
    pub fn record(
        &mut self,
        block: u8,
        index: usize,
        enc: Option<(&EncHeader, Option<u16>)>,
    ) -> Result<bool, Ignored> {
        self.max_block_seen = Some(self.max_block_seen.unwrap_or(0).max(block));
        if let Some((header, me)) = enc {
            let me = me.ok_or(Ignored::OutOfRange)?;
            self.estimator
                .get_or_insert_with(|| BlockIdEstimator::new(me))
                .observe(header, self.k, self.d);
        }
        if !self.candidate(block) {
            return Err(Ignored::RuledOut);
        }
        if index / 64 >= 4 {
            return Err(Ignored::OutOfRange); // past any real symbol: spare the next words
        }
        let b = usize::from(block);
        if self.blocks.len() <= b {
            if self.blocks.capacity() == 0 {
                // Blocks are heard in ascending order: room for the first
                // few at once instead of a regrowth per block or two.
                self.blocks.reserve_exact((b + 1).max(8));
            }
            self.blocks.resize(b + 1, BlockSlot::default());
        }
        let slot = &mut self.blocks[b];
        let bit = 1u64 << (index % 64);
        let fresh = slot.shares[index / 64] & bit == 0;
        slot.shares[index / 64] |= bit;
        slot.count += u16::from(fresh);
        Ok(fresh)
    }

    /// Whether block `b` can hold the user's packet: inside the block-ID
    /// estimate, or any block before a header has bounded it.
    fn candidate(&self, b: u8) -> bool {
        let range = self.estimator.as_ref().and_then(BlockIdEstimator::range);
        range.is_none_or(|(lo, hi)| (lo..=hi).contains(&u32::from(b)))
    }

    fn count(&self, block: u8) -> usize {
        (self.blocks.get(usize::from(block))).map_or(0, |slot| slot.count.into())
    }

    /// The `k`-th lowest share index held of `block`, if `k` are held: with
    /// the held indices below it, the shares a decode of the block takes.
    fn kth_index(&self, block: u8) -> Option<usize> {
        let slot = self.blocks.get(usize::from(block))?;
        let mut left = self.k;
        for (w, &word) in slot.shares.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if left > ones {
                left -= ones;
                continue;
            }
            // Clear the lowest `left - 1` bits: the next one is the k-th.
            let mut word = word;
            for _ in 1..left {
                word &= word - 1;
            }
            return Some(64 * w + word.trailing_zeros() as usize);
        }
        None
    }

    /// Block `b` is a candidate, `k` distinct shares of it are held, and no
    /// decode examined it in full for nothing.
    pub fn full(&self, b: u8) -> bool {
        let exhausted = (self.blocks.get(usize::from(b))).is_some_and(|slot| slot.exhausted);
        self.count(b) >= self.k && self.candidate(b) && !exhausted
    }

    /// The NACK an unsatisfied user sends, into `requests` (Figure 27,
    /// Appendix D): one entry per candidate block short of `k` shares,
    /// asking for the shares it lacks. The candidates are the estimate's
    /// range; without one (no usable ENC packet arrived), everything from
    /// the estimate's lower bound up to the highest block seen; after total
    /// loss, block 0. When every candidate already holds `k` shares yet none
    /// decoded to the user's packet, the request widens to a full re-send of
    /// the lowest candidate, so an unsatisfied user never sends an empty
    /// NACK. Both transport models NACK through here, so their NACKs agree
    /// request for request.
    // xcheck: no_alloc
    pub fn nack_into(&self, requests: &mut Vec<NackRequest>) {
        requests.clear();
        let estimator = self.estimator.as_ref();
        let (low, high) = match (estimator.and_then(|e| e.range()), self.max_block_seen) {
            (Some((lo, hi)), _) => (lo, hi),
            (None, Some(maxb)) => {
                let lo = estimator.map_or(0, |e| e.low());
                (lo.min(maxb as u32), maxb as u32)
            }
            (None, None) => (0, 0),
        };
        for b in low..=high.min(255) {
            let need = self.k.saturating_sub(self.count(b as u8));
            if need > 0 {
                requests.push(NackRequest {
                    count: need.min(255) as u8,
                    block_id: b as u8,
                });
            }
        }
        if requests.is_empty() {
            requests.push(NackRequest {
                count: self.k.min(255) as u8,
                block_id: low as u8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekeymsg::{BlockSet, EncPacket};
    use wirecrypto::{SealedKey, SymKey};

    fn layout() -> Layout {
        Layout::DEFAULT
    }

    /// A toy message: 6 ENC packets (k = 3, 2 blocks), one user per packet,
    /// user IDs 101..=106, maxKID 50, degree 4.
    fn toy_message() -> BlockSet {
        let packets: Vec<EncPacket> = (0..6u16)
            .map(|i| {
                EncPacket::new(
                    EncHeader {
                        msg_id: 9,
                        block_id: 0,
                        seq: 0,
                        duplicate: false,
                        max_kid: 50,
                        frm_id: 101 + i,
                        to_id: 101 + i,
                    },
                    vec![(
                        101 + i,
                        SealedKey::seal(
                            &SymKey::from_bytes([i as u8; 16]),
                            &SymKey::from_bytes([7; 16]),
                            0,
                        ),
                    )],
                    &Layout::DEFAULT,
                )
                .unwrap()
            })
            .collect();
        BlockSet::new(packets, 3, layout())
    }

    fn user(old_id: NodeId) -> UserSession {
        UserSession::new(old_id, 4, 3, layout())
    }

    #[test]
    fn direct_reception_succeeds_in_round_one() {
        let blocks = toy_message();
        let mut u = user(103);
        // Deliver everything.
        for b in 0..2 {
            for p in &blocks.block(b).unwrap().packets {
                u.receive(&Packet::Enc(p.clone()));
            }
        }
        assert!(u.is_satisfied());
        assert_eq!(u.current_id(), Some(103));
        assert_eq!(u.end_of_round(), None);
        assert_eq!(u.rounds_to_success(), Some(1));
        match u.outcome() {
            UserOutcome::Enc(e) => assert!(e.header().serves(103)),
            other => panic!("outcome {other:?}"),
        }
    }

    #[test]
    fn fec_decode_recovers_lost_specific_packet() {
        let mut blocks = toy_message();
        let pars = blocks.mint_parities(0, 1).unwrap();
        let mut u = user(102); // specific packet is block 0, seq 1
                               // Lose it; deliver block 0 seq 0 and 2 plus one parity.
        let b0 = blocks.block(0).unwrap();
        u.receive(&Packet::Enc(b0.packets[0].clone()));
        u.receive(&Packet::Enc(b0.packets[2].clone()));
        u.receive(&Packet::Parity(pars[0].clone()));
        assert!(!u.is_satisfied(), "needs decode first");
        assert_eq!(u.end_of_round(), None, "decoded at the round boundary");
        assert!(u.is_satisfied());
        match u.outcome() {
            UserOutcome::Enc(e) => {
                assert!(e.header().serves(102));
                assert_eq!(e.to_packet(), b0.packets[1]);
            }
            other => panic!("outcome {other:?}"),
        }
    }

    #[test]
    fn nack_requests_missing_parities_for_estimated_block() {
        let blocks = toy_message();
        let mut u = user(102);
        // Receives only block 0 seq 2 (after its lost packet) and block 1
        // seq 0 — pins block 0 and leaves it 2 shares short.
        u.receive(&Packet::Enc(blocks.block(0).unwrap().packets[2].clone()));
        u.receive(&Packet::Enc(blocks.block(1).unwrap().packets[0].clone()));
        let nack = u.end_of_round().expect("unsatisfied");
        assert_eq!(nack.msg_id, 9);
        assert_eq!(
            nack.requests,
            vec![NackRequest {
                count: 2,
                block_id: 0
            }]
        );
    }

    #[test]
    fn nack_covers_range_when_block_ambiguous() {
        let blocks = toy_message();
        let mut u = user(104); // specific is block 1, seq 0
                               // Only receives block 0 seq 0 (range below it, middle of block):
                               // low stays 0, step-6 bound caps high.
        u.receive(&Packet::Enc(blocks.block(0).unwrap().packets[0].clone()));
        let nack = u.end_of_round().expect("unsatisfied");
        assert!(!nack.requests.is_empty());
        // Every request is for a block >= 0 and the true block 1 is
        // covered by the range.
        assert!(nack.requests.iter().any(|r| r.block_id == 1));
    }

    #[test]
    fn total_loss_requests_block_zero() {
        let mut u = user(101);
        let nack = u.end_of_round().expect("nothing received");
        assert_eq!(nack.requests.len(), 1);
        assert_eq!(nack.requests[0].block_id, 0);
        assert_eq!(nack.requests[0].count, 3);
    }

    #[test]
    fn usr_packet_satisfies_and_updates_id() {
        let mut u = user(102);
        u.receive(&Packet::Usr(UsrPacket {
            msg_id: 9,
            new_user_id: 409,
            sealed: vec![],
        }));
        assert!(u.is_satisfied());
        assert_eq!(u.current_id(), Some(409));
    }

    #[test]
    fn duplicate_shares_do_not_inflate_counts() {
        let blocks = toy_message();
        let mut u = user(102);
        let pkt = blocks.block(0).unwrap().packets[0].clone();
        u.receive(&Packet::Enc(pkt.clone()));
        u.receive(&Packet::Enc(pkt.clone()));
        u.receive(&Packet::Enc(pkt));
        let nack = u.end_of_round().expect("unsatisfied");
        // Still needs 2 more shares of block 0 (only one distinct held).
        assert_eq!(nack.requests[0].count, 2);
    }

    #[test]
    fn rounds_accumulate_until_success() {
        let blocks = toy_message();
        let mut u = user(102);
        assert!(u.end_of_round().is_some()); // round 1: nothing
        assert!(u.end_of_round().is_some()); // round 2: nothing
        u.receive(&Packet::Enc(blocks.block(0).unwrap().packets[1].clone()));
        assert_eq!(u.end_of_round(), None);
        assert_eq!(u.rounds_to_success(), Some(3));
    }

    #[test]
    fn stale_message_packets_ignored_when_pinned() {
        let blocks = toy_message(); // msg_id 9
        let mut u = UserSession::new(102, 4, 3, layout()).expect_msg_id(8);
        // Packets from message 9 are dropped: the user stays hungry.
        for p in &blocks.block(0).unwrap().packets {
            u.receive(&Packet::Enc(p.clone()));
        }
        assert!(!u.is_satisfied());
        // And a matching-ID USR is accepted.
        u.receive(&Packet::Usr(UsrPacket {
            msg_id: 8,
            new_user_id: 102,
            sealed: vec![],
        }));
        assert!(u.is_satisfied());
    }

    #[test]
    fn a_held_share_is_its_frame_handle_and_eight_bytes_of_place() {
        assert_eq!(std::mem::size_of::<HeldShare>(), 24);
        assert_eq!(std::mem::size_of::<BlockSlot>(), 40);
    }

    #[test]
    fn block_search_turns_away_indices_past_each_kind_of_share() {
        let search = BlockSearch::new(3, 4);
        assert_eq!(search.index(true, 2), Ok(2));
        assert_eq!(search.index(true, 3), Err(Ignored::OutOfRange));
        assert_eq!(search.index(false, 251), Ok(254));
        assert_eq!(search.index(false, 252), Err(Ignored::OutOfRange));
    }

    #[test]
    fn block_search_records_only_what_can_decode() {
        let header = |block_id, seq, frm_id, to_id| EncHeader {
            msg_id: 1,
            block_id,
            seq,
            duplicate: false,
            max_kid: 50,
            frm_id,
            to_id,
        };
        let mut search = BlockSearch::new(3, 4);
        // An ID the wire cannot name forms no estimate: block 5 stays open.
        let wide = header(0, 0, 100, 140);
        assert_eq!(
            search.record(0, 0, Some((&wide, None))),
            Err(Ignored::OutOfRange)
        );
        assert_eq!(search.record(5, 3, None), Ok(true));
        assert_eq!(search.record(5, 3, None), Ok(false), "held already");
        assert_eq!(search.record(5, 256, None), Err(Ignored::OutOfRange));
        // User 150 below block 1 seq 2 and above block 1 seq 0: block 1.
        let (below, above) = (header(1, 0, 100, 140), header(1, 2, 160, 200));
        assert_eq!(search.record(1, 0, Some((&below, Some(150)))), Ok(true));
        assert_eq!(search.record(1, 2, Some((&above, Some(150)))), Ok(true));
        assert_eq!(search.record(5, 4, None), Err(Ignored::RuledOut));
        assert_eq!(search.record(1, 3, None), Ok(true));
        assert!(search.full(1) && !search.full(5));
        let mut nack = Vec::new();
        search.nack_into(&mut nack);
        assert_eq!(
            nack,
            vec![NackRequest {
                count: 3,
                block_id: 1
            }]
        );
    }

    #[test]
    fn moved_user_rederives_id_from_max_kid() {
        // Old ID 6, maxKID 8 (degree 4): Theorem 4.2 gives 25 (see the
        // ident tests). The packet serves 25.
        let pkt = EncPacket::new(
            EncHeader {
                msg_id: 1,
                block_id: 0,
                seq: 0,
                duplicate: false,
                max_kid: 8,
                frm_id: 20,
                to_id: 30,
            },
            vec![(
                25,
                SealedKey::seal(
                    &SymKey::from_bytes([1; 16]),
                    &SymKey::from_bytes([2; 16]),
                    0,
                ),
            )],
            &Layout::DEFAULT,
        )
        .unwrap();
        let mut u = UserSession::new(6, 4, 3, layout());
        u.receive(&Packet::Enc(pkt));
        assert_eq!(u.current_id(), Some(25));
        assert!(u.is_satisfied());
    }
}
