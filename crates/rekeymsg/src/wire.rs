//! Byte-level wire formats for the four protocol packet types.
//!
//! Following the smoltcp idiom, each packet type has a plain `Repr`-style
//! struct with `emit` (serialise into exact wire bytes) and `parse`
//! (validate + decode), and the idiom holds for reading too: a checked
//! wrapper over the buffer whose accessors read fields where they lie.
//! [`Packet::header`] reads the fixed fields alone, in place, and
//! [`EncFrame`] is an `ENC` packet kept as its wire bytes — what a receiver
//! holds of the one packet that serves it, looking up the handful of
//! encryptions on its path without copying the rest.
//! `ENC`/`PARITY` packets always emit exactly
//! [`Layout::enc_packet_len`] bytes; `USR`/`NACK` are variable length.

use std::sync::Arc;

use wirecrypto::{SealedKey, SEALED_KEY_LEN};

use crate::layout::{Layout, PAIR_LEN, PROTECTED_HEADER_LEN, UNPROTECTED_HEADER_LEN};

/// The largest FEC block size the wire carries: an `ENC` packet's sequence
/// number (`0..k`) has 7 bits, the top bit of its byte being the duplicate
/// flag.
pub const MAX_BLOCK_SIZE: usize = 128;

/// Packet type discriminator (2 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum PacketType {
    Enc = 0,
    Parity = 1,
    Usr = 2,
    Nack = 3,
}

/// Wire parse and write errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than any packet header.
    Truncated,
    /// An ENC/PARITY packet whose length disagrees with the layout.
    BadLength {
        /// Expected number of bytes.
        expected: usize,
        /// Received number of bytes.
        got: usize,
    },
    /// A list field would overrun the packet.
    Overrun,
    /// Not an `ENC` packet, handed to the reader of one.
    NotEnc,
    /// A message ID over the 6 bits of its wire field.
    MsgIdRange(u8),
    /// A sequence number over the 7 bits of its wire field (the top bit
    /// is the duplicate flag).
    SeqRange(u8),
    /// More `<encryption, ID>` pairs than the layout's `ENC` packet holds
    /// (its capacity).
    Overfull(usize),
    /// An encryption ID of zero, which is reserved for the padding.
    ZeroId,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet shorter than its header"),
            WireError::BadLength { expected, got } => {
                write!(f, "fixed-size packet of {got} bytes, expected {expected}")
            }
            WireError::Overrun => write!(f, "list field overruns packet"),
            WireError::NotEnc => write!(f, "not an ENC packet"),
            WireError::MsgIdRange(id) => write!(f, "message ID {id} exceeds 6 bits"),
            WireError::SeqRange(seq) => write!(f, "sequence number {seq} exceeds 7 bits"),
            WireError::Overfull(cap) => write!(f, "more encryptions than the {cap} a packet holds"),
            WireError::ZeroId => write!(f, "encryption ID zero is reserved for padding"),
        }
    }
}

impl std::error::Error for WireError {}

fn check_len(got: usize, expected: usize) -> Result<(), WireError> {
    if got == expected {
        Ok(())
    } else {
        Err(WireError::BadLength { expected, got })
    }
}

/// An `ENC`/`PARITY` packet of the layout's length, split before its FEC body.
fn split_fixed<'a>(
    bytes: &'a [u8],
    layout: &Layout,
) -> Result<(&'a [u8; UNPROTECTED_HEADER_LEN], &'a [u8]), WireError> {
    check_len(bytes.len(), layout.enc_packet_len)?;
    bytes.split_first_chunk().ok_or(WireError::Truncated)
}

/// One `<encryption, ID>` pair where it lies: `(encryption ID, sealed key)`.
fn split_pair(pair: &[u8]) -> Option<(u16, &[u8; SEALED_KEY_LEN])> {
    let (id, sealed) = pair.split_first_chunk()?;
    Some((u16::from_be_bytes(*id), sealed.try_into().ok()?))
}

/// The one reader of an `ENC` packet's pair column: `(encryption ID, sealed
/// key)` where they lie, up to the zero padding.
fn pairs(column: &[u8]) -> impl Iterator<Item = (u16, &[u8; SEALED_KEY_LEN])> {
    (column.chunks_exact(PAIR_LEN)).map_while(|pair| split_pair(pair).filter(|&(id, _)| id != 0))
}

/// [`pairs`] with each sealed key copied out.
fn sealed_pairs(column: &[u8]) -> impl Iterator<Item = (u16, SealedKey)> + '_ {
    pairs(column).map(|(id, sealed)| (id, SealedKey::from_bytes(*sealed)))
}

/// The fixed fields of an `ENC` packet: all a receiver needs of a packet
/// that does not serve it, and what tells it whether one does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncHeader {
    /// Rekey message ID (6 bits on the wire).
    pub msg_id: u8,
    /// FEC block this packet belongs to.
    pub block_id: u8,
    /// Sequence number within the block (`0..k`).
    pub seq: u8,
    /// True for a last-block duplicate.
    pub duplicate: bool,
    /// Maximum current k-node ID (`maxKID`).
    pub max_kid: u16,
    /// The packet serves users with IDs in `frm_id ..= to_id`.
    pub frm_id: u16,
    /// Inclusive upper end of the served user-ID range.
    pub to_id: u16,
}

impl EncHeader {
    /// True when the packet serves user ID `m`.
    pub fn serves(&self, m: u16) -> bool {
        self.frm_id <= m && m <= self.to_id
    }

    /// The fixed fields of the ENC packet a FEC-decoded body belongs to,
    /// read off any prefix of the body that holds them (the first
    /// [`PROTECTED_HEADER_LEN`] bytes), so a receiver can tell whether a
    /// rebuilt packet serves it before rebuilding the rest. The body's
    /// length is checked where a frame is made of it ([`EncFrame::new`]).
    pub fn from_fec_body(
        prefix: &[u8],
        msg_id: u8,
        block_id: u8,
        seq: u8,
    ) -> Result<Self, WireError> {
        Self::read([msg_id, block_id, seq & 0x7f], prefix)
    }

    /// The one reader of the fixed fields, off the wire or off a FEC body.
    fn read(unprotected: [u8; UNPROTECTED_HEADER_LEN], body: &[u8]) -> Result<Self, WireError> {
        let &[k0, k1, f0, f1, t0, t1] = body.first_chunk().ok_or(WireError::Truncated)?;
        Ok(EncHeader {
            msg_id: unprotected[0] & 0x3f,
            block_id: unprotected[1],
            seq: unprotected[2] & 0x7f,
            duplicate: unprotected[2] & 0x80 != 0,
            max_kid: u16::from_be_bytes([k0, k1]),
            frm_id: u16::from_be_bytes([f0, f1]),
            to_id: u16::from_be_bytes([t0, t1]),
        })
    }
}

/// What a packet's first bytes say past the message ID, read in place: the
/// type and, for the fixed-size types, every field but the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Header {
    /// An `ENC` packet of the layout's length.
    Enc(EncHeader),
    /// A `PARITY` packet of the layout's length.
    Parity {
        /// Block this parity belongs to.
        block_id: u8,
        /// Parity index within the block (share index is `k + seq`).
        seq: u8,
    },
    /// A `USR` packet; its list is not examined.
    Usr,
    /// A `NACK` packet; its list is not examined.
    Nack,
}

/// An `ENC` packet: a run of `<encryption, ID>` pairs for a contiguous
/// range of user IDs, held as the FEC body the paper's Reed–Solomon code
/// runs over. The fixed fields are cached as an [`EncHeader`], so reading
/// them never touches the body; the body (`maxKID`, `frm`, `to`, the pairs,
/// zero padding) is written once, when the packet is made, read where it
/// lies by the block's encoder, and shared by reference count with the
/// packet's last-block duplicates and every schedule it goes out in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncPacket {
    header: EncHeader,
    /// `layout.fec_body_len()` bytes, agreeing with `header` on the three
    /// protected fields.
    body: Arc<[u8]>,
}

impl EncPacket {
    /// Writes `header`'s protected fields and `entries` — `(encryption ID,
    /// sealed key)`, the ID that of the encrypting (child) key — into a FEC
    /// body of the layout's length, once. The ID is never zero, which is
    /// what makes the zero padding unambiguous.
    ///
    /// # Errors
    ///
    /// [`WireError::MsgIdRange`] for a `msg_id` over 6 bits,
    /// [`WireError::SeqRange`] for a `seq` over 7 (the top bit is the
    /// duplicate flag), [`WireError::Overfull`] for more entries than the
    /// layout holds and [`WireError::ZeroId`] for an entry with ID zero.
    pub fn new(
        header: EncHeader,
        entries: impl IntoIterator<Item = (u16, SealedKey)>,
        layout: &Layout,
    ) -> Result<Self, WireError> {
        if header.msg_id >= 64 {
            return Err(WireError::MsgIdRange(header.msg_id));
        }
        if usize::from(header.seq) >= MAX_BLOCK_SIZE {
            return Err(WireError::SeqRange(header.seq));
        }
        let mut body: Arc<[u8]> = std::iter::repeat_n(0, layout.fec_body_len()).collect();
        // A body just made has no other owner, so it is written in place.
        let (fixed, column) = Arc::get_mut(&mut body)
            .and_then(|b| b.split_first_chunk_mut::<PROTECTED_HEADER_LEN>())
            .ok_or(WireError::Truncated)?;
        let [k, f, t] = [header.max_kid, header.frm_id, header.to_id].map(u16::to_be_bytes);
        *fixed = [k[0], k[1], f[0], f[1], t[0], t[1]];
        let capacity = column.len() / PAIR_LEN;
        let mut slots = column.chunks_exact_mut(PAIR_LEN);
        for (id, sealed) in entries {
            if id == 0 {
                return Err(WireError::ZeroId);
            }
            let Some((slot_id, slot_key)) = slots.next().map(|slot| slot.split_at_mut(2)) else {
                return Err(WireError::Overfull(capacity));
            };
            slot_id.copy_from_slice(&id.to_be_bytes());
            slot_key.copy_from_slice(sealed.as_bytes());
        }
        Ok(EncPacket { header, body })
    }

    /// Serialises to exactly `layout.enc_packet_len` bytes, for the layout
    /// the packet was made under: three header bytes, then the body.
    pub fn emit(&self) -> Vec<u8> {
        let h = &self.header;
        let mut out = Vec::with_capacity(UNPROTECTED_HEADER_LEN + self.body.len());
        out.extend_from_slice(&[
            (PacketType::Enc as u8) << 6 | h.msg_id,
            h.block_id,
            h.seq | if h.duplicate { 0x80 } else { 0 },
        ]);
        out.extend_from_slice(&self.body);
        out
    }

    /// The packet's fixed fields.
    pub fn header(&self) -> EncHeader {
        self.header
    }

    /// Places the packet in its FEC block: the unprotected fields only, so
    /// the body stays shared.
    pub(crate) fn place(&mut self, block_id: u8, seq: u8, duplicate: bool) {
        let h = &mut self.header;
        (h.block_id, h.seq, h.duplicate) = (block_id, seq, duplicate);
    }

    /// The `(encryption ID, sealed key)` pairs, in wire order.
    pub fn entries(&self) -> impl Iterator<Item = (u16, SealedKey)> + '_ {
        sealed_pairs(self.body.get(PROTECTED_HEADER_LEN..).unwrap_or_default())
    }

    fn parse(bytes: &[u8], layout: &Layout) -> Result<Self, WireError> {
        let (&unprotected, body) = split_fixed(bytes, layout)?;
        let header = EncHeader::read(unprotected, body)?;
        Ok(EncPacket {
            header,
            body: body.into(),
        })
    }

    /// True when this packet serves user ID `m`.
    pub fn serves(&self, m: u16) -> bool {
        self.header.serves(m)
    }
}

/// The FEC body: what the block's Reed–Solomon code runs over, everything
/// after the three unprotected header bytes.
impl AsRef<[u8]> for EncPacket {
    fn as_ref(&self) -> &[u8] {
        &self.body
    }
}

/// An `ENC` packet read where it lies: the wire frame as it was delivered,
/// checked once exactly as [`Packet::parse`] checks an `ENC` packet (type
/// bits, the layout's length, the fixed fields), and shared by reference
/// count with everyone else it was delivered to. A user needs O(log_d N) of
/// the encryptions in its packet; [`EncFrame::entry`] finds each in the ID
/// column and copies out that sealed key alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncFrame {
    /// The whole frame, `layout.enc_packet_len` bytes.
    bytes: Arc<[u8]>,
    header: EncHeader,
}

impl EncFrame {
    /// Checks `bytes` as an `ENC` packet under `layout` and keeps them.
    pub fn new(bytes: Arc<[u8]>, layout: &Layout) -> Result<Self, WireError> {
        let (_, Header::Enc(header)) = Packet::header(&bytes, layout)? else {
            return Err(WireError::NotEnc);
        };
        Ok(EncFrame { bytes, header })
    }

    /// The frame of the ENC packet a FEC-decoded body belongs to, with one
    /// allocation and no copy: the unprotected header is re-synthesised
    /// from the known block and `seq` (a rebuilt packet is never flagged
    /// duplicate), and `fill` writes the layout's FEC body (zeroed first)
    /// where it lies in the frame.
    pub fn fill_fec_body(
        layout: &Layout,
        msg_id: u8,
        block_id: u8,
        seq: u8,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Self, WireError> {
        let mut frame: Arc<[u8]> = std::iter::repeat_n(0, layout.enc_packet_len).collect();
        // A frame just made has no other owner, so it is written in place.
        let parts = Arc::get_mut(&mut frame).and_then(|f| f.split_first_chunk_mut());
        if let Some((unprotected, body)) = parts {
            *unprotected = [msg_id & 0x3f, block_id, seq & 0x7f];
            fill(body);
        }
        Self::new(frame, layout)
    }

    /// The packet's fixed fields.
    pub fn header(&self) -> EncHeader {
        self.header
    }

    /// The pair column: everything past the fixed fields.
    fn column(&self) -> &[u8] {
        let fixed = UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN;
        self.bytes.get(fixed..).unwrap_or_default()
    }

    /// The `(encryption ID, sealed key)` pairs, in wire order.
    pub fn entries(&self) -> impl Iterator<Item = (u16, SealedKey)> + '_ {
        sealed_pairs(self.column())
    }

    /// The sealed encryption for a given encryption (child-node) ID, if
    /// this packet carries it: the ID column is scanned in place and only
    /// the key that matches is copied out.
    // xcheck: no_alloc
    pub fn entry(&self, enc_id: u16) -> Option<SealedKey> {
        pairs(self.column())
            .find(|&(id, _)| id == enc_id)
            .map(|(_, sealed)| SealedKey::from_bytes(*sealed))
    }

    /// The packet as a struct: its body copied out in one go.
    pub fn to_packet(&self) -> EncPacket {
        let body = self.bytes.get(UNPROTECTED_HEADER_LEN..).unwrap_or_default();
        EncPacket {
            header: self.header,
            body: body.into(),
        }
    }

    /// The address of the frame's bytes: two live frames share it exactly
    /// when they share the bytes, as the receivers of one delivery do.
    pub fn address(&self) -> usize {
        self.bytes.as_ptr().addr()
    }

    /// True when something else holds the frame's bytes too — another
    /// receiver of the same delivery, say. A frame rebuilt from its FEC
    /// block for one receiver is that receiver's alone.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.bytes) > 1
    }
}

/// One [`EncFrame`]'s ID column, indexed: for the frame it was built from,
/// [`ColumnIndex::entry`] answers every ID exactly as [`EncFrame::entry`]
/// does, without the scan. It is built by the column's one reader, so it
/// holds each ID's first pair and nothing past the zero padding or a
/// trailing partial pair, whatever the bytes. It holds positions, not the
/// frame: for a frame many receivers hold, built once and asked by each,
/// while the frame lives.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// The address of the indexed frame's bytes ([`EncFrame::address`]).
    frame: usize,
    /// `(ID, pair number)` by open addressing, ID 0 (the padding, never
    /// indexed) marking an empty slot: a power of two past twice the
    /// column's pairs, so a probe meets an empty slot. None for a column
    /// of more pairs than 16 bits number (a frame over 1.4 MB), which
    /// [`ColumnIndex::entry`] scans.
    slots: Vec<(u16, u16)>,
}

impl ColumnIndex {
    /// Indexes `frame`'s column.
    pub fn new(frame: &EncFrame) -> Self {
        let mut index = ColumnIndex::default();
        index.rebuild(frame);
        index
    }

    /// Indexes `frame`'s column in place of the one held: allocates only
    /// when the column has more pairs than any indexed before.
    // xcheck: no_alloc
    pub fn rebuild(&mut self, frame: &EncFrame) {
        let column = frame.column();
        self.frame = frame.address();
        self.slots.clear();
        let Ok(capacity) = u16::try_from(column.len() / PAIR_LEN) else {
            return;
        };
        let len = (2 * usize::from(capacity)).next_power_of_two();
        self.slots.resize(len, (0, 0));
        for ((id, _), pair) in pairs(column).zip(0..) {
            for at in probe(len, id) {
                let Some(slot) = self.slots.get_mut(at) else {
                    break;
                };
                if slot.0 == 0 {
                    *slot = (id, pair);
                }
                // A later pair under an ID the index holds stays out.
                if slot.0 == id {
                    break;
                }
            }
        }
    }

    /// [`EncFrame::entry`]: the sealed encryption for `enc_id`, if `frame`
    /// carries it, found through the index when `frame` is the one it was
    /// built from (or shares its bytes) and by the scan otherwise.
    // xcheck: no_alloc
    pub fn entry(&self, frame: &EncFrame, enc_id: u16) -> Option<SealedKey> {
        if frame.address() != self.frame || self.slots.is_empty() {
            return frame.entry(enc_id);
        }
        for at in probe(self.slots.len(), enc_id) {
            let &(id, pair) = self.slots.get(at)?;
            if id == 0 {
                return None;
            }
            if id == enc_id {
                let mut column = frame.column().chunks_exact(PAIR_LEN);
                let (_, sealed) = split_pair(column.nth(pair.into())?)?;
                return Some(SealedKey::from_bytes(*sealed));
            }
        }
        None
    }
}

/// The slots an ID's probe visits, in order, in a table of `len` (a power
/// of two): from its Fibonacci hash on, each once.
fn probe(len: usize, id: u16) -> impl Iterator<Item = usize> {
    let start = usize::from(id).wrapping_mul(0x9E37_79B9) >> 15;
    let mask = len.wrapping_sub(1);
    (0..len).map(move |i| start.wrapping_add(i) & mask)
}

/// A `PARITY` packet: Reed–Solomon parity over the FEC bodies of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityPacket {
    /// Rekey message ID (6 bits).
    pub msg_id: u8,
    /// Block this parity belongs to.
    pub block_id: u8,
    /// Parity index within the block (share index is `k + seq`). Grows
    /// monotonically across rounds so reactive parities are always fresh.
    pub seq: u8,
    /// Parity bytes over the block's ENC bodies.
    pub body: Vec<u8>,
}

impl ParityPacket {
    /// Serialises to exactly `layout.enc_packet_len` bytes.
    pub fn emit(&self, layout: &Layout) -> Vec<u8> {
        assert!(self.msg_id < 64);
        assert_eq!(self.body.len(), layout.fec_body_len(), "parity body length");
        let mut out = Vec::with_capacity(layout.enc_packet_len);
        out.push((PacketType::Parity as u8) << 6 | self.msg_id);
        out.push(self.block_id);
        out.push(self.seq);
        out.extend_from_slice(&self.body);
        out
    }

    fn parse(bytes: &[u8], layout: &Layout) -> Result<Self, WireError> {
        let (&[first, block_id, seq], body) = split_fixed(bytes, layout)?;
        Ok(ParityPacket {
            msg_id: first & 0x3f,
            block_id,
            seq,
            body: body.to_vec(),
        })
    }
}

/// A `USR` packet: one user's encryptions, unicast. Encryption IDs are
/// omitted; sealed keys are ordered by increasing encryption ID and the
/// user matches them against its own path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsrPacket {
    /// Rekey message ID (6 bits).
    pub msg_id: u8,
    /// The user's (possibly new) u-node ID, so a moved user learns it
    /// directly.
    pub new_user_id: u16,
    /// Sealed encryptions in increasing encryption-ID order.
    pub sealed: Vec<SealedKey>,
}

impl UsrPacket {
    /// Serialises; length is `3 + 20 * n`.
    pub fn emit(&self) -> Vec<u8> {
        assert!(self.msg_id < 64);
        let mut out = Vec::with_capacity(3 + SEALED_KEY_LEN * self.sealed.len());
        out.push((PacketType::Usr as u8) << 6 | self.msg_id);
        out.extend_from_slice(&self.new_user_id.to_be_bytes());
        for s in &self.sealed {
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 3 {
            return Err(WireError::Truncated);
        }
        if !(bytes.len() - 3).is_multiple_of(SEALED_KEY_LEN) {
            return Err(WireError::Overrun);
        }
        let sealed = bytes[3..]
            .chunks_exact(SEALED_KEY_LEN)
            .map(|c| SealedKey::from_slice(c).ok_or(WireError::Truncated))
            .collect::<Result<_, _>>()?;
        Ok(UsrPacket {
            msg_id: bytes[0] & 0x3f,
            new_user_id: u16::from_be_bytes([bytes[1], bytes[2]]),
            sealed,
        })
    }
}

/// One per-block request inside a NACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NackRequest {
    /// Number of additional PARITY packets needed to decode the block
    /// (`k` minus packets received).
    pub count: u8,
    /// The block being requested.
    pub block_id: u8,
}

/// A `NACK` packet: feedback from a user that could not recover its block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NackPacket {
    /// Rekey message ID (6 bits).
    pub msg_id: u8,
    /// Per-block parity requests (a range of blocks when the user could
    /// not pin down its block ID exactly).
    pub requests: Vec<NackRequest>,
}

impl NackPacket {
    /// Serialises; length is `1 + 2 * n`.
    pub fn emit(&self) -> Vec<u8> {
        assert!(self.msg_id < 64);
        let mut out = Vec::with_capacity(1 + 2 * self.requests.len());
        out.push((PacketType::Nack as u8) << 6 | self.msg_id);
        for r in &self.requests {
            out.push(r.count);
            out.push(r.block_id);
        }
        out
    }

    fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.is_empty() {
            return Err(WireError::Truncated);
        }
        if !(bytes.len() - 1).is_multiple_of(2) {
            return Err(WireError::Overrun);
        }
        let requests = bytes[1..]
            .chunks_exact(2)
            .map(|c| NackRequest {
                count: c[0],
                block_id: c[1],
            })
            .collect();
        Ok(NackPacket {
            msg_id: bytes[0] & 0x3f,
            requests,
        })
    }
}

/// Any protocol packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Multicast encryptions.
    Enc(EncPacket),
    /// Multicast FEC parity.
    Parity(ParityPacket),
    /// Unicast per-user keys.
    Usr(UsrPacket),
    /// User feedback.
    Nack(NackPacket),
}

impl Packet {
    /// Parses any packet by its 2-bit type tag.
    pub fn parse(bytes: &[u8], layout: &Layout) -> Result<Self, WireError> {
        if bytes.is_empty() {
            return Err(WireError::Truncated);
        }
        match bytes[0] >> 6 {
            0 => EncPacket::parse(bytes, layout).map(Packet::Enc),
            1 => ParityPacket::parse(bytes, layout).map(Packet::Parity),
            2 => UsrPacket::parse(bytes).map(Packet::Usr),
            _ => NackPacket::parse(bytes).map(Packet::Nack),
        }
    }

    /// Reads the 6-bit message ID and the header in place, with the length
    /// checks [`Packet::parse`] applies to the fixed-size types.
    pub fn header(bytes: &[u8], layout: &Layout) -> Result<(u8, Header), WireError> {
        let &first = bytes.first().ok_or(WireError::Truncated)?;
        let header = match first >> 6 {
            0 => {
                let (&unprotected, body) = split_fixed(bytes, layout)?;
                Header::Enc(EncHeader::read(unprotected, body)?)
            }
            1 => {
                let (&[_, block_id, seq], _) = split_fixed(bytes, layout)?;
                Header::Parity { block_id, seq }
            }
            2 => Header::Usr,
            _ => Header::Nack,
        };
        Ok((first & 0x3f, header))
    }

    /// Serialises any packet.
    pub fn emit(&self, layout: &Layout) -> Vec<u8> {
        match self {
            Packet::Enc(p) => p.emit(),
            Packet::Parity(p) => p.emit(layout),
            Packet::Usr(p) => p.emit(),
            Packet::Nack(p) => p.emit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wirecrypto::SymKey;

    fn layout() -> Layout {
        Layout::DEFAULT
    }

    fn sealed(tag: u8) -> SealedKey {
        let kek = SymKey::from_bytes([tag; 16]);
        let plain = SymKey::from_bytes([tag.wrapping_add(1); 16]);
        SealedKey::seal(&kek, &plain, tag as u64)
    }

    const HEADER: EncHeader = EncHeader {
        msg_id: 13,
        block_id: 2,
        seq: 5,
        duplicate: false,
        max_kid: 1365,
        frm_id: 1366,
        to_id: 1412,
    };

    fn sample_entries() -> Vec<(u16, SealedKey)> {
        vec![(1366, sealed(1)), (341, sealed(2)), (85, sealed(3))]
    }

    fn sample_enc() -> EncPacket {
        EncPacket::new(HEADER, sample_entries(), &layout()).unwrap()
    }

    fn full(n: u16) -> Vec<(u16, SealedKey)> {
        (1..=n).map(|i| (i, sealed(i as u8))).collect()
    }

    #[test]
    fn enc_round_trip() {
        let p = sample_enc();
        let bytes = p.emit();
        assert_eq!(bytes.len(), 1027);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q, p),
            other => panic!("parsed as {other:?}"),
        }
        assert_eq!(p.entries().collect::<Vec<_>>(), sample_entries());
    }

    #[test]
    fn enc_duplicate_flag_round_trip() {
        let mut p = sample_enc();
        p.place(2, 5, true);
        let bytes = p.emit();
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => {
                assert!(q.header().duplicate);
                assert_eq!(q.header().seq, 5);
                assert_eq!(q, p);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn enc_full_capacity_round_trip() {
        let p = EncPacket::new(HEADER, full(46), &layout()).unwrap();
        let bytes = p.emit();
        assert_eq!(bytes.len(), 1027);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q.entries().count(), 46),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn enc_msg_id_over_six_bits_is_refused() {
        let header = EncHeader {
            msg_id: 64,
            ..HEADER
        };
        let made = EncPacket::new(header, sample_entries(), &layout());
        assert_eq!(made, Err(WireError::MsgIdRange(64)));
    }

    #[test]
    fn enc_seq_over_seven_bits_is_refused() {
        let header = EncHeader { seq: 128, ..HEADER };
        let made = EncPacket::new(header, sample_entries(), &layout());
        assert_eq!(made, Err(WireError::SeqRange(128)));
    }

    #[test]
    fn enc_overfull_is_refused() {
        let made = EncPacket::new(HEADER, full(50), &layout());
        assert_eq!(made, Err(WireError::Overfull(46)));
    }

    #[test]
    fn enc_id_zero_is_refused() {
        let mut entries = sample_entries();
        entries.push((0, sealed(9)));
        let made = EncPacket::new(HEADER, entries, &layout());
        assert_eq!(made, Err(WireError::ZeroId));
    }

    #[test]
    fn fec_body_reconstruction() {
        let p = sample_enc();
        let body = p.as_ref();
        assert_eq!(body.len(), 1024);
        let q = EncFrame::fill_fec_body(&layout(), 13, 2, 5, |out| out.copy_from_slice(body));
        let q = q.unwrap();
        assert_eq!(q.to_packet(), p);
        assert_eq!(q, EncFrame::new(p.emit().into(), &layout()).unwrap());
    }

    #[test]
    fn parity_round_trip() {
        let p = ParityPacket {
            msg_id: 63,
            block_id: 9,
            seq: 200,
            body: vec![0xAB; layout().fec_body_len()],
        };
        let bytes = p.emit(&layout());
        assert_eq!(bytes.len(), 1027);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Parity(q) => assert_eq!(q, p),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn usr_round_trip_and_length() {
        let p = UsrPacket {
            msg_id: 1,
            new_user_id: 4000,
            sealed: vec![sealed(1), sealed(2), sealed(3)],
        };
        let bytes = p.emit();
        assert_eq!(bytes.len(), 3 + 20 * 3, "the paper's 3 + 20h bound");
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Usr(q) => assert_eq!(q, p),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn nack_round_trip() {
        let p = NackPacket {
            msg_id: 7,
            requests: vec![
                NackRequest {
                    count: 2,
                    block_id: 1,
                },
                NackRequest {
                    count: 4,
                    block_id: 2,
                },
            ],
        };
        let bytes = p.emit();
        assert_eq!(bytes.len(), 5);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Nack(q) => assert_eq!(q, p),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert_eq!(Packet::parse(&[], &layout()), Err(WireError::Truncated));
        // ENC with wrong length.
        let enc = sample_enc().emit();
        assert!(matches!(
            Packet::parse(&enc[..100], &layout()),
            Err(WireError::BadLength { .. })
        ));
        // USR with a ragged tail.
        let usr = UsrPacket {
            msg_id: 0,
            new_user_id: 0,
            sealed: vec![sealed(0)],
        }
        .emit();
        assert_eq!(
            Packet::parse(&usr[..usr.len() - 1], &layout()),
            Err(WireError::Overrun)
        );
    }

    #[test]
    fn serves_range() {
        let p = sample_enc();
        assert!(p.serves(1366));
        assert!(p.serves(1412));
        assert!(!p.serves(1365));
        assert!(!p.serves(1413));
    }

    #[test]
    fn entry_lookup() {
        let p = sample_enc();
        let frame = EncFrame::new(p.emit().into(), &layout()).unwrap();
        assert_eq!(frame.entry(341), Some(sample_entries()[1].1));
        assert_eq!(frame.entry(999), None);
        assert_eq!(frame.entry(0), None, "padding is not an entry");
        assert_eq!(frame.header(), p.header());
        assert_eq!(frame.to_packet(), p);
    }

    #[test]
    fn a_column_past_sixteen_bits_of_pairs_is_scanned() {
        // 65 536 pairs, one more than a 16-bit pair number counts, all
        // under ID 3 but the first (7) and the last two (9, then 7 again):
        // the index stays empty and answers by the frame's own scan.
        let fixed = UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN;
        let mut bytes = vec![0; fixed + (1 << 16) * PAIR_LEN];
        for pair in bytes[fixed..].chunks_exact_mut(PAIR_LEN) {
            pair[1] = 3;
        }
        let last = bytes.len() - PAIR_LEN;
        for (at, id) in [(fixed, 7u16), (last - PAIR_LEN, 9), (last, 7)] {
            bytes[at..at + 2].copy_from_slice(&id.to_be_bytes());
            bytes[at + 2] = id as u8;
        }
        let layout = Layout::new(bytes.len());
        let frame = EncFrame::new(bytes.into(), &layout).unwrap();
        let index = ColumnIndex::new(&frame);
        assert!(index.slots.is_empty());
        for id in [7, 9, 3, 0, 1] {
            assert_eq!(index.entry(&frame, id), frame.entry(id), "ID {id}");
        }
        let first_byte = |id| index.entry(&frame, id).map(|k| k.as_bytes()[0]);
        assert_eq!((first_byte(7), first_byte(9)), (Some(7), Some(9)));
    }

    #[test]
    fn enc_frame_is_for_enc_packets_only() {
        let parity = ParityPacket {
            msg_id: 13,
            block_id: 2,
            seq: 5,
            body: vec![0; layout().fec_body_len()],
        };
        let frame = EncFrame::new(parity.emit(&layout()).into(), &layout());
        assert_eq!(frame, Err(WireError::NotEnc));
        let short = EncFrame::new(sample_enc().emit()[..100].into(), &layout());
        assert!(matches!(short, Err(WireError::BadLength { .. })));
    }

    #[test]
    fn padding_is_unambiguous() {
        // A packet with fewer entries than capacity parses back exactly,
        // with the zero padding dropped.
        let p = EncPacket::new(HEADER, sample_entries().drain(..1), &layout()).unwrap();
        let bytes = p.emit();
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q.entries().count(), 1),
            other => panic!("parsed as {other:?}"),
        }
    }
}

#[cfg(test)]
mod writer_reference;
