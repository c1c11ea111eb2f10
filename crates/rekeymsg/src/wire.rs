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

/// Packet type discriminator (2 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum PacketType {
    Enc = 0,
    Parity = 1,
    Usr = 2,
    Nack = 3,
}

/// Wire parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The frame of a FEC-decoded `ENC` packet, `body_len` bytes past its
/// unprotected header `[msg_id, block_id, seq]` (never flagged duplicate):
/// one allocation, the body written where it lies by `fill`.
fn fec_frame(
    body_len: usize,
    [msg_id, block_id, seq]: [u8; 3],
    fill: impl FnOnce(&mut [u8]),
) -> Arc<[u8]> {
    let mut frame: Arc<[u8]> = std::iter::repeat_n(0, UNPROTECTED_HEADER_LEN + body_len).collect();
    // A frame just made has no other owner, so it can be written in place.
    let parts = Arc::get_mut(&mut frame).and_then(|f| f.split_first_chunk_mut());
    if let Some((unprotected, body)) = parts {
        *unprotected = [msg_id & 0x3f, block_id, seq & 0x7f];
        fill(body);
    }
    frame
}

/// The one reader of an `ENC` packet's pair column: `(encryption ID, sealed
/// key)` where they lie, up to the zero padding.
fn pairs(column: &[u8]) -> impl Iterator<Item = (u16, &[u8; SEALED_KEY_LEN])> {
    column.chunks_exact(PAIR_LEN).map_while(|pair| {
        let (id, sealed) = pair.split_first_chunk()?;
        let id = u16::from_be_bytes(*id);
        let sealed = sealed.try_into().ok()?;
        (id != 0).then_some((id, sealed))
    })
}

/// The fixed fields of an `ENC` packet: all a receiver needs of a packet
/// that does not serve it, and what tells it whether one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// range of user IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncPacket {
    /// Rekey message ID (6 bits on the wire).
    pub msg_id: u8,
    /// FEC block this packet belongs to.
    pub block_id: u8,
    /// Sequence number within the block (`0..k`).
    pub seq: u8,
    /// True for a last-block duplicate (used in FEC decoding but not in
    /// block-ID estimation). Carried in the top bit of the seq byte.
    pub duplicate: bool,
    /// Maximum current k-node ID (`maxKID`): lets each user rederive its
    /// own u-node ID via Theorem 4.2.
    pub max_kid: u16,
    /// This packet serves users with IDs in `frm_id ..= to_id`.
    pub frm_id: u16,
    /// Inclusive upper end of the served user-ID range.
    pub to_id: u16,
    /// `(encryption id, sealed key)` pairs. The encryption ID is the node
    /// ID of the encrypting (child) key; it is never zero, which is what
    /// makes zero padding unambiguous.
    pub entries: Vec<(u16, SealedKey)>,
}

impl EncPacket {
    /// Serialises to exactly `layout.enc_packet_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if there are more entries than the layout admits, if an
    /// entry has ID zero, or if `msg_id` exceeds 6 bits — all builder bugs.
    pub fn emit(&self, layout: &Layout) -> Vec<u8> {
        let mut out = Vec::with_capacity(layout.enc_packet_len);
        out.push((PacketType::Enc as u8) << 6 | self.msg_id);
        out.push(self.block_id);
        out.push(self.seq | if self.duplicate { 0x80 } else { 0 });
        self.write_body(layout, out)
    }

    /// The FEC-protected body: everything after the 3 unprotected header
    /// bytes. All ENC packets of a message have equal-length bodies.
    pub fn fec_body(&self, layout: &Layout) -> Vec<u8> {
        self.write_body(layout, Vec::with_capacity(layout.fec_body_len()))
    }

    /// The one writer: appends the FEC body to `out`.
    fn write_body(&self, layout: &Layout, mut out: Vec<u8>) -> Vec<u8> {
        assert!(self.msg_id < 64, "msg_id is a 6-bit field");
        assert!(self.seq < 128, "seq 7 bits (top bit is the duplicate flag)");
        assert!(
            self.entries.len() <= layout.encryptions_per_packet(),
            "{} entries exceed packet capacity {}",
            self.entries.len(),
            layout.encryptions_per_packet()
        );
        let end = out.len() + layout.fec_body_len();
        out.extend_from_slice(&self.max_kid.to_be_bytes());
        out.extend_from_slice(&self.frm_id.to_be_bytes());
        out.extend_from_slice(&self.to_id.to_be_bytes());
        for (id, sealed) in &self.entries {
            assert_ne!(*id, 0, "encryption ID zero is reserved for padding");
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(sealed.as_bytes());
        }
        out.resize(end, 0);
        out
    }

    /// The packet's fixed fields.
    pub fn header(&self) -> EncHeader {
        EncHeader {
            msg_id: self.msg_id,
            block_id: self.block_id,
            seq: self.seq,
            duplicate: self.duplicate,
            max_kid: self.max_kid,
            frm_id: self.frm_id,
            to_id: self.to_id,
        }
    }

    fn parse(bytes: &[u8], layout: &Layout) -> Result<Self, WireError> {
        let (&unprotected, body) = split_fixed(bytes, layout)?;
        Self::read(unprotected, body)
    }

    /// Reads the fixed fields, then the pairs up to the zero padding.
    fn read(unprotected: [u8; UNPROTECTED_HEADER_LEN], body: &[u8]) -> Result<Self, WireError> {
        let header = EncHeader::read(unprotected, body)?;
        Ok(Self::from_parts(header, &body[PROTECTED_HEADER_LEN..]))
    }

    /// The struct for already-read fixed fields and the pair column.
    fn from_parts(header: EncHeader, column: &[u8]) -> Self {
        EncPacket {
            msg_id: header.msg_id,
            block_id: header.block_id,
            seq: header.seq,
            duplicate: header.duplicate,
            max_kid: header.max_kid,
            frm_id: header.frm_id,
            to_id: header.to_id,
            entries: pairs(column)
                .map(|(id, sealed)| (id, SealedKey::from_bytes(*sealed)))
                .collect(),
        }
    }

    /// True when this packet serves user ID `m`.
    pub fn serves(&self, m: u16) -> bool {
        self.header().serves(m)
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

    /// The frame of the ENC packet a FEC-decoded body belongs to: the
    /// unprotected header is re-synthesised from the known block and `seq`
    /// (a rebuilt packet is never flagged duplicate), the body copied in
    /// behind it in one go.
    pub fn from_fec_body(
        body: &[u8],
        layout: &Layout,
        msg_id: u8,
        block_id: u8,
        seq: u8,
    ) -> Result<Self, WireError> {
        // `new` checks the length: a body is a frame less these three bytes.
        let frame = fec_frame(body.len(), [msg_id, block_id, seq], |out| {
            out.copy_from_slice(body);
        });
        Self::new(frame, layout)
    }

    /// [`EncFrame::from_fec_body`] for a body not yet at hand: `fill`
    /// writes the layout's FEC body (zeroed first) where it lies in the
    /// frame, so a receiver rebuilds its packet with one allocation and no
    /// copy.
    pub fn fill_fec_body(
        layout: &Layout,
        msg_id: u8,
        block_id: u8,
        seq: u8,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Self, WireError> {
        Self::new(
            fec_frame(layout.fec_body_len(), [msg_id, block_id, seq], fill),
            layout,
        )
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
        pairs(self.column()).map(|(id, sealed)| (id, SealedKey::from_bytes(*sealed)))
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

    /// The packet as a struct, every pair copied out.
    pub fn to_packet(&self) -> EncPacket {
        EncPacket::from_parts(self.header, self.column())
    }
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
            Packet::Enc(p) => p.emit(layout),
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

    fn sample_enc() -> EncPacket {
        EncPacket {
            msg_id: 13,
            block_id: 2,
            seq: 5,
            duplicate: false,
            max_kid: 1365,
            frm_id: 1366,
            to_id: 1412,
            entries: vec![(1366, sealed(1)), (341, sealed(2)), (85, sealed(3))],
        }
    }

    #[test]
    fn enc_round_trip() {
        let p = sample_enc();
        let bytes = p.emit(&layout());
        assert_eq!(bytes.len(), 1027);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q, p),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn enc_duplicate_flag_round_trip() {
        let mut p = sample_enc();
        p.duplicate = true;
        let bytes = p.emit(&layout());
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => {
                assert!(q.duplicate);
                assert_eq!(q.seq, p.seq);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn enc_full_capacity_round_trip() {
        let mut p = sample_enc();
        p.entries = (1..=46u16).map(|i| (i, sealed(i as u8))).collect();
        let bytes = p.emit(&layout());
        assert_eq!(bytes.len(), 1027);
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q.entries.len(), 46),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceed packet capacity")]
    fn enc_overfull_panics() {
        let mut p = sample_enc();
        p.entries = (1..=47u16).map(|i| (i, sealed(i as u8))).collect();
        let _ = p.emit(&layout());
    }

    #[test]
    #[should_panic(expected = "reserved for padding")]
    fn enc_id_zero_rejected() {
        let mut p = sample_enc();
        p.entries.push((0, sealed(9)));
        let _ = p.emit(&layout());
    }

    #[test]
    fn fec_body_reconstruction() {
        let p = sample_enc();
        let body = p.fec_body(&layout());
        assert_eq!(body.len(), 1024);
        let q = EncFrame::from_fec_body(&body, &layout(), p.msg_id, p.block_id, p.seq).unwrap();
        assert_eq!(q.to_packet(), p);
        assert_eq!(
            q,
            EncFrame::new(p.emit(&layout()).into(), &layout()).unwrap()
        );
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
        let enc = sample_enc().emit(&layout());
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
        let frame = EncFrame::new(p.emit(&layout()).into(), &layout()).unwrap();
        assert_eq!(frame.entry(341), Some(p.entries[1].1));
        assert_eq!(frame.entry(999), None);
        assert_eq!(frame.entry(0), None, "padding is not an entry");
        assert_eq!(frame.header(), p.header());
        assert_eq!(frame.to_packet(), p);
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
        let short = EncFrame::new(sample_enc().emit(&layout())[..100].into(), &layout());
        assert!(matches!(short, Err(WireError::BadLength { .. })));
    }

    #[test]
    fn padding_is_unambiguous() {
        // A packet with fewer entries than capacity parses back exactly,
        // with the zero padding dropped.
        let mut p = sample_enc();
        p.entries.truncate(1);
        let bytes = p.emit(&layout());
        match Packet::parse(&bytes, &layout()).unwrap() {
            Packet::Enc(q) => assert_eq!(q.entries.len(), 1),
            other => panic!("parsed as {other:?}"),
        }
    }
}
