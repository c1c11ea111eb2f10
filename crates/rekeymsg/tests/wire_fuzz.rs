//! Adversarial wire-format fuzzing: arbitrary bytes must never panic the
//! parser, anything that parses must re-emit and re-parse stably, the
//! in-place readers — the header, and the ENC frame a receiver keeps —
//! must say what the full parse says, and a frame's column index must
//! answer every ID as the frame's own lookup does.

use proptest::prelude::*;
use rekeymsg::{
    ColumnIndex, EncFrame, EncHeader, Header, Layout, Packet, WireError, PROTECTED_HEADER_LEN,
    UNPROTECTED_HEADER_LEN,
};

/// Bytes per `<encryption, ID>` pair: a 2-byte ID and a sealed key.
const PAIR_LEN: usize = 2 + wirecrypto::SEALED_KEY_LEN;

/// `Packet::header` against `Packet::parse` on the same bytes: field for
/// field where both succeed, and no header where a fixed-size packet does
/// not parse (USR/NACK lists are not the header's to check).
fn header_agrees_with_parse(bytes: &[u8], layout: &Layout) -> proptest::TestCaseResult {
    let header = Packet::header(bytes, layout);
    if let Ok((msg_id, _)) = &header {
        prop_assert_eq!(*msg_id, bytes[0] & 0x3f);
    }
    match (Packet::parse(bytes, layout), header.map(|(_, h)| h)) {
        (Ok(Packet::Enc(p)), Ok(Header::Enc(h))) => {
            prop_assert_eq!(h, p.header());
            prop_assert_eq!(
                (h.msg_id, h.block_id, h.seq, h.duplicate),
                (
                    bytes[0] & 0x3f,
                    bytes[1],
                    bytes[2] & 0x7f,
                    bytes[2] & 0x80 != 0
                )
            );
            let field = |at: usize| u16::from_be_bytes([bytes[at], bytes[at + 1]]);
            prop_assert_eq!(
                (h.max_kid, h.frm_id, h.to_id),
                (field(3), field(5), field(7))
            );
            for m in [
                h.frm_id.wrapping_sub(1),
                h.frm_id,
                h.to_id,
                h.to_id.wrapping_add(1),
            ] {
                prop_assert_eq!(h.serves(m), p.serves(m));
            }
        }
        (Ok(Packet::Parity(p)), Ok(Header::Parity { block_id, seq })) => {
            prop_assert_eq!(
                (bytes[0] & 0x3f, block_id, seq),
                (p.msg_id, p.block_id, p.seq)
            );
        }
        (Ok(Packet::Usr(p)), Ok(Header::Usr)) => prop_assert_eq!(bytes[0] & 0x3f, p.msg_id),
        (Ok(Packet::Nack(p)), Ok(Header::Nack)) => prop_assert_eq!(bytes[0] & 0x3f, p.msg_id),
        (Err(e), Err(h)) => prop_assert_eq!(e, h),
        (Err(_), Ok(Header::Usr | Header::Nack)) => {}
        (parsed, kind) => prop_assert!(false, "parse {parsed:?} but header {kind:?}"),
    }
    Ok(())
}

/// `EncFrame::new` against `Packet::parse` on the same bytes: it accepts
/// exactly what parses as an ENC packet, with the parse's error otherwise,
/// and then the header, every entry, the lookup by ID and the struct agree —
/// as does the frame rebuilt from the FEC body, which is the same packet
/// with the duplicate flag cleared.
fn frame_agrees_with_parse(bytes: &[u8], layout: &Layout) -> proptest::TestCaseResult {
    match (
        Packet::parse(bytes, layout),
        EncFrame::new(bytes.into(), layout),
    ) {
        (Ok(Packet::Enc(p)), Ok(frame)) => {
            prop_assert_eq!(frame.header(), p.header());
            let entries: Vec<_> = p.entries().collect();
            prop_assert_eq!(frame.entries().collect::<Vec<_>>(), entries.clone());
            for &(id, _) in &entries {
                // The first pair under an ID is the one an ID names.
                let first = entries.iter().find(|e| e.0 == id).map(|e| e.1);
                prop_assert_eq!(frame.entry(id), first);
            }
            prop_assert_eq!(frame.entry(0), None);
            let body = &bytes[UNPROTECTED_HEADER_LEN..];
            let h = p.header();
            let fill = |out: &mut [u8]| out.copy_from_slice(body);
            let rebuilt = EncFrame::fill_fec_body(layout, h.msg_id, h.block_id, h.seq, fill)
                .map(|f| f.to_packet());
            let row = EncHeader {
                duplicate: false,
                ..h
            };
            prop_assert_eq!(rebuilt.as_ref().map(|r| r.header()), Ok(row));
            prop_assert_eq!(rebuilt.as_ref().map(|r| r.as_ref()), Ok(p.as_ref()));
            prop_assert_eq!(frame.to_packet(), p);
        }
        (Ok(Packet::Enc(_)), Err(e)) => prop_assert!(false, "ENC packet refused: {e}"),
        (Ok(other), frame) => prop_assert_eq!(frame, Err(WireError::NotEnc), "{:?}", other),
        (Err(_), Err(WireError::NotEnc)) => prop_assert_ne!(bytes[0] >> 6, 0),
        (Err(e), frame) => prop_assert_eq!(frame, Err(e)),
    }
    Ok(())
}

/// An ENC frame whose column is `raw`'s first `pairs` pairs and `tail`
/// bytes more (a trailing partial pair), under the layout of exactly that
/// length, with pair `i`'s ID overwritten by `id(i)`: the IDs the column
/// carries, in wire order, padding and pairs past it included.
fn frame_of(
    raw: &[u8],
    pairs: usize,
    tail: usize,
    id: impl Fn(usize) -> u16,
) -> (EncFrame, Vec<u16>) {
    let fixed = UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN;
    let mut bytes = vec![0; fixed];
    bytes.extend_from_slice(&raw[..pairs * PAIR_LEN + tail]);
    let ids: Vec<u16> = (0..pairs).map(id).collect();
    for (i, &id) in ids.iter().enumerate() {
        let at = fixed + i * PAIR_LEN;
        bytes[at..at + 2].copy_from_slice(&id.to_be_bytes());
    }
    let layout = Layout::new(bytes.len());
    (EncFrame::new(bytes.into(), &layout).unwrap(), ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A column index answers as `EncFrame::entry` on any column: every ID
    /// the column's pairs carry (the first of duplicates, none past the
    /// padding), the padding ID 0, the ID-like bytes of a trailing partial
    /// pair, and random IDs — built fresh, and rebuilt in place over a
    /// longer column's index. The IDs come from alphabets of 3, 16 and
    /// 65535, so most columns repeat IDs, in any order; one pair in about
    /// half the columns is a zero ID with pairs after it; layouts run from
    /// one pair to 120, with up to a pair less one byte behind.
    #[test]
    fn column_index_answers_as_entry(
        raw in proptest::collection::vec(any::<u8>(), 121 * PAIR_LEN),
        pairs in 1usize..=120,
        tail in 0usize..PAIR_LEN,
        alphabet in prop::sample::select(vec![3u16, 16, u16::MAX]),
        zero_at in any::<usize>(),
        asked in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let draw = |i: usize| u16::from_be_bytes([raw[i * PAIR_LEN], raw[i * PAIR_LEN + 1]]);
        let zero_at = zero_at % (2 * pairs);
        let id = |i: usize| if i == zero_at { 0 } else { 1 + draw(i) % alphabet };
        let (frame, ids) = frame_of(&raw, pairs, tail, id);
        let (longer, _) = frame_of(&raw, 120, PAIR_LEN - 1, |i| 1 + draw(i) % 16);
        let fresh = ColumnIndex::new(&frame);
        let mut reused = ColumnIndex::new(&longer);
        reused.rebuild(&frame);
        let partial = raw[pairs * PAIR_LEN..].first_chunk().map(|b| u16::from_be_bytes(*b));
        let partial = partial.filter(|_| tail >= 2);
        let everything = ids.iter().copied().chain([0]).chain(partial).chain(asked);
        for enc_id in everything {
            let expected = frame.entry(enc_id);
            prop_assert_eq!(fresh.entry(&frame, enc_id), expected, "ID {}", enc_id);
            prop_assert_eq!(reused.entry(&frame, enc_id), expected, "ID {} (rebuilt)", enc_id);
            // Asked of a frame it was not built from, an index scans that one.
            prop_assert_eq!(fresh.entry(&longer, enc_id), longer.entry(enc_id), "ID {}", enc_id);
        }
    }

    /// Arbitrary byte soup: parse either fails cleanly or succeeds.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..1200)) {
        let layout = Layout::DEFAULT;
        let _ = Packet::parse(&bytes, &layout);
        header_agrees_with_parse(&bytes, &layout)?;
        frame_agrees_with_parse(&bytes, &layout)?;
        // Nor under a layout too small to hold the fixed fields.
        let tight = Layout { enc_packet_len: bytes.len() };
        header_agrees_with_parse(&bytes, &tight)?;
        frame_agrees_with_parse(&bytes, &tight)?;
    }

    /// Bytes of exactly the fixed packet length: every parse result
    /// re-emits to a packet that parses back to the same value
    /// (parse -> emit -> parse is a fixed point).
    #[test]
    fn parse_emit_parse_is_stable(mut bytes in proptest::collection::vec(any::<u8>(), 1027)) {
        let layout = Layout::DEFAULT;
        // Force a fixed-size type tag so the length matches expectations
        // (ENC = 0b00, PARITY = 0b01 in the top two bits).
        bytes[0] &= 0x7f;
        header_agrees_with_parse(&bytes, &layout)?;
        frame_agrees_with_parse(&bytes, &layout)?;
        if let Ok(pkt) = Packet::parse(&bytes, &layout) {
            let emitted = pkt.emit(&layout);
            header_agrees_with_parse(&emitted, &layout)?;
            let reparsed = Packet::parse(&emitted, &layout).expect("emitted bytes parse");
            prop_assert_eq!(reparsed, pkt);
        }
    }

    /// USR/NACK variable-length packets: same stability under their type
    /// tags and any length.
    #[test]
    fn variable_packets_stable(mut bytes in proptest::collection::vec(any::<u8>(), 1..256), usr in any::<bool>()) {
        let layout = Layout::DEFAULT;
        bytes[0] = (bytes[0] & 0x3f) | if usr { 0x80 } else { 0xc0 };
        header_agrees_with_parse(&bytes, &layout)?;
        if let Ok(pkt) = Packet::parse(&bytes, &layout) {
            let emitted = pkt.emit(&layout);
            let reparsed = Packet::parse(&emitted, &layout).expect("emitted bytes parse");
            prop_assert_eq!(reparsed, pkt);
        }
    }
}
