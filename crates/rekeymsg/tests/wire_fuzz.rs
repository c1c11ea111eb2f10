//! Adversarial wire-format fuzzing: arbitrary bytes must never panic the
//! parser, anything that parses must re-emit and re-parse stably, and the
//! in-place readers — the header, and the ENC frame a receiver keeps —
//! must say what the full parse says.

use proptest::prelude::*;
use rekeymsg::{EncFrame, EncHeader, Header, Layout, Packet, WireError, UNPROTECTED_HEADER_LEN};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
