//! Adversarial wire-format fuzzing: arbitrary bytes must never panic the
//! parser, anything that parses must re-emit and re-parse stably, and the
//! in-place header read must say what the full parse says.

use proptest::prelude::*;
use rekeymsg::{Header, Layout, Packet};

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
                (p.msg_id, p.block_id, p.seq, p.duplicate)
            );
            prop_assert_eq!(
                (h.max_kid, h.frm_id, h.to_id),
                (p.max_kid, p.frm_id, p.to_id)
            );
            for m in [
                p.frm_id.wrapping_sub(1),
                p.frm_id,
                p.to_id,
                p.to_id.wrapping_add(1),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: parse either fails cleanly or succeeds.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..1200)) {
        let layout = Layout::DEFAULT;
        let _ = Packet::parse(&bytes, &layout);
        header_agrees_with_parse(&bytes, &layout)?;
        // Nor under a layout too small to hold the fixed fields.
        header_agrees_with_parse(&bytes, &Layout { enc_packet_len: bytes.len() })?;
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
