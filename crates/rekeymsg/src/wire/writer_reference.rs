//! The packet writer against the field-by-field writer it replaced, which
//! is kept here as the reference. Over random headers, entries and layouts,
//! a packet written once into its FEC body must emit the bytes the
//! reference writes, hand the encoder exactly the reference's body, parse
//! back from those bytes as itself, and come back as itself from a frame
//! kept over them.

use proptest::prelude::*;

use super::*;

/// `EncPacket::emit` as it was: the three unprotected header bytes, then
/// each protected field and each pair appended in turn, then zero padding
/// up to the layout's length.
fn reference_emit(h: &EncHeader, entries: &[(u16, SealedKey)], layout: &Layout) -> Vec<u8> {
    let mut out = Vec::with_capacity(layout.enc_packet_len);
    out.push((PacketType::Enc as u8) << 6 | h.msg_id);
    out.push(h.block_id);
    out.push(h.seq | if h.duplicate { 0x80 } else { 0 });
    out.extend_from_slice(&h.max_kid.to_be_bytes());
    out.extend_from_slice(&h.frm_id.to_be_bytes());
    out.extend_from_slice(&h.to_id.to_be_bytes());
    for (id, sealed) in entries {
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(sealed.as_bytes());
    }
    out.resize(layout.enc_packet_len, 0);
    out
}

/// A sealed key's 20 bytes, spread from one draw.
fn blob(seed: u64) -> SealedKey {
    let mut bytes = [0u8; SEALED_KEY_LEN];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = (seed.rotate_left(8 * i as u32 % 64) as u8) ^ i as u8;
    }
    SealedKey::from_bytes(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_sealed_body_is_the_reference_writers(
        (msg_id, block_id, seq, duplicate) in (0u8..64, any::<u8>(), 0u8..128, any::<bool>()),
        (max_kid, frm_id, to_id) in (any::<u16>(), any::<u16>(), any::<u16>()),
        pairs in proptest::collection::vec((1u16..=u16::MAX, any::<u64>()), 0..60),
        extra in 0usize..1100,
    ) {
        // From the smallest layout (one pair) past the paper's 1027 bytes.
        let layout = Layout::new(UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN + PAIR_LEN + extra);
        let h = EncHeader { msg_id, block_id, seq, duplicate, max_kid, frm_id, to_id };
        let mut entries: Vec<(u16, SealedKey)> =
            pairs.iter().map(|&(id, seed)| (id, blob(seed))).collect();
        entries.truncate(layout.encryptions_per_packet());
        let want = reference_emit(&h, &entries, &layout);

        let pkt = EncPacket::new(h, entries.iter().copied(), &layout)
            .map_err(|e| TestCaseError::Fail(format!("refused: {e}")))?;
        prop_assert_eq!(pkt.header(), h);
        prop_assert_eq!(pkt.entries().collect::<Vec<_>>(), entries);
        prop_assert_eq!(pkt.emit(), want.clone());
        prop_assert_eq!(pkt.as_ref(), &want[UNPROTECTED_HEADER_LEN..]);
        prop_assert_eq!(Packet::parse(&want, &layout), Ok(Packet::Enc(pkt.clone())));
        prop_assert_eq!(Packet::Enc(pkt.clone()).emit(&layout), want.clone());
        let frame = EncFrame::new(want.into(), &layout)
            .map_err(|e| TestCaseError::Fail(format!("frame refused: {e}")))?;
        prop_assert_eq!(frame.to_packet(), pkt);
    }
}
