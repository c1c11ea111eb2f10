//! Packet-size layout: one place that knows the byte arithmetic.

use wirecrypto::SEALED_KEY_LEN;

/// Fixed sizes of the wire format.
///
/// `ENC` and `PARITY` packets share one total length so that the FEC coder
/// operates on equal-length packet bodies. Header bytes:
///
/// ```text
/// ENC:    [type|msgid:1][blockid:1][dup|seq:1] | [maxKID:2][frm:2][to:2][pairs...][zero padding]
/// PARITY: [type|msgid:1][blockid:1][seq:1]     | [parity bytes ............................... ]
///                                              ^-- FEC covers everything right of this bar
/// ```
///
/// The FEC-protected region is fields 5–8 of the ENC packet (maxKID,
/// IDs, encryption list, padding), exactly as in the paper's Figure 23.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total length in bytes of an `ENC` (and `PARITY`) packet.
    pub enc_packet_len: usize,
}

/// Bytes of ENC header outside the FEC-protected body.
pub const UNPROTECTED_HEADER_LEN: usize = 3;
/// Bytes of ENC header inside the FEC-protected body (maxKID, frm, to).
pub const PROTECTED_HEADER_LEN: usize = 6;
/// Bytes per `<encryption, ID>` pair: a sealed key plus a 2-byte ID.
pub const PAIR_LEN: usize = SEALED_KEY_LEN + 2;

impl Layout {
    /// The paper's packet size: 1027 bytes, carrying 46 encryptions.
    pub const DEFAULT: Layout = Layout {
        enc_packet_len: 1027,
    };

    /// Creates a layout, validating the packet is large enough for the
    /// headers and at least one encryption pair.
    pub fn new(enc_packet_len: usize) -> Self {
        let min = UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN + PAIR_LEN;
        assert!(
            enc_packet_len >= min,
            "ENC packet length {enc_packet_len} below minimum {min}"
        );
        Layout { enc_packet_len }
    }

    /// Number of `<encryption, ID>` pairs an ENC packet can carry.
    pub fn encryptions_per_packet(&self) -> usize {
        (self.enc_packet_len - UNPROTECTED_HEADER_LEN - PROTECTED_HEADER_LEN) / PAIR_LEN
    }

    /// Length of the FEC-protected body (shared by ENC and PARITY).
    pub fn fec_body_len(&self) -> usize {
        self.enc_packet_len - UNPROTECTED_HEADER_LEN
    }

    /// Wire length of a USR packet carrying `n` encryptions: the paper's
    /// `3 + 20h` bound with `h` the key-tree height.
    pub fn usr_packet_len(&self, n_encryptions: usize) -> usize {
        3 + SEALED_KEY_LEN * n_encryptions
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let l = Layout::DEFAULT;
        assert_eq!(l.encryptions_per_packet(), 46, "the paper's 46");
        assert_eq!(l.fec_body_len(), 1024);
        // USR bound 3 + 20h.
        assert_eq!(l.usr_packet_len(9), 3 + 20 * 9);
    }

    #[test]
    fn minimum_layout() {
        let l = Layout::new(UNPROTECTED_HEADER_LEN + PROTECTED_HEADER_LEN + PAIR_LEN);
        assert_eq!(l.encryptions_per_packet(), 1);
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn too_small_rejected() {
        let _ = Layout::new(20);
    }
}
