//! A SipHash-2-4-class keyed MAC, implemented from scratch.
//!
//! Used to authenticate sealed key blobs (truncated to 32 bits) and for
//! the challenge–response registration handshake (full 64 bits).

use crate::SymKey;

/// Little-endian `u64` from the first 8 bytes of `bytes` (zero-padded if
/// shorter); total, so the hot MAC loop has no panicking conversions.
#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (slot, &b) in word.iter_mut().zip(bytes) {
        *slot = b;
    }
    u64::from_le_bytes(word)
}

/// The SipHash round on lane `l`.
#[inline(always)]
fn sip_round<const W: usize>(v: &mut [[u64; W]; 4], l: usize) {
    v[0][l] = v[0][l].wrapping_add(v[1][l]);
    v[1][l] = v[1][l].rotate_left(13);
    v[1][l] ^= v[0][l];
    v[0][l] = v[0][l].rotate_left(32);
    v[2][l] = v[2][l].wrapping_add(v[3][l]);
    v[3][l] = v[3][l].rotate_left(16);
    v[3][l] ^= v[2][l];
    v[0][l] = v[0][l].wrapping_add(v[3][l]);
    v[3][l] = v[3][l].rotate_left(21);
    v[3][l] ^= v[0][l];
    v[2][l] = v[2][l].wrapping_add(v[1][l]);
    v[1][l] = v[1][l].rotate_left(17);
    v[1][l] ^= v[2][l];
    v[2][l] = v[2][l].rotate_left(32);
}

/// The MAC state of `W` independent computations, one lane each (lane `l`
/// of every word belongs to message `l` under key `l`): [`mac64`] is
/// `W = 1`, the batch seal of [`crate::batch`] `W = 8`. Every lane absorbs
/// the same number of words — the callers' messages have one length. Each
/// step is one loop over the lanes around the scalar rounds, which the
/// compiler vectorises.
pub(crate) struct SipLanes<const W: usize> {
    v: [[u64; W]; 4],
}

impl<const W: usize> SipLanes<W> {
    /// Keys each lane with the two little-endian halves of its key.
    #[inline(always)]
    pub(crate) fn new(k0: [u64; W], k1: [u64; W]) -> Self {
        SipLanes {
            v: [
                k0.map(|k| k ^ 0x736f6d6570736575),
                k1.map(|k| k ^ 0x646f72616e646f6d),
                k0.map(|k| k ^ 0x6c7967656e657261),
                k1.map(|k| k ^ 0x7465646279746573),
            ],
        }
    }

    /// The two compression rounds over lane `l`'s message word `m`.
    #[inline(always)]
    fn compress(&mut self, l: usize, m: u64) {
        self.v[3][l] ^= m;
        sip_round(&mut self.v, l);
        sip_round(&mut self.v, l);
        self.v[0][l] ^= m;
    }

    /// Absorbs one 8-byte message word per lane.
    #[inline(always)]
    pub(crate) fn absorb(&mut self, m: [u64; W]) {
        for (l, &word) in m.iter().enumerate() {
            self.compress(l, word);
        }
    }

    /// Absorbs the final word — the `tail` bytes left after the whole
    /// words (fewer than 8, little-endian) under the message length
    /// `len` in the top byte — and finalises.
    #[inline(always)]
    pub(crate) fn finish(mut self, tail: [u64; W], len: usize) -> [u64; W] {
        let mut mac = [0u64; W];
        for l in 0..W {
            self.compress(l, tail[l] | ((len as u64 & 0xff) << 56));
            self.v[2][l] ^= 0xff;
            for _ in 0..4 {
                sip_round(&mut self.v, l);
            }
            mac[l] = self.v[0][l] ^ self.v[1][l] ^ self.v[2][l] ^ self.v[3][l];
        }
        mac
    }
}

/// Computes the 64-bit MAC of `data` under `key`.
pub fn mac64(key: &SymKey, data: &[u8]) -> u64 {
    let kb = key.as_bytes();
    let mut lanes = SipLanes::new([le_u64(&kb[0..8])], [le_u64(&kb[8..16])]);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        lanes.absorb([le_u64(chunk)]);
    }
    let [mac] = lanes.finish([le_u64(chunks.remainder())], data.len());
    mac
}

/// Folds a 64-bit MAC to the 32-bit sealed-blob tag.
#[inline(always)]
pub(crate) fn fold32(full: u64) -> u32 {
    (full ^ (full >> 32)) as u32
}

/// Constant-time-ish comparison of two tags. With simulated crypto this is
/// about interface hygiene, not a real side-channel defence.
pub fn tags_equal(a: u32, b: u32) -> bool {
    (a ^ b) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymKey {
        SymKey::from_bytes([b; 16])
    }

    #[test]
    fn deterministic() {
        assert_eq!(mac64(&key(1), b"hello"), mac64(&key(1), b"hello"));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(mac64(&key(1), b"hello"), mac64(&key(2), b"hello"));
    }

    #[test]
    fn message_sensitivity() {
        assert_ne!(mac64(&key(1), b"hello"), mac64(&key(1), b"hellp"));
        assert_ne!(mac64(&key(1), b""), mac64(&key(1), b"\0"));
    }

    #[test]
    fn length_extension_blocked_by_length_byte() {
        // "ab" + "c" must differ from "abc" even though the bytes align.
        assert_ne!(mac64(&key(3), b"ab\0"), mac64(&key(3), b"ab"));
    }

    #[test]
    fn all_block_boundaries() {
        // Exercise remainder lengths 0..=8 around the 8-byte block size.
        let k = key(9);
        let data = [0x5Au8; 24];
        let macs: Vec<u64> = (0..=16).map(|n| mac64(&k, &data[..n])).collect();
        for i in 0..macs.len() {
            for j in (i + 1)..macs.len() {
                assert_ne!(macs[i], macs[j], "lengths {i} and {j} collide");
            }
        }
    }

    #[test]
    fn tag_comparison() {
        assert!(tags_equal(5, 5));
        assert!(!tags_equal(5, 6));
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let k = key(77);
        let base = mac64(&k, b"avalanche-input!");
        let mut total = 0u32;
        let mut data = *b"avalanche-input!";
        for byte in 0..data.len() {
            data[byte] ^= 1;
            total += (mac64(&k, &data) ^ base).count_ones();
            data[byte] ^= 1;
        }
        let avg = total as f64 / 16.0;
        assert!((20.0..44.0).contains(&avg), "average flipped bits {avg}");
    }
}
