//! A ChaCha20-class ARX stream cipher, implemented from scratch.
//!
//! The construction follows the ChaCha design (16-word state, 20 rounds of
//! quarter-round mixing, feed-forward, little-endian serialisation) keyed
//! with the crate's 128-bit [`SymKey`] expanded by repetition, as the
//! original 128-bit ChaCha variant did.
//!
//! The block function is written once, generic over a lane count `W`: every
//! state word is a `[u32; W]` holding that word of `W` *independent* blocks
//! (different keys, nonces or counters), and every step is the scalar
//! operation on one lane. [`StreamCipher`] is the `W = 1` instantiation;
//! the batch entries of [`crate::batch`] and `KeyGen`'s refill (eight
//! consecutive blocks of one stream) are `W = 8`, where each state word is
//! one AVX2 register. Lanes never mix — the diagonal round only permutes
//! *which* words meet, not which lane — so no shuffle is needed (a single
//! block's four rows in `[u32; 4]` need one per diagonal round, and do not
//! vectorise without intrinsics).
//!
//! The loop over the lanes goes around a whole double round, not around
//! each operation: a short loop over `W` around one `wrapping_add` is
//! unrolled before the vectoriser runs and comes out half scalar, while
//! the loop around eight quarter rounds is too large to unroll, stays a
//! loop of trip count `W`, and is turned into one vector iteration.

use crate::SymKey;

/// Block size of the keystream generator in bytes.
pub const BLOCK_LEN: usize = 64;

const CONSTANTS: [u32; 4] = [
    u32::from_le_bytes(*b"expa"),
    u32::from_le_bytes(*b"nd 1"),
    u32::from_le_bytes(*b"6-by"),
    u32::from_le_bytes(*b"te k"),
];

/// The four little-endian words of each lane's 16-byte block (a key, or a
/// key's ciphertext), transposed: `words[i][l]` is word `i` of `blocks[l]`.
#[inline(always)]
pub(crate) fn word_lanes<const W: usize>(blocks: [&[u8; 16]; W]) -> [[u32; W]; 4] {
    let mut words = [[0u32; W]; 4];
    for (l, b) in blocks.iter().enumerate() {
        for (i, word) in words.iter_mut().enumerate() {
            word[l] = u32::from_le_bytes([b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]]);
        }
    }
    words
}

/// Lane `l` of [`word_lanes`]-shaped words, serialised back to 16 bytes.
#[inline(always)]
pub(crate) fn lane_bytes<const W: usize>(words: &[[u32; W]; 4], l: usize) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    for (chunk, word) in bytes.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&word[l].to_le_bytes());
    }
    bytes
}

/// The ChaCha quarter round on lane `l`.
#[inline(always)]
fn quarter_round<const W: usize>(
    s: &mut [[u32; W]; 16],
    l: usize,
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    s[a][l] = s[a][l].wrapping_add(s[b][l]);
    s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(16);
    s[c][l] = s[c][l].wrapping_add(s[d][l]);
    s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(12);
    s[a][l] = s[a][l].wrapping_add(s[b][l]);
    s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(8);
    s[c][l] = s[c][l].wrapping_add(s[d][l]);
    s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(7);
}

/// Keystream block `counter[l]` of each lane's `(key, nonce)` stream, as
/// words (serialised little-endian they are the 64 keystream bytes).
#[inline(always)]
pub(crate) fn block<const W: usize>(
    key: &[[u32; W]; 4],
    counter: &[u64; W],
    nonce: &[u64; W],
) -> [[u32; W]; 16] {
    let mut state = [[0u32; W]; 16];
    for i in 0..4 {
        state[i] = [CONSTANTS[i]; W];
        // 128-bit key repeated, as in the original 128-bit variant.
        state[4 + i] = key[i];
        state[8 + i] = key[i];
    }
    for l in 0..W {
        state[12][l] = (counter[l] & 0xffff_ffff) as u32;
        state[13][l] = (counter[l] >> 32) as u32;
        state[14][l] = (nonce[l] & 0xffff_ffff) as u32;
        state[15][l] = (nonce[l] >> 32) as u32;
    }

    let mut working = state;
    for _ in 0..10 {
        for l in 0..W {
            // Column rounds.
            quarter_round(&mut working, l, 0, 4, 8, 12);
            quarter_round(&mut working, l, 1, 5, 9, 13);
            quarter_round(&mut working, l, 2, 6, 10, 14);
            quarter_round(&mut working, l, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, l, 0, 5, 10, 15);
            quarter_round(&mut working, l, 1, 6, 11, 12);
            quarter_round(&mut working, l, 2, 7, 8, 13);
            quarter_round(&mut working, l, 3, 4, 9, 14);
        }
    }
    for i in 0..16 {
        for l in 0..W {
            working[i][l] = working[i][l].wrapping_add(state[i][l]);
        }
    }
    working
}

/// The first 16 keystream bytes of each lane's `(key, nonce)` stream, as
/// four words — all a sealed key or a derived key ever consumes. Kept out
/// of line: the round loop wants every register, and inlined into a seal
/// the values live around it spill into the loop.
#[inline(never)]
pub(crate) fn first_words<const W: usize>(key: &[[u32; W]; 4], nonce: &[u64; W]) -> [[u32; W]; 4] {
    let out = block(key, &[0; W], nonce);
    [out[0], out[1], out[2], out[3]]
}

/// [`first_words`] of `(key, nonce)` pairs, serialised: per lane, exactly
/// what `StreamCipher::new(key, nonce).apply(&mut [0; 16])` leaves.
#[inline(always)]
pub(crate) fn keystream16_lanes<const W: usize>(items: &[(SymKey, u64); W]) -> [[u8; 16]; W] {
    let key = word_lanes(items.each_ref().map(|(key, _)| key.as_bytes()));
    let words = first_words(&key, &items.each_ref().map(|&(_, nonce)| nonce));
    core::array::from_fn(|l| lane_bytes(&words, l))
}

/// A seekable stream cipher instance bound to one key and nonce.
///
/// Encryption and decryption are the same operation (XOR with the
/// keystream). The 64-bit nonce lets callers derive a unique stream per
/// (rekey message, encryption) pair without carrying nonces on the wire.
#[derive(Clone, Debug)]
pub struct StreamCipher {
    key: [[u32; 1]; 4],
    nonce: u64,
    counter: u64,
    buffer: [u8; BLOCK_LEN],
    buffered: usize, // bytes of `buffer` already consumed
}

impl StreamCipher {
    /// Creates a cipher keyed by `key` with the given 64-bit nonce,
    /// positioned at the start of the keystream.
    pub fn new(key: &SymKey, nonce: u64) -> Self {
        StreamCipher {
            key: word_lanes([key.as_bytes()]),
            nonce,
            counter: 0,
            buffer: [0u8; BLOCK_LEN],
            buffered: BLOCK_LEN,
        }
    }

    fn block(&self, counter: u64) -> [u8; BLOCK_LEN] {
        let words = block(&self.key, &[counter], &[self.nonce]);
        let mut out = [0u8; BLOCK_LEN];
        for (bytes, [word]) in out.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the next `data.len()` keystream bytes into `data`
    /// (encrypts or decrypts, identically).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.buffered == BLOCK_LEN {
                self.buffer = self.block(self.counter);
                // The 64-bit block counter rolls over after 2^70 keystream
                // bytes — unreachable for 20-byte sealed keys and 8-byte
                // nonces, so wrapping is the panic-free choice here.
                self.counter = self.counter.wrapping_add(1);
                self.buffered = 0;
            }
            *byte ^= self.buffer[self.buffered];
            self.buffered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymKey {
        SymKey::from_bytes([b; 16])
    }

    /// The first `n` keystream bytes of `(key, nonce)`.
    fn keystream(key: &SymKey, nonce: u64, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        StreamCipher::new(key, nonce).apply(&mut out);
        out
    }

    #[test]
    fn round_trip() {
        let k = key(7);
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let orig = data.clone();
        StreamCipher::new(&k, 42).apply(&mut data);
        assert_ne!(data, orig, "ciphertext must differ from plaintext");
        StreamCipher::new(&k, 42).apply(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let k = key(9);
        let a = keystream(&k, 1, 64);
        let b = keystream(&k, 2, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_give_different_streams() {
        let a = keystream(&key(1), 5, 64);
        let b = keystream(&key(2), 5, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let k = key(3);
        let mut whole = vec![0u8; 200];
        StreamCipher::new(&k, 77).apply(&mut whole);

        let mut pieces = vec![0u8; 200];
        let mut c = StreamCipher::new(&k, 77);
        for chunk in pieces.chunks_mut(13) {
            c.apply(chunk);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn keystream_is_not_trivially_periodic() {
        let k = key(11);
        let stream = keystream(&k, 0, BLOCK_LEN * 4);
        let (first, rest) = stream.split_at(BLOCK_LEN);
        assert_ne!(first, &rest[..BLOCK_LEN]);
        assert_ne!(first, &rest[BLOCK_LEN..2 * BLOCK_LEN]);
    }

    #[test]
    fn keystream_bytes_look_balanced() {
        // Crude sanity check, not a randomness test: over 64 KiB the
        // population of set bits should be close to half.
        let k = key(200);
        let stream = keystream(&k, 1234, 64 * 1024);
        let ones: u64 = stream.iter().map(|b| b.count_ones() as u64).sum();
        let total = (stream.len() * 8) as u64;
        let ratio = ones as f64 / total as f64;
        assert!((0.49..0.51).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn quarter_round_rfc7539_test_vector() {
        // The quarter-round function itself is the standard ChaCha one;
        // RFC 7539 §2.1.1 gives a known-answer vector for a single step.
        // Every lane of the generic function computes it.
        let mut state = [[0u32; 3]; 16];
        state[0] = [0x11111111; 3];
        state[1] = [0x01020304; 3];
        state[2] = [0x9b8d6f43; 3];
        state[3] = [0x01234567; 3];
        for l in 0..3 {
            quarter_round(&mut state, l, 0, 1, 2, 3);
        }
        assert_eq!(state[0], [0xea2a92f4; 3]);
        assert_eq!(state[1], [0xcb1cf8ce; 3]);
        assert_eq!(state[2], [0x4581472e; 3]);
        assert_eq!(state[3], [0x5881c4bb; 3]);
    }

    #[test]
    fn empty_input_is_noop() {
        let mut c = StreamCipher::new(&key(1), 0);
        let mut empty: [u8; 0] = [];
        c.apply(&mut empty);
        // Subsequent output still matches a fresh cipher.
        let mut next = [0u8; 16];
        c.apply(&mut next);
        assert_eq!(next.to_vec(), keystream(&key(1), 0, 16));
    }
}
