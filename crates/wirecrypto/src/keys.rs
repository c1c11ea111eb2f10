//! Symmetric keys and the deterministic key generator.

use core::fmt;

use crate::batch::LANES;
use crate::chacha::{block, lane_bytes, word_lanes, BLOCK_LEN};

/// A 128-bit symmetric key: an individual key, auxiliary key, or the group
/// key, depending on which key-tree node holds it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymKey([u8; 16]);

impl SymKey {
    /// Length of a key in bytes.
    pub const LEN: usize = 16;

    /// Wraps raw key bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        SymKey(bytes)
    }

    /// Borrows the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Consumes the key into raw bytes.
    pub fn into_bytes(self) -> [u8; 16] {
        self.0
    }
}

impl fmt::Debug for SymKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print full key material in logs; show a short fingerprint.
        write!(
            f,
            "SymKey({:02x}{:02x}..{:02x}{:02x})",
            self.0[0], self.0[1], self.0[14], self.0[15]
        )
    }
}

/// Keys one refill of a [`KeyGen`] holds: one 64-byte keystream block per
/// lane of the eight-lane cipher.
const BUFFERED_KEYS: usize = LANES * BLOCK_LEN / SymKey::LEN;

/// A deterministic generator of fresh symmetric keys.
///
/// The key server mints a new key for every k-node it changes each rekey
/// interval; a seeded generator keeps whole simulation runs reproducible.
/// Internally this is the stream cipher keyed by the seed, used as a DRBG:
/// key `i` is keystream bytes `16i .. 16i + 16` of the seed's stream. The
/// keystream is made eight blocks (32 keys) at a time, one block per lane
/// of the batch cipher, and handed out 16 bytes at a time.
#[derive(Clone)]
pub struct KeyGen {
    /// The seed key's words, the same in every lane.
    key: [[u32; LANES]; 4],
    nonce: u64,
    /// Keystream block counter of the next refill's first lane.
    counter: u64,
    /// The keys of the last refill, in stream order.
    buffer: [[u8; SymKey::LEN]; BUFFERED_KEYS],
    /// How many of `buffer` were handed out.
    used: usize,
    generated: u64,
}

/// Prints the count only: the seed words and the buffer are the keys the
/// generator mints next.
impl fmt::Debug for KeyGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyGen")
            .field("generated", &self.generated)
            .finish_non_exhaustive()
    }
}

impl KeyGen {
    /// The stream key and nonce a generator from `seed` mints keys off.
    fn stream_of(seed: u64) -> (SymKey, u64) {
        let mut seed_key = [0u8; 16];
        seed_key[..8].copy_from_slice(&seed.to_le_bytes());
        seed_key[8..].copy_from_slice(&seed.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes());
        (SymKey::from_bytes(seed_key), 0xD1B5_4A32_D192_ED03)
    }

    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let (seed_key, nonce) = Self::stream_of(seed);
        KeyGen {
            key: word_lanes([seed_key.as_bytes(); LANES]),
            nonce,
            counter: 0,
            buffer: [[0; SymKey::LEN]; BUFFERED_KEYS],
            used: BUFFERED_KEYS,
            generated: 0,
        }
    }

    /// Mints the next key.
    pub fn next_key(&mut self) -> SymKey {
        if self.used == BUFFERED_KEYS {
            self.refill();
        }
        let key = self.buffer[self.used];
        self.used += 1;
        self.generated += 1;
        SymKey::from_bytes(key)
    }

    /// Fills the buffer with the next eight keystream blocks, block
    /// `counter + l` in lane `l`: four keys a lane.
    #[inline(never)]
    fn refill(&mut self) {
        let counters = core::array::from_fn(|l| self.counter.wrapping_add(l as u64));
        let words = block(&self.key, &counters, &[self.nonce; LANES]);
        let (quarters, _) = words.as_chunks::<4>();
        for (i, key) in self.buffer.iter_mut().enumerate() {
            *key = lane_bytes(&quarters[i % 4], i / 4);
        }
        // Wraps after 2^70 keystream bytes, as the one-lane cipher does.
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.used = 0;
    }

    /// Number of keys minted so far (a server-cost metric: one per changed
    /// k-node per rekey interval).
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = KeyGen::from_seed(12345);
        let mut b = KeyGen::from_seed(12345);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key());
        }
        assert_eq!(a.generated(), 100);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = KeyGen::from_seed(1);
        let mut b = KeyGen::from_seed(2);
        assert_ne!(a.next_key(), b.next_key());
    }

    #[test]
    fn keys_are_distinct_within_a_stream() {
        let mut g = KeyGen::from_seed(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(g.next_key()), "generator repeated a key");
        }
    }

    /// Key `i` of `seed`'s generator as the one-lane cipher makes it:
    /// keystream bytes `16i .. 16i + 16`, 16 bytes a call.
    fn scalar_keys(seed: u64, n: usize) -> Vec<SymKey> {
        let (key, nonce) = KeyGen::stream_of(seed);
        let mut stream = crate::StreamCipher::new(&key, nonce);
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 16];
                stream.apply(&mut bytes);
                SymKey::from_bytes(bytes)
            })
            .collect()
    }

    #[test]
    fn keys_are_the_scalar_stream_across_refills() {
        // 200 keys: six refills of 32 and a partial seventh.
        for seed in [0, 1, 7, 12345, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let mut g = KeyGen::from_seed(seed);
            let minted: Vec<SymKey> = (0..200).map(|_| g.next_key()).collect();
            assert_eq!(minted, scalar_keys(seed, 200), "seed {seed}");
            assert_eq!(g.generated(), 200);
        }
    }

    #[test]
    fn a_clone_mid_buffer_continues_identically() {
        let mut g = KeyGen::from_seed(99);
        for _ in 0..45 {
            g.next_key();
        }
        let mut twin = g.clone();
        for _ in 0..100 {
            assert_eq!(g.next_key(), twin.next_key());
        }
        assert_eq!(g.generated(), twin.generated());
    }

    #[test]
    fn known_answer_keys() {
        // The first key, and the first of the second refill: an edit to the
        // shared block function moves the scalar stream too, so equality
        // with it cannot catch that.
        let hex =
            |k: SymKey| -> String { k.as_bytes().iter().map(|b| format!("{b:02x}")).collect() };
        let mut g = KeyGen::from_seed(7);
        let keys: Vec<SymKey> = (0..33).map(|_| g.next_key()).collect();
        assert_eq!(hex(keys[0]), "e19f9df85cf111131f832bba9b95ed2f");
        assert_eq!(hex(keys[32]), "24a9c1565b387a7e8e13a1a7077bbe19");
    }

    #[test]
    fn debug_never_leaks_the_next_keys() {
        let mut g = KeyGen::from_seed(4242);
        for _ in 0..3 {
            g.next_key();
        }
        let s = format!("{g:?}");
        let next = g.clone().next_key();
        // What a derived `Debug` would print of the buffered bytes.
        let bytes = next.as_bytes().map(|b| b.to_string()).join(", ");
        assert!(!s.contains(&bytes), "debug output leaked the next key: {s}");
        assert_eq!(s, "KeyGen { generated: 3, .. }");
    }

    #[test]
    fn debug_never_leaks_middle_bytes() {
        let k = SymKey::from_bytes(*b"SECRETKEYMATERIA");
        let s = format!("{k:?}");
        assert!(!s.contains("SECRET"), "debug output leaked key bytes: {s}");
    }
}
