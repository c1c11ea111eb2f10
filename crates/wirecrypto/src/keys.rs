//! Symmetric keys and the deterministic key generator.

use core::fmt;

use crate::StreamCipher;

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

/// A deterministic generator of fresh symmetric keys.
///
/// The key server mints a new key for every k-node it changes each rekey
/// interval; a seeded generator keeps whole simulation runs reproducible.
/// Internally this is the stream cipher keyed by the seed, used as a DRBG.
#[derive(Clone, Debug)]
pub struct KeyGen {
    stream: StreamCipher,
    generated: u64,
}

impl KeyGen {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut seed_key = [0u8; 16];
        seed_key[..8].copy_from_slice(&seed.to_le_bytes());
        seed_key[8..].copy_from_slice(&seed.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes());
        KeyGen {
            stream: StreamCipher::new(&SymKey::from_bytes(seed_key), 0xD1B5_4A32_D192_ED03),
            generated: 0,
        }
    }

    /// Mints the next key.
    pub fn next_key(&mut self) -> SymKey {
        let mut key = [0u8; 16];
        self.stream.apply(&mut key);
        self.generated += 1;
        SymKey::from_bytes(key)
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

    #[test]
    fn debug_never_leaks_middle_bytes() {
        let k = SymKey::from_bytes(*b"SECRETKEYMATERIA");
        let s = format!("{k:?}");
        assert!(!s.contains("SECRET"), "debug output leaked key bytes: {s}");
    }
}
