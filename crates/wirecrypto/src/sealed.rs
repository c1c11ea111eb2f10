//! Sealed key blobs: the 20-byte authenticated encryption `{k'}_k` that the
//! paper calls an *encryption*.
//!
//! Layout: 16 bytes of ciphertext (the encrypted key) followed by a 4-byte
//! MAC tag. The nonce is not carried on the wire; both sides derive it from
//! context (`(rekey message id, encryption id)`), which is unique because a
//! key encrypts at most one other key per rekey message.

use crate::chacha::{first_words, lane_bytes, word_lanes};
use crate::mac::{fold32, tags_equal, SipLanes};
use crate::SymKey;

/// Wire length of a sealed key: 16-byte ciphertext + 4-byte tag. This is
/// the `20` in the paper's USR-packet bound `3 + 20h` bytes.
pub const SEALED_KEY_LEN: usize = 20;

/// Why unsealing failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsealError {
    /// The authentication tag did not verify: wrong key-encrypting key,
    /// wrong context, or corrupted bytes.
    BadTag,
}

impl core::fmt::Display for UnsealError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnsealError::BadTag => write!(f, "sealed key failed authentication"),
        }
    }
}

impl std::error::Error for UnsealError {}

/// A sealed (encrypted + authenticated) key as carried in ENC and USR
/// packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedKey {
    bytes: [u8; SEALED_KEY_LEN],
}

/// The 4-byte tag of each lane: the MAC, under the lane's key, of its 16
/// ciphertext bytes followed by its context — three whole message words.
#[inline(always)]
fn tag_lanes<const W: usize>(
    key: &[[u32; W]; 4],
    ct: &[[u32; W]; 4],
    context: &[u64; W],
) -> [u32; W] {
    let pair = |lo: &[u32; W], hi: &[u32; W]| -> [u64; W] {
        core::array::from_fn(|l| u64::from(lo[l]) | u64::from(hi[l]) << 32)
    };
    let mut mac = SipLanes::new(pair(&key[0], &key[1]), pair(&key[2], &key[3]));
    mac.absorb(pair(&ct[0], &ct[1]));
    mac.absorb(pair(&ct[2], &ct[3]));
    mac.absorb(*context);
    mac.finish([0; W], 24).map(fold32)
}

/// Seals `W` `(kek, plain, context)` triples, one per lane: the cipher's
/// first 16 keystream bytes of `(kek, context)` over the plain key, then
/// the tag binding ciphertext and context under the same key.
/// [`SealedKey::seal`] is `W = 1`; the batch entry is `W = 8`.
#[inline(always)]
pub(crate) fn seal_lanes<const W: usize>(items: &[(SymKey, SymKey, u64); W]) -> [SealedKey; W] {
    let key = word_lanes(items.each_ref().map(|(kek, _, _)| kek.as_bytes()));
    let mut ct = word_lanes(items.each_ref().map(|(_, plain, _)| plain.as_bytes()));
    let context = items.each_ref().map(|&(_, _, context)| context);
    xor_words(&mut ct, &first_words(&key, &context));
    let tag = tag_lanes(&key, &ct, &context);
    core::array::from_fn(|l| {
        let mut bytes = [0u8; SEALED_KEY_LEN];
        bytes[..16].copy_from_slice(&lane_bytes(&ct, l));
        bytes[16..].copy_from_slice(&tag[l].to_le_bytes());
        SealedKey { bytes }
    })
}

/// Unseals `W` `(kek, sealed, context)` triples, one per lane: the tag is
/// recomputed under the lane's key and checked for that lane alone, and the
/// cipher's first 16 keystream bytes of `(kek, context)` recover its key. A
/// lane whose tag fails is [`UnsealError::BadTag`] whatever the others hold.
/// [`SealedKey::unseal`] is `W = 1`; the batch entry is `W = 8`.
#[inline(always)]
pub(crate) fn unseal_lanes<const W: usize>(
    items: &[(SymKey, SealedKey, u64); W],
) -> [Result<SymKey, UnsealError>; W] {
    let key = word_lanes(items.each_ref().map(|(kek, _, _)| kek.as_bytes()));
    let ct = items.each_ref().map(|(_, sealed, _)| sealed.ciphertext());
    let mut words = word_lanes(ct.each_ref());
    let context = items.each_ref().map(|&(_, _, context)| context);
    let tag = tag_lanes(&key, &words, &context);
    xor_words(&mut words, &first_words(&key, &context));
    core::array::from_fn(|l| {
        if tags_equal(tag[l], items[l].1.tag()) {
            Ok(SymKey::from_bytes(lane_bytes(&words, l)))
        } else {
            Err(UnsealError::BadTag)
        }
    })
}

/// XORs each lane's keystream words into its data words.
#[inline(always)]
fn xor_words<const W: usize>(data: &mut [[u32; W]; 4], stream: &[[u32; W]; 4]) {
    for (word, ks) in data.iter_mut().zip(stream) {
        for l in 0..W {
            word[l] ^= ks[l];
        }
    }
}

impl SealedKey {
    /// Seals `plain` under the key-encrypting key `kek` within `context`
    /// (a caller-chosen unique value — the protocol uses
    /// `(rekey message id << 32) | encryption id`).
    pub fn seal(kek: &SymKey, plain: &SymKey, context: u64) -> Self {
        let [sealed] = seal_lanes(&[(*kek, *plain, context)]);
        sealed
    }

    /// Attempts to recover the sealed key with `kek` in `context`.
    pub fn unseal(&self, kek: &SymKey, context: u64) -> Result<SymKey, UnsealError> {
        let [unsealed] = unseal_lanes(&[(*kek, *self, context)]);
        unsealed
    }

    /// The 16 ciphertext bytes.
    #[inline(always)]
    fn ciphertext(&self) -> [u8; 16] {
        core::array::from_fn(|i| self.bytes[i])
    }

    /// The 4-byte tag, as the word the MAC folds to.
    #[inline(always)]
    fn tag(&self) -> u32 {
        let [.., a, b, c, d] = self.bytes;
        u32::from_le_bytes([a, b, c, d])
    }

    /// Raw wire bytes.
    pub fn as_bytes(&self) -> &[u8; SEALED_KEY_LEN] {
        &self.bytes
    }

    /// Parses wire bytes (no verification happens until [`Self::unseal`]).
    pub fn from_bytes(bytes: [u8; SEALED_KEY_LEN]) -> Self {
        SealedKey { bytes }
    }

    /// Parses from a slice, returning `None` on wrong length.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        let bytes: [u8; SEALED_KEY_LEN] = slice.try_into().ok()?;
        Some(SealedKey { bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymKey {
        SymKey::from_bytes([b; 16])
    }

    #[test]
    fn seal_unseal_round_trip() {
        let kek = key(1);
        let plain = key(2);
        let sealed = SealedKey::seal(&kek, &plain, 42);
        assert_eq!(sealed.unseal(&kek, 42).unwrap(), plain);
    }

    #[test]
    fn wrong_kek_fails() {
        let sealed = SealedKey::seal(&key(1), &key(2), 42);
        assert_eq!(sealed.unseal(&key(3), 42), Err(UnsealError::BadTag));
    }

    #[test]
    fn wrong_context_fails() {
        let sealed = SealedKey::seal(&key(1), &key(2), 42);
        assert_eq!(sealed.unseal(&key(1), 43), Err(UnsealError::BadTag));
    }

    #[test]
    fn corruption_is_detected() {
        let kek = key(1);
        let sealed = SealedKey::seal(&kek, &key(2), 7);
        for i in 0..SEALED_KEY_LEN {
            let mut bytes = *sealed.as_bytes();
            bytes[i] ^= 0x40;
            let tampered = SealedKey::from_bytes(bytes);
            assert_eq!(
                tampered.unseal(&kek, 7),
                Err(UnsealError::BadTag),
                "flip in byte {i} went undetected"
            );
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let sealed = SealedKey::seal(&key(1), &key(2), 1);
        assert_ne!(&sealed.as_bytes()[..16], key(2).as_bytes());
    }

    #[test]
    fn same_plain_different_context_different_wire() {
        let a = SealedKey::seal(&key(1), &key(2), 1);
        let b = SealedKey::seal(&key(1), &key(2), 2);
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn from_slice_length_check() {
        assert!(SealedKey::from_slice(&[0u8; SEALED_KEY_LEN]).is_some());
        assert!(SealedKey::from_slice(&[0u8; 19]).is_none());
        assert!(SealedKey::from_slice(&[0u8; 21]).is_none());
    }
}
