//! The batch entries: the cipher and the MAC run [`LANES`] independent
//! inputs at a time through the same lane-generic round functions the
//! one-at-a-time entries instantiate at one lane.
//!
//! A key server seals thousands of `(kek, plain, context)` triples and
//! derives hundreds of node keys per rekey interval, and no two of them
//! depend on each other — so eight go through the ChaCha block and the
//! SipHash rounds side by side, each `[u32; 8]` state word one AVX2
//! register. Inputs are taken in groups of [`LANES`] in iteration order; a
//! short last group is padded with dummy lanes (the all-zero key, context
//! 0) whose outputs are dropped, so there is one code path whatever the
//! length. Element for element the results are byte-identical to
//! [`SealedKey::seal`] and to a fresh [`StreamCipher`](crate::StreamCipher)'s
//! first 16 bytes.
//!
//! Unsealing goes the other way, one group at a time: a receiver's path is
//! a chain (each key-encrypting key is the previous plaintext), so the
//! eight lanes of [`unseal_group`] are eight receivers' next links, and the
//! caller refills a lane as its chain moves on. Lane for lane the result is
//! [`SealedKey::unseal`]'s, tag check included.

use crate::chacha::keystream16_lanes;
use crate::sealed::{seal_lanes, unseal_lanes};
use crate::{SealedKey, SymKey, UnsealError};

/// Lane count of the batch kernels: eight 32-bit words fill one 256-bit
/// vector register.
pub const LANES: usize = 8;

/// Feeds `items` through `kernel` in groups of [`LANES`], padding the last
/// group with `pad`, and hands `sink` each real item's index and output in
/// input order.
// xcheck: no_alloc
#[inline(always)]
fn in_groups<I: Copy, O>(
    items: impl IntoIterator<Item = I>,
    pad: I,
    kernel: impl Fn(&[I; LANES]) -> [O; LANES],
    mut sink: impl FnMut(usize, O),
) {
    // Fused: the loop asks once more after a short group, and an input
    // such as a `map_while` may resume after its first `None`.
    let mut items = items.into_iter().fuse();
    let mut done = 0;
    loop {
        let mut group = [pad; LANES];
        let mut filled = 0;
        for (slot, item) in group.iter_mut().zip(items.by_ref()) {
            *slot = item;
            filled += 1;
        }
        if filled == 0 {
            return;
        }
        for out in kernel(&group).into_iter().take(filled) {
            sink(done, out);
            done += 1;
        }
    }
}

/// Seals every `(kek, plain, context)` triple of `items`, eight at a time,
/// handing `sink` each triple's index and its [`SealedKey::seal`] result in
/// input order.
// xcheck: no_alloc
pub fn seal_batch(
    items: impl IntoIterator<Item = (SymKey, SymKey, u64)>,
    sink: impl FnMut(usize, SealedKey),
) {
    let zero = SymKey::from_bytes([0; 16]);
    in_groups(items, (zero, zero, 0), seal_lanes::<LANES>, sink);
}

/// Unseals eight `(kek, sealed, context)` triples side by side: lane for
/// lane what [`SealedKey::unseal`] returns, each lane's tag checked on its
/// own, so a lane that fails fails alone. A caller with fewer than eight
/// pads with any triple and drops its result.
// xcheck: no_alloc
pub fn unseal_group(
    items: &[(SymKey, SealedKey, u64); LANES],
) -> [Result<SymKey, UnsealError>; LANES] {
    unseal_lanes(items)
}

/// The first 16 keystream bytes of every `(key, nonce)` pair of `items`,
/// eight at a time — per pair what `StreamCipher::new(&key, nonce)` leaves
/// in a zeroed 16-byte buffer — handed to `sink` with the pair's index, in
/// input order. This is the PRF the key tree derives a batch's node keys
/// with.
// xcheck: no_alloc
pub fn keystream16_batch(
    items: impl IntoIterator<Item = (SymKey, u64)>,
    sink: impl FnMut(usize, [u8; 16]),
) {
    let zero = SymKey::from_bytes([0; 16]);
    in_groups(items, (zero, 0), keystream16_lanes::<LANES>, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamCipher, SEALED_KEY_LEN};
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn key_from(seed: u64, salt: u64) -> SymKey {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.wrapping_mul(salt | 1).to_le_bytes());
        bytes[8..].copy_from_slice(&(seed ^ salt).rotate_left(29).to_le_bytes());
        SymKey::from_bytes(bytes)
    }

    /// `len` triples spread from one seed (distinct keys and contexts).
    fn triples(seed: u64, len: usize) -> Vec<(SymKey, SymKey, u64)> {
        (0..len as u64)
            .map(|i| {
                let s = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (key_from(s, 0xA5), key_from(s, 0x5A), s.rotate_left(17) ^ i)
            })
            .collect()
    }

    fn scalar_keystream16(key: &SymKey, nonce: u64) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        StreamCipher::new(key, nonce).apply(&mut bytes);
        bytes
    }

    proptest! {
        // Every length around the group size: empty, short tail, exact
        // multiples, a tail after full groups.
        #[test]
        fn batch_seal_equals_scalar_seal_and_unseals(seed in any::<u64>()) {
            for len in 0..=40usize {
                let items = triples(seed, len);
                let mut got = Vec::new();
                seal_batch(items.iter().copied(), |i, sealed| got.push((i, sealed)));
                prop_assert_eq!(got.len(), len);
                for (want_i, ((i, sealed), (kek, plain, context))) in
                    got.iter().zip(&items).enumerate()
                {
                    prop_assert_eq!(*i, want_i);
                    prop_assert_eq!(*sealed, SealedKey::seal(kek, plain, *context));
                    prop_assert_eq!(sealed.unseal(kek, *context), Ok(*plain));
                }
            }
        }

        // Every lane of every group, at the same lengths, against the
        // one-lane unseal; then per group one lane forged three ways (wrong
        // kek, wrong context, one flipped byte): that lane fails, the
        // others still unseal.
        #[test]
        fn unseal_group_equals_scalar_unseal_lane_by_lane(seed in any::<u64>()) {
            for len in 0..=40usize {
                let items: Vec<(SymKey, SealedKey, u64)> = triples(seed, len)
                    .into_iter()
                    .map(|(kek, plain, context)| (kek, SealedKey::seal(&kek, &plain, context), context))
                    .collect();
                let plains: Vec<SymKey> = triples(seed, len).into_iter().map(|t| t.1).collect();
                let pad = (key_from(seed, 1), SealedKey::from_bytes([0; 20]), 0);
                for (g, chunk) in items.chunks(LANES).enumerate() {
                    let mut group = [pad; LANES];
                    group[..chunk.len()].copy_from_slice(chunk);
                    let got = unseal_group(&group);
                    for (l, (kek, sealed, context)) in chunk.iter().enumerate() {
                        prop_assert_eq!(got[l], sealed.unseal(kek, *context));
                        prop_assert_eq!(got[l], Ok(plains[g * LANES + l]));
                    }

                    let bad = (seed as usize ^ g) % chunk.len();
                    let (kek, sealed, context) = group[bad];
                    let mut flipped = *sealed.as_bytes();
                    flipped[(seed >> 8) as usize % SEALED_KEY_LEN] ^= 1 << ((seed >> 16) % 8);
                    let forgeries = [
                        (key_from(seed, 0x77), sealed, context),
                        (kek, sealed, context ^ 1),
                        (kek, SealedKey::from_bytes(flipped), context),
                    ];
                    for forged in forgeries {
                        let mut tampered = group;
                        tampered[bad] = forged;
                        let forged_got = unseal_group(&tampered);
                        for l in 0..chunk.len() {
                            if l == bad {
                                prop_assert_eq!(forged_got[l], Err(UnsealError::BadTag));
                            } else {
                                prop_assert_eq!(forged_got[l], got[l]);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn batch_keystream_equals_stream_cipher(seed in any::<u64>()) {
            for len in 0..=40usize {
                let items: Vec<(SymKey, u64)> =
                    triples(seed, len).into_iter().map(|(k, _, n)| (k, n)).collect();
                let mut got = Vec::new();
                keystream16_batch(items.iter().copied(), |i, bytes| got.push((i, bytes)));
                prop_assert_eq!(got.len(), len);
                for (want_i, ((i, bytes), (key, nonce))) in got.iter().zip(&items).enumerate() {
                    prop_assert_eq!(*i, want_i);
                    prop_assert_eq!(*bytes, scalar_keystream16(key, *nonce));
                }
            }
        }
    }

    #[test]
    fn known_answers_pin_both_paths() {
        // One sealed blob and one derived key, as hex: an edit to the
        // shared round functions moves the one-lane and the eight-lane
        // results together, so equality between them cannot catch it.
        let kek = SymKey::from_bytes(*b"0123456789abcdef");
        let plain = SymKey::from_bytes(*b"fedcba9876543210");
        let context = (7u64 << 32) | 1234;
        const SEALED: &str = "e1d9f607270abc2e93f349a81b3009af81900f3d";
        const DERIVED: &str = "711b66903dc366d4dd952e47f5a9c234";

        assert_eq!(
            hex(SealedKey::seal(&kek, &plain, context).as_bytes()),
            SEALED
        );
        assert_eq!(hex(&scalar_keystream16(&kek, 1234)), DERIVED);
        // The same inputs in the last lane of a padded group and in the
        // middle of a full one.
        for len in [1usize, 13] {
            let at = len - 1;
            let mut items = triples(3, len);
            items[at] = (kek, plain, context);
            seal_batch(items.iter().copied(), |i, sealed| {
                if i == at {
                    assert_eq!(hex(sealed.as_bytes()), SEALED);
                }
            });
            keystream16_batch(items.iter().map(|_| (kek, 1234)), |_, bytes| {
                assert_eq!(hex(&bytes), DERIVED);
            });
        }
    }
}
