//! Deep self-checks for the erasure coder, for the tests and the
//! `sanitize` pass.
//!
//! [`verify_block_roundtrip`] takes the *actual* packet bodies of one FEC
//! block and proves, by construction, that the code laid over them is
//! recoverable: it re-encodes parities, erases data shares in several
//! patterns, decodes from what survives — in full, and one missing row on
//! its own — and demands the original bodies back byte for byte. The
//! sim/driver runs it on every block of every rekey message when built
//! with `--features sanitize`.

use crate::coder::{BlockEncoder, DecodeCtx, Decoder, Share};

/// Turns the `k` data bodies into data shares with indices `0..k`.
fn data_shares(bodies: &[Vec<u8>]) -> Vec<Share> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| Share {
            index: i,
            data: b.clone(),
        })
        .collect()
}

/// Decodes `shares` and demands exactly `bodies` back; then rebuilds one
/// missing row alone, the way a receiver does, and demands that body.
fn decode_and_compare(
    k: usize,
    shares: &[Share],
    bodies: &[Vec<u8>],
    what: &str,
) -> Result<(), String> {
    let failed = |e| format!("{what}: decode failed: {e}");
    let mut dec = Decoder::new(k).map_err(failed)?;
    if dec.decode(shares).map_err(failed)? != bodies {
        return Err(format!("{what}: decoded bodies differ from originals"));
    }
    let borrowed = shares.iter().map(|s| (s.index, s.data.as_slice()));
    let mut ctx = DecodeCtx::default();
    let missing = dec.decode_missing_in(&mut ctx, borrowed).map_err(failed)?;
    if let Some(i) = missing.indices().last() {
        let mut row = Vec::new();
        missing.row_into(i, &mut row).map_err(failed)?;
        if row != bodies[i] {
            return Err(format!("{what}: row {i} rebuilt alone differs"));
        }
    }
    Ok(())
}

/// Encode→erase→decode round trip over one block's data bodies.
///
/// Checks, with up to `parities` freshly encoded parity shares:
///
/// 1. decoding from the data shares alone is the identity;
/// 2. erasing the **first** `p` data shares and substituting the parities
///    still recovers every body;
/// 3. erasing the **last** `p` data shares likewise (different points
///    missing and held, so this is not redundant with 2).
///
/// `p` is `parities` capped at both `k` and the field limit. Returns the
/// first violation as text; the caller decides whether to panic.
pub fn verify_block_roundtrip(k: usize, bodies: &[Vec<u8>], parities: usize) -> Result<(), String> {
    if bodies.len() != k {
        return Err(format!(
            "block has {} bodies, expected k = {k}",
            bodies.len()
        ));
    }
    let mut enc = BlockEncoder::new(k).map_err(|e| format!("bad block size: {e}"))?;
    let p = parities.min(k).min(enc.max_parities());
    let parity_shares: Vec<Share> = (0..p)
        .map(|j| {
            enc.parity(j, bodies)
                .map(|data| Share { index: k + j, data })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parity encoding failed: {e}"))?;

    let data = data_shares(bodies);
    decode_and_compare(k, &data, bodies, "data-only identity")?;

    // Erase the first p data shares.
    let mut head_erased: Vec<Share> = data[p..].to_vec();
    head_erased.extend(parity_shares.iter().cloned());
    decode_and_compare(k, &head_erased, bodies, "head erasure")?;

    // Erase the last p data shares.
    let mut tail_erased: Vec<Share> = data[..k - p].to_vec();
    tail_erased.extend(parity_shares.iter().cloned());
    decode_and_compare(k, &tail_erased, bodies, "tail erasure")?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect()
    }

    #[test]
    fn roundtrip_accepts_consistent_blocks() {
        for k in [1, 2, 5, 8] {
            verify_block_roundtrip(k, &bodies(k, 64), 3).unwrap();
        }
    }

    #[test]
    fn roundtrip_rejects_wrong_body_count() {
        let err = verify_block_roundtrip(4, &bodies(3, 16), 2).unwrap_err();
        assert!(err.contains("expected k"), "{err}");
    }

    #[test]
    fn roundtrip_rejects_ragged_bodies() {
        let mut b = bodies(4, 16);
        b[2].push(0xFF);
        assert!(verify_block_roundtrip(4, &b, 2).is_err());
    }

    #[test]
    fn roundtrip_with_zero_parities_is_identity_only() {
        verify_block_roundtrip(5, &bodies(5, 8), 0).unwrap();
    }
}
