//! The bulk (slice-at-a-time) multiply-accumulate kernel.
//!
//! [`Gf256::mul_acc_slice`](crate::Gf256::mul_acc_slice) walks the log/exp
//! tables one byte at a time — two dependent table loads plus a zero test
//! per byte. That is the textbook formulation, but it is also the inner
//! loop of Reed–Solomon coding (`k` passes per parity packet and per
//! rebuilt data packet), so a server or a lossy receiver spends almost all
//! of its FEC time there. [`mul_acc_slice_wide`] is the one kernel the
//! coder runs: the eight multiples `coeff · alpha^b` are computed once per
//! call, and each byte's product is the XOR of the multiples its set bits
//! select — eight mask-and-XOR steps per byte, no table loads and no
//! per-byte reduction — which LLVM autovectorizes, 32 bytes per vector op
//! with AVX2.
//!
//! A slice shorter than one vector never reaches the vector loop, and for
//! it the eight multiples cost more than the bytes: such a slice (a
//! receiver probing a rebuilt packet's six-byte header) takes the log/exp
//! tables instead.
//!
//! It agrees byte-for-byte with the scalar path, which is kept as its
//! oracle: exhaustively (every coefficient times every byte value, on an
//! unaligned slice, at every length up to two vectors) in this module's
//! tests and in `tests/bulk_kernels.rs`, and by property tests there.

// A silent truncation here corrupts algebra instead of crashing.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::tables::{xtime, EXP, LOG};
use crate::Gf256;

/// One AVX2 vector: a slice shorter than this takes the table path.
const SHORT: usize = 32;

/// Plain slice XOR: `dst[i] ^= src[i]` — the `coeff == 1` fast path.
fn xor_slice(src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// Wide fused multiply-accumulate: `dst[i] ^= coeff * src[i]`, formulated
/// for autovectorization.
///
/// Instead of table lookups (which vectorize poorly — a gather per byte),
/// the product uses linearity over the bits of the source byte:
/// `coeff · s = ⊕_b s_b · (coeff · alpha^b)`. The eight multiples
/// `m_b = coeff · alpha^b` are computed once per call; each byte then XORs
/// together the `m_b` whose bit `b` is set, selected by a mask that is the
/// sign of the byte shifted so bit `b` lands on top. Every step is pure
/// byte-wise logic, so LLVM turns the loop into SIMD code (16 lanes under
/// SSE2, 32 under AVX2) — this is the fastest multiply the workspace can
/// express without `unsafe`. A slice shorter than one vector is multiplied
/// through the log/exp tables instead.
///
/// # Panics
///
/// Panics when the slices differ in length, mirroring
/// [`Gf256::mul_acc_slice`].
pub fn mul_acc_slice_wide(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "mul_acc_slice_wide requires equal-length slices"
    );
    if coeff.is_zero() {
        return;
    }
    if coeff == Gf256::ONE {
        xor_slice(src, dst);
        return;
    }
    if src.len() < SHORT {
        let log_c = usize::from(LOG[usize::from(coeff.value())]);
        for (d, &s) in dst.iter_mut().zip(src) {
            // EXP is doubled, so a sum of two logs needs no reduction.
            *d ^= match s {
                0 => 0,
                s => EXP[log_c + usize::from(LOG[usize::from(s)])],
            };
        }
        return;
    }
    // alpha = x, so each multiple is the one before it times x.
    let mut multiples = [0u8; 8];
    let mut m = coeff.value();
    for slot in &mut multiples {
        *slot = m;
        m = xtime(m);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        let mut acc = 0u8;
        for (b, &m) in multiples.iter().enumerate() {
            // All ones when bit b of s is set: its sign once it is on top.
            let mask = ((s << (7 - b)) as i8 >> 7) as u8;
            acc ^= m & mask;
        }
        *d ^= acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every coefficient times every byte value, on a 1021-byte slice that
    /// starts 3 bytes into its buffer, where an FEC body sits in a wire
    /// frame: the vector body, the tail and the unaligned start all run.
    #[test]
    fn wide_mul_acc_matches_scalar_kernel() {
        const AT: usize = 3;
        // 167 is odd, so every 256 consecutive bytes hold each value once.
        let src: Vec<u8> = (0..AT + 1021).map(|i| (i * 167 + 13) as u8).collect();
        let dst: Vec<u8> = (0..src.len()).map(|i| (i * 89 + 201) as u8).collect();
        for coeff in 0..=255 {
            let coeff = Gf256::new(coeff);
            let mut fast = dst.clone();
            let mut slow = dst.clone();
            mul_acc_slice_wide(coeff, &src[AT..], &mut fast[AT..]);
            Gf256::mul_acc_slice(coeff, &src[AT..], &mut slow[AT..]);
            assert_eq!(fast, slow, "coeff = {coeff}");
        }
    }

    #[test]
    fn vector_width_edges_are_exact() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let src: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            let mut fast = vec![0x11u8; len];
            let mut slow = fast.clone();
            mul_acc_slice_wide(Gf256::new(0xc3), &src, &mut fast);
            Gf256::mul_acc_slice(Gf256::new(0xc3), &src, &mut slow);
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn wide_length_mismatch_panics() {
        let mut dst = [0u8; 3];
        mul_acc_slice_wide(Gf256::ONE, &[1, 2], &mut dst);
    }
}
