//! The bulk (slice-at-a-time) multiply-accumulate kernel.
//!
//! [`Gf256::mul_acc_slice`](crate::Gf256::mul_acc_slice) walks the log/exp
//! tables one byte at a time — two dependent table loads plus a zero test
//! per byte. That is the textbook formulation, but it is also the inner
//! loop of Reed–Solomon coding (`k` passes per parity packet and per
//! rebuilt data packet), so a server or a lossy receiver spends almost all
//! of its FEC time there. [`mul_acc_slice_wide`] is the one kernel the
//! coder runs: a branch-free carry-less formulation (eight shift/mask steps
//! per byte, no table loads at all) that LLVM autovectorizes — 32 bytes per
//! vector op with AVX2.
//!
//! It agrees byte-for-byte with the scalar path, which is kept as its
//! oracle; property tests in `tests/bulk_kernels.rs` pin that equivalence
//! down, including the `len ∈ {0, 1, 7, 8, 9}` edges around vector widths.

// A silent truncation here corrupts algebra instead of crashing.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::Gf256;

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
/// the product is computed as a carry-less shift-and-add over the bits of
/// `coeff`: eight branch-free steps of "conditionally accumulate, then
/// double in GF(2^8)". Every step is pure byte-wise logic, so LLVM turns
/// the loop into SIMD code (16 lanes under SSE2, 32 under AVX2) — this is
/// the fastest multiply the workspace can express without `unsafe`.
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
    let c = coeff.value();
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        let mut x = *s;
        let mut acc = 0u8;
        let mut cc = c;
        // Eight unrolled "Russian peasant" steps; the masks make every
        // step branch-free so the whole body maps onto vector lanes.
        let mut step = 0;
        while step < 8 {
            acc ^= x & 0u8.wrapping_sub(cc & 1);
            let hi = 0u8.wrapping_sub(x >> 7);
            x = (x << 1) ^ (hi & 0x1d); // xtime: reduce by 0x11d
            cc >>= 1;
            step += 1;
        }
        *d ^= acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_mul_acc_matches_scalar_kernel() {
        let src: Vec<u8> = (0..=255).collect();
        for coeff in [0u8, 1, 2, 0x1d, 0x80, 0xee, 0xff] {
            let coeff = Gf256::new(coeff);
            let mut fast = vec![0xA5u8; src.len()];
            let mut slow = fast.clone();
            mul_acc_slice_wide(coeff, &src, &mut fast);
            Gf256::mul_acc_slice(coeff, &src, &mut slow);
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
