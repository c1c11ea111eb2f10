//! Tests pinning the bulk kernel to the scalar reference.
//!
//! `mul_acc_slice_wide` and the barycentric Lagrange rows are pure
//! performance reformulations: they must agree byte-for-byte with
//! `Gf256::mul_acc_slice` and the textbook O(k²) row construction for
//! every coefficient and every length — including the short lengths
//! around vector-width boundaries, where the kernel switches from the
//! log/exp tables to the vector loop.

use gf256::{bulk, Gf256, LagrangeCtx};
use proptest::prelude::*;

/// Lengths exercising the vector-width edges plus a broad random band.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        2usize..2048,
    ]
}

/// Every coefficient times every byte value, at every length from empty to
/// two AVX2 vectors, on slices that start one byte into their buffers: the
/// table path below the vector width and the vector loop from it on,
/// against the scalar path.
#[test]
fn short_slices_match_scalar_on_both_sides_of_the_vector_width() {
    const AT: usize = 1;
    for len in 0..=64usize {
        // 167 is odd, so windows of `len` consecutive positions, one after
        // another, reach every byte value.
        for start in (0..256).step_by(len.max(1)) {
            let src: Vec<u8> = (0..AT + len)
                .map(|i| ((start + i) * 167 + 13) as u8)
                .collect();
            let dst: Vec<u8> = (0..AT + len)
                .map(|i| ((start + i) * 89 + 201) as u8)
                .collect();
            for coeff in 0..=255 {
                let coeff = Gf256::new(coeff);
                let (mut fast, mut slow) = (dst.clone(), dst.clone());
                bulk::mul_acc_slice_wide(coeff, &src[AT..], &mut fast[AT..]);
                Gf256::mul_acc_slice(coeff, &src[AT..], &mut slow[AT..]);
                assert_eq!(fast, slow, "coeff {coeff} len {len} from {start}");
            }
        }
    }
}

/// Textbook O(k²) Lagrange row used as the oracle.
fn naive_lagrange_row(nodes: &[Gf256], x: Gf256) -> Vec<Gf256> {
    let k = nodes.len();
    let mut row = vec![Gf256::ZERO; k];
    for i in 0..k {
        let mut num = Gf256::ONE;
        let mut den = Gf256::ONE;
        for j in 0..k {
            if i == j {
                continue;
            }
            num *= x + nodes[j];
            den *= nodes[i] + nodes[j];
        }
        row[i] = num / den;
    }
    row
}

/// `k` distinct field elements (zero included), shuffled by `state`.
fn distinct_nodes(k: usize, mut state: u64) -> Vec<Gf256> {
    let mut all: Vec<u8> = (0..=255).collect();
    for i in (1..all.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        all.swap(i, (state >> 33) as usize % (i + 1));
    }
    all[..k].iter().map(|&v| Gf256::new(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `mul_acc_slice_wide` == scalar `mul_acc_slice` for random
    /// coefficients, random bytes, and every length class.
    #[test]
    fn wide_kernel_matches_scalar(
        coeff in any::<u8>(),
        len in len_strategy(),
        fill in proptest::collection::vec(any::<u8>(), 4096),
        seed in proptest::collection::vec(any::<u8>(), 4096),
    ) {
        let coeff = Gf256::new(coeff);
        let src = &fill[..len];
        let mut fast = seed[..len].to_vec();
        let mut slow = fast.clone();
        bulk::mul_acc_slice_wide(coeff, src, &mut fast);
        Gf256::mul_acc_slice(coeff, src, &mut slow);
        prop_assert_eq!(fast, slow, "coeff {} len {}", coeff, len);
    }

    /// Barycentric rows == naive O(k²) rows over arbitrary node sets, at
    /// arbitrary evaluation points (on-node points included).
    #[test]
    fn barycentric_row_matches_naive(
        k in 1usize..=64,
        pick in any::<u64>(),
        point in any::<u8>(),
    ) {
        let ctx = LagrangeCtx::new(distinct_nodes(k, pick)).unwrap();
        let x = Gf256::new(point);
        prop_assert_eq!(
            ctx.row(x),
            naive_lagrange_row(ctx.nodes(), x),
            "k {} x {}", k, x
        );
    }

    /// A barycentric row really evaluates the interpolating polynomial:
    /// for random coefficients of a degree-< k polynomial, dotting the row
    /// at `x` with the polynomial's values at the nodes gives its value at
    /// `x` — the identity both the encoder (nodes = data points) and the
    /// decoder (nodes = whichever points arrived) stand on.
    #[test]
    fn row_reproduces_polynomial_evaluation(
        k in 1usize..=32,
        coeffs in proptest::collection::vec(any::<u8>(), 32),
        pick in any::<u64>(),
        point in any::<u8>(),
    ) {
        let horner = |x: Gf256| {
            coeffs[..k]
                .iter()
                .rev()
                .fold(Gf256::ZERO, |acc, &c| acc * x + Gf256::new(c))
        };
        let ctx = LagrangeCtx::new(distinct_nodes(k, pick)).unwrap();
        let x = Gf256::new(point);
        let via_row: Gf256 = ctx
            .row(x)
            .into_iter()
            .zip(ctx.nodes())
            .map(|(c, &node)| c * horner(node))
            .sum();
        prop_assert_eq!(via_row, horner(x), "k {} x {}", k, x);
    }
}
