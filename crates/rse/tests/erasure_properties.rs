//! Property-based tests: the MDS "any k of n decodes" guarantee under
//! random loss patterns, and robustness of the share-validation layer —
//! plus exhaustive sweeps of the small and extreme block sizes the random
//! patterns do not reach.

use proptest::prelude::*;
use rse::{BlockEncoder, DecodeCtx, Decoder, RseError, Share};

/// One-shot decode with a fresh decoder.
fn decode(k: usize, shares: &[Share]) -> Result<Vec<Vec<u8>>, RseError> {
    Decoder::new(k)?.decode(shares)
}

/// The block's `k` data shares followed by its first `parities` parity
/// shares, in share-index order.
fn all_shares(data: &[Vec<u8>], parities: usize) -> Vec<Share> {
    let k = data.len();
    let mut enc = BlockEncoder::new(k).unwrap();
    let mut all: Vec<Share> = (data.iter().cloned().enumerate())
        .map(|(index, data)| Share { index, data })
        .collect();
    for j in 0..parities {
        all.push(Share {
            index: k + j,
            data: enc.parity(j, data).unwrap(),
        });
    }
    all
}

/// Every k-subset — not a sample — of the k + 3 shares decodes to the
/// original block, for every k in 1..=6 (k = 1 included: every share is
/// then a copy of the one data packet).
#[test]
fn every_k_subset_of_small_blocks_decodes() {
    for k in 1..=6usize {
        let data = block_from_seed(k as u64, k, 24);
        let all = all_shares(&data, 3);
        let n = all.len();
        let mut subsets = 0;
        for mask in 0u32..1 << n {
            if mask.count_ones() as usize != k {
                continue;
            }
            let shares: Vec<Share> = (0..n)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| all[i].clone())
                .collect();
            assert_eq!(decode(k, &shares).unwrap(), data, "k {k} mask {mask:#b}");
            subsets += 1;
        }
        // C(k + 3, k) = C(k + 3, 3).
        assert_eq!(subsets, (k + 3) * (k + 2) * (k + 1) / 6, "k {k}");
    }
}

/// The largest block the field admits has exactly one parity; it must
/// stand in for any single lost data packet.
#[test]
fn largest_block_repairs_any_single_loss_with_its_only_parity() {
    let k = 254;
    let data = block_from_seed(254, k, 16);
    let all = all_shares(&data, 1);
    assert_eq!(all.len(), rse::MAX_SYMBOLS);
    let (dec, mut ctx) = (Decoder::new(k).unwrap(), DecodeCtx::default());
    for (lost, body) in data.iter().enumerate() {
        let held = (all.iter())
            .filter(|s| s.index != lost)
            .map(|s| (s.index, s.data.as_slice()));
        let missing = dec.decode_missing_in(&mut ctx, held).unwrap();
        assert_eq!(missing.indices().collect::<Vec<_>>(), [lost]);
        let mut row = vec![0xFFu8; 3];
        missing.row_into(lost, &mut row).unwrap();
        assert_eq!(&row, body, "lost {lost}");
    }
}

/// Deterministic pseudo-random data block derived from a seed.
fn block_from_seed(seed: u64, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|b| {
                    let x = seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((i * 1031 + b * 7 + 1) as u64);
                    (x >> 24) as u8
                })
                .collect()
        })
        .collect()
}

/// Fisher–Yates selection of `take` distinct indices out of `0..n`.
fn pick_distinct(n: usize, take: usize, mut state: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any k survivors out of k data + p parity packets reconstruct the
    /// block, regardless of which packets were lost.
    #[test]
    fn any_k_of_n_decodes(
        seed in any::<u64>(),
        k in 1usize..20,
        extra_parities in 0usize..12,
        len in 1usize..128,
        pattern in any::<u64>(),
    ) {
        let data = block_from_seed(seed, k, len);
        let mut enc = BlockEncoder::new(k).unwrap();
        let n = k + extra_parities;

        let mut all: Vec<Share> = Vec::with_capacity(n);
        for (i, d) in data.iter().enumerate() {
            all.push(Share { index: i, data: d.clone() });
        }
        for j in 0..extra_parities {
            all.push(Share { index: k + j, data: enc.parity(j, &data).unwrap() });
        }

        let survivors = pick_distinct(n, k, pattern);
        let shares: Vec<Share> = survivors.iter().map(|&i| all[i].clone()).collect();
        prop_assert_eq!(decode(k, &shares).unwrap(), data);
    }

    /// The borrowed-slice decode is `decode(&[Share])` minus the copies and
    /// minus the rows nobody asked for: it names exactly the data packets
    /// missing from the shares used, in index order; any one of them,
    /// rebuilt alone, in any order, any number of times, into one reused
    /// buffer, is byte-equal to that row of the full decode; and it reports
    /// the same error on the same bad input.
    #[test]
    fn any_single_lazily_rebuilt_row_is_that_row_of_decode(
        seed in any::<u64>(),
        k in 1usize..20,
        extra_parities in 0usize..12,
        len in 1usize..128,
        pattern in any::<u64>(),
        order in any::<u64>(),
        spoil in 0usize..5,
    ) {
        let data = block_from_seed(seed, k, len);
        let all = all_shares(&data, extra_parities);
        let survivors = pick_distinct(all.len(), k, pattern);
        let mut shares: Vec<Share> = survivors.iter().map(|&i| all[i].clone()).collect();
        // Four ways to spoil the input, and one to leave it alone.
        match spoil {
            1 if k > 1 => shares[k - 1].data.push(0),
            2 => shares[0].index = 255,
            3 => shares.truncate(k - 1),
            4 if k > 1 => shares[k - 1].index = shares[0].index,
            _ => {}
        }

        let mut dec = Decoder::new(k).unwrap();
        let full = dec.decode(&shares);
        let mut ctx = DecodeCtx::default();
        let borrowed = shares.iter().map(|s| (s.index, s.data.as_slice()));
        let missing = dec.decode_missing_in(&mut ctx, borrowed);
        match (full, missing) {
            (Ok(full), Ok(missing)) => {
                prop_assert_eq!(&full, &data);
                let held: Vec<usize> = shares.iter().take(k).map(|s| s.index).collect();
                let want: Vec<usize> = (0..k).filter(|i| !held.contains(i)).collect();
                let got: Vec<usize> = missing.indices().collect();
                prop_assert_eq!(&got, &want, "present rows are not offered");

                // Twice over the missing rows, in a drawn order, one buffer.
                let mut row = vec![0xA5u8; len + 1];
                let requests = pick_distinct(2 * want.len(), 2 * want.len(), order);
                for i in requests.into_iter().map(|r| want[r % want.len()]) {
                    missing.row_into(i, &mut row).unwrap();
                    prop_assert_eq!(&row, &full[i], "row {}", i);
                }
                // A row that arrived and an index past the data are errors
                // that write nothing.
                let before = row.clone();
                for i in held.iter().copied().filter(|&i| i < k).chain([k]) {
                    let refused = missing.row_into(i, &mut row);
                    prop_assert_eq!(refused, Err(RseError::IndexOutOfRange { index: i, max: k - 1 }));
                }
                prop_assert_eq!(row, before);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decode {a:?} but decode_missing_in {:?}", b.map(|_| ())),
        };
    }

    /// A prefix of a missing packet is that prefix of the whole packet: for
    /// random k (1..=64), body lengths and share sets that mix data and
    /// parity, every missing index and every length up to the body's, the
    /// prefix rebuilt into a dirty buffer equals the first bytes of the row
    /// `row_into` rebuilds, and that row is the lost packet. One byte more
    /// than a body is refused and writes nothing.
    #[test]
    fn every_prefix_of_a_missing_row_is_that_prefix_of_the_row(
        seed in any::<u64>(),
        k in 1usize..=64,
        extra_parities in 1usize..12,
        len in 0usize..48,
        pattern in any::<u64>(),
    ) {
        let data = block_from_seed(seed, k, len);
        let all = all_shares(&data, extra_parities);
        let survivors = pick_distinct(all.len(), k, pattern);
        let held = survivors.iter().map(|&s| (all[s].index, all[s].data.as_slice()));
        let mut ctx = DecodeCtx::default();
        let missing = Decoder::new(k).unwrap().decode_missing_in(&mut ctx, held).unwrap();
        let (mut row, mut prefix) = (Vec::new(), vec![0u8; len + 1]);
        for i in missing.indices() {
            missing.row_into(i, &mut row).unwrap();
            prop_assert_eq!(&row, &data[i], "row {}", i);
            for n in 0..=len {
                prefix.fill(0xA5);
                missing.prefix_into(i, &mut prefix[..n]).unwrap();
                prop_assert_eq!(&prefix[..n], &row[..n], "row {} prefix {}", i, n);
            }
            prefix.fill(0xA5);
            let refused = missing.prefix_into(i, &mut prefix);
            prop_assert_eq!(refused, Err(RseError::LengthMismatch { expected: len, got: len + 1 }));
            prop_assert!(prefix.iter().all(|&b| b == 0xA5));
        }
    }

    /// Fewer than k survivors is always reported as NotEnoughShares, never
    /// a wrong answer.
    #[test]
    fn under_k_survivors_is_an_error(
        seed in any::<u64>(),
        k in 2usize..16,
        len in 1usize..32,
        pattern in any::<u64>(),
    ) {
        let data = block_from_seed(seed, k, len);
        let all = all_shares(&data, 3);
        let survivors = pick_distinct(all.len(), k - 1, pattern);
        let shares: Vec<Share> = survivors.iter().map(|&i| all[i].clone()).collect();
        let failed = matches!(
            decode(k, &shares),
            Err(RseError::NotEnoughShares { .. })
        );
        prop_assert!(failed);
    }

    /// Encoding is deterministic: the same parity index over the same data
    /// always yields the same bytes, across encoder instances.
    #[test]
    fn encoding_is_deterministic(seed in any::<u64>(), k in 1usize..12, j in 0usize..8) {
        let data = block_from_seed(seed, k, 40);
        let mut e1 = BlockEncoder::new(k).unwrap();
        let mut e2 = BlockEncoder::new(k).unwrap();
        // Warm e2's cache differently to show caching doesn't change output.
        let _ = e2.parity(j.saturating_add(1).min(e2.max_parities() - 1), &data);
        prop_assert_eq!(e1.parity(j, &data).unwrap(), e2.parity(j, &data).unwrap());
    }

    /// Parity packets are linear in the data: parity(a ^ b) = parity(a) ^ parity(b).
    #[test]
    fn parity_is_linear(sa in any::<u64>(), sb in any::<u64>(), k in 1usize..10) {
        let a = block_from_seed(sa, k, 24);
        let b = block_from_seed(sb, k, 24);
        let xored: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let mut enc = BlockEncoder::new(k).unwrap();
        let pa = enc.parity(2.min(enc.max_parities() - 1), &a).unwrap();
        let pb = enc.parity(2.min(enc.max_parities() - 1), &b).unwrap();
        let px = enc.parity(2.min(enc.max_parities() - 1), &xored).unwrap();
        let manual: Vec<u8> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(px, manual);
    }
}
