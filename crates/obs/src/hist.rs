//! Fixed-bucket log2 histogram arithmetic.
//!
//! Every span series aggregates its values into
//! [`BUCKETS`] power-of-two buckets: bucket `0` holds the value `0`, and
//! bucket `b >= 1` holds values in `[2^(b-1), 2^b - 1]` (the final bucket
//! absorbs everything from `2^(BUCKETS-2)` up). Recording is one
//! `leading_zeros` plus one atomic increment, and quantiles come back out
//! as the conservative upper bound of the bucket holding the requested
//! rank — within 2x of the true value by construction, which is plenty to
//! tell a microsecond stage from a millisecond one.
//!
//! [`BUCKETS`]: crate::hist::BUCKETS

/// Number of histogram buckets per series.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: `0` for `0`, else `floor(log2(v)) + 1`
/// clamped to the last bucket.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    let b = 64 - value.leading_zeros() as usize;
    b.min(BUCKETS - 1)
}

/// Largest value bucket `b` can hold (the quantile estimate returned for
/// ranks landing in that bucket).
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= BUCKETS - 1 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// The value at quantile `q` (in `(0, 1]`) of a bucket-count array, as
/// the upper bound of the bucket containing the rank-`ceil(q * total)`
/// observation. Returns `0` for an empty histogram.
#[must_use]
pub fn quantile(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    // ceil(q * total), clamped into [1, total]: floating-point rounding
    // must never push the rank outside the population.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (b, &n) in counts.iter().enumerate() {
        cumulative += n;
        if cumulative >= rank {
            return bucket_upper_bound(b);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        // Every power of two opens a new bucket; its predecessor closes
        // the previous one.
        for b in 1..BUCKETS - 1 {
            let low = 1u64 << (b - 1);
            let high = (1u64 << b) - 1;
            assert_eq!(bucket_of(low), b, "low edge of bucket {b}");
            assert_eq!(bucket_of(high), b, "high edge of bucket {b}");
        }
        // The last bucket absorbs the clamped tail.
        assert_eq!(bucket_of(1u64 << 62), BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_bounds_match_bucket_ranges() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for b in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_upper_bound(b)), b);
            assert_eq!(bucket_of(bucket_upper_bound(b) + 1), b + 1);
        }
    }

    fn counts_for(values: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; BUCKETS];
        for &v in values {
            counts[bucket_of(v)] += 1;
        }
        counts
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        assert_eq!(quantile(&vec![0u64; BUCKETS], 0.5), 0);
        assert_eq!(quantile(&vec![0u64; BUCKETS], 0.99), 0);
    }

    #[test]
    fn p50_and_p99_land_in_the_right_buckets() {
        // 100 observations: 90 around ~100 (bucket 7, bound 127), 9
        // around ~1000 (bucket 10, bound 1023), 1 at ~10^6 (bucket 20).
        let mut values = vec![100u64; 90];
        values.extend(vec![1000u64; 9]);
        values.push(1_000_000);
        let counts = counts_for(&values);
        assert_eq!(quantile(&counts, 0.50), 127);
        assert_eq!(quantile(&counts, 0.90), 127);
        assert_eq!(quantile(&counts, 0.99), 1023);
        assert_eq!(quantile(&counts, 1.0), bucket_upper_bound(20));
    }

    #[test]
    fn single_observation_dominates_every_quantile() {
        let counts = counts_for(&[42]);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&counts, q), 63, "q={q}");
        }
    }

    #[test]
    fn quantile_rank_rounds_up() {
        // Two observations in different buckets: p50 must take the first
        // (rank ceil(0.5 * 2) = 1), p51 the second.
        let counts = counts_for(&[1, 1024]);
        assert_eq!(quantile(&counts, 0.50), 1);
        assert_eq!(quantile(&counts, 0.51), 2047);
    }
}
