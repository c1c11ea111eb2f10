//! In-tree stand-in for the subset of the `rand` crate this workspace
//! uses, so the build has zero network dependencies.
//!
//! The build environment cannot reach a crates.io mirror, so the workspace
//! vendors the handful of APIs the simulators and tests actually call:
//! [`rngs::SmallRng`] (here a xoshiro256++ generator seeded through
//! SplitMix64), the [`Rng`] extension trait with `gen`, `gen_range` and
//! `gen_bool`, and [`SeedableRng::seed_from_u64`]. Statistical quality is
//! more than adequate for simulation workloads; none of this is
//! cryptographic — key material comes from `wirecrypto::KeyGen`, never
//! from here.
//!
//! The package deliberately keeps the upstream crate name and module
//! layout (`rand::rngs::SmallRng`, `rand::{Rng, SeedableRng}`) so call
//! sites are source-compatible with rand 0.8 and the workspace can switch
//! back to the real crate by flipping one `[workspace.dependencies]`
//! entry.

pub mod rngs;

/// Low-level uniform bit source. Object-safe: `next_u64` is the one
/// required method.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits (upper half of a
    /// 64-bit draw, which are the strongest bits of xoshiro-family
    /// generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// The raw seed type accepted by [`SeedableRng::from_seed`].
    type Seed;

    /// Builds a generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds a generator from a single `u64`, expanding it with
    /// SplitMix64 as the upstream crate does.
    fn seed_from_u64(state: u64) -> Self;
}

/// Convenience sampling methods layered over [`RngCore`], mirroring the
/// `rand 0.8` extension-trait design.
pub trait Rng: RngCore {
    /// Samples a value of a type with a canonical uniform distribution
    /// (`u8`..`u64`, `usize`, `bool`, or `f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a range (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types with a canonical uniform distribution drawable by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` without modulo bias (rejection sampling
/// on the short unusable tail of the 64-bit space).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - u64::MAX % span;
    loop {
        let draw = rng.next_u64();
        if draw < zone {
            return draw % span;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    // Full-width range: every draw is in range.
                    return start + rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f64::sample(rng);
        let value = self.start + (self.end - self.start) * unit;
        // Guard against rounding up to the excluded endpoint.
        if value < self.end {
            value
        } else {
            self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0u32..=5);
            assert!(w <= 5);
            let f = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values within 1000 draws");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits = {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
