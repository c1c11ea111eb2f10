//! The [`Gf256`] element type and its operator implementations.

// A silent truncation here corrupts algebra instead of crashing.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables::{EXP, INV, LOG};

/// An element of GF(2^8).
///
/// Addition and subtraction are XOR; multiplication and division go through
/// the compile-time log/exp tables. Division by zero panics, mirroring
/// integer division; use [`Gf256::checked_div`] or [`Gf256::inv`] where zero
/// divisors are reachable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The multiplicative generator `alpha`.
    pub const ALPHA: Gf256 = Gf256(crate::GENERATOR);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte of the element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns true iff the element is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `alpha^power` — the `power`-th power of the generator. Exponents are
    /// taken modulo the group order 255.
    #[inline]
    pub fn alpha_pow(power: usize) -> Self {
        Gf256(EXP[power % 255])
    }

    /// Discrete logarithm base `alpha`. Returns `None` for zero, which has
    /// no logarithm.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.is_zero() {
            None
        } else {
            Some(LOG[self.0 as usize])
        }
    }

    /// Multiplicative inverse. Returns `None` for zero.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(Gf256(INV[self.0 as usize]))
        }
    }

    /// Division that yields `None` when `rhs` is zero.
    #[inline]
    pub fn checked_div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self * r)
    }

    /// Raises the element to an arbitrary power. `0^0 == 1` by convention.
    pub fn pow(self, mut exp: u32) -> Self {
        if self.is_zero() {
            return if exp == 0 { Gf256::ONE } else { Gf256::ZERO };
        }
        let log = LOG[self.0 as usize] as u64;
        exp %= 255;
        let idx = (log * exp as u64) % 255;
        Gf256(EXP[idx as usize])
    }

    /// Fused multiply-add over a byte slice: `dst[i] ^= coeff * src[i]`.
    ///
    /// The textbook (log/exp table) form of the Reed–Solomon inner loop,
    /// kept as the test oracle for [`crate::mul_acc_slice_wide`], which is
    /// what the coder runs.
    pub fn mul_acc_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "mul_acc_slice requires equal-length slices"
        );
        if coeff.is_zero() {
            return;
        }
        if coeff == Gf256::ONE {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= *s;
            }
            return;
        }
        let clog = LOG[coeff.0 as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            if *s != 0 {
                *d ^= EXP[clog + LOG[*s as usize] as usize];
            }
        }
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "XOR IS addition in GF(2^8)"
    )]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[expect(
        clippy::suspicious_op_assign_impl,
        reason = "XOR IS addition in GF(2^8)"
    )]
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "XOR IS subtraction in GF(2^8)"
    )]
    fn sub(self, rhs: Self) -> Self {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[expect(
        clippy::suspicious_op_assign_impl,
        reason = "XOR IS subtraction in GF(2^8)"
    )]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        Gf256(EXP[LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "Div mirrors integer `/` — panicking on zero divisor is the documented contract; fallible callers use checked_div"
    )]
    fn div(self, rhs: Self) -> Self {
        self.checked_div(rhs).expect("division by zero in GF(2^8)")
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_identity_and_self_inverse() {
        for a in 0..=255u8 {
            let a = Gf256::new(a);
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf256::ZERO);
        }
    }

    #[test]
    fn multiplicative_identity_and_zero() {
        for a in 0..=255u8 {
            let a = Gf256::new(a);
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverse_round_trip() {
        for a in 1..=255u8 {
            let a = Gf256::new(a);
            assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
            assert_eq!(a / a, Gf256::ONE);
        }
        assert_eq!(Gf256::ZERO.inv(), None);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x53, 0xca, 0xff] {
            let a = Gf256::new(a);
            let mut acc = Gf256::ONE;
            for e in 0..600u32 {
                assert_eq!(a.pow(e), acc, "a={a}, e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    fn alpha_pow_wraps_at_group_order() {
        assert_eq!(Gf256::alpha_pow(0), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(256), Gf256::ALPHA);
    }

    #[test]
    fn log_is_inverse_of_alpha_pow() {
        for i in 0..255usize {
            assert_eq!(Gf256::alpha_pow(i).log().unwrap() as usize, i);
        }
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn mul_acc_slice_matches_scalar_path() {
        let src: Vec<u8> = (0..=255).collect();
        for coeff in [0u8, 1, 2, 0x1d, 0xee] {
            let coeff = Gf256::new(coeff);
            let mut dst = vec![0xAAu8; src.len()];
            let mut expect = dst.clone();
            Gf256::mul_acc_slice(coeff, &src, &mut dst);
            for (e, s) in expect.iter_mut().zip(&src) {
                *e = (Gf256::new(*e) + coeff * Gf256::new(*s)).value();
            }
            assert_eq!(dst, expect, "coeff = {coeff}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_acc_slice_length_mismatch_panics() {
        let mut dst = [0u8; 3];
        Gf256::mul_acc_slice(Gf256::ONE, &[1, 2], &mut dst);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Gf256::new(3), Gf256::new(5), Gf256::new(6)];
        assert_eq!(xs.iter().copied().sum::<Gf256>(), Gf256::new(3 ^ 5 ^ 6));
        let p: Gf256 = xs.iter().copied().product();
        assert_eq!(p, Gf256::new(3) * Gf256::new(5) * Gf256::new(6));
    }
}
