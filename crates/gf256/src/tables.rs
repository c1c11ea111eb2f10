//! Compile-time generated log/exp tables for GF(2^8).
//!
//! The tables are produced by `const fn` evaluation so there is no runtime
//! initialisation and no interior mutability anywhere in the field core.

#[cfg(test)]
use crate::GENERATOR;
use crate::REDUCTION_POLY;

/// `EXP[i] = alpha^i` for `i in 0..510`. The table is doubled so that
/// `EXP[log(a) + log(b)]` never needs a modulo reduction.
pub(crate) const EXP: [u8; 510] = build_exp();

/// `LOG[a] = i` such that `alpha^i = a`, for `a != 0`. `LOG[0]` is a
/// sentinel (unused; guarded by zero checks in the callers).
pub(crate) const LOG: [u8; 256] = build_log();

/// `INV[a] = a^{-1}` for `a != 0`; `INV[0] = 0` as a sentinel.
pub(crate) const INV: [u8; 256] = build_inv();

/// Multiplies by x (the generator 0x02): a shift, reduced by 0x11d when the
/// top bit shifts out. Branch-free: `bulk` runs it eight times a call.
pub(crate) const fn xtime(a: u8) -> u8 {
    let wide = (a as u16) << 1;
    // All ones when bit 8 is set, so the polynomial is XORed in or not.
    let carry = 0u16.wrapping_sub(wide >> 8);
    (wide ^ (REDUCTION_POLY & carry)) as u8
}

const fn build_exp() -> [u8; 510] {
    let mut table = [0u8; 510];
    let mut value: u8 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = value;
        table[i + 255] = value;
        value = xtime(value);
        i += 1;
    }
    // alpha^255 == 1, so the doubled table wraps correctly by construction.
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

const fn build_inv() -> [u8; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut table = [0u8; 256];
    let mut a = 1usize;
    while a < 256 {
        // a^{-1} = alpha^{255 - log(a)}
        let l = log[a] as usize;
        table[a] = exp[255 - l];
        a += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow reference multiply: carry-less multiplication followed by
    /// polynomial reduction, no tables involved.
    pub(crate) fn slow_mul(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let mut a = a as u16;
        let mut b = b;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= REDUCTION_POLY;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn exp_table_starts_at_one_and_cycles() {
        assert_eq!(EXP[0], 1);
        assert_eq!(EXP[255], 1);
        assert_eq!(EXP[254], slow_inverse_of_generator());
    }

    fn slow_inverse_of_generator() -> u8 {
        // alpha^254 = alpha^{-1}; verify alpha * alpha^254 == 1.
        for candidate in 1..=255u8 {
            if slow_mul(GENERATOR, candidate) == 1 {
                return candidate;
            }
        }
        unreachable!("generator must have an inverse");
    }

    #[test]
    fn exp_table_is_doubled_copy() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn exp_hits_every_nonzero_element_exactly_once() {
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert_ne!(v, 0, "generator power must not be zero");
            assert!(!seen[v], "alpha^{i} repeats value {v}; 0x02 not primitive?");
            seen[v] = true;
        }
    }

    #[test]
    fn log_inverts_exp() {
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
    }

    #[test]
    fn inv_table_matches_slow_reference() {
        assert_eq!(INV[0], 0, "sentinel");
        for a in 1..=255u8 {
            assert_eq!(slow_mul(a, INV[a as usize]), 1, "a = {a}");
        }
    }

    #[test]
    fn tables_agree_with_slow_multiplication() {
        for a in 1..=255u16 {
            for b in 1..=255u16 {
                let via_tables = EXP[LOG[a as usize] as usize + LOG[b as usize] as usize];
                assert_eq!(via_tables, slow_mul(a as u8, b as u8));
            }
        }
    }
}
