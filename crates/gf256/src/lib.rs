//! Arithmetic over the finite field GF(2^8).
//!
//! This crate is the algebraic substrate for the Reed–Solomon erasure coder
//! used by the group-rekeying transport (the paper uses L. Rizzo's RSE
//! coder; this is a from-scratch equivalent). It provides:
//!
//! * [`Gf256`] — a field element with full operator overloads,
//! * [`bulk`] — the slice-at-a-time multiply-accumulate kernel
//!   ([`mul_acc_slice_wide`]: eight precomputed multiples of the
//!   coefficient, selected per byte by its bits; autovectorizable; a slice
//!   shorter than one vector goes through the log/exp tables) that both
//!   the encode and the decode hot path run; the scalar
//!   [`Gf256::mul_acc_slice`] is its test oracle,
//! * [`lagrange`] — barycentric Lagrange basis rows, computed in the log
//!   domain: O(k²) table reads and integer adds once per node set, O(k) per
//!   row thereafter. One [`LagrangeCtx`] row dotted with the packets at its
//!   nodes is the whole erasure-code algebra: a parity is the data's
//!   interpolant evaluated at a new point, a lost data packet is the
//!   received shares' interpolant evaluated at its own.
//!
//! The field is realised as GF(2)\[x\] / (x^8 + x^4 + x^3 + x^2 + 1), i.e.
//! reduction polynomial `0x11d`, with generator `alpha = 0x02`. Element
//! arithmetic goes through compile-time log/exp tables, so a multiply is
//! two table lookups and an add; this matches the cost model the
//! paper assumes when it says parity-packet encoding time is linear in block
//! size.
//!
//! # Example
//!
//! ```
//! use gf256::Gf256;
//!
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! assert_eq!(a * b, b * a);
//! assert_eq!((a * b) / b, a);
//! assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
//! ```

// Panic-free outside tests; an exception is a reasoned `#[expect]` (ci.sh denies clippy warnings).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod field;
mod tables;

pub mod bulk;
pub mod lagrange;

pub use bulk::mul_acc_slice_wide;
pub use field::Gf256;
pub use lagrange::LagrangeCtx;

/// The reduction polynomial of the field, x^8 + x^4 + x^3 + x^2 + 1.
pub const REDUCTION_POLY: u16 = 0x11d;

/// The multiplicative generator used to build the log/exp tables.
pub const GENERATOR: u8 = 0x02;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (number of non-zero elements).
pub const GROUP_ORDER: usize = 255;
