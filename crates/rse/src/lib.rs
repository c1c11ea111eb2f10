//! A systematic Reed–Solomon **erasure** coder over GF(2^8).
//!
//! This is the FEC substrate of the rekey transport protocol. The paper
//! uses L. Rizzo's RSE coder; this crate reimplements the same class of
//! code from scratch:
//!
//! * **Systematic** — the first `k` code symbols *are* the data packets, so
//!   a user that receives its specific `ENC` packet never decodes.
//! * **MDS / any-k-of-n** — any `k` received packets out of the `n` sent
//!   reconstruct the whole block.
//! * **Incrementally extensible** — parity packets are indexed `0, 1, 2, …`
//!   and can be generated on demand round after round (the server sends
//!   `ceil((rho-1) * k)` proactive parities, then `amax[i]` fresh reactive
//!   parities per round); all parities ever generated for a block remain
//!   mutually compatible, up to the field limit of `255 - k`.
//!
//! The construction views the `k` data packets as the values of a degree
//! `< k` polynomial (per byte position) at evaluation points
//! `x_i = alpha^i`; parity `j` is the evaluation at `x_{k+j}`, and a lost
//! data packet `i` is the same polynomial — interpolated through whichever
//! `k` packets arrived — evaluated at `x_i`. Either way one packet costs
//! `k` multiply-accumulate passes over the packet body, i.e. time linear in
//! `k` for fixed packet length — exactly the cost model the paper's "FEC
//! encoding time vs block size" figure assumes. There is no generator
//! matrix and no inversion anywhere in the crate. Decoding is lazy:
//! [`Decoder::decode_missing_in`] validates the shares, and a receiver that
//! needs one packet of the block pays for one ([`MissingRows::row_into`]),
//! or for its first bytes ([`MissingRows::prefix_into`]: a header, read to
//! see whether the packet is the one it needs). A receiver that decodes
//! block after block lends each decode the one [`DecodeCtx`] it keeps:
//! the chosen-share list and the interpolation weights keep their
//! capacity, so a decode allocates nothing once the context has served
//! one of `k` shares.
//!
//! # Example
//!
//! ```
//! use rse::{BlockEncoder, Decoder, Share};
//!
//! let data: Vec<Vec<u8>> = vec![b"pkt-0".to_vec(), b"pkt-1".to_vec(), b"pkt-2".to_vec()];
//! let mut enc = BlockEncoder::new(3).unwrap();
//! let p0 = enc.parity(0, &data).unwrap();
//! let p1 = enc.parity(1, &data).unwrap();
//!
//! // Lose data packets 0 and 2; keep data 1 plus the two parities.
//! let shares = vec![
//!     Share { index: 1, data: data[1].clone() },
//!     Share { index: 3, data: p0 },  // parity j has share index k + j
//!     Share { index: 4, data: p1 },
//! ];
//! let recovered = Decoder::new(3).unwrap().decode(&shares).unwrap();
//! assert_eq!(recovered, data);
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

mod coder;
/// Encoding operation-count model used by the figure experiments.
pub mod cost;
pub mod sanitize;

pub use coder::{BlockEncoder, DecodeCtx, Decoder, MissingRows, RseError, Share, MAX_SYMBOLS};
