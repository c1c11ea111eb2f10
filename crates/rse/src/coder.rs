//! The encoder/decoder core.
//!
//! Both directions are the same algebra: a block is a degree-`< k`
//! polynomial per byte position, a packet is its value at one point, and
//! the packet at any other point is one [`LagrangeCtx`] row over `k` known
//! points (O(k²) weight setup per node set, O(k) per row) dotted with the
//! packets at those points through the autovectorized `mul_acc_slice_wide`
//! kernel. The encoder's node set is fixed — the `k` data points — so its
//! context and rows are cached inside the coder, paid once per coder
//! lifetime rather than per packet, and cloning a warmed [`BlockEncoder`]
//! clones them, which is how a server shares the setup cost across the
//! blocks of every message it sends. The decoder's node set is whichever
//! `k` points arrived, so it interpolates over those directly, in buffers
//! its caller may lend and keep ([`DecodeCtx`]).

use gf256::{bulk, Gf256, LagrangeCtx};

/// Maximum number of code symbols (data + parity) per block: the number of
/// distinct evaluation points available in GF(2^8)*.
pub const MAX_SYMBOLS: usize = 255;

/// Errors surfaced by the erasure coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RseError {
    /// The block size `k` must satisfy `1 <= k < MAX_SYMBOLS`.
    InvalidBlockSize(usize),
    /// A parity index or share index exceeds the field limit.
    IndexOutOfRange {
        /// The offending share/parity index.
        index: usize,
        /// The maximum allowed index (inclusive).
        max: usize,
    },
    /// The same share index was supplied twice to the decoder.
    DuplicateShare(usize),
    /// Fewer than `k` shares were supplied.
    NotEnoughShares {
        /// Shares supplied.
        got: usize,
        /// Shares required (the block size `k`).
        need: usize,
    },
    /// Shares (or data packets) do not all have the same length.
    LengthMismatch {
        /// Expected packet length in bytes.
        expected: usize,
        /// The mismatching length encountered.
        got: usize,
    },
    /// `encode` was called with the wrong number of data packets.
    WrongDataCount {
        /// Packets supplied.
        got: usize,
        /// Packets required (the block size `k`).
        need: usize,
    },
}

impl core::fmt::Display for RseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RseError::InvalidBlockSize(k) => {
                write!(f, "block size {k} outside 1..{MAX_SYMBOLS}")
            }
            RseError::IndexOutOfRange { index, max } => {
                write!(f, "share index {index} exceeds maximum {max}")
            }
            RseError::DuplicateShare(i) => write!(f, "duplicate share index {i}"),
            RseError::NotEnoughShares { got, need } => {
                write!(f, "need {need} shares to decode, got {got}")
            }
            RseError::LengthMismatch { expected, got } => {
                write!(f, "expected packet length {expected}, got {got}")
            }
            RseError::WrongDataCount { got, need } => {
                write!(f, "expected {need} data packets, got {got}")
            }
        }
    }
}

impl std::error::Error for RseError {}

/// One received code symbol handed to [`Decoder::decode`].
///
/// `index < k` means "data packet `index`"; `index >= k` means "parity
/// packet `index - k`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Global symbol index within the block.
    pub index: usize,
    /// Packet body.
    pub data: Vec<u8>,
}

/// Evaluation point for symbol `i`.
#[inline]
fn point(i: usize) -> Gf256 {
    debug_assert!(i < MAX_SYMBOLS);
    Gf256::alpha_pow(i)
}

/// Systematic encoder for one FEC block of size `k`.
///
/// Construction pays the O(k²) barycentric-weight setup once; each
/// distinct parity index then costs one O(k) row build on first use, and
/// every encoded packet after that is pure multiply-accumulate over the
/// cached row (no per-packet row clone — the cache is borrowed in place).
/// Cloning the encoder clones its caches, so a warmed prototype encoder
/// shares all of that work with every block cloned from it.
#[derive(Debug, Clone)]
pub struct BlockEncoder {
    k: usize,
    ctx: LagrangeCtx,
    rows: Vec<Vec<Gf256>>,
    rows_built: usize,
}

impl BlockEncoder {
    /// Creates an encoder for blocks of `k` data packets.
    pub fn new(k: usize) -> Result<Self, RseError> {
        if k == 0 || k >= MAX_SYMBOLS {
            return Err(RseError::InvalidBlockSize(k));
        }
        // The data points alpha^0 .. alpha^(k-1) are distinct below the
        // field limit, so the context exists for every k admitted above.
        let ctx = LagrangeCtx::new((0..k).map(point)).ok_or(RseError::InvalidBlockSize(k))?;
        Ok(BlockEncoder {
            k,
            ctx,
            rows: Vec::new(),
            rows_built: 0,
        })
    }

    /// The block size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum number of distinct parity packets this block admits.
    pub fn max_parities(&self) -> usize {
        MAX_SYMBOLS - self.k
    }

    /// Number of coefficient rows constructed so far.
    ///
    /// Row construction happens at most once per distinct parity index
    /// for the lifetime of the encoder (clones included); tests use this
    /// counter to pin the no-recompute guarantee down.
    pub fn rows_built(&self) -> usize {
        self.rows_built
    }

    /// Pre-builds the coefficient rows for parity indices `0 .. count`,
    /// so clones of this encoder start with a warm cache.
    pub fn warm(&mut self, count: usize) -> Result<(), RseError> {
        if count == 0 {
            return Ok(());
        }
        self.ensure_row(count - 1)
    }

    /// Makes sure `rows[0 ..= parity_index]` exist.
    fn ensure_row(&mut self, parity_index: usize) -> Result<(), RseError> {
        let max = self.max_parities();
        if parity_index >= max {
            return Err(RseError::IndexOutOfRange {
                index: parity_index,
                max: max - 1,
            });
        }
        while self.rows.len() <= parity_index {
            let j = self.rows.len();
            self.rows.push(self.ctx.row(point(self.k + j)));
            self.rows_built += 1;
        }
        Ok(())
    }

    /// Checks that `data` is exactly `k` equal-length packets; returns
    /// that length.
    fn check_data<D: AsRef<[u8]>>(&self, data: &[D]) -> Result<usize, RseError> {
        if data.len() != self.k {
            return Err(RseError::WrongDataCount {
                got: data.len(),
                need: self.k,
            });
        }
        let len = data[0].as_ref().len();
        for d in data {
            if d.as_ref().len() != len {
                return Err(RseError::LengthMismatch {
                    expected: len,
                    got: d.as_ref().len(),
                });
            }
        }
        Ok(len)
    }

    /// Encodes parity packet `parity_index` over the `k` data packets.
    ///
    /// All data packets must share one length (the protocol zero-pads ENC
    /// packets to a fixed length for exactly this reason).
    pub fn parity<D: AsRef<[u8]>>(
        &mut self,
        parity_index: usize,
        data: &[D],
    ) -> Result<Vec<u8>, RseError> {
        let len = self.check_data(data)?;
        let mut out = vec![0u8; len];
        self.accumulate(parity_index, data, &mut out)?;
        Ok(out)
    }

    /// Encodes parity packet `parity_index` into a caller-provided
    /// buffer, avoiding the output allocation of [`parity`].
    ///
    /// `out` must match the data packet length; its prior contents are
    /// overwritten.
    ///
    /// With a warm row cache (see [`BlockEncoder::warm`]) this path is
    /// allocation-free; the `no_alloc_marks` integration test pins it
    /// under the `xcheck-rt` counting allocator.
    ///
    /// [`parity`]: BlockEncoder::parity
    // xcheck: no_alloc
    pub fn parity_into<D: AsRef<[u8]>>(
        &mut self,
        parity_index: usize,
        data: &[D],
        out: &mut [u8],
    ) -> Result<(), RseError> {
        let len = self.check_data(data)?;
        if out.len() != len {
            return Err(RseError::LengthMismatch {
                expected: len,
                got: out.len(),
            });
        }
        out.fill(0);
        self.accumulate(parity_index, data, out)
    }

    /// XORs the parity for `parity_index` into `out` (assumed zeroed),
    /// borrowing the cached row in place. Allocation-free once the row
    /// cache is warm (cold calls build missing rows via `ensure_row`).
    // xcheck: no_alloc
    fn accumulate<D: AsRef<[u8]>>(
        &mut self,
        parity_index: usize,
        data: &[D],
        out: &mut [u8],
    ) -> Result<(), RseError> {
        let _span = obs::span("rse.parity");
        let rows_before = self.rows.len();
        self.ensure_row(parity_index)?;
        if self.rows.len() == rows_before {
            obs::counter_add("rse.row_cache_hits", 1);
        } else {
            obs::counter_add("rse.rows_built", (self.rows.len() - rows_before) as u64);
        }
        // `ensure_row` ended the mutable borrow, so the cached row can be
        // borrowed directly — this is the fix for the old per-packet
        // `row(..)?.to_vec()` clone on the hottest server path.
        let row = &self.rows[parity_index];
        for (coeff, d) in row.iter().zip(data) {
            bulk::mul_acc_slice_wide(*coeff, d.as_ref(), out);
        }
        Ok(())
    }
}

/// Decoder for blocks of size `k`.
///
/// Holds nothing but `k`: which points a block is interpolated over
/// depends on which shares arrived, so the [`LagrangeCtx`] is built per
/// decode, over exactly those points, in a [`DecodeCtx`] the caller lends.
#[derive(Debug, Clone)]
pub struct Decoder {
    k: usize,
}

/// The buffers one decode runs in, lent by a caller that keeps them between
/// decodes ([`Decoder::decode_missing_in`]): the chosen shares' list and
/// the interpolation context. Each keeps its capacity, so once a context
/// has served a decode of `k` shares, a decode of as many allocates
/// nothing.
#[derive(Debug, Default)]
pub struct DecodeCtx {
    /// Room for the chosen shares; empty between decodes.
    chosen: Vec<(usize, &'static [u8])>,
    /// Weights over the last decode's points.
    lagrange: LagrangeCtx,
}

impl Decoder {
    /// Creates a decoder for blocks of `k` data packets.
    pub fn new(k: usize) -> Result<Self, RseError> {
        if k == 0 || k >= MAX_SYMBOLS {
            return Err(RseError::InvalidBlockSize(k));
        }
        Ok(Decoder { k })
    }

    /// The block size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Reconstructs the `k` original data packets from any `k` distinct
    /// shares.
    ///
    /// Only the first `k` usable shares are validated and consumed;
    /// shares beyond them are ignored entirely, so a corrupt trailing
    /// share that would not participate in reconstruction cannot fail
    /// the decode. Data packets among those `k` are copied out; the rest
    /// are every row of [`Decoder::decode_missing_in`], in a fresh context.
    pub fn decode(&mut self, shares: &[Share]) -> Result<Vec<Vec<u8>>, RseError> {
        let mut ctx = DecodeCtx::default();
        let borrowed = shares.iter().map(|s| (s.index, s.data.as_slice()));
        let missing = self.decode_missing_in(&mut ctx, borrowed)?;
        // The decode succeeded, so the shares it used are the first k.
        let mut out = vec![Vec::new(); self.k];
        for s in shares.iter().take(self.k).filter(|s| s.index < self.k) {
            out[s.index] = s.data.clone();
        }
        for i in missing.indices() {
            missing.row_into(i, &mut out[i])?;
        }
        Ok(out)
    }

    /// Validates borrowed `(index, body)` shares — the first `k` of them,
    /// exactly as [`Decoder::decode`] does — and returns the data packets
    /// *not* among those, unbuilt: a receiver that kept the data packets it
    /// was sent needs no copy of them, and one that needs a single packet
    /// pays for a single row. The cost here is one O(k²) weight setup over
    /// the chosen points — and nothing at all when no data packet is
    /// missing; each [`MissingRows::row_into`] is then an O(k) coefficient
    /// row and `k` multiply passes. The decode runs in `ctx`'s buffers,
    /// which the returned rows hand back when they are dropped.
    pub fn decode_missing_in<'c, 'a: 'c>(
        &self,
        ctx: &'c mut DecodeCtx,
        shares: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) -> Result<MissingRows<'c>, RseError> {
        let _span = obs::span("rse.decode");
        let mut rows = MissingRows {
            chosen: std::mem::take(&mut ctx.chosen),
            held: [0; 4],
            lagrange: std::mem::take(&mut ctx.lagrange),
            home: ctx,
        };
        rows.chosen.reserve(self.k);
        for (index, data) in shares {
            if rows.chosen.len() == self.k {
                break;
            }
            if index >= MAX_SYMBOLS {
                return Err(RseError::IndexOutOfRange {
                    index,
                    max: MAX_SYMBOLS - 1,
                });
            }
            if rows.holds(index) {
                return Err(RseError::DuplicateShare(index));
            }
            rows.held[index / 64] |= 1 << (index % 64);
            if let Some(&(_, first)) = rows.chosen.first() {
                if data.len() != first.len() {
                    return Err(RseError::LengthMismatch {
                        expected: first.len(),
                        got: data.len(),
                    });
                }
            }
            rows.chosen.push((index, data));
        }
        if rows.chosen.len() < self.k {
            return Err(RseError::NotEnoughShares {
                got: rows.chosen.len(),
                need: self.k,
            });
        }
        // Nothing to interpolate when every data share is among the chosen.
        // Otherwise distinct indices below the field limit are distinct points,
        // so the weights exist: a refusal could only be a share held twice.
        let points = rows.chosen.iter().map(|&(index, _)| point(index));
        if rows.indices().next().is_some() && !rows.lagrange.set_nodes(points) {
            return Err(RseError::DuplicateShare(rows.chosen[0].0));
        }
        Ok(rows)
    }
}

/// A validated block whose missing data packets can be rebuilt one at a
/// time: what [`Decoder::decode_missing_in`] returns.
#[derive(Debug)]
pub struct MissingRows<'a> {
    /// The `k` shares the block is interpolated through.
    chosen: Vec<(usize, &'a [u8])>,
    /// Bit `i`: share `i` is among the chosen.
    held: [u64; 4],
    /// Weights over the chosen points, when a data packet is missing.
    lagrange: LagrangeCtx,
    /// The context the buffers were lent by.
    home: &'a mut DecodeCtx,
}

impl Drop for MissingRows<'_> {
    fn drop(&mut self) {
        // Emptied by an in-place collect, so no borrowed share outlives the
        // rows. That the list keeps its capacity rests on std's in-place
        // collect, which std does not promise: should it reallocate,
        // `no_alloc_marks`'s
        // `a_decode_in_a_warm_context_and_rebuilding_a_row_allocate_nothing`
        // fails.
        let chosen = std::mem::take(&mut self.chosen).into_iter();
        #[expect(
            clippy::unnecessary_filter_map,
            reason = "the item type changes (the borrow's lifetime), which `filter` cannot do"
        )]
        let emptied = chosen.filter_map(|_| None).collect();
        self.home.chosen = emptied;
        self.home.lagrange = std::mem::take(&mut self.lagrange);
    }
}

impl MissingRows<'_> {
    /// The data indices that are not among the chosen shares, ascending.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.chosen.len()).filter(|&i| !self.holds(i))
    }

    /// Whether share `i` is among the chosen.
    fn holds(&self, i: usize) -> bool {
        self.held[i / 64] >> (i % 64) & 1 == 1
    }

    /// Rebuilds missing data packet `i` — the interpolant through the chosen
    /// shares, evaluated at `point(i)` — as the new contents of `out`,
    /// without allocating once `out` has the capacity: the full-length
    /// [`MissingRows::prefix_into`]. `i` must be one of
    /// [`MissingRows::indices`]: a held packet (the caller has it) or an
    /// index past the data is `IndexOutOfRange`, and `out` is left alone.
    pub fn row_into(&self, i: usize, out: &mut Vec<u8>) -> Result<(), RseError> {
        self.ctx_for(i)?;
        out.resize(self.share_len(), 0);
        self.prefix_into(i, out)
    }

    /// Rebuilds the first `out.len()` bytes of missing data packet `i` into
    /// `out`, overwriting it, without allocating: the same `k` passes as the
    /// whole packet, each over `out.len()` bytes. A receiver reads a rebuilt
    /// packet's header this way before it pays for the rest. An `i` that
    /// [`MissingRows::row_into`] refuses is refused here too, and an `out`
    /// longer than a share is `LengthMismatch`; either way `out` is left
    /// alone. A whole packet is timed as `rse.decode_row`, a shorter prefix
    /// as `rse.decode_prefix`.
    // xcheck: no_alloc
    pub fn prefix_into(&self, i: usize, out: &mut [u8]) -> Result<(), RseError> {
        let ctx = self.ctx_for(i)?;
        let expected = self.share_len();
        if out.len() > expected {
            return Err(RseError::LengthMismatch {
                expected,
                got: out.len(),
            });
        }
        let name = if out.len() < expected {
            "rse.decode_prefix"
        } else {
            "rse.decode_row"
        };
        let _span = obs::span(name);
        let k = self.chosen.len();
        let mut coeffs = [Gf256::ZERO; MAX_SYMBOLS];
        ctx.row_into(point(i), &mut coeffs[..k]);
        out.fill(0);
        for (&coeff, &(_, data)) in coeffs.iter().zip(&self.chosen) {
            bulk::mul_acc_slice_wide(coeff, &data[..out.len()], out);
        }
        Ok(())
    }

    /// The context a missing data index is rebuilt through.
    fn ctx_for(&self, i: usize) -> Result<&LagrangeCtx, RseError> {
        let k = self.chosen.len();
        let ctx = Some(&self.lagrange).filter(|_| i < k && !self.holds(i));
        ctx.ok_or(RseError::IndexOutOfRange {
            index: i,
            max: k - 1,
        })
    }

    /// The length of every chosen share (k >= 1 was checked at
    /// construction, so there is one).
    fn share_len(&self) -> usize {
        self.chosen.first().map_or(0, |&(_, data)| data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(k: usize, shares: &[Share]) -> Result<Vec<Vec<u8>>, RseError> {
        Decoder::new(k)?.decode(shares)
    }

    fn block(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|b| (i * 37 + b * 11 + 5) as u8).collect())
            .collect()
    }

    #[test]
    fn block_size_bounds() {
        assert!(matches!(
            BlockEncoder::new(0),
            Err(RseError::InvalidBlockSize(0))
        ));
        assert!(matches!(
            BlockEncoder::new(255),
            Err(RseError::InvalidBlockSize(255))
        ));
        assert!(BlockEncoder::new(1).is_ok());
        assert!(BlockEncoder::new(254).is_ok());
    }

    #[test]
    fn no_loss_fast_path() {
        let k = 4;
        let data = block(k, 32);
        let shares: Vec<Share> = data
            .iter()
            .enumerate()
            .map(|(i, d)| Share {
                index: i,
                data: d.clone(),
            })
            .collect();
        assert_eq!(decode(k, &shares).unwrap(), data);
    }

    #[test]
    fn single_parity_repairs_single_loss() {
        let k = 5;
        let data = block(k, 64);
        let mut enc = BlockEncoder::new(k).unwrap();
        let p = enc.parity(0, &data).unwrap();
        for lost in 0..k {
            let mut shares: Vec<Share> = (0..k)
                .filter(|&i| i != lost)
                .map(|i| Share {
                    index: i,
                    data: data[i].clone(),
                })
                .collect();
            shares.push(Share {
                index: k,
                data: p.clone(),
            });
            assert_eq!(decode(k, &shares).unwrap(), data, "lost = {lost}");
        }
    }

    #[test]
    fn all_parities_no_data() {
        let k = 6;
        let data = block(k, 16);
        let mut enc = BlockEncoder::new(k).unwrap();
        let shares: Vec<Share> = (0..k)
            .map(|j| Share {
                index: k + j,
                data: enc.parity(j, &data).unwrap(),
            })
            .collect();
        assert_eq!(decode(k, &shares).unwrap(), data);
    }

    #[test]
    fn late_parities_compose_with_early_ones() {
        // Reactive rounds: parities 0..2 sent proactively, 5..7 later.
        let k = 4;
        let data = block(k, 48);
        let mut enc = BlockEncoder::new(k).unwrap();
        let shares = vec![
            Share {
                index: k + 1,
                data: enc.parity(1, &data).unwrap(),
            },
            Share {
                index: k + 5,
                data: enc.parity(5, &data).unwrap(),
            },
            Share {
                index: 2,
                data: data[2].clone(),
            },
            Share {
                index: k + 6,
                data: enc.parity(6, &data).unwrap(),
            },
        ];
        assert_eq!(decode(k, &shares).unwrap(), data);
    }

    #[test]
    fn extra_shares_are_ignored() {
        let k = 3;
        let data = block(k, 8);
        let mut enc = BlockEncoder::new(k).unwrap();
        let mut shares: Vec<Share> = (0..k)
            .map(|i| Share {
                index: i,
                data: data[i].clone(),
            })
            .collect();
        shares.push(Share {
            index: k,
            data: enc.parity(0, &data).unwrap(),
        });
        assert_eq!(decode(k, &shares).unwrap(), data);
    }

    #[test]
    fn corrupt_trailing_share_is_ignored() {
        // Regression: shares past the first k used to be validated (and a
        // bad one failed the whole decode) even though they could never
        // participate in reconstruction.
        let k = 3;
        let data = block(k, 8);
        let mut shares: Vec<Share> = (0..k)
            .map(|i| Share {
                index: i,
                data: data[i].clone(),
            })
            .collect();
        // Wrong length, duplicate index, and out-of-field index — each
        // arrives after k usable shares, so none may fail the decode.
        shares.push(Share {
            index: k,
            data: vec![0u8; 3],
        });
        shares.push(Share {
            index: 0,
            data: data[0].clone(),
        });
        shares.push(Share {
            index: 255,
            data: data[0].clone(),
        });
        assert_eq!(decode(k, &shares).unwrap(), data);
    }

    #[test]
    fn not_enough_shares() {
        let k = 4;
        let data = block(k, 8);
        let shares: Vec<Share> = (0..k - 1)
            .map(|i| Share {
                index: i,
                data: data[i].clone(),
            })
            .collect();
        assert_eq!(
            decode(k, &shares),
            Err(RseError::NotEnoughShares { got: 3, need: 4 })
        );
    }

    #[test]
    fn duplicate_share_rejected() {
        let k = 2;
        let data = block(k, 8);
        let shares = vec![
            Share {
                index: 0,
                data: data[0].clone(),
            },
            Share {
                index: 0,
                data: data[0].clone(),
            },
        ];
        assert_eq!(decode(k, &shares), Err(RseError::DuplicateShare(0)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let k = 2;
        let shares = vec![
            Share {
                index: 0,
                data: vec![1, 2, 3],
            },
            Share {
                index: 1,
                data: vec![1, 2],
            },
        ];
        assert_eq!(
            decode(k, &shares),
            Err(RseError::LengthMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn parity_index_limit() {
        let k = 250;
        let data = block(k, 4);
        let mut enc = BlockEncoder::new(k).unwrap();
        assert_eq!(enc.max_parities(), 5);
        assert!(enc.parity(4, &data).is_ok());
        assert_eq!(
            enc.parity(5, &data),
            Err(RseError::IndexOutOfRange { index: 5, max: 4 })
        );
    }

    #[test]
    fn wrong_data_count_rejected() {
        let mut enc = BlockEncoder::new(4).unwrap();
        let data = block(3, 8);
        assert_eq!(
            enc.parity(0, &data),
            Err(RseError::WrongDataCount { got: 3, need: 4 })
        );
    }

    #[test]
    fn k_equals_one_duplicates_packet() {
        // With k = 1 every parity is a copy of the single data packet
        // (evaluations of a constant polynomial).
        let data = block(1, 8);
        let mut enc = BlockEncoder::new(1).unwrap();
        for j in 0..10 {
            assert_eq!(enc.parity(j, &data).unwrap(), data[0]);
        }
    }

    #[test]
    fn share_index_out_of_field_rejected() {
        let shares = vec![Share {
            index: 255,
            data: vec![0],
        }];
        assert_eq!(
            decode(1, &shares),
            Err(RseError::IndexOutOfRange {
                index: 255,
                max: 254
            })
        );
    }

    #[test]
    fn rows_are_built_once_across_calls() {
        let k = 8;
        let data = block(k, 64);
        let mut enc = BlockEncoder::new(k).unwrap();
        assert_eq!(enc.rows_built(), 0);
        let three = |enc: &mut BlockEncoder| -> Vec<Vec<u8>> {
            (0..3).map(|j| enc.parity(j, &data).unwrap()).collect()
        };
        let first = three(&mut enc);
        assert_eq!(enc.rows_built(), 3, "one row per distinct parity index");
        // Re-encoding the same indices (same or different data) must not
        // rebuild or clone any row.
        let again = three(&mut enc);
        assert_eq!(enc.rows_built(), 3, "no recompute across parity() calls");
        assert_eq!(first, again);
        let other = block(k, 64)
            .into_iter()
            .map(|mut p| {
                p.iter_mut().for_each(|b| *b = b.wrapping_add(1));
                p
            })
            .collect::<Vec<_>>();
        enc.parity(1, &other).unwrap();
        assert_eq!(enc.rows_built(), 3);
        // A new index builds exactly one more row.
        enc.parity(3, &data).unwrap();
        assert_eq!(enc.rows_built(), 4);
    }

    #[test]
    fn warm_prebuilds_rows_and_clones_share_them() {
        let k = 8;
        let data = block(k, 32);
        let mut proto = BlockEncoder::new(k).unwrap();
        proto.warm(5).unwrap();
        assert_eq!(proto.rows_built(), 5);
        let mut clone = proto.clone();
        for j in 0..5 {
            clone.parity(j, &data).unwrap();
        }
        assert_eq!(clone.rows_built(), 5, "warm rows reused, none rebuilt");
        assert!(matches!(
            BlockEncoder::new(250).unwrap().warm(6),
            Err(RseError::IndexOutOfRange { index: 5, max: 4 })
        ));
    }

    #[test]
    fn parity_into_matches_parity() {
        let k = 6;
        let data = block(k, 48);
        let mut enc = BlockEncoder::new(k).unwrap();
        let expect = enc.parity(2, &data).unwrap();
        let mut out = vec![0xFFu8; 48];
        enc.parity_into(2, &data, &mut out).unwrap();
        assert_eq!(out, expect, "prior buffer contents are overwritten");
        let mut short = vec![0u8; 47];
        assert_eq!(
            enc.parity_into(2, &data, &mut short),
            Err(RseError::LengthMismatch {
                expected: 48,
                got: 47
            })
        );
    }

    #[test]
    fn decoder_is_reusable_across_calls_and_errors() {
        let k = 4;
        let data = block(k, 24);
        let mut enc = BlockEncoder::new(k).unwrap();
        let mut dec = Decoder::new(k).unwrap();
        assert_eq!(dec.k(), k);

        let all_data: Vec<Share> = data
            .iter()
            .enumerate()
            .map(|(i, d)| Share {
                index: i,
                data: d.clone(),
            })
            .collect();
        assert_eq!(dec.decode(&all_data).unwrap(), data);

        // A failed decode leaves nothing behind for the next one.
        let dup = vec![all_data[0].clone(), all_data[0].clone()];
        assert_eq!(dec.decode(&dup), Err(RseError::DuplicateShare(0)));

        let mut with_parity: Vec<Share> = all_data[1..].to_vec();
        with_parity.push(Share {
            index: k + 2,
            data: enc.parity(2, &data).unwrap(),
        });
        assert_eq!(dec.decode(&with_parity).unwrap(), data);
        // And again, to prove slots from the successful run were cleared.
        assert_eq!(dec.decode(&all_data).unwrap(), data);
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            RseError::InvalidBlockSize(0).to_string(),
            RseError::DuplicateShare(7).to_string(),
            RseError::NotEnoughShares { got: 1, need: 3 }.to_string(),
        ];
        assert!(msgs[0].contains("block size"));
        assert!(msgs[1].contains('7'));
        assert!(msgs[2].contains("need 3"));
    }
}
