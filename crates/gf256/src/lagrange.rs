//! Barycentric Lagrange interpolation rows over GF(2^8).
//!
//! The naive Lagrange basis row at a point `x` over `k` nodes costs
//! O(k²): every coefficient rebuilds its numerator and denominator
//! products from scratch. The barycentric form splits that work into a
//! one-time O(k²) weight precomputation per *node set* and an O(k)
//! evaluation per *row*:
//!
//! ```text
//! w_i    = 1 / prod_{j != i} (x_i - x_j)        (precomputed once)
//! l(x)   = prod_j (x - x_j)                     (O(k) per row)
//! row[i] = w_i * l(x) / (x - x_i)               (O(1) per coefficient)
//! ```
//!
//! An erasure coder asks for many rows over the same node set — one per
//! parity index over the data points when encoding, one per missing data
//! packet over the received points when decoding — so [`LagrangeCtx`]
//! amortizes the quadratic part across all of them. In characteristic 2
//! every `-` above is `+` (XOR).
//!
//! Every factor above is a nonzero difference, so the whole computation
//! runs in the log domain: a product is a sum of discrete logs modulo 255
//! and an inverse is a negated log. The weights are stored as logs,
//!
//! ```text
//! log w_i = -sum_{j != i} log(x_i + x_j)              mod 255
//! row[i]  = alpha^(log l(x) + log w_i - log(x + x_i)  mod 255)
//! ```
//!
//! so a pair of nodes costs one table read and an integer add (each pair
//! is read once and added to both of its nodes), there are no inversions,
//! and a row coefficient is one read of the exp table.

// A silent truncation here corrupts algebra instead of crashing.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::tables::LOG;
use crate::Gf256;

/// [`GROUP_ORDER`](crate::GROUP_ORDER), at the width the log sums are kept in.
const ORDER: u32 = 255;

/// Discrete log of a nonzero difference, widened for summing.
#[inline]
fn log_of(diff: Gf256) -> u32 {
    u32::from(LOG[usize::from(diff.value())])
}

/// Precomputed barycentric weights for a fixed set of interpolation
/// nodes.
///
/// Construction is O(k²); each subsequent [`row`](LagrangeCtx::row) is
/// O(k). The produced rows are byte-for-byte identical to the textbook
/// O(k²) construction (tested exhaustively in this module and by
/// property tests in `tests/bulk_kernels.rs`). A context is rebuilt for
/// new nodes in place ([`set_nodes`](LagrangeCtx::set_nodes)), so a
/// caller that keeps one allocates nothing once it has held the most
/// nodes it will hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LagrangeCtx {
    nodes: Vec<Gf256>,
    /// `log w_i` in `0..255`.
    log_weights: Vec<u32>,
}

impl LagrangeCtx {
    /// Builds the context for the given interpolation nodes.
    ///
    /// Returns `None` when two nodes coincide (the weights would divide
    /// by zero).
    pub fn new(nodes: impl IntoIterator<Item = Gf256>) -> Option<Self> {
        let mut ctx = LagrangeCtx::default();
        ctx.set_nodes(nodes).then_some(ctx)
    }

    /// Rebuilds the context for `nodes` in place, reusing its buffers.
    /// Returns false, and leaves no nodes, when two nodes coincide.
    pub fn set_nodes(&mut self, nodes: impl IntoIterator<Item = Gf256>) -> bool {
        self.nodes.clear();
        self.nodes.extend(nodes);
        self.log_weights.clear();
        // A zero difference is exactly a repeated node; with none, every
        // difference below has a log.
        let mut seen = [0u64; 4];
        for n in &self.nodes {
            let (word, bit) = (usize::from(n.value() / 64), 1 << (n.value() % 64));
            if seen[word] & bit != 0 {
                self.nodes.clear();
                return false;
            }
            seen[word] |= bit;
        }
        // Each node's sum of difference logs, reduced and negated after. A
        // pair's log is read once: summed for the earlier node in a
        // register, added to the later one in place.
        let weights = &mut self.log_weights;
        weights.resize(self.nodes.len(), 0);
        for (i, &xi) in self.nodes.iter().enumerate() {
            let (head, later) = weights.split_at_mut(i + 1);
            let mut sum = 0;
            for (lw, &xj) in later.iter_mut().zip(&self.nodes[i + 1..]) {
                let l = log_of(xi + xj);
                sum += l;
                *lw += l;
            }
            head[i] += sum;
        }
        for lw in weights.iter_mut() {
            *lw = (ORDER - *lw % ORDER) % ORDER;
        }
        true
    }

    /// Number of interpolation nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the context holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interpolation nodes.
    pub fn nodes(&self) -> &[Gf256] {
        &self.nodes
    }

    /// Writes the basis row at `x` into `out`: the coefficients `c` with
    /// `value(x) = sum_i c[i] * d_i` for data `d` at the nodes. O(k).
    ///
    /// When `x` equals a node the row is the corresponding unit vector.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from [`len`](LagrangeCtx::len).
    pub fn row_into(&self, x: Gf256, out: &mut [Gf256]) {
        assert_eq!(
            out.len(),
            self.nodes.len(),
            "row_into requires a k-length output slice"
        );
        if let Some(hit) = self.nodes.iter().position(|&n| n == x) {
            out.fill(Gf256::ZERO);
            out[hit] = Gf256::ONE;
            return;
        }
        // x is no node, so every x - n (x + n in characteristic 2) has a log.
        let log_l = self.nodes.iter().map(|&n| log_of(x + n)).sum::<u32>() % ORDER;
        for ((o, &n), &lw) in out.iter_mut().zip(&self.nodes).zip(&self.log_weights) {
            *o = Gf256::alpha_pow((log_l + lw + ORDER - log_of(x + n)) as usize);
        }
    }

    /// The basis row at `x` as a fresh vector. See
    /// [`row_into`](LagrangeCtx::row_into).
    pub fn row(&self, x: Gf256) -> Vec<Gf256> {
        let mut out = vec![Gf256::ZERO; self.nodes.len()];
        self.row_into(x, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GROUP_ORDER;

    /// Context over `alpha^0 .. alpha^(k-1)`, the erasure coder's data points.
    fn consecutive(k: usize) -> LagrangeCtx {
        LagrangeCtx::new((0..k).map(Gf256::alpha_pow)).unwrap()
    }

    /// Textbook O(k²) construction, kept as the test oracle.
    fn naive_row(nodes: &[Gf256], x: Gf256) -> Vec<Gf256> {
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

    /// Textbook weight `1 / prod_{j != i} (x_i - x_j)`, by multiplication.
    fn naive_weight(nodes: &[Gf256], i: usize) -> Gf256 {
        let den: Gf256 = (nodes.iter().enumerate())
            .filter(|&(j, _)| j != i)
            .map(|(_, &xj)| nodes[i] + xj)
            .product();
        Gf256::ONE / den
    }

    #[test]
    fn log_domain_matches_textbook_for_every_k_up_to_64() {
        for k in 1..=64usize {
            // Node 0 (which has no log) mid-set, distinct powers around it.
            let mut nodes: Vec<Gf256> = (1..k).map(|j| Gf256::alpha_pow(7 * j)).collect();
            nodes.insert(k / 2, Gf256::ZERO);
            let ctx = LagrangeCtx::new(nodes.clone()).unwrap();
            for (i, &lw) in ctx.log_weights.iter().enumerate() {
                assert!(lw < ORDER, "k={k} i={i}");
                assert_eq!(
                    Gf256::alpha_pow(lw as usize),
                    naive_weight(&nodes, i),
                    "k={k} i={i}"
                );
            }
            for x in 0..=255u8 {
                let x = Gf256::new(x);
                assert_eq!(ctx.row(x), naive_row(&nodes, x), "k={k} x={x}");
            }
            // Any repeat, node 0 included, has a zero difference.
            for dup in [0, k - 1] {
                let mut twice = nodes.clone();
                twice.push(nodes[dup]);
                assert!(LagrangeCtx::new(twice).is_none(), "k={k} dup={dup}");
            }
        }
    }

    #[test]
    fn rebuilt_in_place_equals_built_fresh() {
        assert_eq!(ORDER as usize, GROUP_ORDER);
        let mut ctx = consecutive(40);
        for k in [32usize, 1, 64, 7] {
            let nodes = (0..k).map(|j| Gf256::alpha_pow(3 * j + k));
            assert!(ctx.set_nodes(nodes.clone()));
            assert_eq!(ctx, LagrangeCtx::new(nodes).unwrap(), "k={k}");
        }
        let twice = [Gf256::new(9), Gf256::ZERO, Gf256::new(9)];
        assert!(!ctx.set_nodes(twice));
        assert!(ctx.is_empty());
    }

    #[test]
    fn matches_naive_construction_off_nodes() {
        for k in [1usize, 2, 3, 8, 64] {
            let ctx = consecutive(k);
            for extra in 0..8 {
                let x = Gf256::alpha_pow(k + extra);
                assert_eq!(ctx.row(x), naive_row(ctx.nodes(), x), "k={k} +{extra}");
            }
        }
    }

    #[test]
    fn unit_row_at_each_node() {
        let ctx = consecutive(5);
        for (i, &node) in ctx.nodes().iter().enumerate() {
            let row = ctx.row(node);
            for (j, &c) in row.iter().enumerate() {
                let expect = if i == j { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(c, expect, "node {i}, coeff {j}");
            }
        }
    }

    #[test]
    fn row_sums_to_one() {
        // The basis rows partition unity: sum_i L_i(x) == 1 for every x.
        let ctx = consecutive(7);
        for p in 0..20 {
            let x = Gf256::alpha_pow(p);
            let sum: Gf256 = ctx.row(x).into_iter().sum();
            assert_eq!(sum, Gf256::ONE, "x = alpha^{p}");
        }
    }

    #[test]
    fn duplicate_nodes_rejected() {
        let dup = vec![Gf256::new(3), Gf256::new(7), Gf256::new(3)];
        assert!(LagrangeCtx::new(dup).is_none());
        // alpha^255 == alpha^0: generator powers repeat past the group order.
        assert!(LagrangeCtx::new((0..256).map(Gf256::alpha_pow)).is_none());
    }

    #[test]
    fn arbitrary_node_sets_supported() {
        let nodes = vec![Gf256::new(9), Gf256::new(200), Gf256::new(0)];
        let ctx = LagrangeCtx::new(nodes.clone()).unwrap();
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.is_empty());
        let x = Gf256::new(77);
        assert_eq!(ctx.row(x), naive_row(&nodes, x));
    }
}
