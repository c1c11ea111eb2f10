//! Analytic cost model for FEC encoding time.
//!
//! The paper's Figure 8 (right) reports *relative* overall FEC encoding
//! time, normalising the cost of producing one parity packet for block size
//! `k` to `k` time units (L. Rizzo's coder: one parity packet costs `k`
//! multiply-accumulate passes over the packet body). This module captures
//! that model so the figure and benchmark binaries can report encoding
//! time in the same units as the paper, independent of host speed.

/// Cost, in multiply-accumulate passes over one packet body, of encoding
/// one parity packet for a block of `k` data packets.
pub fn parity_packet_units(k: usize) -> u64 {
    k as u64
}

/// Total encoding cost (same units) for producing `parities_per_block[i]`
/// parity packets for block `i`.
///
/// Duplicated ENC packets in a short final block cost nothing — the caller
/// should simply not include them.
pub fn total_encoding_units(k: usize, parities_per_block: &[u64]) -> u64 {
    parities_per_block
        .iter()
        .map(|&p| p * parity_packet_units(k))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_cost_is_linear_in_k() {
        assert_eq!(parity_packet_units(1), 1);
        assert_eq!(parity_packet_units(10), 10);
        assert_eq!(parity_packet_units(50), 50);
    }

    #[test]
    fn total_cost_sums_blocks() {
        // 3 blocks needing 2, 0, 5 parities at k = 10.
        assert_eq!(total_encoding_units(10, &[2, 0, 5]), 70);
        assert_eq!(total_encoding_units(10, &[]), 0);
    }
}
