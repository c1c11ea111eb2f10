//! User-side block-ID estimation (Appendix D).
//!
//! A user that lost its specific ENC packet does not directly know which
//! FEC block that packet belongs to. Every *received* ENC packet, however,
//! bounds the answer: UKA emits packets in increasing user-ID ranges, so a
//! received packet whose range lies below the user's ID must belong to an
//! earlier-or-equal block, and one whose range lies above to a
//! later-or-equal block; sequence numbers at block edges tighten the bound
//! by one. The `maxKID` field also caps how many packets can exist at all,
//! bounding the block ID from above even when nothing was received from
//! later blocks.
//!
//! Duplicated last-block packets are excluded (their ranges repeat out of
//! order).

use crate::wire::EncHeader;

/// Running `[low, high]` estimate of the block containing a user's ENC
/// packet. The block size `k` and tree degree `d` are the message's, held
/// by whoever feeds it headers, and passed with each one.
#[derive(Debug, Clone)]
pub struct BlockIdEstimator {
    /// The user's (current) ID.
    m: u16,
    low: u32,
    high: Option<u32>, // None = unbounded (nothing informative seen yet)
    exact: bool,
}

impl BlockIdEstimator {
    /// Creates an estimator for user ID `m`.
    pub fn new(m: u16) -> Self {
        BlockIdEstimator {
            m,
            low: 0,
            high: None,
            exact: false,
        }
    }

    /// Feeds the header of one received ENC packet of a message of blocks
    /// of `k` from a tree of degree `d` into the estimate.
    ///
    /// # Panics
    ///
    /// Panics when `k` is 0: no message has empty blocks.
    pub fn observe(&mut self, pkt: &EncHeader, k: usize, d: u32) {
        assert!(k >= 1);
        if pkt.duplicate {
            return;
        }
        let m = self.m;
        let blk = pkt.block_id as u32;
        let k = k as u32;

        if pkt.serves(m) {
            self.low = blk;
            self.high = Some(blk);
            self.exact = true;
            return;
        }
        if m > pkt.to_id {
            // The user's packet was generated after this one.
            if u32::from(pkt.seq) == k - 1 {
                self.low = self.low.max(blk + 1);
            } else {
                self.low = self.low.max(blk);
            }
            // Step 6: maxKID caps the number of packets that can follow.
            // At worst one packet per remaining user ID: there are at most
            // d*(maxKID+1) - toID user IDs above toID, and k - 1 - seq
            // packets left in this block.
            let remaining_users = (d as i64) * (pkt.max_kid as i64 + 1) - pkt.to_id as i64;
            let after_this_block = remaining_users - (k as i64 - 1 - pkt.seq as i64);
            let remaining = after_this_block.max(0);
            let extra_blocks = ((remaining + k as i64 - 1) / k as i64) as u32;
            self.bound_high(blk + extra_blocks);
        } else {
            // m < pkt.frm_id: the user's packet was generated earlier.
            if pkt.seq == 0 {
                self.bound_high(blk.saturating_sub(1));
            } else {
                self.bound_high(blk);
            }
        }
    }

    fn bound_high(&mut self, candidate: u32) {
        self.high = Some(match self.high {
            Some(h) => h.min(candidate),
            None => candidate,
        });
    }

    /// True once the block ID is pinned exactly.
    pub fn is_exact(&self) -> bool {
        self.exact || matches!(self.high, Some(h) if h == self.low)
    }

    /// Current `[low, high]` range; `None` if nothing informative has been
    /// observed yet (the high end is unbounded).
    pub fn range(&self) -> Option<(u32, u32)> {
        self.high.map(|h| (self.low.min(h), h))
    }

    /// Lower bound (always defined).
    pub fn low(&self) -> u32 {
        self.low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ENC header with chosen range/block/seq fields.
    fn pkt(blk: u8, seq: u8, frm: u16, to: u16, max_kid: u16) -> EncHeader {
        EncHeader {
            msg_id: 0,
            block_id: blk,
            seq,
            duplicate: false,
            max_kid,
            frm_id: frm,
            to_id: to,
        }
    }

    #[test]
    fn own_packet_is_exact() {
        let mut e = BlockIdEstimator::new(150);
        e.observe(&pkt(3, 2, 140, 160, 4000), 5, 4);
        assert!(e.is_exact());
        assert_eq!(e.range(), Some((3, 3)));
    }

    #[test]
    fn sandwich_determines_block() {
        // The paper's key claim: receiving one packet before and one after
        // the lost packet pins its block exactly (when they straddle it
        // tightly). User 150's packet is <2, 3> (k = 5); it receives
        // <2, 2> (range below) and <2, 4> (range above).
        let mut e = BlockIdEstimator::new(150);
        e.observe(&pkt(2, 2, 100, 140, 4000), 5, 4); // below, seq < k-1 -> low >= 2
        e.observe(&pkt(2, 4, 160, 200, 4000), 5, 4); // above, seq > 0 -> high <= 2
        assert!(e.is_exact());
        assert_eq!(e.range(), Some((2, 2)));
    }

    #[test]
    fn block_edges_tighten_by_one() {
        // A packet below with seq == k-1 pushes low past its block; one
        // above with seq == 0 pulls high below its block.
        let mut e = BlockIdEstimator::new(150);
        e.observe(&pkt(1, 4, 100, 140, 4000), 5, 4); // last of block 1 -> low >= 2
        e.observe(&pkt(3, 0, 160, 200, 4000), 5, 4); // first of block 3 -> high <= 2
        assert!(e.is_exact());
        assert_eq!(e.range(), Some((2, 2)));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut e = BlockIdEstimator::new(150);
        let mut p = pkt(7, 0, 160, 200, 4000);
        p.duplicate = true;
        e.observe(&p, 5, 4);
        assert_eq!(e.range(), None);
        assert_eq!(e.low(), 0);
    }

    #[test]
    fn max_kid_bounds_high_from_below_packets_only() {
        // Only packets below the user received; step 6 still bounds high.
        // d=4, maxKID=100 -> at most 4*101 = 404 user IDs; toID = 200,
        // so at most 204 - (k-1-seq) packets follow.
        let mut e = BlockIdEstimator::new(250);
        e.observe(&pkt(5, 3, 180, 200, 100), 10, 4);
        let (low, high) = e.range().expect("bounded");
        assert_eq!(low, 5);
        // after_this_block = 204 - 6 = 198; ceil(198/10) = 20 -> high 25.
        assert_eq!(high, 25);
    }

    #[test]
    fn bounds_always_contain_truth_for_synthetic_stream() {
        // Build a synthetic message: 30 users, one per packet entry... use
        // 30 packets with contiguous ranges [10i+10, 10i+19], k = 4.
        let k = 4usize;
        let d = 4u32;
        let max_kid = 500u16;
        let packets: Vec<EncHeader> = (0..30u16)
            .map(|i| {
                pkt(
                    (i as usize / k) as u8,
                    (i as usize % k) as u8,
                    10 * i + 10,
                    10 * i + 19,
                    max_kid,
                )
            })
            .collect();

        // For every "user" (midpoint of each packet's range) and every
        // subset pattern of received packets, the estimate contains the
        // true block.
        for target in 0..30usize {
            let m = 10 * target as u16 + 15;
            let true_block = (target / k) as u32;
            // A few deterministic loss patterns.
            for pattern in [0b1010101u64, 0b110011, 0b1, u64::MAX, 0b111000111] {
                let mut e = BlockIdEstimator::new(m);
                for (i, p) in packets.iter().enumerate() {
                    if i != target && (pattern >> (i % 60)) & 1 == 1 {
                        e.observe(p, k, d);
                    }
                }
                assert!(e.low() <= true_block, "m={m} pattern={pattern:b}");
                if let Some((lo, hi)) = e.range() {
                    assert!(
                        lo <= true_block && true_block <= hi,
                        "m={m} true={true_block} range=({lo},{hi}) pattern={pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn nothing_observed_is_unbounded() {
        let e = BlockIdEstimator::new(5);
        assert_eq!(e.range(), None);
        assert!(!e.is_exact());
        assert_eq!(e.low(), 0);
    }
}
