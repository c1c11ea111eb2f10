//! FEC block partitioning and parity generation.
//!
//! ENC packets are taken in generation order and cut into blocks of `k`;
//! the last block is padded by cyclically duplicating its own packets
//! (duplicates carry the duplicate flag and fresh sequence numbers, so they
//! count as FEC shares but are ignored by block-ID estimation). PARITY
//! packets for a block are generated on demand with monotonically
//! increasing sequence numbers, so proactive parities (round one) and
//! reactive parities (later rounds) are always mutually compatible shares
//! of the same Reed–Solomon block.

use rse::{BlockEncoder, RseError};

use crate::layout::Layout;
use crate::wire::{EncPacket, Packet, ParityPacket, MAX_BLOCK_SIZE};

/// One FEC block: `k` data packets plus the machinery to mint parities.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block ID.
    pub id: u8,
    /// Exactly `k` ENC packets (the tail may be duplicates); their FEC
    /// bodies are the data the block's parities are minted over.
    pub packets: Vec<EncPacket>,
    encoder: BlockEncoder,
    next_parity: usize,
}

impl Block {
    /// Total parity packets minted so far.
    pub fn parities_minted(&self) -> usize {
        self.next_parity
    }

    /// Mints `count` fresh parities for this block, advancing the parity
    /// sequence.
    fn mint(&mut self, msg_id: u8, count: usize) -> Result<Vec<ParityPacket>, RseError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        obs::counter_add("fec.parity_packets", count as u64);
        let _span_encode = obs::span("stage.encode");
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let j = self.next_parity;
            let body = self.encoder.parity(j, &self.packets)?;
            self.next_parity += 1;
            out.push(ParityPacket {
                msg_id,
                block_id: self.id,
                seq: j as u8,
                body,
            });
        }
        Ok(out)
    }
}

/// The blocks of one rekey message.
#[derive(Debug, Clone)]
pub struct BlockSet {
    k: usize,
    layout: Layout,
    msg_id: u8,
    blocks: Vec<Block>,
    real_packets: usize,
}

/// Order in which a round's packets leave the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendOrder {
    /// Round-robin across blocks (the paper's choice): consecutive
    /// same-block packets are separated by a sweep of the other blocks,
    /// so one burst-loss period rarely takes out two shares of a block.
    #[default]
    Interleaved,
    /// Block after block — the ablation baseline that shows what
    /// interleaving buys under burst loss.
    Sequential,
}

impl BlockSet {
    /// Partitions `packets` (from UKA, in generation order) into blocks of
    /// `k`, assigning block IDs and sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics when `k` is not a valid block size or when the message needs
    /// more than 256 blocks (wire limit of the 8-bit block ID).
    pub fn new(packets: Vec<EncPacket>, k: usize, layout: Layout) -> Self {
        #[expect(
            clippy::panic,
            reason = "the documented `# Panics`: a configuration error at construction, before any state exists"
        )]
        let Ok(proto_encoder) = BlockEncoder::new(k) else {
            panic!("invalid block size {k}");
        };
        Self::with_encoder(packets, proto_encoder, layout)
    }

    /// Like [`BlockSet::new`], but cloning block state from a caller-owned
    /// prototype encoder.
    ///
    /// A long-lived server warms one encoder per block size once (the
    /// O(k²) Lagrange setup plus the proactive parity rows) and hands
    /// clones here, so that work is shared across all blocks of every
    /// rekey message instead of being redone per message.
    ///
    /// # Panics
    ///
    /// Panics when the message needs more than 256 blocks (wire limit of
    /// the 8-bit block ID), or when it has blocks and `k` exceeds
    /// [`MAX_BLOCK_SIZE`] (a sequence number is 7 bits on the wire).
    pub fn with_encoder(
        packets: Vec<EncPacket>,
        proto_encoder: BlockEncoder,
        layout: Layout,
    ) -> Self {
        let _span_build = obs::span("fec.block_build");
        let k = proto_encoder.k();
        let real_packets = packets.len();
        let block_count = packets.len().div_ceil(k);
        obs::counter_add("fec.blocks", block_count as u64);
        obs::counter_add("fec.enc_packets", real_packets as u64);
        assert!(
            block_count <= 256,
            "message needs {block_count} blocks, wire limit 256"
        );
        let seqs_fit = block_count == 0 || k <= MAX_BLOCK_SIZE;
        assert!(seqs_fit, "block size {k}: sequence numbers are 7 bits");

        // Stamp block IDs / sequence numbers and pad the last (short)
        // block with cyclic duplicates: each shares its original's body.
        let mut packets = packets.into_iter();
        let blocks: Vec<Block> = (0..block_count)
            .map(|b| {
                let mut block_packets: Vec<EncPacket> = Vec::with_capacity(k);
                for (s, mut pkt) in packets.by_ref().take(k).enumerate() {
                    pkt.place(b as u8, s as u8, false);
                    block_packets.push(pkt);
                }
                let real = block_packets.len();
                for s in real..k {
                    let mut dup = block_packets[s % real].clone();
                    dup.place(b as u8, s as u8, true);
                    block_packets.push(dup);
                }
                Block {
                    id: b as u8,
                    packets: block_packets,
                    encoder: proto_encoder.clone(),
                    next_parity: 0,
                }
            })
            .collect();
        let msg_id = blocks.first().map_or(0, |b| b.packets[0].header().msg_id);
        BlockSet {
            k,
            layout,
            msg_id,
            blocks,
            real_packets,
        }
    }

    /// Block size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// ENC packets before last-block duplication.
    pub fn real_packet_count(&self) -> usize {
        self.real_packets
    }

    /// Duplicated packets added to fill the last block.
    pub fn duplicated_count(&self) -> usize {
        self.blocks.len() * self.k - self.real_packets
    }

    /// Borrow a block.
    pub fn block(&self, id: usize) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Mints `count` fresh PARITY packets for block `block_id`, advancing
    /// the parity sequence. Errors if the field limit (255 shares) is hit.
    pub fn mint_parities(
        &mut self,
        block_id: usize,
        count: usize,
    ) -> Result<Vec<ParityPacket>, RseError> {
        let msg_id = self.msg_id;
        self.blocks[block_id].mint(msg_id, count)
    }

    /// The round-one multicast schedule: every block's ENC packets plus
    /// its proactive parities (`ceil((rho - 1) * k)` each, rounded as the
    /// paper specifies), ordered across blocks per `order` (interleaving is
    /// the paper's burst-loss mitigation). Minting stops at the first error
    /// in block order.
    pub fn round_one_schedule(
        &mut self,
        rho: f64,
        order: SendOrder,
    ) -> Result<Vec<Packet>, RseError> {
        let per_block = proactive_parity_count(rho, self.k);
        self.schedule(order, |b, msg_id, _| {
            let par = b.mint(msg_id, per_block)?;
            let enc = b.packets.iter().cloned().map(Packet::Enc);
            Ok(enc.chain(par.into_iter().map(Packet::Parity)).collect())
        })
    }

    /// Schedule for a reactive round: `amax[b]` fresh parities for every
    /// block `b`, ordered across blocks per `order`. Minting stops at the
    /// first error in block order.
    ///
    /// # Panics
    ///
    /// Panics when `amax` does not have one entry per block.
    pub fn reactive_schedule(
        &mut self,
        amax: &[usize],
        order: SendOrder,
    ) -> Result<Vec<Packet>, RseError> {
        assert_eq!(amax.len(), self.blocks.len(), "one amax entry per block");
        self.schedule(order, |b, msg_id, i| {
            Ok(b.mint(msg_id, amax[i])?
                .into_iter()
                .map(Packet::Parity)
                .collect())
        })
    }

    /// One lane per block, in block order, ordered across blocks per
    /// `order`; stops at the first block whose lane fails.
    fn schedule(
        &mut self,
        order: SendOrder,
        mut lane: impl FnMut(&mut Block, u8, usize) -> Result<Vec<Packet>, RseError>,
    ) -> Result<Vec<Packet>, RseError> {
        let mut lanes = Vec::with_capacity(self.blocks.len());
        for (i, block) in self.blocks.iter_mut().enumerate() {
            lanes.push(lane(block, self.msg_id, i)?);
        }
        Ok(apply_order(lanes, order))
    }

    /// The layout this message was built with.
    pub fn layout(&self) -> Layout {
        self.layout
    }
}

/// `ceil((rho - 1) * k)` proactive parity packets per block, clamped at
/// zero (the adaptive algorithm may drive `rho` below 1, which simply
/// means "send no proactive parity").
pub fn proactive_parity_count(rho: f64, k: usize) -> usize {
    ((rho - 1.0) * k as f64).ceil().max(0.0) as usize
}

fn apply_order<T>(lanes: Vec<Vec<T>>, order: SendOrder) -> Vec<T> {
    match order {
        SendOrder::Interleaved => interleave(lanes),
        SendOrder::Sequential => lanes.into_iter().flatten().collect(),
    }
}

/// Round-robin interleave across lanes, preserving order within a lane.
pub fn interleave<T>(lanes: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = lanes.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<T>> = lanes.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for it in iters.iter_mut() {
            if let Some(x) = it.next() {
                out.push(x);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EncFrame, EncHeader};
    use wirecrypto::{SealedKey, SymKey};

    fn layout() -> Layout {
        Layout::DEFAULT
    }

    fn enc(i: u16) -> EncPacket {
        let kek = SymKey::from_bytes([i as u8; 16]);
        let plain = SymKey::from_bytes([(i + 1) as u8; 16]);
        let header = EncHeader {
            msg_id: 3,
            block_id: 0,
            seq: 0,
            duplicate: false,
            max_kid: 100,
            frm_id: 101 + i,
            to_id: 101 + i,
        };
        let entries = [(101 + i, SealedKey::seal(&kek, &plain, i as u64))];
        EncPacket::new(header, entries, &layout()).unwrap()
    }

    fn packets(n: usize) -> Vec<EncPacket> {
        (0..n as u16).map(enc).collect()
    }

    #[test]
    fn exact_multiple_no_duplicates() {
        let bs = BlockSet::new(packets(20), 5, layout());
        assert_eq!(bs.block_count(), 4);
        assert_eq!(bs.duplicated_count(), 0);
        assert_eq!(bs.real_packet_count(), 20);
        for b in 0..4 {
            let blk = bs.block(b).unwrap();
            assert_eq!(blk.packets.len(), 5);
            for (s, p) in blk.packets.iter().enumerate() {
                assert_eq!(p.header().block_id, b as u8);
                assert_eq!(p.header().seq, s as u8);
                assert!(!p.header().duplicate);
            }
        }
    }

    #[test]
    fn short_last_block_duplicates_cyclically() {
        let bs = BlockSet::new(packets(7), 5, layout());
        assert_eq!(bs.block_count(), 2);
        assert_eq!(bs.duplicated_count(), 3);
        let last = bs.block(1).unwrap();
        assert_eq!(last.packets.len(), 5);
        // Slots 0,1 real; 2,3,4 duplicates of 0,1,0.
        assert!(!last.packets[0].header().duplicate);
        assert!(!last.packets[1].header().duplicate);
        for s in 2..5 {
            let (dup, original) = (&last.packets[s], &last.packets[s % 2]);
            assert!(dup.header().duplicate);
            assert_eq!(dup.header().seq, s as u8);
            assert!(
                std::ptr::eq(dup.as_ref(), original.as_ref()),
                "a duplicate shares its original's body"
            );
        }
    }

    #[test]
    fn parities_decode_with_data_loss() {
        let mut bs = BlockSet::new(packets(10), 5, layout());
        let pars = bs.mint_parities(0, 2).unwrap();
        // Lose data packets 0 and 3 of block 0; decode from 1,2,4 + pars.
        let blk = bs.block(0).unwrap();
        let mut shares: Vec<rse::Share> = [1usize, 2, 4]
            .iter()
            .map(|&s| rse::Share {
                index: s,
                data: blk.packets[s].as_ref().to_vec(),
            })
            .collect();
        for p in &pars {
            shares.push(rse::Share {
                index: 5 + p.seq as usize,
                data: p.body.clone(),
            });
        }
        let bodies = rse::Decoder::new(5).unwrap().decode(&shares).unwrap();
        for (s, body) in bodies.iter().enumerate() {
            let fill = |out: &mut [u8]| out.copy_from_slice(body);
            let rebuilt = EncFrame::fill_fec_body(&layout(), 3, 0, s as u8, fill).unwrap();
            assert_eq!(rebuilt.to_packet(), blk.packets[s]);
        }
    }

    #[test]
    fn parity_sequence_is_monotone_across_rounds() {
        let mut bs = BlockSet::new(packets(10), 5, layout());
        let round1 = bs.mint_parities(0, 3).unwrap();
        let round2 = bs.mint_parities(0, 2).unwrap();
        let seqs: Vec<u8> = round1.iter().chain(&round2).map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(bs.block(0).unwrap().parities_minted(), 5);
    }

    #[test]
    fn proactive_count_formula() {
        assert_eq!(proactive_parity_count(1.0, 10), 0);
        assert_eq!(proactive_parity_count(1.2, 10), 2);
        assert_eq!(proactive_parity_count(1.25, 10), 3); // ceil(2.5)
        assert_eq!(proactive_parity_count(2.0, 10), 10);
        assert_eq!(proactive_parity_count(1.05, 1), 1); // k=1: any rho>1 adds one
        assert_eq!(proactive_parity_count(0.9, 10), 0); // rho < 1: none
    }

    #[test]
    fn round_one_schedule_interleaves_blocks() {
        let mut bs = BlockSet::new(packets(10), 5, layout());
        let sched = bs.round_one_schedule(1.4, SendOrder::Interleaved).unwrap();
        // 10 ENC + 2 parities per block * 2 blocks = 14 packets.
        assert_eq!(sched.len(), 14);
        // First two sends come from different blocks.
        let bid = |p: &Packet| match p {
            Packet::Enc(e) => e.header().block_id,
            Packet::Parity(q) => q.block_id,
            _ => panic!("unexpected packet type"),
        };
        assert_ne!(bid(&sched[0]), bid(&sched[1]));
        // Adjacent same-block packets never touch while both lanes have
        // packets left.
        for w in sched.windows(2).take(12) {
            assert_ne!(bid(&w[0]), bid(&w[1]));
        }
    }

    #[test]
    fn reactive_schedule_respects_amax() {
        for (order, expect) in [
            (SendOrder::Interleaved, vec![0, 2, 0]),
            (SendOrder::Sequential, vec![0, 0, 2]),
        ] {
            let mut bs = BlockSet::new(packets(15), 5, layout());
            let sched = bs.reactive_schedule(&[2, 0, 1], order).unwrap();
            let blocks: Vec<u8> = sched
                .iter()
                .map(|p| match p {
                    Packet::Parity(q) => q.block_id,
                    _ => panic!("reactive round sends only parity"),
                })
                .collect();
            assert_eq!(blocks, expect, "{order:?}");
        }
    }

    #[test]
    fn empty_message_yields_no_blocks() {
        let mut bs = BlockSet::new(vec![], 10, layout());
        assert_eq!(bs.block_count(), 0);
        assert!(bs
            .round_one_schedule(2.0, SendOrder::Interleaved)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_packet_k10_is_one_block_of_duplicates() {
        let bs = BlockSet::new(packets(1), 10, layout());
        assert_eq!(bs.block_count(), 1);
        assert_eq!(bs.duplicated_count(), 9);
        let blk = bs.block(0).unwrap();
        assert!(blk.packets[1..].iter().all(|p| p.header().duplicate));
    }

    #[test]
    fn sequential_order_concatenates_blocks() {
        let mut bs = BlockSet::new(packets(10), 5, layout());
        let sched = bs.round_one_schedule(1.4, SendOrder::Sequential).unwrap();
        let bid = |p: &Packet| match p {
            Packet::Enc(e) => e.header().block_id,
            Packet::Parity(q) => q.block_id,
            _ => unreachable!(),
        };
        // All of block 0 (5 ENC + 2 parity) before any of block 1.
        assert!(sched[..7].iter().all(|p| bid(p) == 0));
        assert!(sched[7..].iter().all(|p| bid(p) == 1));
    }

    #[test]
    fn interleave_preserves_lane_order() {
        let lanes = vec![vec![1, 4, 6], vec![2, 5], vec![3]];
        assert_eq!(interleave(lanes), vec![1, 2, 3, 4, 5, 6]);
    }
}
