//! The count model of the transport: share-counting simulated users.
//!
//! Reproducing the paper's figures means simulating thousands of rekey
//! messages against 4096+ users. The server side here is the *real*
//! protocol stack — real marking algorithm, real UKA packets, real
//! Reed–Solomon parities, real `AdjustRho` — and the round loop is the one
//! in [`crate::transport`], but each [`SimUser`] tracks which FEC *shares*
//! it received rather than their bytes, so memory stays O(counts), under
//! the byte model's own receive rules ([`rekeyproto::BlockSearch`]). The
//! loop hands a user the round's schedule itself, borrowed, and walks it for
//! that user alone until the user is satisfied, counting the other packets'
//! shares only if it never is: the count model allocates nothing per round.
//! The byte-faithful path — parse, decode, unseal — is exercised end-to-end
//! by [`crate::driver`] and the integration tests.
//!
//! [`SimUser`]: crate::sim::SimUser

use keytree::NodeId;
use netsim::Network;
use rekeymsg::{Layout, NackPacket, Packet, UsrPacket};
use rekeyproto::{BlockSearch, ServerSession};
use rse::DecodeCtx;

use crate::transport::{self, Receiver};
pub use crate::transport::{SimConfig, TransportScratch, TransportStats};

/// One simulated user of the transport.
///
/// It runs the byte model's receive rules ([`BlockSearch`]: index check,
/// 16-bit guard, ruled-out test, NACK) and skips only the decode, exactly:
/// the code is MDS, so the true block reconstructs iff `k` distinct shares
/// of it arrived, and the estimate always contains the true block. Another
/// full block holds no packet for this user and changes no count a NACK
/// reads.
#[derive(Debug)]
pub struct SimUser {
    /// Index of this user's receiver link in the [`Network`].
    net_index: u32,
    /// The user's current u-node ID.
    node_id: NodeId,
    search: BlockSearch,
    /// True block of the user's specific ENC packet (driver knowledge used
    /// only to shortcut the FEC decode).
    true_block: Option<u8>,
    satisfied_round: Option<u16>,
}

impl SimUser {
    /// Creates a simulated user behind link `net_index` of the [`Network`]
    /// (none past `u32::MAX`). `true_block` is the FEC block holding its
    /// specific packet (`None` for a user that needs nothing).
    pub fn new(
        net_index: usize,
        node_id: NodeId,
        k: usize,
        d: u32,
        true_block: Option<u8>,
    ) -> Self {
        SimUser {
            net_index: u32::try_from(net_index).unwrap_or(u32::MAX),
            node_id,
            search: BlockSearch::new(k, d),
            true_block,
            satisfied_round: None,
        }
    }

    /// The ID as the 16-bit wire fields name it; `None` past them, where no
    /// ENC packet serves it (narrowing 65536 + m to m would claim m's).
    fn me(&self) -> Option<u16> {
        u16::try_from(self.node_id).ok()
    }

    /// Whether `pkt` is the user's own: a USR packet, or the ENC packet
    /// that serves it at a share index the server can have sent. `serves`
    /// is asked first: it rules out every packet but one.
    // xcheck: no_alloc
    fn is_own(&self, pkt: &Packet) -> bool {
        // Two compares, not a `match`: a walk scans the schedule with this.
        if let Packet::Enc(enc) = pkt {
            return self.me().is_some_and(|me| enc.serves(me))
                && self.search.index(true, enc.header().seq).is_ok();
        }
        matches!(pkt, Packet::Usr(_))
    }

    /// Feeds one received packet into the user's share bookkeeping,
    /// allocation-free once a rekey message is underway.
    // xcheck: no_alloc
    pub fn receive(&mut self, pkt: &Packet, round: usize) {
        if self.is_satisfied() {
            return;
        }
        if self.is_own(pkt) {
            self.satisfied_round = Some(u16::try_from(round).unwrap_or(u16::MAX));
            return;
        }
        let (me, search) = (self.me(), &mut self.search);
        let _ = match pkt {
            Packet::Enc(enc) => {
                let h = enc.header();
                (search.index(true, h.seq))
                    .and_then(|i| search.record(h.block_id, i, Some((&h, me))))
            }
            Packet::Parity(par) => {
                (search.index(false, par.seq)).and_then(|i| search.record(par.block_id, i, None))
            }
            Packet::Usr(_) | Packet::Nack(_) => return,
        };
    }
}

/// The count model: a frame is the packet itself, borrowed, and the user
/// records which shares arrived instead of their bytes.
impl Receiver for SimUser {
    type Frames<'p> = &'p [Packet];

    fn frames<'p>(packets: &'p [Packet], _layout: &Layout) -> &'p [Packet] {
        packets
    }

    fn receive_at(&mut self, frames: &&[Packet], j: usize, round: usize) {
        self.receive(&frames[j], round);
    }

    /// Only the user's own packet, told from the header it reads anyway.
    // xcheck: no_alloc
    fn reads_now(&mut self, frames: &&[Packet], j: usize) -> bool {
        self.is_own(&frames[j])
    }

    /// Exact: the first own packet from `from` on.
    // xcheck: no_alloc
    fn next_read(&mut self, frames: &&[Packet], from: usize) -> usize {
        let rest = frames.get(from..).unwrap_or_default();
        from + (rest.iter().position(|pkt| self.is_own(pkt))).unwrap_or(rest.len())
    }

    fn net_index(&self) -> usize {
        self.net_index as usize
    }

    fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// True once the user has (or can decode) its encryptions.
    fn is_satisfied(&self) -> bool {
        self.satisfied_round.is_some() || self.true_block.is_none()
    }

    fn success_round(&self) -> Option<usize> {
        self.satisfied_round.map(usize::from)
    }

    /// Round boundary: decodes if the true block is full (see [`SimUser`]),
    /// else fills the caller's reusable `nack` and returns true.
    // xcheck: no_alloc
    fn end_of_round_into(
        &mut self,
        round: usize,
        nack: &mut NackPacket,
        _decode: &mut DecodeCtx,
    ) -> bool {
        if self.is_satisfied() {
            return false;
        }
        if self.true_block.is_some_and(|b| self.search.full(b)) {
            self.satisfied_round = Some(u16::try_from(round).unwrap_or(u16::MAX));
            return false;
        }
        nack.msg_id = 0;
        self.search.nack_into(&mut nack.requests);
        true
    }
}

/// The count model's instantiation of [`transport::run`], the
/// allocation-free form used by [`crate::experiment::ExperimentRun`]: the
/// loop borrows each scheduled packet and hands unicast targets one empty
/// USR stub, so no packet is emitted, cloned or parsed.
// xcheck: no_alloc
pub fn run_message_transport_with(
    net: &mut Network,
    clock: &mut f64,
    session: &mut ServerSession,
    users: &mut [SimUser],
    cfg: &SimConfig,
    scratch: &mut TransportScratch,
) -> TransportStats {
    transport::run(net, clock, session, users, cfg, scratch, |_| {
        Packet::Usr(UsrPacket {
            msg_id: 0,
            new_user_id: 0,
            sealed: Vec::new(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekeymsg::{EncHeader, EncPacket, Layout, ParityPacket};
    use wirecrypto::{SealedKey, SymKey};

    fn enc(block: u8, seq: u8, frm: u16, to: u16) -> Packet {
        let kek = SymKey::from_bytes([seq; 16]);
        Packet::Enc(
            EncPacket::new(
                EncHeader {
                    msg_id: 0,
                    block_id: block,
                    seq,
                    duplicate: false,
                    max_kid: 90,
                    frm_id: frm,
                    to_id: to,
                },
                vec![(frm, SealedKey::seal(&kek, &SymKey::from_bytes([1; 16]), 0))],
                &Layout::DEFAULT,
            )
            .unwrap(),
        )
    }

    fn parity(block: u8, seq: u8) -> Packet {
        Packet::Parity(ParityPacket {
            msg_id: 0,
            block_id: block,
            seq,
            body: vec![0; 8],
        })
    }

    /// The round boundary with a throwaway NACK buffer.
    fn end_of_round(u: &mut SimUser, round: usize) -> Option<NackPacket> {
        let mut nack = NackPacket::default();
        let nacked = u.end_of_round_into(round, &mut nack, &mut DecodeCtx::default());
        nacked.then_some(nack)
    }

    #[test]
    fn own_packet_satisfies_immediately() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        assert!(!u.is_satisfied());
        u.receive(&enc(1, 0, 140, 160), 1);
        assert!(u.is_satisfied());
        assert_eq!(u.success_round(), Some(1));
    }

    #[test]
    fn id_beyond_the_wire_width_claims_no_packet() {
        // 65536 + 150 narrows to 150; the packet for 150 is not this user's.
        let mut u = SimUser::new(0, 65_536 + 150, 3, 4, Some(1));
        u.receive(&enc(1, 0, 140, 160), 1);
        assert!(!u.is_satisfied());
        assert!(end_of_round(&mut u, 1).is_some());
    }

    #[test]
    fn a_walk_takes_only_the_own_packet_and_none_past_the_wire_width() {
        let schedule = [enc(1, 1, 100, 140), parity(1, 0), enc(1, 0, 140, 160)];
        let frames: &[Packet] = &schedule;
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        assert_eq!([0, 1, 2, 3].map(|j| u.next_read(&frames, j)), [2, 2, 2, 3]);
        assert!(u.reads_now(&frames, 2));
        u.receive_at(&frames, 2, 1);
        assert_eq!(u.success_round(), Some(1));

        // 65536 + 150 narrows to 150, whose packet the last one is: the
        // walk takes nothing, and reading what it deferred afterwards is
        // reading every frame as it came.
        let wide = 65_536 + 150;
        let (mut walked, mut eager) = (
            SimUser::new(0, wide, 3, 4, Some(1)),
            SimUser::new(0, wide, 3, 4, Some(1)),
        );
        assert_eq!(walked.next_read(&frames, 0), schedule.len());
        for j in 0..schedule.len() {
            assert!(!walked.reads_now(&frames, j));
            eager.receive_at(&frames, j, 1);
        }
        for j in 0..schedule.len() {
            walked.receive_at(&frames, j, 1);
        }
        let nack = end_of_round(&mut eager, 1).expect("unsatisfied");
        assert_eq!(end_of_round(&mut walked, 1), Some(nack));
        assert!(!walked.is_satisfied());
    }

    #[test]
    fn k_shares_of_true_block_decode_at_round_end() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        // Three distinct shares of block 1, none its own packet.
        u.receive(&enc(1, 1, 200, 210), 1);
        u.receive(&parity(1, 0), 1);
        u.receive(&parity(1, 1), 1);
        assert!(!u.is_satisfied(), "decode happens at the boundary");
        assert_eq!(end_of_round(&mut u, 1), None);
        assert!(u.is_satisfied());
    }

    #[test]
    fn shares_of_other_blocks_do_not_satisfy() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        u.receive(&parity(0, 0), 1);
        u.receive(&parity(0, 1), 1);
        u.receive(&parity(0, 2), 1);
        let nack = end_of_round(&mut u, 1).expect("still unsatisfied");
        assert!(!nack.requests.is_empty());
    }

    #[test]
    fn nack_deficit_matches_missing_shares() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        // Pin the block exactly: a packet below (block 1 seq 0, range
        // below m) and one above (block 1 seq 2, range above m).
        u.receive(&enc(1, 0, 100, 140), 1);
        u.receive(&enc(1, 2, 160, 200), 1);
        let nack = end_of_round(&mut u, 1).expect("unsatisfied");
        assert_eq!(nack.requests.len(), 1);
        assert_eq!(nack.requests[0].block_id, 1);
        // Holds 2 shares of block 1, needs 1 more.
        assert_eq!(nack.requests[0].count, 1);
    }

    #[test]
    fn an_enc_past_k_is_neither_own_nor_counted() {
        // Serves 150, but at `seq = k`: no packet the server sends.
        let forged = enc(1, 3, 140, 160);
        let (mut u, mut deaf) = (
            SimUser::new(0, 150, 3, 4, Some(1)),
            SimUser::new(0, 150, 3, 4, Some(1)),
        );
        assert_eq!(u.next_read(&&[forged.clone()][..], 0), 1);
        u.receive(&forged, 1);
        assert!(!u.is_satisfied());
        assert_eq!(end_of_round(&mut u, 1), end_of_round(&mut deaf, 1));
    }

    #[test]
    fn a_parity_past_the_last_code_symbol_is_not_counted() {
        // k + seq = 255 is past rse::MAX_SYMBOLS; k + seq = 254 is not.
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        for pkt in [parity(1, 0), parity(1, 1), parity(1, 252)] {
            u.receive(&pkt, 1);
        }
        assert!(end_of_round(&mut u, 1).is_some(), "two shares of three");
        u.receive(&parity(1, 251), 2);
        assert_eq!(end_of_round(&mut u, 2), None);
    }

    #[test]
    fn a_share_of_a_ruled_out_block_changes_no_nack() {
        // Block 1 pinned, as above; then block 0 and 2 are ruled out.
        let pin = [enc(1, 0, 100, 140), enc(1, 2, 160, 200)];
        let (mut u, mut deaf) = (
            SimUser::new(0, 150, 3, 4, Some(1)),
            SimUser::new(0, 150, 3, 4, Some(1)),
        );
        for pkt in &pin {
            u.receive(pkt, 1);
            deaf.receive(pkt, 1);
        }
        for pkt in [parity(0, 0), enc(2, 0, 300, 310), parity(2, 1)] {
            u.receive(&pkt, 1);
        }
        assert_eq!(end_of_round(&mut u, 1), end_of_round(&mut deaf, 1));
    }

    #[test]
    fn user_with_no_needs_is_vacuously_satisfied() {
        let u = SimUser::new(0, 150, 3, 4, None);
        assert!(u.is_satisfied());
        assert_eq!(u.success_round(), None);
    }

    #[test]
    fn usr_packet_satisfies() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(0));
        u.receive(
            &Packet::Usr(UsrPacket {
                msg_id: 0,
                new_user_id: 150,
                sealed: vec![],
            }),
            3,
        );
        assert_eq!(u.success_round(), Some(3));
    }

    #[test]
    fn duplicate_flag_excluded_from_estimation_but_counts_as_share() {
        let mut u = SimUser::new(0, 150, 3, 4, Some(1));
        let Packet::Enc(e) = enc(1, 2, 200, 210) else {
            unreachable!()
        };
        let header = EncHeader {
            duplicate: true,
            ..e.header()
        };
        let dup = EncPacket::new(header, e.entries(), &Layout::DEFAULT).unwrap();
        u.receive(&Packet::Enc(dup), 1);
        u.receive(&parity(1, 0), 1);
        u.receive(&parity(1, 1), 1);
        // Three distinct shares (dup counts) -> decodes.
        assert_eq!(end_of_round(&mut u, 1), None);
        assert!(u.is_satisfied());
    }
}
