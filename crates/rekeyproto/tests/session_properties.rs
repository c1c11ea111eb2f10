//! Property-based tests of the server session state machine under random
//! NACK streams (parity sequence monotonicity, stats consistency, phase
//! transitions, termination) and of the user session fed frames under
//! random delivery masks (recovery iff the packet or any `k` shares of its
//! block arrived, exact NACK counts otherwise) — and, round for round,
//! against a reference session that decodes every block in full.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::{
    BlockSet, EncFrame, EncHeader, EncPacket, Header, Layout, NackPacket, NackRequest, Packet,
};
use rekeyproto::{
    nack_requests_into, DecodeWork, Ignored, Received, RoundDecision, ServerConfig,
    ServerController, UserOutcome, UserSession,
};
use wirecrypto::{SealedKey, SymKey};

fn enc(i: u16) -> EncPacket {
    let kek = SymKey::from_bytes([i as u8; 16]);
    EncPacket::new(
        EncHeader {
            msg_id: 1,
            block_id: 0,
            seq: 0,
            duplicate: false,
            max_kid: 40,
            frm_id: 100 + i,
            to_id: 100 + i,
        },
        vec![(
            100 + i,
            SealedKey::seal(&kek, &SymKey::from_bytes([1; 16]), 0),
        )],
        &Layout::DEFAULT,
    )
    .unwrap()
}

/// `enc(i)` under `maxKID` 1000, serving `1001 + 3i ..= 1003 + 3i`.
fn spaced_enc(i: u16) -> EncPacket {
    let e = enc(i);
    let header = EncHeader {
        max_kid: 1000,
        frm_id: 1001 + 3 * i,
        to_id: 1003 + 3 * i,
        ..e.header()
    };
    EncPacket::new(header, e.entries(), &Layout::DEFAULT).unwrap()
}

/// A user whose ID does not fit the 16-bit wire fields is served by no ENC
/// packet: narrowing 65536 + 30000 to 30000 would claim the packet of user
/// 30000 (and then fail to unseal it).
#[test]
fn id_beyond_the_wire_width_claims_no_packet() {
    let wide = 65_536 + 30_000;
    let pkt = EncPacket::new(
        EncHeader {
            // Theorem 4.2 keeps both users where they are:
            // maxKID < id <= 4 maxKID + 4.
            max_kid: 25_000,
            frm_id: 29_990,
            to_id: 30_010,
            ..enc(50).header()
        },
        enc(50).entries(),
        &Layout::DEFAULT,
    )
    .unwrap();
    let layout = rekeymsg::Layout::DEFAULT;
    let mut wide_user = UserSession::new(wide, 4, 3, layout);
    wide_user.receive(&Packet::Enc(pkt.clone()));
    assert_eq!(wide_user.current_id(), Some(wide));
    assert_eq!(wide_user.outcome(), &UserOutcome::Pending);
    // It still NACKs for what it saw, like any unsatisfied user.
    let nack = wide_user.end_of_round().expect("unsatisfied");
    assert_eq!(nack.requests[0].block_id, 0);

    // The user the packet is for takes it.
    let mut narrow_user = UserSession::new(30_000, 4, 3, layout);
    narrow_user.receive(&Packet::Enc(pkt));
    assert!(narrow_user.is_satisfied());
}

fn frame(pkt: Packet) -> Arc<[u8]> {
    pkt.emit(&Layout::DEFAULT).into()
}

/// The outcome of a session that holds `pkt` as the server emitted it.
fn holds(pkt: &EncPacket) -> UserOutcome {
    let layout = Layout::DEFAULT;
    UserOutcome::Enc(EncFrame::new(pkt.emit().into(), &layout).unwrap())
}

/// Share indices the server cannot have sent are dropped at the door. At
/// the parent commit the forged ENC (`seq = k`) overwrote the real parity
/// held at index `k + 0` and the decode produced garbage; the forged
/// PARITY (`k + seq = 255`) was counted as held and the NACK asked for one
/// parity too few.
#[test]
fn forged_share_indices_change_neither_nack_nor_decode() {
    let k = 3;
    let mut blocks = BlockSet::new((0..6).map(enc).collect(), k, Layout::DEFAULT);
    let parities = blocks.mint_parities(0, 2).unwrap();
    let b0 = blocks.block(0).unwrap().packets.clone();
    let forged_enc = EncPacket::new(
        EncHeader {
            seq: k as u8,
            frm_id: 300,
            to_id: 300,
            ..b0[2].header()
        },
        b0[2].entries(),
        &Layout::DEFAULT,
    )
    .unwrap();
    let forged_parity = rekeymsg::ParityPacket {
        seq: (rse::MAX_SYMBOLS - k) as u8,
        ..parities[0].clone()
    };

    // User 101's packet is block 0, seq 1; it hears seq 0, one parity and
    // the first packet of block 1, which pins its block (and so rules its
    // own block out).
    let next_block = blocks.block(1).unwrap().packets[0].clone();
    let heard = [
        (Packet::Enc(b0[0].clone()), Received::Kept),
        (Packet::Parity(parities[0].clone()), Received::Kept),
        (
            Packet::Enc(next_block),
            Received::Ignored(Ignored::RuledOut),
        ),
    ];
    let mut clean = UserSession::new(101, 4, k, Layout::DEFAULT);
    let mut forged = UserSession::new(101, 4, k, Layout::DEFAULT);
    for session in [&mut clean, &mut forged] {
        for (pkt, did) in heard.clone() {
            assert_eq!(session.receive_frame(&frame(pkt)), Ok(did));
        }
    }
    for pkt in [Packet::Enc(forged_enc), Packet::Parity(forged_parity)] {
        assert_eq!(
            forged.receive_frame(&frame(pkt)),
            Ok(Received::Ignored(Ignored::OutOfRange))
        );
    }
    let nack = clean.end_of_round().expect("one share short");
    assert_eq!(
        nack.requests,
        [NackRequest {
            count: 1,
            block_id: 0
        }]
    );
    assert_eq!(forged.end_of_round(), Some(nack));

    for session in [&mut clean, &mut forged] {
        let second = frame(Packet::Parity(parities[1].clone()));
        assert_eq!(session.receive_frame(&second), Ok(Received::Kept));
        assert_eq!(session.end_of_round(), None);
        assert_eq!(session.outcome(), &holds(&b0[1]));
    }
    let late = frame(Packet::Enc(b0[1].clone()));
    assert_eq!(
        clean.receive_frame(&late),
        Ok(Received::Ignored(Ignored::Satisfied))
    );
}

/// A second frame for a `(block, share index)` already held replaces the
/// first and is not counted twice: heard after the real packet, a forgery
/// is what the block decodes from (to nothing of use); heard before it, the
/// forgery is gone by the time the block decodes. The full-order reference,
/// which keeps its shares in a map of maps, agrees on every NACK, round and
/// outcome either way.
#[test]
fn a_second_frame_for_a_held_share_replaces_the_first() {
    let k = 3;
    let mut blocks = BlockSet::new((0..6).map(enc).collect(), k, Layout::DEFAULT);
    let parities = blocks.mint_parities(0, 2).unwrap();
    let b0 = blocks.block(0).unwrap().packets.clone();
    let real = frame(Packet::Enc(b0[0].clone()));
    let forged = frame(Packet::Enc(
        EncPacket::new(
            EncHeader {
                frm_id: 300,
                to_id: 300,
                ..b0[0].header()
            },
            b0[0].entries(),
            &Layout::DEFAULT,
        )
        .unwrap(),
    ));
    let [first_parity, second_parity] = [0, 1].map(|i| frame(Packet::Parity(parities[i].clone())));

    // User 101's packet is block 0, seq 1.
    for (heard, recovers) in [([&real, &forged], false), ([&forged, &real], true)] {
        let mut session = UserSession::new(101, 4, k, Layout::DEFAULT).expect_msg_id(1);
        let mut reference = FullOrderSession::new(101, k);
        for share in [heard[0], &first_parity, heard[1]] {
            assert_eq!(session.receive_frame(share), Ok(Received::Kept));
            reference.receive_frame(share);
        }
        let nack = session
            .end_of_round()
            .expect("two distinct shares of three");
        assert_eq!(nack.requests[0].count, 1, "the repeated index counts once");
        assert_eq!(reference.end_of_round(), Some(nack));

        assert_eq!(session.receive_frame(&second_parity), Ok(Received::Kept));
        reference.receive_frame(&second_parity);
        assert_eq!(session.end_of_round(), reference.end_of_round());
        assert_eq!(session.decode_work.blocks, 1);
        assert_eq!(session.rounds_to_success(), reference.success_round);
        assert_eq!(session.outcome(), &reference.outcome);
        let expect = if recovers {
            holds(&b0[1])
        } else {
            UserOutcome::Pending
        };
        assert_eq!(session.outcome(), &expect);
    }
}

/// A frame that is no packet under the layout is an error, not a panic and
/// not a share; one from another rekey message is ignored by a pinned
/// session.
#[test]
fn malformed_and_foreign_frames() {
    let mut u = UserSession::new(101, 4, 3, Layout::DEFAULT).expect_msg_id(1);
    let good = frame(Packet::Enc(enc(0)));
    assert!(u.receive_frame(&Arc::from(&good[..500])).is_err());
    assert!(u.receive_frame(&Arc::from(&[][..])).is_err());
    let foreign = frame(Packet::Enc(
        EncPacket::new(
            EncHeader {
                msg_id: 2,
                ..enc(0).header()
            },
            enc(0).entries(),
            &Layout::DEFAULT,
        )
        .unwrap(),
    ));
    assert_eq!(
        u.receive_frame(&foreign),
        Ok(Received::Ignored(Ignored::WrongMessage))
    );
    let nack = frame(Packet::Nack(NackPacket {
        msg_id: 1,
        requests: vec![],
    }));
    assert_eq!(
        u.receive_frame(&nack),
        Ok(Received::Ignored(Ignored::WrongMessage))
    );
    // Nothing above left a trace: the NACK is the total-loss one.
    let sent = u.end_of_round().expect("unsatisfied");
    assert_eq!(
        sent.requests,
        [NackRequest {
            count: 3,
            block_id: 0
        }]
    );
    assert_eq!(u.receive_frame(&good), Ok(Received::Kept));
}

/// One round of NACKs: (user node id offset, per-block demand) per user.
type NackRound = Vec<(u8, Vec<(u8, u8)>)>;

fn nack_rounds() -> impl Strategy<Value = Vec<NackRound>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u8..30, proptest::collection::vec((1u8..6, 0u8..4), 1..4)),
            0..12,
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_invariants_hold(
        n_packets in 1usize..30,
        k in 1usize..12,
        rho in 1.0f64..2.5,
        max_rounds in 1usize..5,
        rounds in nack_rounds(),
    ) {
        let cfg = ServerConfig {
            block_size: k,
            initial_rho: rho,
            adapt_rho: false,
            max_multicast_rounds: max_rounds,
            ..ServerConfig::default()
        };
        let controller = ServerController::new(cfg);
        let packets: Vec<EncPacket> = (0..n_packets as u16).map(enc).collect();
        let mut session = controller.begin_message(packets, 120);

        let schedule = session.start();
        let n_blocks = n_packets.div_ceil(k);
        // Round one: every data slot plus the proactive parities.
        let proactive = session.proactive_per_block();
        prop_assert_eq!(schedule.len(), n_blocks * (k + proactive));
        prop_assert_eq!(session.stats.enc_multicast, n_blocks * k);
        prop_assert_eq!(session.stats.parity_multicast, n_blocks * proactive);

        // Parity sequence numbers must be globally fresh per block.
        let mut max_parity_seq: Vec<Option<u8>> = vec![None; n_blocks];
        let check_parities = |pkts: &[Packet], seqs: &mut Vec<Option<u8>>| {
            for p in pkts {
                if let Packet::Parity(par) = p {
                    let b = par.block_id as usize;
                    if let Some(prev) = seqs[b] {
                        assert!(par.seq > prev, "parity seq reused in block {b}");
                    }
                    seqs[b] = Some(par.seq);
                }
            }
        };
        check_parities(&schedule, &mut max_parity_seq);

        let mut done = false;
        let mut saw_unicast = false;
        for round in &rounds {
            if done {
                break;
            }
            for (user, reqs) in round {
                let nack = NackPacket {
                    msg_id: 1,
                    requests: reqs
                        .iter()
                        .map(|&(count, rel)| NackRequest {
                            count,
                            block_id: rel % n_blocks.max(1) as u8,
                        })
                        .collect(),
                };
                session.accept_nack(200 + *user as u32, &nack);
            }
            match session.end_of_round() {
                RoundDecision::Done => done = true,
                RoundDecision::Multicast(pkts) => {
                    prop_assert!(!saw_unicast, "multicast after unicast");
                    prop_assert!(
                        pkts.iter().all(|p| matches!(p, Packet::Parity(_))),
                        "reactive rounds send only parity"
                    );
                    check_parities(&pkts, &mut max_parity_seq);
                }
                RoundDecision::Unicast(wave) => {
                    saw_unicast = true;
                    prop_assert!(wave.duplicates >= 2);
                    // Targets deduplicated and sorted.
                    prop_assert!(wave.targets.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }

        // Stats consistency: bandwidth overhead >= 1 whenever something
        // was multicast, and parities counted match mints.
        if session.real_enc_count() > 0 {
            prop_assert!(session.bandwidth_overhead() >= 1.0);
        }
        // No-NACK boundary always completes the message.
        loop {
            match session.end_of_round() {
                RoundDecision::Done => break,
                RoundDecision::Unicast(_) => continue,
                RoundDecision::Multicast(_) => continue,
            }
        }
        prop_assert!(session.is_done());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A session fed frames under a random delivery mask ends with the
    /// server's ENC packet for its user, field for field, iff that packet
    /// (or a last-block duplicate of it) or any `k` shares of its block
    /// arrived; otherwise it NACKs `k - held` for every short block of a
    /// contiguous range around its own — `held` counting every share that
    /// arrived, the ones of blocks the estimate had ruled out included.
    #[test]
    fn frame_fed_session_recovers_iff_packet_or_k_shares_arrived(
        k in proptest::sample::select(vec![1usize, 3, 10, 32]),
        n_packets in 1usize..70,
        target in 0usize..70,
        parities in 0usize..6,
        loss_pct in proptest::sample::select(vec![0u64, 10, 30, 60, 95]),
        parity_only in any::<bool>(),
        lose_mine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let layout = Layout::DEFAULT;
        // Three users per packet; maxKID 1000 keeps IDs 1001..=4004 in place.
        let packets: Vec<EncPacket> = (0..n_packets as u16)
            .map(spaced_enc)
            .collect();
        let target = target % n_packets;
        let me = packets[target].header().frm_id + (seed % 3) as u16;
        let mut blocks = BlockSet::new(packets, k, layout);
        let (my_block, my_seq) = (target / k, target % k);

        let mut state = seed;
        let mut delivered = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 100 >= loss_pct
        };
        let mut session = UserSession::new(me as u32, 4, k, layout).expect_msg_id(1);
        let mut held = vec![0usize; blocks.block_count()];
        let mut direct: Option<EncPacket> = None;
        // An ENC packet that is not a duplicate bounds the block estimate.
        let mut informed = false;
        for (b, held_here) in held.iter_mut().enumerate() {
            let minted = blocks.mint_parities(b, parities + k * usize::from(parity_only)).unwrap();
            let data = blocks.block(b).unwrap().packets.iter().cloned().map(Packet::Enc);
            let sent = data
                .filter(|_| !parity_only)
                .chain(minted.into_iter().map(Packet::Parity));
            for pkt in sent {
                let mine = matches!(&pkt, Packet::Enc(e) if e.serves(me));
                if !delivered() || (mine && lose_mine) {
                    continue;
                }
                let did = session.receive_frame(&pkt.emit(&layout).into()).unwrap();
                let expect = match (&direct, mine) {
                    (Some(_), _) => Received::Ignored(Ignored::Satisfied),
                    (None, true) => Received::Mine,
                    // Another block's share may be ruled out; never its own.
                    (None, false) if b != my_block && did == Received::Ignored(Ignored::RuledOut) => did,
                    (None, false) => Received::Kept,
                };
                prop_assert_eq!(did, expect);
                informed |= matches!(&pkt, Packet::Enc(e) if !e.header().duplicate);
                match pkt {
                    Packet::Enc(e) if mine => direct = direct.or(Some(e)),
                    _ => *held_here += usize::from(direct.is_none()),
                }
            }
        }

        let original = blocks.block(my_block).unwrap().packets[my_seq].clone();
        let nack = session.end_of_round();
        if let Some(first_heard) = direct {
            prop_assert_eq!(session.outcome(), &holds(&first_heard));
            prop_assert_eq!(nack, None);
        } else if held[my_block] >= k {
            prop_assert_eq!(session.outcome(), &holds(&original));
            prop_assert_eq!(session.rounds_to_success(), Some(1));
            prop_assert_eq!(nack, None);
        } else {
            prop_assert_eq!(session.outcome(), &UserOutcome::Pending);
            let requests = nack.expect("unsatisfied sessions NACK").requests;
            let (lo, hi) = (requests[0].block_id, requests[requests.len() - 1].block_id);
            // Without an estimate the range ends at the last block heard.
            let own = (lo..=hi).contains(&(my_block as u8));
            prop_assert!(own || !informed, "own block {my_block} in {lo}..={hi}");
            let held_in = |b: u8| held.get(b as usize).copied().unwrap_or(0);
            let mut want: Vec<NackRequest> = (lo..=hi)
                .filter(|&b| held_in(b) < k)
                .map(|b| NackRequest { count: (k - held_in(b)) as u8, block_id: b })
                .collect();
            if want.is_empty() {
                // Every block in range decoded and none held the packet:
                // the lowest is asked for again in full.
                want.push(NackRequest { count: k as u8, block_id: lo });
            }
            prop_assert_eq!(requests, want);
        }
    }

}

/// Recovery as it was before the bracket, assembled from the public pieces:
/// `UserSession`'s receive rules for ENC and PARITY frames of message 1 (a
/// block the estimate has ruled out is not held — a lying header can drive
/// `low` above `high`, and a block ruled out as below `low` then returns as
/// `[high, high]`; the keep-every-share reference over real messages is
/// `ruled_out_identity.rs`), but at every round boundary every candidate
/// block is decoded in full
/// (`Decoder::decode`), again each round, and its missing packets are tried
/// in ascending order. The oracle for the order and for the memo.
struct FullOrderSession {
    old_id: u32,
    k: usize,
    current_id: Option<u32>,
    msg_id: Option<u8>,
    shares: BTreeMap<u8, BTreeMap<usize, Vec<u8>>>,
    estimator: Option<BlockIdEstimator>,
    max_block_seen: Option<u8>,
    outcome: UserOutcome,
    rounds: usize,
    success_round: Option<usize>,
}

impl FullOrderSession {
    const D: u32 = 4;

    fn new(old_id: u32, k: usize) -> Self {
        FullOrderSession {
            old_id,
            k,
            current_id: None,
            msg_id: None,
            shares: BTreeMap::new(),
            estimator: None,
            max_block_seen: None,
            outcome: UserOutcome::Pending,
            rounds: 0,
            success_round: None,
        }
    }

    fn wire_id(&mut self, max_kid: u16) -> Option<u16> {
        if self.current_id.is_none() {
            self.current_id =
                keytree::ident::derive_current_id(self.old_id, max_kid.into(), Self::D);
        }
        self.current_id.and_then(|m| u16::try_from(m).ok())
    }

    fn succeed(&mut self, enc: EncFrame) {
        self.outcome = UserOutcome::Enc(enc);
        self.success_round = Some(self.rounds + 1);
        self.shares.clear();
    }

    fn receive_frame(&mut self, frame: &[u8]) {
        let layout = Layout::DEFAULT;
        if self.success_round.is_some() {
            return;
        }
        let Ok((1, header)) = Packet::header(frame, &layout) else {
            return;
        };
        let (block_id, index, enc) = match header {
            Header::Enc(h) if usize::from(h.seq) < self.k => (h.block_id, h.seq.into(), Some(h)),
            Header::Parity { block_id, seq } if self.k + usize::from(seq) < rse::MAX_SYMBOLS => {
                (block_id, self.k + usize::from(seq), None)
            }
            _ => return,
        };
        self.msg_id = Some(1);
        self.max_block_seen = Some(self.max_block_seen.unwrap_or(0).max(block_id));
        if let Some(h) = enc {
            let Some(m16) = self.wire_id(h.max_kid) else {
                return;
            };
            if h.serves(m16) {
                let mine = EncFrame::new(frame.into(), &layout).expect("the header said ENC");
                return self.succeed(mine);
            }
            let k = self.k;
            self.estimator
                .get_or_insert_with(|| BlockIdEstimator::new(m16, k, Self::D))
                .observe(&h);
        }
        if !self.in_range(block_id) {
            return;
        }
        let held = self.shares.entry(block_id).or_default();
        held.insert(index, frame[rekeymsg::UNPROTECTED_HEADER_LEN..].to_vec());
    }

    fn end_of_round(&mut self) -> Option<NackPacket> {
        if self.success_round.is_none() {
            self.decode_everything();
        }
        self.rounds += 1;
        if self.success_round.is_some() {
            return None;
        }
        let mut requests = Vec::new();
        nack_requests_into(
            self.estimator.as_ref(),
            self.max_block_seen,
            self.k,
            |b| self.shares.get(&b).map_or(0, |held| held.len()),
            &mut requests,
        );
        Some(NackPacket {
            msg_id: self.msg_id.unwrap_or(0),
            requests,
        })
    }

    fn in_range(&self, b: u8) -> bool {
        let range = self.estimator.as_ref().and_then(|e| e.range());
        range.is_none_or(|(lo, hi)| (lo..=hi).contains(&u32::from(b)))
    }

    fn decode_everything(&mut self) {
        let candidates: Vec<u8> = (self.shares.iter())
            .filter(|(&b, held)| held.len() >= self.k && self.in_range(b))
            .map(|(&b, _)| b)
            .collect();
        for b in candidates {
            let shares: Vec<rse::Share> = (self.shares[&b].iter())
                .map(|(&index, body)| rse::Share {
                    index,
                    data: body.clone(),
                })
                .collect();
            let Ok(rows) = rse::Decoder::new(self.k).and_then(|mut dec| dec.decode(&shares)) else {
                continue;
            };
            let used: Vec<usize> = shares.iter().take(self.k).map(|s| s.index).collect();
            for seq in (0..self.k).filter(|seq| !used.contains(seq)) {
                let fill = |out: &mut [u8]| out.copy_from_slice(&rows[seq]);
                let rebuilt = EncFrame::fill_fec_body(&Layout::DEFAULT, 1, b, seq as u8, fill);
                if let Ok(enc) = rebuilt {
                    let Some(m16) = self.wire_id(enc.header().max_kid) else {
                        return;
                    };
                    if enc.header().serves(m16) {
                        return self.succeed(enc);
                    }
                }
            }
        }
    }
}

/// Blocks that decode without the user's packet are planned once, not once
/// a round: a user that heard only parity has no block estimate, examines
/// every packet of blocks 0 and 1 by its header at the first boundary (and
/// rebuilds none in full), and at the second, with
/// nothing new, plans nothing (at the parent commit: both blocks again).
#[test]
fn a_block_without_the_users_packet_is_planned_exactly_once() {
    let k = 3;
    let mut blocks = BlockSet::new((0..9).map(enc).collect(), k, Layout::DEFAULT);
    // User 107's packet is block 2, seq 1.
    let mut session = UserSession::new(107, 4, k, Layout::DEFAULT).expect_msg_id(1);
    let mut reference = FullOrderSession::new(107, k);
    // One round: the fresh parities heard per block, then the boundary.
    let mut round = |session: &mut UserSession, heard: &[(usize, usize)]| {
        for &(b, count) in heard {
            for parity in blocks.mint_parities(b, count).unwrap() {
                let frame = frame(Packet::Parity(parity));
                assert_eq!(session.receive_frame(&frame), Ok(Received::Kept));
                reference.receive_frame(&frame);
            }
        }
        assert_eq!(session.end_of_round(), reference.end_of_round());
        assert_eq!(session.rounds_to_success(), reference.success_round);
        session.decode_work
    };
    let both_in_full = DecodeWork {
        blocks: 2,
        rows: 2 * k as u32,
        fallback_rows: 0,
        full_rows: 0,
        exhausted: 2,
    };
    assert_eq!(
        round(&mut session, &[(0, k), (1, k), (2, k - 1)]),
        both_in_full
    );
    assert_eq!(round(&mut session, &[]), DecodeWork::default());
    // The last share of block 2: ascending order (no header was heard, so
    // no bracket) reaches seq 1 on the second row.
    let second_row = DecodeWork {
        blocks: 1,
        rows: 2,
        fallback_rows: 0,
        full_rows: 1,
        exhausted: 0,
    };
    assert_eq!(round(&mut session, &[(2, 1)]), second_row);
    assert_eq!(session.rounds_to_success(), Some(3));
    assert_eq!(session.outcome(), &reference.outcome);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The bracket orders the work and the memo skips repeated work;
    /// neither changes a result. Over three rounds of lossy delivery a
    /// session and the full-order reference agree on every NACK, on the
    /// round of success and on the packet recovered — with multi-block
    /// messages, a duplicate-padded last block, parity-only reception, an
    /// estimate too loose to name the block, and one ENC packet whose
    /// `[frm_id, to_id]` puts the user on the wrong side of it: built into
    /// the message (`lie == 1`, the code is consistent) or forged on the
    /// way (`lie == 2`: the block decodes to garbage, so only whether and
    /// when a packet is found is compared). With `twice`, every frame that
    /// arrives arrives again, and no share is counted for it.
    #[test]
    fn bracketed_session_agrees_with_full_order_decode(
        k in proptest::sample::select(vec![1usize, 3, 10, 32]),
        n_packets in 1usize..70,
        target in 0usize..70,
        parities in 0usize..4,
        loss_pct in proptest::sample::select(vec![10u64, 30, 60]),
        parity_only in any::<bool>(),
        lie in 0usize..3,
        twice in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let layout = Layout::DEFAULT;
        let target = target % n_packets;
        let liar = (seed >> 8) as usize % n_packets;
        // The liar claims the side of the user it is not on.
        let lied = |p: &EncPacket| {
            let side = if liar < target { 60_000 } else { 1 };
            EncPacket::new(
                EncHeader {
                    frm_id: side,
                    to_id: side,
                    ..p.header()
                },
                p.entries(),
                &Layout::DEFAULT,
            )
            .unwrap()
        };
        let mut packets: Vec<EncPacket> = (0..n_packets as u16)
            .map(spaced_enc)
            .collect();
        let me = packets[target].header().frm_id + (seed % 3) as u16;
        if lie == 1 && liar != target {
            packets[liar] = lied(&packets[liar]);
        }
        let mut blocks = BlockSet::new(packets, k, layout);

        let mut state = seed;
        let mut delivered = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 100 >= loss_pct
        };
        let mut session = UserSession::new(me.into(), 4, k, layout).expect_msg_id(1);
        let mut reference = FullOrderSession::new(me.into(), k);
        let mut exhausted = 0;
        for round in 1..=3 {
            for b in 0..blocks.block_count() {
                let fresh = parities + 1 + k * usize::from(parity_only && round == 1);
                let minted = blocks.mint_parities(b, fresh).unwrap();
                let data = blocks.block(b).unwrap().packets.clone();
                let sent = (data.into_iter())
                    .filter(|e| round == 1 && !parity_only && !e.serves(me))
                    .map(|e| match lie {
                        2 if b * k + usize::from(e.header().seq) == liar => lied(&e),
                        _ => e,
                    })
                    .map(Packet::Enc)
                    .chain(minted.into_iter().map(Packet::Parity));
                for pkt in sent {
                    if delivered() {
                        let frame: Arc<[u8]> = pkt.emit(&layout).into();
                        for _ in 0..=usize::from(twice) {
                            session.receive_frame(&frame).unwrap();
                            reference.receive_frame(&frame);
                        }
                    }
                }
            }
            prop_assert_eq!(session.end_of_round(), reference.end_of_round(), "round {}", round);
            prop_assert_eq!(session.rounds_to_success(), reference.success_round);
            prop_assert_eq!(session.current_id(), reference.current_id);
            if lie < 2 {
                prop_assert_eq!(session.outcome(), &reference.outcome);
            }
            // Each block planned is given up or holds the packet, and none
            // is given up twice.
            let did = session.decode_work;
            prop_assert!(did.blocks <= did.exhausted + 1 && did.fallback_rows <= did.rows);
            prop_assert!(did.full_rows <= 1 && did.full_rows <= did.rows);
            exhausted += did.exhausted;
            prop_assert!(exhausted <= blocks.block_count() as u32);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-round demands record the per-user maximum, irrespective of
    /// how requests are split across blocks.
    #[test]
    fn first_round_demands_are_per_user_maxima(
        demands in proptest::collection::vec(
            proptest::collection::vec((1u8..9, 0u8..3), 1..5),
            1..10,
        ),
    ) {
        let cfg = ServerConfig {
            block_size: 5,
            adapt_rho: false,
            ..ServerConfig::default()
        };
        let controller = ServerController::new(cfg);
        let mut session = controller.begin_message((0..15u16).map(enc).collect(), 120);
        session.start();
        let mut expect = Vec::new();
        for (u, reqs) in demands.iter().enumerate() {
            let nack = NackPacket {
                msg_id: 1,
                requests: reqs
                    .iter()
                    .map(|&(count, block_id)| NackRequest { count, block_id })
                    .collect(),
            };
            session.accept_nack(u as u32, &nack);
            expect.push(reqs.iter().map(|&(c, _)| c as usize).max().unwrap());
        }
        prop_assert_eq!(session.first_round_demands(), &expect[..]);
        prop_assert_eq!(session.first_round_nack_count(), demands.len());
    }
}
