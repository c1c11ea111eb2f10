//! Property-based tests of the server session state machine under random
//! NACK streams (parity sequence monotonicity, stats consistency, phase
//! transitions, termination) and of the user session fed frames under
//! random delivery masks (recovery iff the packet or any `k` shares of its
//! block arrived, exact NACK counts otherwise).

use std::sync::Arc;

use proptest::prelude::*;
use rekeymsg::{BlockSet, EncPacket, Layout, NackPacket, NackRequest, Packet};
use rekeyproto::{
    Ignored, Received, RoundDecision, ServerConfig, ServerController, UserOutcome, UserSession,
};
use wirecrypto::{SealedKey, SymKey};

fn enc(i: u16) -> EncPacket {
    let kek = SymKey::from_bytes([i as u8; 16]);
    EncPacket {
        msg_id: 1,
        block_id: 0,
        seq: 0,
        duplicate: false,
        max_kid: 40,
        frm_id: 100 + i,
        to_id: 100 + i,
        entries: vec![(
            100 + i,
            SealedKey::seal(&kek, &SymKey::from_bytes([1; 16]), 0),
        )],
    }
}

/// A user whose ID does not fit the 16-bit wire fields is served by no ENC
/// packet: narrowing 65536 + 30000 to 30000 would claim the packet of user
/// 30000 (and then fail to unseal it).
#[test]
fn id_beyond_the_wire_width_claims_no_packet() {
    let wide = 65_536 + 30_000;
    let pkt = EncPacket {
        // Theorem 4.2 keeps both users where they are:
        // maxKID < id <= 4 maxKID + 4.
        max_kid: 25_000,
        frm_id: 29_990,
        to_id: 30_010,
        ..enc(50)
    };
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
    let forged_enc = EncPacket {
        seq: k as u8,
        frm_id: 300,
        to_id: 300,
        ..b0[2].clone()
    };
    let forged_parity = rekeymsg::ParityPacket {
        seq: (rse::MAX_SYMBOLS - k) as u8,
        ..parities[0].clone()
    };

    // User 101's packet is block 0, seq 1; it hears seq 0, one parity and
    // the first packet of block 1, which pins its block.
    let next_block = blocks.block(1).unwrap().packets[0].clone();
    let heard = [
        Packet::Enc(b0[0].clone()),
        Packet::Parity(parities[0].clone()),
        Packet::Enc(next_block),
    ];
    let mut clean = UserSession::new(101, 4, k, Layout::DEFAULT);
    let mut forged = UserSession::new(101, 4, k, Layout::DEFAULT);
    for session in [&mut clean, &mut forged] {
        for pkt in heard.clone() {
            assert_eq!(session.receive_frame(&frame(pkt)), Ok(Received::Kept));
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
        assert_eq!(session.outcome(), &UserOutcome::Enc(b0[1].clone()));
    }
    let late = frame(Packet::Enc(b0[1].clone()));
    assert_eq!(
        clean.receive_frame(&late),
        Ok(Received::Ignored(Ignored::Satisfied))
    );
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
    let foreign = frame(Packet::Enc(EncPacket {
        msg_id: 2,
        ..enc(0)
    }));
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
    /// contiguous range around its own.
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
            .map(|i| EncPacket {
                max_kid: 1000,
                frm_id: 1001 + 3 * i,
                to_id: 1003 + 3 * i,
                ..enc(i)
            })
            .collect();
        let target = target % n_packets;
        let me = packets[target].frm_id + (seed % 3) as u16;
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
                    (None, false) => Received::Kept,
                };
                prop_assert_eq!(did, expect);
                informed |= matches!(&pkt, Packet::Enc(e) if !e.duplicate);
                match pkt {
                    Packet::Enc(e) if mine => direct = direct.or(Some(e)),
                    _ => *held_here += usize::from(direct.is_none()),
                }
            }
        }

        let original = blocks.block(my_block).unwrap().packets[my_seq].clone();
        let nack = session.end_of_round();
        if let Some(first_heard) = direct {
            prop_assert_eq!(session.outcome(), &UserOutcome::Enc(first_heard));
            prop_assert_eq!(nack, None);
        } else if held[my_block] >= k {
            prop_assert_eq!(session.outcome(), &UserOutcome::Enc(original));
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
