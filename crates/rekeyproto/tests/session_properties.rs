//! Property-based tests of the server session state machine under random
//! NACK streams (parity sequence monotonicity, stats consistency, phase
//! transitions, termination) and of the user session fed frames under
//! random delivery masks (recovery iff the packet or any `k` shares of its
//! block arrived, exact NACK counts otherwise).

use proptest::prelude::*;
use rekeymsg::{BlockSet, EncFrame, EncHeader, EncPacket, Layout, NackPacket, NackRequest, Packet};
use rekeyproto::{
    Ignored, Received, RoundDecision, ServerConfig, ServerController, UserOutcome, UserSession,
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

/// The outcome of a session that holds `pkt` as the server emitted it.
fn holds(pkt: &EncPacket) -> UserOutcome {
    let layout = Layout::DEFAULT;
    UserOutcome::Enc(EncFrame::new(pkt.emit().into(), &layout).unwrap())
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
