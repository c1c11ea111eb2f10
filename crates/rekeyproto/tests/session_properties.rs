//! Property-based tests of the server session state machine under random
//! NACK streams: parity sequence monotonicity, stats consistency, phase
//! transitions, and termination.

use proptest::prelude::*;
use rekeymsg::{EncPacket, NackPacket, NackRequest, Packet};
use rekeyproto::{RoundDecision, ServerConfig, ServerController, UserOutcome, UserSession};
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
