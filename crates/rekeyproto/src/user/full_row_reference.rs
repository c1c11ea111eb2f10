//! The header-first decode against the full-row decode it replaced, which
//! is kept here as the reference. Over real messages — a key tree after a
//! leave batch, its UKA packets, both send orders, proactive and reactive
//! parities over one to three multicast rounds, random loss — and held
//! frames with lying `frm_id`/`to_id`/`maxKID`, two sessions of every
//! member are fed the same frames. One rebuilds each missing packet it
//! examines only as far as its header, and the rest only of the packet that
//! serves; the other rebuilds every packet it examines in full. At every
//! round boundary they must agree on the outcome frame's bytes, the success
//! round, the NACK, the blocks given up and the packets examined, and the
//! first must have rebuilt in full exactly the packet it recovered.

use keytree::{Batch, KeyTree, MemberId};
use proptest::prelude::*;
use rekeymsg::{EncPacket, SendOrder, UkaAssignment};
use wirecrypto::KeyGen;

use super::*;
use crate::{RoundDecision, ServerConfig, ServerController};

const D: u32 = 4;
const LAYOUT: Layout = Layout::DEFAULT;

/// `UserSession::try_decode` as it was: every packet examined is rebuilt
/// in full, its header read off the whole row, and the one that serves is
/// copied into a frame.
fn full_row_decode(s: &mut UserSession) {
    s.decode_work = DecodeWork::default();
    let k = s.search.k;
    let (false, Ok(decoder)) = (s.is_satisfied(), rse::Decoder::new(k)) else {
        return;
    };
    let msg_id = s.msg_id.unwrap_or(0);
    let (mut row, mut found) = (Vec::new(), None);
    let mut held: Vec<(usize, &Arc<[u8]>)> = Vec::new();
    'blocks: for b in 0..=s.search.max_block_seen.unwrap_or(0) {
        if !s.search.full(b) || s.exhausted.contains(b) {
            continue;
        }
        held.clear();
        held.extend(
            (s.shares.iter())
                .filter(|sh| sh.0 == b)
                .map(|sh| (sh.1, &sh.2)),
        );
        held.sort_unstable_by_key(|&(index, _)| index);
        let bodies = (held.iter()).map(|&(i, frame)| (i, &frame[UNPROTECTED_HEADER_LEN..]));
        let Ok(missing) = decoder.decode_missing(bodies) else {
            continue;
        };
        s.decode_work.blocks += 1;
        let (mut lo, mut hi) = (0, k);
        if let Some(m) = s.current_id.and_then(|m| u16::try_from(m).ok()) {
            for &(seq, frame) in held.iter().take_while(|&&(seq, _)| seq < k) {
                match Packet::header(frame, &s.layout) {
                    Ok((_, Header::Enc(h))) if h.duplicate => {}
                    Ok((_, Header::Enc(h))) if h.to_id < m => lo = seq + 1,
                    Ok((_, Header::Enc(h))) if h.frm_id > m => hi = hi.min(seq),
                    _ => {}
                }
            }
        }
        let bracket = lo..hi;
        let inside = missing.indices().filter(|seq| bracket.contains(seq));
        let outside = missing.indices().filter(|seq| !bracket.contains(seq));
        for seq in inside.chain(outside) {
            if missing.row_into(seq, &mut row).is_err() {
                continue;
            }
            s.decode_work.rows += 1;
            s.decode_work.full_rows += 1;
            s.decode_work.fallback_rows += u32::from(!bracket.contains(&seq));
            let Ok(h) = EncHeader::from_fec_body(&row, msg_id, b, seq as u8) else {
                continue;
            };
            let id = wire_id(&mut s.current_id, s.old_id, s.search.d, h.max_kid);
            let Some(m16) = id else { return };
            if h.serves(m16) {
                let fill = |out: &mut [u8]| out.copy_from_slice(&row);
                found = EncFrame::fill_fec_body(&s.layout, msg_id, b, seq as u8, fill).ok();
                break 'blocks;
            }
        }
        s.exhausted.insert(b);
        s.decode_work.exhausted += 1;
    }
    if let Some(enc) = found {
        s.succeed(UserOutcome::Enc(enc));
    }
}

/// One message, how it crosses the network, and how many of its ENC
/// packets are also heard forged.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: u32,
    k: usize,
    leave_pct: u64,
    rho: f64,
    sequential: bool,
    rounds: usize,
    loss_pct: u64,
    /// `liars` ENC packets in four are followed by a forged copy.
    liars: u64,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (16u32..300, 1usize..=32, 1u64..40, 1.0f64..1.6),
        (any::<bool>(), 1usize..4, 0u64..80, 0u64..3, any::<u64>()),
    )
        .prop_map(
            |((n, k, leave_pct, rho), (sequential, rounds, loss_pct, liars, seed))| Case {
                n,
                k,
                leave_pct,
                rho,
                sequential,
                rounds,
                loss_pct,
                liars,
                seed,
            },
        )
}

/// A copy of `p` that lies, by `salt`: about the users it serves (a range
/// near its own, which may take in a user it does not serve) or about
/// `maxKID` (a user that hears it first rederives another ID, or none).
fn forged(p: &EncPacket, salt: u64) -> EncPacket {
    let h = p.header();
    let near = (h.frm_id.saturating_sub(40)).saturating_add((salt >> 8) as u16 % 120);
    let lie = match salt % 3 {
        0 => EncHeader {
            frm_id: near,
            to_id: near.saturating_add((salt >> 24) as u16 % 8),
            ..h
        },
        1 => EncHeader {
            frm_id: h.to_id.saturating_add(1),
            to_id: h.to_id.saturating_add(1 + (salt >> 24) as u16 % 30),
            ..h
        },
        _ => EncHeader {
            max_kid: h.max_kid / 2 + (salt >> 8) as u16 % 7,
            ..h
        },
    };
    EncPacket::new(lie, p.entries(), &LAYOUT).unwrap()
}

fn sessions_agree(c: &Case) -> TestCaseResult {
    let mut kg = KeyGen::from_seed(c.seed);
    let mut tree = KeyTree::balanced(c.n, D, &mut kg);
    let before = tree.clone();
    let leaves: Vec<MemberId> = (0..c.n)
        .filter(|&m| (u64::from(m) ^ c.seed).wrapping_mul(0x9E37_79B9) % 100 < c.leave_pct)
        .take(c.n as usize - 1)
        .collect();
    let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
    let assignment = UkaAssignment::build(&tree, &outcome, 1, &LAYOUT).unwrap();
    let controller = ServerController::new(ServerConfig {
        block_size: c.k,
        initial_rho: c.rho,
        adapt_rho: false,
        max_multicast_rounds: c.rounds,
        send_order: if c.sequential {
            SendOrder::Sequential
        } else {
            SendOrder::Interleaved
        },
        ..ServerConfig::default()
    });
    let mut server = controller.begin_message(assignment.packets.clone(), 100);

    // Every member twice, from its ID before the batch.
    let mut members = tree.member_ids();
    members.sort_unstable();
    let mut users: Vec<(NodeId, UserSession, UserSession)> = (members.iter())
        .map(|&m| {
            let then = before.node_of_member(m).unwrap();
            let session = || UserSession::new(then, D, c.k, LAYOUT).expect_msg_id(1);
            (tree.node_of_member(m).unwrap(), session(), session())
        })
        .collect();

    let mut state = c.seed;
    let mut draw = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut round = 1;
    let mut schedule = server.start();
    loop {
        let mut sent = Vec::with_capacity(schedule.len());
        for pkt in &schedule {
            sent.push(pkt.clone());
            if let Packet::Enc(p) = pkt {
                let salt = draw();
                if salt % 4 < c.liars {
                    sent.push(Packet::Enc(forged(p, salt >> 2)));
                }
            }
        }
        let frames: Vec<Arc<[u8]>> = sent.iter().map(|p| p.emit(&LAYOUT).into()).collect();
        for (_, probing, reference) in &mut users {
            for frame in frames.iter().filter(|_| draw() % 100 >= c.loss_pct) {
                let did = probing.receive_frame(frame);
                prop_assert_eq!(reference.receive_frame(frame), did);
            }
        }
        for (node, probing, reference) in &mut users {
            let waiting = !probing.is_satisfied();
            let nack = probing.end_of_round();
            full_row_decode(reference);
            prop_assert_eq!(&nack, &reference.close_round(), "round {}", round);
            prop_assert_eq!(probing.rounds_to_success(), reference.rounds_to_success());
            prop_assert_eq!(probing.outcome(), reference.outcome());
            prop_assert_eq!(probing.current_id(), reference.current_id());
            prop_assert_eq!(probing.exhausted, reference.exhausted);
            let (did, full) = (probing.decode_work, reference.decode_work);
            prop_assert_eq!(
                (did.blocks, did.rows, did.fallback_rows, did.exhausted),
                (full.blocks, full.rows, full.fallback_rows, full.exhausted)
            );
            prop_assert_eq!(did.full_rows, u32::from(waiting && probing.is_satisfied()));
            if let Some(nack) = nack {
                server.accept_nack(*node, &nack);
            }
        }
        match server.end_of_round() {
            RoundDecision::Multicast(parities) => schedule = parities,
            RoundDecision::Unicast(_) | RoundDecision::Done => return Ok(()),
        }
        round += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn header_first_decode_ends_every_round_where_the_full_row_decode_does(c in case()) {
        sessions_agree(&c)?;
    }
}
