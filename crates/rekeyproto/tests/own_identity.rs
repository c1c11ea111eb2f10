//! `UserSession::is_own` is `receive_frame`'s answer up to `Mine`, and a
//! receiver may ask it of every delivery first and read the rest later.
//!
//! Over random streams of real, forged and broken frames, three sessions of
//! the same user are fed the same deliveries:
//! - `eager` takes every frame through `receive_frame`;
//! - `asked` asks `is_own` first, then takes the frame through
//!   `receive_frame` too: `is_own` must be true exactly when `eager` says
//!   `Mine`, and must leave no trace that changes an answer;
//! - `walked` is fed as the byte model's transport walk feeds it: each
//!   round it reads at once only the frames `reads_now` names — its own
//!   frame, where it stops, and a frame that left its current ID unknown;
//!   the frames it deferred it reads in delivery order only when the round
//!   found none. At every round boundary it must NACK, succeed and hold
//!   what `eager` does.
//!
//! The frames: a `BlockSet`'s ENC and PARITY frames, USR and NACK frames,
//! ENC frames with lying `frm_id`/`to_id`/`max_kid` (one names the narrowed
//! ID of a user whose ID rederives past 65535; one serves the ID its user
//! would rederive under another `maxKID`), a wrong message ID, share
//! indices the server cannot have sent (ENC `seq >= k`, PARITY past the last
//! code symbol), and truncated copies of each.

use std::sync::Arc;

use proptest::prelude::*;
use rekeymsg::{
    BlockSet, EncHeader, EncPacket, Layout, NackPacket, NackRequest, Packet, UsrPacket,
};
use rekeyproto::{Received, UserSession};
use wirecrypto::{SealedKey, SymKey};

const LAYOUT: Layout = Layout::DEFAULT;
const D: u32 = 4;

/// Old ID that Theorem 4.2 moves past the 16-bit wire fields under
/// `maxKID = WIDE_OLD`: its leftmost child, 80001, which narrows to 14465.
const WIDE_OLD: u32 = 20_000;
const WIDE_NARROWED: u16 = (4 * WIDE_OLD + 1) as u16;

/// The ENC packets of one message: one user per packet, IDs 1001.. under
/// `maxKID` 1000 (nobody moves).
fn packets(n: u16) -> Vec<EncPacket> {
    let sealed = SealedKey::seal(
        &SymKey::from_bytes([1; 16]),
        &SymKey::from_bytes([2; 16]),
        0,
    );
    (0..n)
        .map(|i| {
            EncPacket::new(
                EncHeader {
                    msg_id: 1,
                    block_id: 0,
                    seq: 0,
                    duplicate: false,
                    max_kid: 1000,
                    frm_id: 1001 + i,
                    to_id: 1001 + i,
                },
                vec![(1001 + i, sealed)],
                &LAYOUT,
            )
            .unwrap()
        })
        .collect()
}

/// `pkt` with other fixed fields, its pairs as they were.
fn relabel(pkt: &EncPacket, header: EncHeader) -> Packet {
    Packet::Enc(EncPacket::new(header, pkt.entries(), &LAYOUT).unwrap())
}

/// Every frame a stream may pick from.
fn frame_pool(n: u16, k: usize, seed: u64) -> Vec<Arc<[u8]>> {
    let mut blocks = BlockSet::new(packets(n), k, LAYOUT);
    let mut pool: Vec<Packet> = Vec::new();
    for b in 0..blocks.block_count() {
        let data = blocks.block(b).unwrap().packets.clone();
        let parities = blocks.mint_parities(b, 2).unwrap();
        for (i, pkt) in data.into_iter().enumerate() {
            let (salt, h) = (seed.rotate_left(i as u32 * 7) ^ i as u64, pkt.header());
            pool.push(Packet::Enc(pkt.clone()));
            // Lying fixed fields: a random range and maxKID, and a packet
            // that names the narrowed ID under the maxKID that moves
            // `WIDE_OLD` past the wire width.
            let (lo, span) = ((salt % 1100) as u16 + 950, (salt >> 16) as u16 % 40);
            pool.push(relabel(
                &pkt,
                EncHeader {
                    frm_id: lo,
                    to_id: lo.saturating_add(span),
                    max_kid: [1000, 600, 5000][(salt >> 32) as usize % 3],
                    ..h
                },
            ));
            pool.push(relabel(
                &pkt,
                EncHeader {
                    max_kid: WIDE_OLD as u16,
                    frm_id: WIDE_NARROWED,
                    to_id: WIDE_NARROWED,
                    ..h
                },
            ));
            // The ID this packet's user would have under `maxKID` 2000: its
            // leftmost child. Whether it is the user's own depends on which
            // `maxKID` the user heard first.
            let moved = 4 * h.frm_id + 1;
            pool.push(relabel(
                &pkt,
                EncHeader {
                    max_kid: 2000,
                    frm_id: moved,
                    to_id: moved,
                    ..h
                },
            ));
            // Another message's packet, and a share index past the block.
            pool.push(relabel(&pkt, EncHeader { msg_id: 2, ..h }));
            pool.push(relabel(
                &pkt,
                EncHeader {
                    seq: (k + (salt % 8) as usize) as u8,
                    ..h
                },
            ));
        }
        for par in parities {
            pool.push(Packet::Parity(rekeymsg::ParityPacket {
                seq: (rse::MAX_SYMBOLS - k) as u8,
                ..par.clone()
            }));
            pool.push(Packet::Parity(par));
        }
    }
    for (msg_id, new_user_id) in [(1, 1003), (2, 1004), (1, WIDE_NARROWED)] {
        pool.push(Packet::Usr(UsrPacket {
            msg_id,
            new_user_id,
            sealed: vec![SealedKey::from_bytes([3; 20]); 2],
        }));
    }
    pool.push(Packet::Nack(NackPacket {
        msg_id: 1,
        requests: vec![NackRequest {
            count: 1,
            block_id: 0,
        }],
    }));
    let whole: Vec<Arc<[u8]>> = pool.iter().map(|p| p.emit(&LAYOUT).into()).collect();
    // A truncated copy of each: cut anywhere, the empty frame included.
    let cut = whole.iter().enumerate().map(|(i, f)| {
        let keep = (seed.rotate_left(i as u32) as usize) % f.len();
        Arc::from(&f[..keep])
    });
    let cut: Vec<Arc<[u8]>> = cut.collect();
    whole.into_iter().chain(cut).collect()
}

/// One stream: the user, its session settings, and the deliveries, each
/// with whether a round boundary follows it.
#[derive(Debug, Clone)]
struct Stream {
    n: u16,
    k: usize,
    me: u32,
    pinned: bool,
    picks: Vec<(u16, bool)>,
    seed: u64,
}

fn stream() -> impl Strategy<Value = Stream> {
    (
        (1u16..40, 1usize..9, 0usize..4, any::<u16>()),
        (
            any::<bool>(),
            proptest::collection::vec((any::<u16>(), 0u8..12), 1..120),
            any::<u64>(),
        ),
    )
        .prop_map(|((n, k, who, pick), (pinned, picks, seed))| Stream {
            n,
            k,
            // A user some packet serves, one no packet serves, one whose ID
            // rederives past the wire width, one no `maxKID` keeps in the
            // tree.
            me: match who {
                0 => 1001 + u32::from(pick % n),
                1 => 999,
                2 => WIDE_OLD,
                _ => 70_000,
            },
            pinned,
            // A round boundary after one delivery in twelve.
            picks: picks.into_iter().map(|(at, b)| (at, b == 0)).collect(),
            seed,
        })
}

fn session(s: &Stream) -> UserSession {
    let session = UserSession::new(s.me, D, s.k, LAYOUT);
    if s.pinned {
        session.expect_msg_id(1)
    } else {
        session
    }
}

fn streams_agree(s: &Stream) -> TestCaseResult {
    let pool = frame_pool(s.n, s.k, s.seed);
    let (mut eager, mut asked, mut walked) = (session(s), session(s), session(s));
    let mut deferred: Vec<&Arc<[u8]>> = Vec::new();
    let mut walk_satisfied = false;
    for (at, &(pick, boundary)) in s.picks.iter().enumerate() {
        let frame = &pool[usize::from(pick) % pool.len()];

        let did = eager.receive_frame(frame);
        let own = asked.is_own(frame);
        prop_assert_eq!(own, did == Ok(Received::Mine), "delivery {}", at);
        prop_assert_eq!(asked.receive_frame(frame), did, "delivery {}", at);

        // The walk reads its own frame, where it stops — nothing more
        // reaches it this round — and a frame that left its ID unknown.
        if !walk_satisfied {
            if walked.reads_now(frame) {
                walked.receive_frame(frame).ok();
                walk_satisfied = walked.is_satisfied();
            } else {
                deferred.push(frame);
            }
        }
        if boundary || at + 1 == s.picks.len() {
            if !walk_satisfied {
                for frame in deferred.iter() {
                    prop_assert_ne!(walked.receive_frame(frame), Ok(Received::Mine));
                }
            }
            deferred.clear();
            walk_satisfied = false;
            let nack = eager.end_of_round();
            prop_assert_eq!(&asked.end_of_round(), &nack, "after delivery {}", at);
            prop_assert_eq!(&walked.end_of_round(), &nack, "after delivery {}", at);
            prop_assert_eq!(walked.outcome(), eager.outcome());
            prop_assert_eq!(walked.rounds_to_success(), eager.rounds_to_success());
            prop_assert_eq!(walked.current_id(), eager.current_id());
            prop_assert_eq!(asked.current_id(), eager.current_id());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn is_own_is_receive_frames_mine_and_deferring_the_rest_changes_nothing(s in stream()) {
        streams_agree(&s)?;
    }
}

/// The frames the oracle leans on exist and are classified as claimed: the
/// user's own ENC is its own, the same packet at `seq = k` is not, a
/// truncated copy is not, and the narrowed ID is no packet's for a user
/// whose ID rederives past the wire width.
#[test]
fn the_pool_holds_the_frames_that_matter() {
    let (k, n) = (3, 6);
    let pool = frame_pool(n, k, 11);
    let own = |me: u32, frame: &Arc<[u8]>| UserSession::new(me, D, k, LAYOUT).is_own(frame);
    let mine = &pool[0];
    assert!(own(1001, mine));
    let past_k = &pool[5];
    let Ok(Packet::Enc(forged)) = Packet::parse(past_k, &LAYOUT) else {
        panic!("an ENC frame");
    };
    assert!(forged.serves(1001) && usize::from(forged.header().seq) >= k);
    assert!(!own(1001, past_k));
    let narrowed = &pool[2];
    assert!(!own(WIDE_OLD, narrowed));
    // Asking is what rederives the ID, as receiving would.
    let mut wide = UserSession::new(WIDE_OLD, D, k, LAYOUT);
    assert!(!wide.is_own(narrowed));
    assert_eq!(wide.current_id(), Some(4 * WIDE_OLD + 1));
    let half = pool.len() / 2;
    assert!(!own(1001, &pool[half]), "a truncated copy of the own frame");
}
