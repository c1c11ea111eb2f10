//! What a delivery costs in heap traffic. A share of a block the user's
//! block-ID estimate has ruled out is turned away after the header read:
//! nothing allocated, no reference kept. A share that is kept is a bit in
//! the share tracker and a reference count pushed onto one flat store: the
//! allocations left are that store's and the tracker's amortised growth,
//! each sized once up front, a constant for any number of blocks. The
//! delivery that serves the user is the same reference count and nothing
//! else, and asking of any ENC or PARITY frame whether it is the user's
//! own (`is_own`) is a header read. A FEC recovery at a round boundary, in
//! a decode context its caller keeps, is the one frame the serving packet
//! is rebuilt into: no row buffer, no list of held frames, no set of blocks
//! given up, and nothing for the blocks tried.

use std::sync::Arc;

use rekeymsg::{BlockSet, EncFrame, EncHeader, EncPacket, Layout, Packet};
use rekeyproto::{Ignored, Received, UserOutcome, UserSession};
use wirecrypto::{SealedKey, SymKey};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

const K: usize = 8;
const LAYOUT: Layout = Layout::DEFAULT;

/// One block's frames: its `K` ENC packets and its parities.
struct BlockFrames {
    data: Vec<Arc<[u8]>>,
    parity: Vec<Arc<[u8]>>,
}

/// 100 blocks of `K` single-user ENC packets (IDs 1001..=1800 under maxKID
/// 1000, degree 4: nobody moves) and `parities` parities each.
fn message(parities: usize) -> Vec<BlockFrames> {
    let sealed = SealedKey::seal(
        &SymKey::from_bytes([1; 16]),
        &SymKey::from_bytes([2; 16]),
        0,
    );
    let packets: Vec<EncPacket> = (0..800u16)
        .map(|i| {
            EncPacket::new(
                EncHeader {
                    msg_id: 5,
                    block_id: 0,
                    seq: 0,
                    duplicate: false,
                    max_kid: 1000,
                    frm_id: 1001 + i,
                    to_id: 1001 + i,
                },
                vec![(1001 + i, sealed)],
                &Layout::DEFAULT,
            )
            .unwrap()
        })
        .collect();
    let mut blocks = BlockSet::new(packets, K, LAYOUT);
    let frame = |pkt: Packet| -> Arc<[u8]> { pkt.emit(&LAYOUT).into() };
    (0..blocks.block_count())
        .map(|b| {
            let minted = blocks.mint_parities(b, parities).unwrap();
            let data = &blocks.block(b).unwrap().packets;
            BlockFrames {
                data: data.iter().cloned().map(Packet::Enc).map(frame).collect(),
                parity: minted.into_iter().map(Packet::Parity).map(frame).collect(),
            }
        })
        .collect()
}

#[test]
fn ruled_out_shares_cost_nothing_and_neither_does_the_serving_one() {
    xcheck_rt::assert_counting();
    let blocks = message(2);
    assert_eq!(blocks.len(), 100);

    // User 1400's packet is block 49, seq 7. Two headers pin its block:
    // block 49 seq 6 lies just below it (low = 49), block 50 seq 0 just
    // above it (high = 49), so block 50 is ruled out by its own header.
    let mut session = UserSession::new(1400, 4, K, LAYOUT).expect_msg_id(5);
    let ruled_out = Ok(Received::Ignored(Ignored::RuledOut));
    assert_eq!(
        session.receive_frame(&blocks[49].data[6]),
        Ok(Received::Kept)
    );
    assert_eq!(session.receive_frame(&blocks[50].data[0]), ruled_out);

    // Every frame of every other block: 990 deliveries, none the user's
    // own by a header read, and turned away.
    let others: Vec<&Arc<[u8]>> = (blocks.iter().enumerate())
        .filter(|&(b, _)| b != 49)
        .flat_map(|(_, frames)| frames.data.iter().chain(&frames.parity))
        .collect();
    assert_eq!(others.len(), 990);
    let own = xcheck_rt::assert_zero_alloc("is_own of 990 other frames", || {
        others.iter().any(|frame| session.is_own(frame))
    });
    assert!(!own);
    xcheck_rt::assert_zero_alloc("deliveries of ruled-out blocks", || {
        for frame in &others {
            assert_eq!(session.receive_frame(frame), ruled_out);
        }
    });
    assert!(
        others.iter().all(|frame| Arc::strong_count(frame) == 1),
        "a ruled-out share is not held"
    );

    // The rest of its own block is kept; hearing its packet then allocates
    // nothing, and what the session keeps is the delivered frame itself.
    let own = &blocks[49];
    for frame in own.data[..6].iter().chain(&own.parity) {
        assert_eq!(session.receive_frame(frame), Ok(Received::Kept));
    }
    let mine = xcheck_rt::assert_zero_alloc("the serving delivery", || {
        assert!(session.is_own(&own.data[7]));
        session.receive_frame(&own.data[7])
    });
    assert_eq!(mine, Ok(Received::Mine));
    let UserOutcome::Enc(kept) = session.outcome() else {
        panic!("outcome {:?}", session.outcome());
    };
    assert!(kept.header().serves(1400));
    assert_eq!(Arc::strong_count(&own.data[7]), 2, "kept, not copied");
    assert_eq!(Arc::strong_count(&own.data[0]), 1, "shares let go");
}

#[test]
fn kept_shares_cost_a_constant() {
    xcheck_rt::assert_counting();
    let blocks = message(10);

    // Parity only: no ENC header bounds the estimate, so all 1000 shares
    // are kept.
    let mut session = UserSession::new(1900, 4, K, LAYOUT).expect_msg_id(5);
    let (allocs, ()) = xcheck_rt::count_in(|| {
        for frame in blocks.iter().flat_map(|frames| &frames.parity) {
            assert_eq!(session.receive_frame(frame), Ok(Received::Kept));
        }
    });
    // 12 today: the store is sized for 2k shares at the first one and
    // doubles six times to hold 1000; the tracker is sized for eight
    // blocks at the first share and doubles four times to reach block 99.
    assert!(
        allocs <= 16,
        "{allocs} allocations for 1000 kept deliveries"
    );
    assert!(!session.is_satisfied());
}

#[test]
fn a_recovery_costs_the_decode_context_and_one_frame() {
    xcheck_rt::assert_counting();
    let blocks = message(K);
    // Parity only: no header bounds the estimate and the ID is not known
    // yet, so every block heard is a candidate and each missing packet is
    // probed in ascending order.
    let hearing = |blocks_heard: &[usize]| {
        let mut session = UserSession::new(1400, 4, K, LAYOUT).expect_msg_id(5);
        for &b in blocks_heard {
            for frame in &blocks[b].parity {
                assert_eq!(session.receive_frame(frame), Ok(Received::Kept));
            }
        }
        session
    };
    // One recovery unmeasured, in the context every recovery below borrows:
    // it grows the context's buffers to `k` shares, and in an obs build
    // (`obs/enabled`) rse registers its span slots on first use.
    let mut ctx = rse::DecodeCtx::default();
    let boundary = |session: &mut UserSession, ctx: &mut rse::DecodeCtx| {
        let did = session.recover_in(ctx);
        (session.close_round(), did)
    };
    assert_eq!(boundary(&mut hearing(&[49]), &mut ctx).0, None);

    // User 1400's packet is block 49, seq 7: the eighth header probed. The
    // warm context holds the chosen-share list and the weights, so the
    // frame is all there is to allocate.
    let mut session = hearing(&[49]);
    let (allocs, (nack, did)) = xcheck_rt::count_in(|| boundary(&mut session, &mut ctx));
    assert_eq!(nack, None);
    assert_eq!((did.rows, did.full_rows, did.exhausted), (8, 1, 0));
    assert_eq!(allocs, 1, "the frame");
    let UserOutcome::Enc(kept) = session.outcome() else {
        panic!("outcome {:?}", session.outcome());
    };
    let sent = EncFrame::new(Arc::clone(&blocks[49].data[7]), &LAYOUT).unwrap();
    assert_eq!(kept, &sent, "rebuilt to the byte");

    // Block 48 first, whose every probe misses, then the recovery in block
    // 49: the two decodes share the context, so still only the frame.
    let mut session = hearing(&[48, 49]);
    let (allocs, (nack, did)) = xcheck_rt::count_in(|| boundary(&mut session, &mut ctx));
    assert_eq!(nack, None);
    assert_eq!((did.rows, did.full_rows, did.exhausted), (16, 1, 1));
    assert_eq!(allocs, 1, "the frame");

    // `end_of_round` lends a fresh context: its three buffers, however
    // many blocks it serves, and the frame.
    let mut session = hearing(&[48, 49]);
    let (allocs, nack) = xcheck_rt::count_in(|| session.end_of_round());
    assert_eq!(nack, None);
    assert_eq!(allocs, 3 + 1, "a fresh decode context and the frame");
}
