//! What a delivery costs in heap traffic. One that does not serve the user
//! is a header read in place, a bit in the share tracker and a reference
//! count on the shared frame pushed onto one flat store: the allocations
//! left are that store's and the tracker's amortised growth, a constant for
//! any number of blocks. The one that does serve the user is the same
//! reference count and nothing else. At the parent commit the share map
//! cost a tree node every few deliveries and a block, and the serving
//! delivery copied every pair of the packet into a growing vector.

use std::sync::Arc;

use rekeymsg::{BlockSet, EncPacket, Layout, Packet};
use rekeyproto::{Received, UserOutcome, UserSession};
use wirecrypto::{SealedKey, SymKey};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

#[test]
fn deliveries_cost_a_constant_and_the_serving_one_nothing() {
    xcheck_rt::assert_counting();

    // 100 blocks of k = 8 single-user ENC packets (IDs 1001..=1800 under
    // maxKID 1000, degree 4) and two parities each: 1000 frames.
    let (k, layout) = (8, Layout::DEFAULT);
    let sealed = SealedKey::seal(
        &SymKey::from_bytes([1; 16]),
        &SymKey::from_bytes([2; 16]),
        0,
    );
    let packets: Vec<EncPacket> = (0..800u16)
        .map(|i| EncPacket {
            msg_id: 5,
            block_id: 0,
            seq: 0,
            duplicate: false,
            max_kid: 1000,
            frm_id: 1001 + i,
            to_id: 1001 + i,
            entries: vec![(1001 + i, sealed)],
        })
        .collect();
    let mut blocks = BlockSet::new(packets, k, layout);
    let mut frames: Vec<Arc<[u8]>> = Vec::with_capacity(1000);
    for b in 0..blocks.block_count() {
        let parities = blocks.mint_parities(b, 2).unwrap();
        let data = blocks
            .block(b)
            .unwrap()
            .packets
            .iter()
            .cloned()
            .map(Packet::Enc);
        frames.extend(
            data.chain(parities.into_iter().map(Packet::Parity))
                .map(|pkt| Arc::from(pkt.emit(&layout))),
        );
    }
    assert_eq!(frames.len(), 1000);

    // User 1900 is served by none of them. Warm: the first ENC frame
    // derives the ID and builds the estimator.
    let mut session = UserSession::new(1900, 4, k, layout).expect_msg_id(5);
    assert_eq!(session.receive_frame(&frames[0]), Ok(Received::Kept));

    let (allocs, ()) = xcheck_rt::count_in(|| {
        for frame in &frames {
            assert_eq!(session.receive_frame(frame), Ok(Received::Kept));
        }
    });
    // 18 today: the store doubles eight times to hold 1000 shares, the
    // tracker's two vectors five times each to reach block 99.
    assert!(
        allocs <= 24,
        "{allocs} allocations for 1000 non-serving deliveries"
    );
    assert!(!session.is_satisfied());
    drop(session);

    // User 1400's packet is block 49, seq 7: with shares held, hearing it
    // allocates nothing, and what the session keeps is the delivered frame
    // itself.
    let at = 49 * (k + 2) + 7;
    let mut session = UserSession::new(1400, 4, k, layout).expect_msg_id(5);
    for frame in &frames[..at] {
        assert_eq!(session.receive_frame(frame), Ok(Received::Kept));
    }
    let mine = xcheck_rt::assert_zero_alloc("the serving delivery", || {
        session.receive_frame(&frames[at])
    });
    assert_eq!(mine, Ok(Received::Mine));
    let UserOutcome::Enc(kept) = session.outcome() else {
        panic!("outcome {:?}", session.outcome());
    };
    assert!(kept.header().serves(1400));
    assert_eq!(Arc::strong_count(&frames[at]), 2, "kept, not copied");
    assert_eq!(Arc::strong_count(&frames[0]), 1, "shares let go");
}
