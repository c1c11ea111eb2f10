//! What a delivery that does not serve the user costs in heap traffic: a
//! header read in place and a reference count on the shared frame, so the
//! only allocations left are the share map's nodes. At the parent commit
//! every such delivery re-serialised the packet and copied its body (three
//! allocations and up, before the map).

use std::sync::Arc;

use rekeymsg::{BlockSet, EncPacket, Layout, Packet};
use rekeyproto::{Received, UserSession};
use wirecrypto::{SealedKey, SymKey};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

#[test]
fn non_serving_deliveries_average_under_half_an_allocation() {
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
    assert!(
        allocs < 500,
        "{allocs} allocations for 1000 non-serving deliveries"
    );
    assert!(!session.is_satisfied());
}
