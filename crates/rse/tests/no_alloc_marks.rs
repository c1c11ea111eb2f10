//! The `// xcheck: no_alloc` contract, pinned, for
//! [`BlockEncoder::parity_into`]: once the coefficient-row cache is warm,
//! encoding a parity packet into a caller-provided buffer must perform
//! zero heap allocations. A decode runs in a context its caller lends and
//! keeps (`DecodeCtx`): once that context has served a decode of `k`
//! shares, the next allocates nothing, and rebuilding a missing packet —
//! or any prefix of one — allocates nothing at all. A decode in a fresh
//! context allocates the context's buffers, a constant.

use rse::{BlockEncoder, DecodeCtx, Decoder};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

#[test]
fn parity_into_is_allocation_free_with_a_warm_row_cache() {
    xcheck_rt::assert_counting();

    let k = 16;
    let len = 128;
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
    let mut out = vec![0u8; len];

    let mut enc = BlockEncoder::new(k).unwrap();
    enc.warm(8).unwrap();
    // One unmeasured call: in an obs build, the first parity_into
    // registers its span/counter slots (leaked Boxes + registry pushes).
    enc.parity_into(0, &data, &mut out).unwrap();

    // Steady state: every warmed parity index encodes without touching
    // the heap — both the cache-hit path and the accumulate inner loop.
    for parity_index in 0..8 {
        xcheck_rt::assert_zero_alloc("BlockEncoder::parity_into", || {
            enc.parity_into(parity_index, &data, &mut out).unwrap()
        });
        assert!(out.iter().any(|&b| b != 0), "parity must be non-trivial");
    }

    // A cold index (row not yet built) is allowed to allocate — the
    // no_alloc contract is about the steady state, which is why the mark
    // sits on the warm path. Verify the cold call still works.
    let (allocs, _) = xcheck_rt::count_in(|| enc.parity_into(8, &data, &mut out).unwrap());
    assert!(allocs >= 1, "building a fresh row allocates");
    // ...and is immediately warm afterwards.
    xcheck_rt::assert_zero_alloc("BlockEncoder::parity_into (rewarmed)", || {
        enc.parity_into(8, &data, &mut out).unwrap()
    });
}

#[test]
fn a_decode_in_a_warm_context_and_rebuilding_a_row_allocate_nothing() {
    xcheck_rt::assert_counting();

    let (k, e, len) = (32, 6, 128);
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
    let mut enc = BlockEncoder::new(k).unwrap();
    let parities: Vec<Vec<u8>> = (0..e).map(|j| enc.parity(j, &data).unwrap()).collect();
    // Data packets 0..e are lost; the first e parities stand in for them.
    let held = || {
        let data = (e..k).map(|i| (i, data[i].as_slice()));
        data.chain((0..e).map(|j| (k + j, parities[j].as_slice())))
    };
    let dec = Decoder::new(k).unwrap();
    let mut row = Vec::new();
    // One unmeasured decode, as above (obs slot registration for a row and
    // a prefix; `row` grows).
    let mut ctx = DecodeCtx::default();
    let missing = dec.decode_missing_in(&mut ctx, held()).unwrap();
    missing.row_into(0, &mut row).unwrap();
    missing.prefix_into(0, &mut [0; 6]).unwrap();
    drop(missing);

    // A fresh context: the chosen-share list and the interpolation
    // context's nodes and weights, whatever e is.
    let mut fresh = DecodeCtx::default();
    let (allocs, missing) =
        xcheck_rt::count_in(|| dec.decode_missing_in(&mut fresh, held()).unwrap());
    assert_eq!(allocs, 3, "decode_missing_in allocation budget, fresh");
    drop(missing);

    // Once a context has served a decode, it allocates never again.
    let (allocs, missing) =
        xcheck_rt::count_in(|| dec.decode_missing_in(&mut ctx, held()).unwrap());
    assert_eq!(allocs, 0, "decode_missing_in allocation budget, warm");
    assert_eq!(
        missing.indices().collect::<Vec<_>>(),
        (0..e).collect::<Vec<_>>()
    );
    for i in [3, 0, 5] {
        xcheck_rt::assert_zero_alloc("MissingRows::row_into", || {
            missing.row_into(i, &mut row).unwrap()
        });
        assert_eq!(row, data[i]);
        // A header's worth of it, into a buffer on the stack: nothing either.
        let mut header = [0u8; 6];
        xcheck_rt::assert_zero_alloc("MissingRows::prefix_into", || {
            missing.prefix_into(i, &mut header).unwrap()
        });
        assert_eq!(header, data[i][..6]);
    }
    // Dropping the rows hands the buffers back, and that allocates nothing.
    xcheck_rt::assert_zero_alloc("MissingRows drop", || drop(missing));

    // Nothing missing among the chosen shares: only the chosen-share list
    // in a fresh context, nothing in the warm one.
    let all_data = || data.iter().enumerate().map(|(i, d)| (i, d.as_slice()));
    let mut fresh = DecodeCtx::default();
    let (allocs, missing) =
        xcheck_rt::count_in(|| dec.decode_missing_in(&mut fresh, all_data()).unwrap());
    assert_eq!(
        (allocs, missing.indices().count()),
        (1, 0),
        "no-loss fast path"
    );
    let (allocs, missing) =
        xcheck_rt::count_in(|| dec.decode_missing_in(&mut ctx, all_data()).unwrap());
    assert_eq!(
        (allocs, missing.indices().count()),
        (0, 0),
        "no-loss fast path, warm"
    );
}
