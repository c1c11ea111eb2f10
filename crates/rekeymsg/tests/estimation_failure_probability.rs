//! Appendix D's claim: a user that lost its specific ENC packet `<i, j>`
//! fails to pin the block ID exactly only when all of
//! `Sl = {<i-1,k-1>, <i,0..j-1>}` or all of `Su = {<i,j+1..k-1>, <i+1,0>}`
//! are also lost; under independent loss at rate `p` that happens with
//! probability `p^(j+2) + p^(k-j+1) - p^(k+2)` (own-packet loss included).
//!
//! This test Monte-Carlo-samples independent loss over a synthetic message
//! and compares the empirical exact-pin failure rate with the formula.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rekeymsg::estimate::BlockIdEstimator;
use rekeymsg::EncHeader;

/// The headers of a message: estimation reads nothing else.
fn synthetic_message(blocks: usize, k: usize, max_kid: u16) -> Vec<EncHeader> {
    (0..blocks * k)
        .map(|pi| {
            let frm = (1000 + 10 * pi) as u16;
            EncHeader {
                msg_id: 0,
                block_id: (pi / k) as u8,
                seq: (pi % k) as u8,
                duplicate: false,
                max_kid,
                frm_id: frm,
                to_id: frm + 9,
            }
        })
        .collect()
}

/// Empirical probability that the estimator cannot pin the block exactly,
/// given the user's own packet is in the loss draw like any other.
fn empirical_failure(
    packets: &[EncHeader],
    target: usize,
    k: usize,
    p: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = packets[target].frm_id + 5; // a user ID inside the target range
    let mut failures = 0usize;
    for _ in 0..trials {
        let own_lost = rng.gen_bool(p);
        if !own_lost {
            continue; // own packet received: trivially no estimation failure
        }
        let mut est = BlockIdEstimator::new(m);
        for (pi, pkt) in packets.iter().enumerate() {
            if pi == target {
                continue;
            }
            if !rng.gen_bool(p) {
                est.observe(pkt, k, 4);
            }
        }
        if !est.is_exact() {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

fn formula(p: f64, k: usize, j: usize) -> f64 {
    p.powi(j as i32 + 2) + p.powi((k - j + 1) as i32) - p.powi(k as i32 + 2)
}

#[test]
fn failure_rate_matches_appendix_d_formula() {
    let k = 5usize;
    let blocks = 6usize;
    let packets = synthetic_message(blocks, k, 5000);
    let trials = 120_000;

    // Interior block, several j positions.
    for j in [0usize, 2, 4] {
        let target = 2 * k + j; // block 2, seq j
        for p in [0.2f64, 0.4] {
            let measured = empirical_failure(&packets, target, k, p, trials, 42 + j as u64);
            let expect = formula(p, k, j);
            // The estimator can only do better than the two-sided rule
            // (step 6 and cross-block packets add information), so the
            // measured failure rate must not exceed the formula, and for
            // interior packets it should be close to it.
            assert!(
                measured <= expect * 1.25 + 0.003,
                "p={p}, j={j}: measured {measured:.5} >> formula {expect:.5}"
            );
            assert!(
                measured >= expect * 0.4 - 0.003,
                "p={p}, j={j}: measured {measured:.5} << formula {expect:.5} (formula wrong way)"
            );
        }
    }
}

#[test]
fn worst_case_positions_are_p_squared() {
    // Appendix D: at j = 0 or j = k-1 the failure probability is ~ p^2.
    let k = 5usize;
    let packets = synthetic_message(6, k, 5000);
    let p = 0.3f64;
    let measured = empirical_failure(&packets, 2 * k, k, p, 200_000, 7);
    let expect = formula(p, k, 0); // ~ p^2
    assert!(
        (measured - expect).abs() < 0.02,
        "measured {measured:.4} vs ~p^2 = {expect:.4}"
    );
}

#[test]
fn failure_always_leaves_a_bracketing_range() {
    // Even when the exact pin fails, the user can fall back to a range
    // that contains the truth (so its NACK still covers the right block).
    let k = 4usize;
    let packets = synthetic_message(5, k, 4000);
    let target = 2 * k + 1;
    let m = packets[target].frm_id + 5;
    let mut rng = SmallRng::seed_from_u64(99);
    let mut inexact_seen = 0;
    for _ in 0..20_000 {
        let mut est = BlockIdEstimator::new(m);
        for (pi, pkt) in packets.iter().enumerate() {
            if pi != target && !rng.gen_bool(0.5) {
                est.observe(pkt, k, 4);
            }
        }
        if !est.is_exact() {
            inexact_seen += 1;
        }
        assert!(est.low() <= 2);
        if let Some((lo, hi)) = est.range() {
            assert!(lo <= 2 && 2 <= hi, "range ({lo},{hi}) excludes block 2");
        }
    }
    assert!(inexact_seen > 0, "50% loss must produce some inexact cases");
}
