//! Large-scale smoke: the paper's biggest configuration (N = 16384) runs
//! end to end in the fast simulator, serves every user, and the message
//! size scales as the paper's Figure 6 (right) predicts.

use grouprekey::experiment::{run_experiment, workload_stats, ExperimentParams};
use rekeymsg::Layout;
use rekeyproto::ServerConfig;

#[test]
fn sixteen_k_users_one_message() {
    let params = ExperimentParams {
        protocol: ServerConfig {
            initial_rho: 1.4,
            adapt_rho: false,
            ..ServerConfig::default()
        },
        messages: 1,
        ..ExperimentParams::default()
    }
    .with_n(16384)
    .multicast_only();
    let reports = run_experiment(params);
    let r = &reports[0];
    assert_eq!(r.unserved_users, 0);
    // ~300+ ENC packets (4x the N = 4096 figure).
    assert!(
        (250..400).contains(&r.enc_packets),
        "ENC packets {}",
        r.enc_packets
    );
    assert!(r.fraction_within(1) > 0.95);
}

#[test]
fn message_size_scales_linearly_to_sixteen_k() {
    let small = workload_stats(4096, 4, 0, 1024, 2, 3, &Layout::DEFAULT);
    let large = workload_stats(16384, 4, 0, 4096, 2, 3, &Layout::DEFAULT);
    let ratio = large.enc_packets / small.enc_packets;
    assert!(
        (3.5..4.6).contains(&ratio),
        "4x users should mean ~4x packets, got {ratio}"
    );
    // Per-user needs grow only with log N: +1 level from 4096 to 16384.
    assert!(large.per_user_need - small.per_user_need < 1.5);
}

#[test]
fn wire_id_range_covers_sixteen_k() {
    // At N = 16384, d = 4 the deepest node IDs approach 21845 — still
    // within the 16-bit wire fields. Verify an actual assignment emits.
    let mut kg = wirecrypto::KeyGen::from_seed(1);
    let mut tree = keytree::KeyTree::balanced(16384, 4, &mut kg);
    let leaves: Vec<u32> = (0..64u32).map(|i| i * 256).collect();
    let outcome = tree.process_batch(&keytree::Batch::new(vec![], leaves), &mut kg);
    let built = rekeymsg::UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
    for pkt in &built.packets {
        let bytes = pkt.emit();
        assert_eq!(bytes.len(), 1027);
    }
}
