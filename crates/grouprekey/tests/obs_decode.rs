//! The exact FEC recovery work of one rekey shaped like the benchmark's
//! `wire_fec` workload: N = 1024, 256 joins and 256 leaves, k = 32, every
//! receiver behind a lossy link (alpha = 1), multicast rounds only. What a
//! recovery does — blocks validated, headers probed, rows rebuilt in full —
//! is fixed by the seed; what it costs is not, so a change to the decode's
//! speed leaves these counts as they are. One test, alone in its binary:
//! the registry is process-wide. A no-op build counts nothing, so it skips
//! the rekey too.

use grouprekey::driver::Group;
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;
use wirecrypto::SymKey;

#[test]
fn a_wire_fec_shaped_rekey_decodes_exactly_this_much() {
    if !obs::enabled() {
        return;
    }
    let net = NetworkConfig {
        n_users: 1024,
        alpha: 1.0,
        seed: 37,
        ..NetworkConfig::default()
    };
    let mut options = ServerOptions::default();
    options.protocol.block_size = 32;
    options.protocol.max_multicast_rounds = usize::MAX;
    let mut group = Group::new(1024, options, net);
    let joins = (1024..1280u32).map(|m| (m, SymKey::from_bytes([(m % 251) as u8; 16])));
    let batch = Batch::new(joins.collect(), (0..1024).step_by(4).collect());
    obs::reset();
    group.rekey(batch);
    assert!(group.all_agents_synchronized());

    let snap = obs::snapshot();
    let decode = |what: &str| snap.counter(&format!("transport.decode.{what}"));
    let work = ["blocks", "rows", "fallback_rows", "full_rows", "exhausted"].map(decode);
    assert_eq!(work, [207, 256, 0, 207, 0]);
    let spans = |name: &str| snap.span(name).map_or(0, |s| s.count);
    // One validation per block tried; one prefix per header probed and one
    // whole row per member keyed by FEC.
    assert_eq!(spans("rse.decode"), work[0]);
    assert_eq!(spans("rse.decode_prefix"), work[1]);
    assert_eq!(spans("rse.decode_row"), work[3]);
    // One recovery attempt per member still listening at a round boundary.
    assert_eq!(spans("transport.decode"), 428);
}
