//! With the metrics layer compiled in, the byte-faithful driver reports
//! what installing the keys cost its receivers: one `agent.apply` span per
//! rekey around the install, `agent.unseals`, one per key unsealed —
//! exactly the encryptions each member needs, which is what its USR packet
//! would carry — `agent.unseal_groups`, one per eight-lane kernel call,
//! `agent.entry_lookups`, one per path level looked up in an ENC frame, and
//! `agent.column_indexes`, one per frame whose ID column was indexed for
//! the members that share it. One test, alone in its binary: the registry is
//! process-wide, and the counts below are exact. A no-op build runs the
//! rekey and counts nothing.

use grouprekey::driver::Group;
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;

#[test]
fn one_rekey_records_its_install_span_and_every_unseal() {
    let net = NetworkConfig {
        n_users: 1024,
        alpha: 1.0,
        p_high: 0.3,
        seed: 5,
        ..NetworkConfig::default()
    };
    let mut group = Group::new(1024, ServerOptions::default(), net);
    obs::reset();
    group.rekey(Batch::new(vec![], (0..1024).step_by(16).collect()));
    assert!(group.all_agents_synchronized());

    if !obs::enabled() {
        return;
    }
    let snap = obs::snapshot();
    assert_eq!(snap.span("agent.apply").map(|s| s.count), Some(1));
    let needed: usize = (group.agents.keys())
        .map(|&m| {
            group
                .server
                .usr_packet(m)
                .expect("live member")
                .sealed
                .len()
        })
        .sum();
    assert_eq!(snap.counter("agent.unseals"), needed as u64);
    // 960 members, 4.2 keys each. Eight chains run side by side and a
    // lane is refilled as its chain ends, so the kernel runs one group
    // past the 504 that 4032 unseals fill: lane fill 4032 / (8 * 505).
    assert_eq!(needed, 4032);
    assert_eq!(snap.counter("agent.unseal_groups"), 505);
    // A member served by an ENC frame looks its path up there, leaf first:
    // one lookup per key it unseals off the frame and one per level whose
    // node the frame does not carry.
    assert_eq!(snap.counter("agent.entry_lookups"), 4545);
    // One ID-column index per frame that two or more members hold: the
    // multicast deliveries, not the frames FEC rebuilt for one receiver.
    assert_eq!(snap.counter("agent.column_indexes"), 19);
}
