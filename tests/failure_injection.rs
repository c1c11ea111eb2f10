//! Failure injection and pathological-configuration coverage: extreme
//! loss, degenerate block sizes, tiny packets, tiny groups, join storms,
//! corrupted wire bytes.

use grouprekey::driver::Group;
use grouprekey::experiment::{run_experiment, ExperimentParams};
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;
use rekeymsg::{Layout, Packet};
use rekeyproto::ServerConfig;

#[test]
fn fifty_percent_loss_everywhere_still_delivers() {
    let cfg = NetworkConfig {
        n_users: 32,
        alpha: 1.0,
        p_high: 0.50,
        p_source: 0.10,
        seed: 3,
        ..NetworkConfig::default()
    };
    let mut group = Group::new(32, ServerOptions::default(), cfg);
    group.max_rounds = 200;
    for i in 0..3 {
        group.rekey(Batch::new(vec![], vec![i * 3]));
        assert!(group.all_agents_synchronized(), "message {i}");
    }
}

#[test]
fn block_size_one_works_end_to_end() {
    let options = ServerOptions {
        protocol: ServerConfig {
            block_size: 1,
            ..ServerConfig::default()
        },
        ..ServerOptions::default()
    };
    let mut group = Group::new(
        64,
        options,
        NetworkConfig {
            n_users: 64,
            seed: 5,
            ..NetworkConfig::default()
        },
    );
    let leaves: Vec<u32> = (0..16).map(|i| i * 4).collect();
    group.rekey(Batch::new(vec![], leaves));
    assert!(group.all_agents_synchronized());
}

#[test]
fn large_block_size_with_duplicates_works() {
    // k = 50 with a small message: the single block is mostly duplicates.
    let options = ServerOptions {
        protocol: ServerConfig {
            block_size: 50,
            ..ServerConfig::default()
        },
        ..ServerOptions::default()
    };
    let mut group = Group::new(
        64,
        options,
        NetworkConfig {
            n_users: 64,
            alpha: 1.0,
            p_high: 0.25,
            seed: 7,
            ..NetworkConfig::default()
        },
    );
    let leaves: Vec<u32> = (0..16).map(|i| i * 4).collect();
    let report = group.rekey(Batch::new(vec![], leaves));
    assert!(report.blocks >= 1);
    assert!(group.all_agents_synchronized());
}

#[test]
fn tiny_packet_layout() {
    // A six-encryption packet (vs the default 46) still holds one whole
    // user path but forces UKA into many packets and blocks.
    let layout = Layout::new(3 + 6 + 22 * 6);
    let options = ServerOptions {
        protocol: ServerConfig {
            layout,
            block_size: 4,
            ..ServerConfig::default()
        },
        ..ServerOptions::default()
    };
    let mut group = Group::new(
        32,
        options,
        NetworkConfig {
            n_users: 32,
            seed: 9,
            ..NetworkConfig::default()
        },
    );
    let report = group.rekey(Batch::new(vec![], vec![0, 9, 18, 27]));
    // ~20+ encryptions at 6 per packet: several packets instead of the
    // single packet the default 46-slot layout would produce.
    assert!(
        report.enc_packets >= 4,
        "small packets should multiply: {}",
        report.enc_packets
    );
    assert!(group.all_agents_synchronized());
}

#[test]
fn two_member_group_churn() {
    let mut group = Group::new(
        2,
        ServerOptions::default(),
        NetworkConfig {
            n_users: 8,
            seed: 11,
            ..NetworkConfig::default()
        },
    );
    let j = group.mint_join(50);
    group.rekey(Batch::new(vec![j], vec![0]));
    assert_eq!(group.agents.len(), 2);
    assert!(group.all_agents_synchronized());
    // Shrink to one, grow again.
    group.rekey(Batch::new(vec![], vec![1]));
    assert_eq!(group.agents.len(), 1);
    let j2 = group.mint_join(51);
    let j3 = group.mint_join(52);
    group.rekey(Batch::new(vec![j2, j3], vec![]));
    assert_eq!(group.agents.len(), 3);
    assert!(group.all_agents_synchronized());
}

#[test]
fn join_storm_quadruples_group() {
    let mut group = Group::new(
        16,
        ServerOptions::default(),
        NetworkConfig {
            n_users: 128,
            seed: 13,
            ..NetworkConfig::default()
        },
    );
    let joins: Vec<_> = (0..48).map(|i| group.mint_join(100 + i)).collect();
    group.rekey(Batch::new(joins, vec![]));
    assert_eq!(group.agents.len(), 64);
    assert!(group.all_agents_synchronized());
}

#[test]
fn corrupted_wire_bytes_are_rejected_not_misparsed() {
    // Flip bytes in valid packets; parsing either fails cleanly or yields
    // a packet whose sealed payloads fail authentication — never a panic.
    let layout = Layout::DEFAULT;
    let mut kg = wirecrypto::KeyGen::from_seed(1);
    let mut tree = keytree::KeyTree::balanced(64, 4, &mut kg);
    let outcome = tree.process_batch(&Batch::new(vec![], vec![1, 2, 3]), &mut kg);
    let built = rekeymsg::UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();
    let bytes = built.packets[0].emit();

    for i in 0..bytes.len().min(64) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x5A;
        // Anything else is reinterpreted as another type or rejected.
        if let Ok(Packet::Enc(pkt)) = Packet::parse(&corrupt, &layout) {
            // Sealed entries must not silently unseal to wrong keys.
            for (id, sealed) in pkt.entries() {
                let child = id as u32;
                if let Some(kek) = tree.key_of(child) {
                    // Either it fails, or (for untouched entries) it
                    // yields exactly the true parent key.
                    if let Ok(key) = sealed.unseal(&kek, rekeymsg::seal_context(1, child)) {
                        let parent = keytree::ident::parent(child, 4).unwrap();
                        assert_eq!(Some(key), tree.key_of(parent));
                    }
                }
            }
        }
    }
}

#[test]
fn truncated_packets_never_panic() {
    let layout = Layout::DEFAULT;
    let mut kg = wirecrypto::KeyGen::from_seed(2);
    let mut tree = keytree::KeyTree::balanced(16, 4, &mut kg);
    let outcome = tree.process_batch(&Batch::new(vec![], vec![0]), &mut kg);
    let built = rekeymsg::UkaAssignment::build(&tree, &outcome, 1, &layout).unwrap();
    let bytes = built.packets[0].emit();
    for len in 0..bytes.len() {
        let _ = Packet::parse(&bytes[..len], &layout); // must not panic
    }
}

#[test]
fn parity_exhaustion_falls_back_to_unicast() {
    // k = 2 leaves only 253 parities per block; brutal loss with
    // multicast-only disabled off... here max rounds high so the server
    // would keep multicasting, but the parity space is finite: the session
    // must fall back to unicast instead of erroring.
    let params = ExperimentParams {
        protocol: ServerConfig {
            block_size: 2,
            initial_rho: 1.0,
            adapt_rho: false,
            max_multicast_rounds: usize::MAX,
            ..ServerConfig::default()
        },
        net: NetworkConfig {
            alpha: 1.0,
            p_high: 0.49,
            p_source: 0.20,
            ..NetworkConfig::default()
        },
        messages: 2,
        ..ExperimentParams::default()
    }
    .with_n(256);
    let reports = run_experiment(params);
    for r in &reports {
        assert_eq!(r.unserved_users, 0, "reliability must hold");
    }
}

#[test]
fn alternating_feast_and_famine_batches() {
    let mut group = Group::new(
        32,
        ServerOptions::default(),
        NetworkConfig {
            n_users: 128,
            seed: 17,
            ..NetworkConfig::default()
        },
    );
    let mut next = 32u32;
    for round in 0..6 {
        if round % 2 == 0 {
            // Feast: many joins.
            let joins: Vec<_> = (0..20)
                .map(|_| {
                    let j = group.mint_join(next);
                    next += 1;
                    j
                })
                .collect();
            group.rekey(Batch::new(joins, vec![]));
        } else {
            // Famine: many leaves.
            let mut members: Vec<u32> = group.agents.keys().copied().collect();
            members.sort_unstable();
            let leaves: Vec<u32> = members.into_iter().step_by(3).take(15).collect();
            group.rekey(Batch::new(vec![], leaves));
        }
        assert!(group.all_agents_synchronized(), "round {round}");
    }
}
