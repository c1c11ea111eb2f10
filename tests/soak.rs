//! Long-haul soak: one persistent group run byte-faithfully through 100
//! rekey intervals of mixed churn, with every invariant checked every
//! interval. This is the drift test — bugs that only manifest after holes
//! accumulate, nodes split repeatedly, or message IDs wrap the 6-bit wire
//! field show up here.

use grouprekey::driver::Group;
use grouprekey::frontend::{IntervalCollector, JoinRequest, LeaveRequest};
use grouprekey::ServerOptions;
use netsim::NetworkConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wirecrypto::SymKey;

#[test]
fn hundred_intervals_of_churn() {
    let mut group = Group::new(
        48,
        ServerOptions::default(),
        NetworkConfig {
            n_users: 160,
            alpha: 0.25,
            seed: 404,
            ..NetworkConfig::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(2026);
    let mut collector = IntervalCollector::new();
    let mut next_member = 48u32;
    let credential = SymKey::from_bytes(*b"soak-credential!");
    let mut group_keys_seen = vec![group.group_key().unwrap()];

    for interval in 0..100u64 {
        // Random churn submitted through the authenticated front end.
        let n_leaves = rng.gen_range(0..6usize);
        let n_joins = rng.gen_range(0..6usize);

        let mut members: Vec<u32> = group.agents.keys().copied().collect();
        members.sort_unstable();
        for _ in 0..n_leaves.min(members.len().saturating_sub(1)) {
            let idx = rng.gen_range(0..members.len());
            let m = members.swap_remove(idx);
            let key = group.agents[&m]
                .key_of(group.agents[&m].node_id())
                .expect("individual key");
            let req = LeaveRequest::sign(m, collector.interval(), &key);
            collector
                .submit_leave(req, |mm| {
                    group.agents.get(&mm).and_then(|a| a.key_of(a.node_id()))
                })
                .unwrap_or_else(|e| panic!("interval {interval}: leave {m}: {e}"));
        }
        for _ in 0..n_joins {
            let m = next_member;
            next_member += 1;
            // Full registration handshake for every joiner.
            let (_, key) = group
                .register_join(m, credential, 0x1000 + m as u64)
                .expect("registration succeeds");
            let req = JoinRequest::sign(m, collector.interval(), &key);
            collector
                .submit_join(req, key, group.agents.contains_key(&m))
                .unwrap_or_else(|e| panic!("interval {interval}: join {m}: {e}"));
        }

        let batch = collector.close_interval();
        let changed = !batch.is_empty();
        let before_key = group.group_key();
        group.rekey(batch);

        // Invariants, every interval.
        group
            .server
            .tree()
            .check_invariants()
            .unwrap_or_else(|e| panic!("interval {interval}: {e}"));
        assert!(
            group.all_agents_synchronized(),
            "interval {interval}: agent desynchronized"
        );
        let gk = group.group_key().unwrap();
        if changed {
            assert_ne!(Some(gk), before_key, "interval {interval}: key unchanged");
            assert!(
                !group_keys_seen.contains(&gk),
                "interval {interval}: group key reuse"
            );
            group_keys_seen.push(gk);
        } else {
            assert_eq!(Some(gk), before_key);
        }
        assert!(!group.agents.is_empty(), "group must never empty out here");
    }

    // 100 intervals means the 6-bit wire message ID wrapped at least once.
    assert!(group.server.msg_seq() >= 100);
}

mod scenario_soak {
    //! Long-horizon scenario soak: every adversarial trace family run for
    //! thousands of batches on a small group, with compaction on, the tree
    //! invariants checked every interval, and the whole rekey stream run
    //! a second time in the same process — any divergence (`HashMap` order
    //! or global state leaking into the stream) or invariant break fails
    //! by digest mismatch or panic. Under `--features sanitize` every one of those batches also
    //! passes the secrecy/delivery oracles and the Theorem 4.2 / explicit-
    //! relocation re-derivations inside `KeyServer::rekey`.

    use grouprekey::scenario::{ScenarioConfig, ScenarioEngine, ScenarioKind};
    use grouprekey::ServerOptions;
    use keytree::CompactionPolicy;

    const INTERVALS: usize = 2000;

    fn config(kind: ScenarioKind) -> ScenarioConfig {
        ScenarioConfig {
            kind,
            seed: 0x50A6_0000 ^ kind.name().len() as u64,
            initial_users: 96,
            intervals: INTERVALS,
            options: ServerOptions {
                compaction: CompactionPolicy::DEFAULT_ON,
                ..ServerOptions::default()
            },
        }
    }

    /// Steps the whole trace, checking tree invariants as it goes, and
    /// returns the run digest.
    fn soak(kind: ScenarioKind) -> u64 {
        let mut engine = ScenarioEngine::new(config(kind));
        for interval in 0..INTERVALS {
            let stats = engine.step();
            engine
                .server()
                .tree()
                .check_invariants()
                .unwrap_or_else(|e| panic!("{} interval {interval}: {e}", kind.name()));
            assert_eq!(
                stats.users,
                engine.server().tree().user_count(),
                "{} interval {interval}: stats drifted from the tree",
                kind.name()
            );
        }
        engine.digest()
    }

    /// One test per trace family so failures name the trace and the
    /// suite parallelizes across them.
    macro_rules! soak_test {
        ($name:ident, $kind:expr) => {
            #[test]
            fn $name() {
                assert_eq!(
                    soak($kind),
                    soak($kind),
                    "{}: a second run diverged from the first",
                    $kind.name()
                );
            }
        };
    }

    soak_test!(flash_crowd_thousands_of_batches, ScenarioKind::FlashCrowd);
    soak_test!(diurnal_thousands_of_batches, ScenarioKind::Diurnal);
    soak_test!(
        mass_departure_thousands_of_batches,
        ScenarioKind::MassDeparture
    );
    soak_test!(oscillation_thousands_of_batches, ScenarioKind::Oscillation);
    soak_test!(storm_thousands_of_batches, ScenarioKind::Storm);
}
