//! Worker-count and schedule-perturbation bit-identity gate: everything
//! [`KeyServer::rekey`] produces — marking outcome, sealed ENC packets,
//! stamped FEC blocks and parity bytes, USR packets and group key — must
//! be byte-identical at any `taskpool` worker count and under seeded
//! adversarial schedules (shuffled task pickup plus injected yield
//! points). This is the dynamic check behind the static
//! `determinism-unordered-iter` rule: where xcheck proves no unordered
//! container feeds an ordered output, this test lets actual hostile
//! interleavings try to break the artifact stream. One worker with
//! natural scheduling is the reference; everything else must collapse
//! onto it.

use grouprekey::{KeyServer, ServerOptions};
use keytree::{Batch, MemberId};
use proptest::prelude::*;
use rekeymsg::UsrPacket;
use wirecrypto::SymKey;

/// Everything observable about one rekey message, including the FEC
/// block contents and two minted parity packets per block (which prove
/// the bodies handed to the Reed–Solomon encoders match byte for byte).
#[derive(Debug, PartialEq)]
struct MessageFingerprint {
    outcome: keytree::MarkOutcome,
    packets: Vec<rekeymsg::EncPacket>,
    block_packets: Vec<Vec<rekeymsg::EncPacket>>,
    parities: Vec<Vec<rekeymsg::ParityPacket>>,
    usr: Vec<Option<UsrPacket>>,
    group_key: Option<SymKey>,
}

/// Rekeys one batch and fingerprints the message.
fn fingerprint(server: &mut KeyServer, batch: Batch) -> MessageFingerprint {
    let artifacts = server.rekey(batch);
    let members: Vec<MemberId> = server.tree().member_ids();
    let usr = server.usr_packets_bulk(&members);
    let blocks = artifacts.session.blocks();
    let block_packets: Vec<Vec<rekeymsg::EncPacket>> = (0..blocks.block_count())
        .map(|b| blocks.block(b).unwrap().packets.clone())
        .collect();
    // Minting advances encoder state, so work on a clone: the session
    // itself stays pristine.
    let parities = blocks
        .clone()
        .mint_parities_many(&vec![2; block_packets.len()])
        .unwrap();
    MessageFingerprint {
        outcome: (*artifacts.outcome).clone(),
        packets: artifacts.assignment.packets.clone(),
        block_packets,
        parities,
        usr,
        group_key: server.tree().group_key(),
    }
}

/// Runs `body` at `workers` workers under an optional perturbation seed.
fn under<R>(workers: usize, sched_seed: Option<u64>, body: impl FnOnce() -> R) -> R {
    taskpool::with_workers(workers, || match sched_seed {
        Some(seed) => taskpool::with_schedule(seed, body),
        None => body(),
    })
}

/// Bootstrap `n` users, run a leave-heavy then a join-heavy batch
/// (forcing splits), fingerprinting each message.
fn run_stream(workers: usize, sched_seed: Option<u64>, n: u32) -> Vec<MessageFingerprint> {
    under(workers, sched_seed, || {
        let mut server = KeyServer::bootstrap(n, ServerOptions::default());
        let batches = vec![
            Batch::new(vec![], (0..n / 4).map(|i| i * 3 % n).collect()),
            Batch::new(
                (0..n / 2)
                    .map(|i| (n + i, server.mint_individual_key()))
                    .collect(),
                vec![1, 2],
            ),
        ];
        batches
            .into_iter()
            .map(|batch| fingerprint(&mut server, batch))
            .collect()
    })
}

#[test]
fn rekey_artifacts_are_worker_and_schedule_invariant() {
    let baseline = run_stream(1, None, 256);
    for sched_seed in std::iter::once(None).chain((0..8u64).map(Some)) {
        for workers in [1, 2, 4] {
            let run = run_stream(workers, sched_seed, 256);
            assert_eq!(baseline, run, "seed={sched_seed:?}, workers={workers}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random group shapes × random churn × random worker count and
    /// schedule: the fingerprint equals the one-worker natural run's.
    #[test]
    fn identity_over_random_shapes(
        n in 4u32..200,
        d in prop::sample::select(vec![2u32, 3, 4, 8]),
        joins in 0usize..40,
        leave_stride in 2u32..9,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let run = || {
            let options = ServerOptions {
                degree: d,
                ..ServerOptions::default()
            };
            let mut server = KeyServer::bootstrap(n, options);
            let leaves: Vec<MemberId> = (0..n).filter(|m| m % leave_stride == 0).collect();
            let joins: Vec<(MemberId, SymKey)> = (0..joins as u32)
                .map(|i| (n + i, server.mint_individual_key()))
                .collect();
            fingerprint(&mut server, Batch::new(joins, leaves))
        };
        let baseline = under(1, None, run);
        let perturbed = under(workers, Some(seed), run);
        prop_assert_eq!(baseline, perturbed);
    }
}
