//! Parameterised experiment runners that regenerate the paper's figures.
//!
//! Two families:
//!
//! * **Workload experiments** (Figures 6–7 and the SIGCOMM-axis tables):
//!   key-tree/marking/UKA statistics, no transport — [`workload_stats`],
//!   [`encryption_cost_batch`], [`encryption_cost_individual`].
//! * **Transport experiments** (Figures 8–21): full protocol simulation
//!   over the lossy network — [`ExperimentParams`] + [`ExperimentRun`].
//!
//! Per the paper, every transport message uses a *fresh* full balanced
//! tree of `n` users with `J` joins and `L` uniformly chosen leaves, while
//! the network loss processes, the adaptive controller state (`rho`,
//! `numNACK`) and the clock persist across the message sequence.
//!
//! [`workload_stats`]: crate::experiment::workload_stats
//! [`encryption_cost_batch`]: crate::experiment::encryption_cost_batch
//! [`encryption_cost_individual`]: crate::experiment::encryption_cost_individual
//! [`ExperimentParams`]: crate::experiment::ExperimentParams
//! [`ExperimentRun`]: crate::experiment::ExperimentRun

use keytree::{Batch, KeyTree, MemberId};
use netsim::{Network, NetworkConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rekeymsg::{assign, Layout, PlanScratch, UkaAssignment};
use rekeyproto::{ServerConfig, ServerController};
use wirecrypto::{KeyGen, SymKey};

use crate::metrics::MessageReport;
use crate::sim::{run_message_transport_with, SimConfig, SimUser, TransportScratch};

/// Averaged key-management workload statistics for one `(N, d, J, L)`
/// point.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadPoint {
    /// Mean number of ENC packets per rekey message.
    pub enc_packets: f64,
    /// Mean duplication overhead of UKA.
    pub duplication: f64,
    /// Mean encryptions in the rekey subtree.
    pub encryptions: f64,
    /// Mean encryptions a single user needs (sparseness metric).
    pub per_user_need: f64,
}

/// Draws `l` distinct leavers (at most `n`) uniformly from members
/// `0..n`: a partial Fisher–Yates over the member IDs.
fn uniform_leavers(n: u32, l: usize, rng: &mut SmallRng) -> Vec<MemberId> {
    let l = l.min(n as usize);
    let mut pool: Vec<MemberId> = (0..n).collect();
    for i in 0..l {
        let pick = rng.gen_range(i..pool.len());
        pool.swap(i, pick);
    }
    pool.truncate(l);
    pool
}

/// Builds a fresh balanced tree and processes one `(J, L)` batch with
/// uniformly chosen leavers, returning the tree and outcome.
fn one_batch(
    n: u32,
    degree: u32,
    j: usize,
    l: usize,
    kg: &mut KeyGen,
    rng: &mut SmallRng,
) -> (KeyTree, keytree::MarkOutcome) {
    let mut tree = KeyTree::balanced(n, degree, kg);
    let leaves = uniform_leavers(n, l, rng);
    let joins: Vec<(MemberId, SymKey)> = (0..j as u32).map(|i| (n + i, kg.next_key())).collect();
    let batch = Batch::new(joins, leaves);
    #[cfg(feature = "sanitize")]
    let before = tree.clone();
    let outcome = tree.process_batch(&batch, kg);
    #[cfg(feature = "sanitize")]
    crate::sanitize::check_batch(&before, &tree, &batch, &outcome);
    (tree, outcome)
}

/// Workload statistics averaged over `runs` random batches (Figures 6, 7).
pub fn workload_stats(
    n: u32,
    degree: u32,
    j: usize,
    l: usize,
    runs: usize,
    seed: u64,
    layout: &Layout,
) -> WorkloadPoint {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = WorkloadPoint::default();
    for run in 0..runs {
        let mut kg = KeyGen::from_seed(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
        let (tree, outcome) = one_batch(n, degree, j, l, &mut kg, &mut rng);
        // Workload grids stay within DEFAULT layout capacity; an
        // impossible layout would surface as zero packets here, and loudly
        // in the sealed paths.
        let plans = assign::plan(&tree, &outcome, layout).unwrap_or_default();
        let emitted: usize = plans.iter().map(|p| p.enc_indices.len()).sum();
        let distinct = outcome.encryptions.len();
        acc.enc_packets += plans.len() as f64;
        acc.encryptions += distinct as f64;
        if distinct > 0 {
            acc.duplication += (emitted - distinct) as f64 / distinct as f64;
        }
        let users = tree.user_count();
        if users > 0 {
            let total_needs: usize = tree
                .user_ids()
                .iter()
                .map(|&u| outcome.encryptions_for_user(u, degree).len())
                .sum();
            acc.per_user_need += total_needs as f64 / users as f64;
        }
    }
    let r = runs as f64;
    WorkloadPoint {
        enc_packets: acc.enc_packets / r,
        duplication: acc.duplication / r,
        encryptions: acc.encryptions / r,
        per_user_need: acc.per_user_need / r,
    }
}

/// Mean encryptions per rekey interval when the whole batch is processed
/// at once (the batch-rekeying cost, SIGCOMM axis).
pub fn encryption_cost_batch(
    n: u32,
    degree: u32,
    j: usize,
    l: usize,
    runs: usize,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0usize;
    for run in 0..runs {
        let mut kg = KeyGen::from_seed(seed ^ (run as u64).wrapping_mul(31));
        let (_tree, outcome) = one_batch(n, degree, j, l, &mut kg, &mut rng);
        total += outcome.encryptions.len();
    }
    total as f64 / runs as f64
}

/// Mean encryptions when every request is processed individually (one
/// rekey message per join/leave — the cost batching saves, SIGCOMM axis).
pub fn encryption_cost_individual(
    n: u32,
    degree: u32,
    j: usize,
    l: usize,
    runs: usize,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0usize;
    for run in 0..runs {
        let mut kg = KeyGen::from_seed(seed ^ (run as u64).wrapping_mul(131));
        let mut tree = KeyTree::balanced(n, degree, &mut kg);
        for member in uniform_leavers(n, l, &mut rng) {
            let outcome = tree.process_batch(&Batch::new(vec![], vec![member]), &mut kg);
            total += outcome.encryptions.len();
        }
        for i in 0..j as u32 {
            let key = kg.next_key();
            let outcome = tree.process_batch(&Batch::new(vec![(n + i, key)], vec![]), &mut kg);
            total += outcome.encryptions.len();
        }
    }
    total as f64 / runs as f64
}

/// Parameters of a transport experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Group size at the start of each message.
    pub n: u32,
    /// Key-tree degree.
    pub degree: u32,
    /// Joins per message.
    pub joins: usize,
    /// Leaves per message.
    pub leaves: usize,
    /// Server protocol configuration.
    pub protocol: ServerConfig,
    /// Network topology/loss configuration.
    pub net: NetworkConfig,
    /// Simulation knobs (deadline etc.).
    pub sim: SimConfig,
    /// Number of rekey messages to simulate.
    pub messages: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        let n = 4096u32;
        ExperimentParams {
            n,
            degree: 4,
            joins: 0,
            leaves: (n / 4) as usize,
            protocol: ServerConfig::default(),
            net: NetworkConfig::default(),
            sim: SimConfig::default(),
            messages: 25,
            seed: 42,
        }
    }
}

impl ExperimentParams {
    /// Multicast-only variant: unicast disabled so the bandwidth-overhead
    /// metric counts every packet needed for full recovery (Figures 8–10,
    /// 16–20).
    pub fn multicast_only(mut self) -> Self {
        self.protocol.max_multicast_rounds = usize::MAX;
        self
    }

    /// Scales `n`-dependent fields consistently.
    pub fn with_n(mut self, n: u32) -> Self {
        self.n = n;
        self.leaves = (n / 4) as usize;
        self.net.n_users = n as usize + self.joins;
        self
    }
}

/// A running sequence of rekey messages with persistent network and
/// controller state.
pub struct ExperimentRun {
    params: ExperimentParams,
    net: Network,
    controller: ServerController,
    rng: SmallRng,
    clock: f64,
    msg_seq: u64,
    users: Vec<SimUser>,
    scratch: TransportScratch,
    plan: PlanScratch,
}

impl ExperimentRun {
    /// Initialises the network and controller.
    pub fn new(params: ExperimentParams) -> Self {
        let mut net_cfg = params.net;
        net_cfg.n_users = params.n as usize + params.joins;
        net_cfg.seed = params.seed;
        let mut proto = params.protocol;
        proto.seed = params.seed ^ 0xABCD;
        ExperimentRun {
            net: Network::new(net_cfg),
            controller: ServerController::new(proto),
            rng: SmallRng::seed_from_u64(params.seed ^ 0x00C0_FFEE),
            clock: 0.0,
            msg_seq: 0,
            users: Vec::new(),
            scratch: TransportScratch::new(),
            plan: PlanScratch::new(),
            params,
        }
    }

    /// Current adaptive state (rho, numNACK).
    pub fn controller_state(&self) -> (f64, usize) {
        (self.controller.rho, self.controller.num_nack)
    }

    /// Simulates one rekey message; returns its report.
    pub fn step(&mut self) -> MessageReport {
        self.msg_seq += 1;
        let p = &self.params;
        let mut kg = KeyGen::from_seed(self.rng.gen());

        let (tree, outcome) = one_batch(p.n, p.degree, p.joins, p.leaves, &mut kg, &mut self.rng);
        #[expect(
            clippy::unreachable,
            reason = "holds at every figure's parameters (N inside the 16-bit wire ID range, the paper layout); ROADMAP 3 lifts the range and 4b turns what is left into RekeyError"
        )]
        let assignment = UkaAssignment::build_in(
            &tree,
            &outcome,
            self.msg_seq,
            &p.protocol.layout,
            &mut self.plan,
        )
        .unwrap_or_else(|e| unreachable!("marking outcome always seals against its own tree: {e}"));
        let usr_hint = p.protocol.layout.usr_packet_len(tree.height() as usize + 1);

        let num_nack_used = self.controller.num_nack;
        let mut session = self
            .controller
            .begin_message(assignment.packets.clone(), usr_hint);
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_message(
            &tree,
            &outcome,
            &assignment,
            session.blocks(),
            self.msg_seq,
            &p.protocol.layout,
        );

        // One SimUser per current member; network index = enumeration
        // order (loss classes persist per index across messages).
        let k = p.protocol.block_size;
        let mut members = tree.member_ids();
        members.sort_unstable();
        self.users.clear();
        self.users
            .extend(members.iter().enumerate().map(|(idx, &m)| {
                #[expect(
                    clippy::unreachable,
                    reason = "invariant: `member_ids` lists exactly the members the index resolves"
                )]
                let Some(uid) = tree.node_of_member(m) else {
                    unreachable!("member {m} listed by its own tree");
                };
                let true_block = assignment.packet_of_user(uid).map(|pi| (pi / k) as u8);
                SimUser::new(idx, uid, k, p.degree, true_block)
            }));

        let stats = run_message_transport_with(
            &mut self.net,
            &mut self.clock,
            &mut session,
            &mut self.users,
            &p.sim,
            &mut self.scratch,
        );

        self.controller
            .absorb_feedback(&session, stats.missed_deadline);

        MessageReport::of_message(
            self.msg_seq,
            &session,
            num_nack_used,
            assignment.stats.duplication_overhead(),
            stats,
        )
    }

    /// Runs the full message sequence.
    pub fn run(mut self) -> Vec<MessageReport> {
        (0..self.params.messages).map(|_| self.step()).collect()
    }
}

/// Convenience: run a whole experiment from parameters.
pub fn run_experiment(params: ExperimentParams) -> Vec<MessageReport> {
    ExperimentRun::new(params).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            n: 256,
            leaves: 64,
            messages: 3,
            net: NetworkConfig {
                n_users: 256,
                ..NetworkConfig::default()
            },
            ..ExperimentParams::default()
        }
    }

    #[test]
    fn workload_point_sane() {
        let p = workload_stats(256, 4, 0, 64, 3, 1, &Layout::DEFAULT);
        assert!(p.enc_packets >= 1.0);
        assert!(p.encryptions > 0.0);
        assert!((0.0..1.0).contains(&p.duplication));
        // Sparseness: a user needs about height-many encryptions, far
        // fewer than the message carries.
        assert!(p.per_user_need < 10.0);
        assert!(p.per_user_need >= 1.0);
    }

    #[test]
    fn workload_deterministic() {
        let a = workload_stats(128, 4, 8, 32, 2, 9, &Layout::DEFAULT);
        let b = workload_stats(128, 4, 8, 32, 2, 9, &Layout::DEFAULT);
        assert_eq!(a.enc_packets, b.enc_packets);
        assert_eq!(a.duplication, b.duplication);
    }

    #[test]
    fn batch_beats_individual() {
        let batch = encryption_cost_batch(256, 4, 0, 64, 2, 5);
        let individual = encryption_cost_individual(256, 4, 0, 64, 2, 5);
        assert!(
            batch < individual,
            "batch {batch} should cost less than individual {individual}"
        );
    }

    #[test]
    fn transport_run_serves_everyone() {
        let reports = run_experiment(tiny_params());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.unserved_users, 0, "msg {}: unserved users", r.msg_seq);
            assert!(r.bandwidth_overhead >= 1.0);
            let served: usize = r.rounds_histogram.iter().sum();
            assert_eq!(served, 256 - 64, "msg {}: all users counted", r.msg_seq);
        }
    }

    #[test]
    fn transport_run_deterministic() {
        let a = run_experiment(tiny_params());
        let b = run_experiment(tiny_params());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.nacks_round1, y.nacks_round1);
            assert_eq!(x.bandwidth_overhead, y.bandwidth_overhead);
            assert_eq!(x.rounds_histogram, y.rounds_histogram);
        }
    }

    #[test]
    fn adaptive_rho_reacts_to_nacks() {
        let mut params = tiny_params();
        params.messages = 10;
        params.protocol.initial_rho = 1.0;
        params.protocol.initial_num_nack = 2;
        let mut run = ExperimentRun::new(params);
        let first = run.step();
        // With rho = 1 and lossy links, NACKs exceed the tiny target, so
        // rho must rise for the next message.
        if first.nacks_round1 > 2 {
            let (rho, _) = run.controller_state();
            assert!(rho > 1.0, "rho should have increased, got {rho}");
        }
    }

    #[test]
    fn multicast_only_uses_no_unicast() {
        let params = tiny_params().multicast_only();
        let reports = run_experiment(params);
        for r in &reports {
            assert_eq!(r.usr_packets, 0);
            assert_eq!(r.unserved_users, 0);
        }
    }
}
