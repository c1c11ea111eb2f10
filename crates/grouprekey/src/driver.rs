//! Byte-faithful end-to-end driver.
//!
//! [`Group`] owns a [`KeyServer`], one [`UserAgent`] per member, and a
//! simulated lossy [`Network`]. Every packet of a rekey message is emitted
//! to wire bytes, individually subjected to link loss, parsed back at each
//! receiving user, FEC-decoded when needed, and cryptographically applied
//! (unsealing real encryptions) — the full production path, driven by the
//! loop in [`crate::transport`] through its byte model. Use this for
//! correctness at realistic-but-moderate group sizes; the `sim` module
//! scales the same loop to the paper's 4096–16384-user experiments.
//!
//! [`Group`]: crate::driver::Group
//! [`Network`]: netsim::Network

use std::collections::BTreeMap;

use keytree::{Batch, MemberId};
use netsim::{Network, NetworkConfig};
use rekeymsg::Packet;
use rekeyproto::{UserOutcome, UserSession};

use crate::agent::{install_lanes, InstallScratch, UserAgent};
use crate::metrics::MessageReport;
use crate::server::{KeyServer, ServerOptions};
use crate::transport::{self, ByteReceiver, SimConfig, TransportScratch};

/// Unwraps a driver invariant, panicking with context on violation.
/// Centralises the "driver misuse" panics documented on [`Group::rekey`].
fn require<T>(value: Option<T>, what: &str) -> T {
    match value {
        Some(v) => v,
        #[expect(
            clippy::panic,
            reason = "the documented `# Panics` of `Group::rekey` (driver misuse); ROADMAP 4b: becomes RekeyError"
        )]
        None => panic!("driver invariant violated: {what}"),
    }
}

/// A complete secure group: server, members, network.
pub struct Group {
    /// The key server.
    pub server: KeyServer,
    /// Live member agents. Ordered so that every iteration over members
    /// (loss draws, outcome application) is deterministic across runs.
    pub agents: BTreeMap<MemberId, UserAgent>,
    net: Network,
    net_index: BTreeMap<MemberId, usize>,
    free_indices: Vec<usize>,
    clock: f64,
    /// The transport loop's buffers, reused across rekeys.
    scratch: TransportScratch,
    /// The installer's frame indexes, reused across rekeys.
    install: InstallScratch,
    /// Cap on delivery rounds per message (safety valve).
    pub max_rounds: usize,
}

impl Group {
    /// Builds a group of members `0..n` whose agents already hold their
    /// initial key paths (as after registration + initial distribution).
    pub fn new(n: u32, options: ServerOptions, mut net_cfg: NetworkConfig) -> Self {
        let server = KeyServer::bootstrap(n, options);
        net_cfg.n_users = net_cfg.n_users.max(n as usize);
        let net = Network::new(net_cfg);

        let mut agents = BTreeMap::new();
        let mut net_index = BTreeMap::new();
        for m in 0..n {
            let tree = server.tree();
            let node = require(tree.node_of_member(m), "bootstrap member has a node");
            let path = require(tree.keys_for_member(m), "bootstrap member has a path");
            let individual = path[0].1;
            agents.insert(
                m,
                UserAgent::with_path(m, node, individual, options.degree, path),
            );
            net_index.insert(m, m as usize);
        }
        let free_indices = (n as usize..net_cfg.n_users).rev().collect();
        Group {
            server,
            agents,
            net,
            net_index,
            free_indices,
            clock: 0.0,
            scratch: TransportScratch::new(),
            install: InstallScratch::new(),
            max_rounds: 64,
        }
    }

    /// The group key every current member should hold.
    pub fn group_key(&self) -> Option<wirecrypto::SymKey> {
        self.server.tree().group_key()
    }

    /// True when every live agent holds the server's current group key.
    pub fn all_agents_synchronized(&self) -> bool {
        let gk = self.group_key();
        self.agents.values().all(|a| a.group_key() == gk)
    }

    /// Admits a member (mints its individual key); the member enters the
    /// group at the next rekey that includes it in the batch.
    pub fn mint_join(&mut self, member: MemberId) -> (MemberId, wirecrypto::SymKey) {
        (member, self.server.mint_individual_key())
    }

    /// Admits a member via the full challenge-response registration
    /// handshake (`wirecrypto::registration`): mutual authentication
    /// against `credential`, individual key sealed in transit. Returns the
    /// join entry for the next batch, or the handshake failure.
    pub fn register_join(
        &mut self,
        member: MemberId,
        credential: wirecrypto::SymKey,
        nonce_seed: u64,
    ) -> Result<(MemberId, wirecrypto::SymKey), wirecrypto::registration::RegistrationError> {
        use wirecrypto::registration::{RegistrarSession, UserRegistration};
        let (mut user, join_req) = UserRegistration::start(credential, nonce_seed);
        let (registrar, challenge) =
            RegistrarSession::challenge(credential, join_req, nonce_seed ^ 0x5EED);
        let proof = user.prove(challenge);
        let mut keygen_proxy =
            wirecrypto::KeyGen::from_seed(nonce_seed ^ self.server.msg_seq() ^ 0xA11C_E5ED);
        let (grant, server_copy) = registrar.grant(proof, member, &mut keygen_proxy)?;
        let (granted_id, user_copy) = user.accept(grant)?;
        debug_assert_eq!(granted_id, member);
        debug_assert_eq!(user_copy, server_copy);
        Ok((member, server_copy))
    }

    /// Processes a batch and delivers the rekey message end-to-end over
    /// the lossy network. Returns the delivery report.
    ///
    /// # Panics
    ///
    /// Panics if the network has no free receiver link for a joiner, or if
    /// delivery fails to complete within `max_rounds` (both indicate
    /// driver misuse).
    pub fn rekey(&mut self, batch: Batch) -> MessageReport {
        let joins = batch.joins.clone();
        let mut artifacts = self.server.rekey(batch);
        let msg_seq = artifacts.msg_seq;
        let degree = self.server.tree().degree();
        let layout = artifacts.session.blocks().layout();

        // Compaction relocations are announced out of band (the USR
        // `newUserID` field carries them on the wire): a relocated member
        // moves *down*, outside the maxKID rederivation window, so its
        // agent must learn the new ID before it can place this message's
        // ENC entries. Its session below starts from the new ID for the
        // same reason.
        for rl in &artifacts.outcome.relocations {
            if let Some(agent) = self.agents.get_mut(&rl.member) {
                agent.accept_relocation(rl.new_id);
            }
        }

        // Membership bookkeeping.
        for m in &artifacts.outcome.departed {
            self.agents.remove(m);
            if let Some(idx) = self.net_index.remove(m) {
                self.free_indices.push(idx);
            }
        }
        for (m, key) in &joins {
            let node = require(
                self.server.tree().node_of_member(*m),
                "joined member placed by the batch",
            );
            self.agents
                .insert(*m, UserAgent::new(*m, node, *key, degree));
            let idx = require(
                self.free_indices.pop(),
                "network has a free receiver link for the joiner",
            );
            self.net_index.insert(*m, idx);
        }

        // One byte-model receiver per member, in member order, so the
        // loop's loss draws and NACK order are deterministic. A session
        // starts from the ID its agent holds: the one from before the batch,
        // the relocation just announced, or the one a joiner was granted.
        let k = self.server.controller().config().block_size;
        assert_eq!(
            self.agents.len(),
            self.net_index.len(),
            "driver invariant violated: one receiver link per live member"
        );
        let mut receivers: Vec<ByteReceiver> = (self.agents.iter())
            .zip(&self.net_index)
            .map(|((m, agent), (linked, &link))| {
                let session = UserSession::new(agent.node_id(), degree, k, layout)
                    .expect_msg_id((msg_seq & 0x3f) as u8);
                let node = require(
                    (self.server.tree().node_of_member(*m)).filter(|_| m == linked),
                    "live member has a node and the next receiver link is its own",
                );
                ByteReceiver::new(session, link, node)
            })
            .collect();

        let server = &self.server;
        let stats = transport::run(
            &mut self.net,
            &mut self.clock,
            &mut artifacts.session,
            &mut receivers,
            // The byte driver sets no delivery deadline.
            &SimConfig {
                deadline_rounds: usize::MAX,
                max_total_rounds: self.max_rounds,
            },
            &mut self.scratch,
            |node| {
                let member = server.tree().member_at(node);
                Packet::Usr(require(
                    member.and_then(|m| server.usr_packet(m)),
                    "usr packet for live member",
                ))
            },
        );
        assert!(
            stats.total_rounds <= self.max_rounds,
            "delivery did not complete within {} rounds",
            self.max_rounds
        );

        // Apply outcomes cryptographically, checking the Pending rule as the
        // installer takes each job: every member's own path unsealed with its
        // own keys, eight chains side by side, each shared column read once.
        let apply = obs::span("agent.apply");
        let outcomes = receivers.iter().map(|r| r.session.outcome());
        let jobs = (self.agents.values_mut().zip(outcomes)).inspect(|(agent, outcome)| {
            if matches!(outcome, UserOutcome::Pending) {
                // Only possible when the member needed nothing.
                assert!(
                    artifacts
                        .outcome
                        .encryptions_for_user(agent.node_id(), degree)
                        .is_empty(),
                    "member {} pending but needed encryptions",
                    agent.member()
                );
            }
        });
        #[expect(
            clippy::panic,
            reason = "the simulated network delivers the server's own bytes, so a failed apply is a bug here; ROADMAP 4b: becomes RekeyError"
        )]
        if let Err((m, e)) = install_lanes(jobs, msg_seq, &mut self.install) {
            panic!("member {m}: apply: {e}");
        }
        drop(apply);

        // No `self.server.absorb` here: adding it is ROADMAP 2b's switch.
        self.server.report(&artifacts, stats)
    }
}
