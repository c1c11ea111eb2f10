//! The key server: tree ownership, batch processing, message production.

use std::sync::Arc;

use keytree::{Batch, CompactionPolicy, KeyTree, MarkOutcome, MarkScratch, MemberId};
use rekeymsg::{build_usr_packet, PlanScratch, UkaAssignment, UsrPacket};
use rekeyproto::{ServerConfig, ServerController, ServerSession};
use wirecrypto::{KeyGen, SymKey};

use crate::metrics::MessageReport;
use crate::transport::TransportStats;

/// Server construction options.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Key-tree degree `d`.
    pub degree: u32,
    /// Transport protocol configuration.
    pub protocol: ServerConfig,
    /// Seed of the key generator.
    pub keygen_seed: u64,
    /// Amortized tail-compaction policy applied after each batch. Off by
    /// default: the paper's Poisson workloads never skew the tree, and a
    /// disabled policy is byte-identical to the pre-compaction pipeline.
    pub compaction: CompactionPolicy,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            degree: 4,
            protocol: ServerConfig::default(),
            keygen_seed: 0x6B65_7973, // "keys"
            compaction: CompactionPolicy::DISABLED,
        }
    }
}

/// Everything produced for one rekey message.
#[derive(Debug)]
pub struct RekeyArtifacts {
    /// Full message sequence number (wire ID is the low 6 bits).
    pub msg_seq: u64,
    /// The marking-algorithm output, shared with the server's own record
    /// (for USR-packet derivation) instead of cloned per message.
    pub outcome: Arc<MarkOutcome>,
    /// The UKA assignment (sealed ENC packets + bookkeeping).
    pub assignment: UkaAssignment,
    /// The transport session, ready to [`ServerSession::start`].
    pub session: ServerSession,
}

/// The group key server: registration back end, key management, and rekey
/// transport front end.
#[derive(Debug)]
pub struct KeyServer {
    tree: KeyTree,
    keygen: KeyGen,
    controller: ServerController,
    msg_seq: u64,
    last_outcome: Option<Arc<MarkOutcome>>,
    scratch: MarkScratch,
    plan_scratch: PlanScratch,
    compaction: CompactionPolicy,
}

impl KeyServer {
    /// An empty group.
    pub fn new(options: ServerOptions) -> Self {
        KeyServer {
            tree: KeyTree::new(options.degree),
            keygen: KeyGen::from_seed(options.keygen_seed),
            controller: ServerController::new(options.protocol),
            msg_seq: 0,
            last_outcome: None,
            scratch: MarkScratch::new(),
            plan_scratch: PlanScratch::new(),
            compaction: options.compaction,
        }
    }

    /// A pre-populated full balanced group with members `0..n` — the
    /// paper's experimental starting point.
    pub fn bootstrap(n: u32, options: ServerOptions) -> Self {
        let mut server = KeyServer::new(options);
        server.tree = KeyTree::balanced(n, options.degree, &mut server.keygen);
        server
    }

    /// Replaces the group with a full balanced tree of members `0..n` keyed
    /// from `keygen`, keeping the controller and the message sequence: the
    /// figure engine's start of every message (DESIGN.md "Rekey message
    /// sequences"). The old tree goes first, so two are never held.
    pub(crate) fn restart(&mut self, n: u32, keygen: &mut KeyGen) {
        self.last_outcome = None;
        self.tree = KeyTree::new(self.tree.degree());
        self.tree = KeyTree::balanced(n, self.tree.degree(), keygen);
    }

    /// The key tree (read-only).
    pub fn tree(&self) -> &KeyTree {
        &self.tree
    }

    /// The transport controller (adaptive `rho`/`numNACK` state).
    pub fn controller(&self) -> &ServerController {
        &self.controller
    }

    /// Current full message sequence number (next message gets this + 1).
    pub fn msg_seq(&self) -> u64 {
        self.msg_seq
    }

    /// Mints an individual key for a joining member (the registration
    /// component's job; see `wirecrypto::registration` for the handshake
    /// that would deliver it).
    pub fn mint_individual_key(&mut self) -> SymKey {
        self.keygen.next_key()
    }

    /// Typical USR packet length for the current tree (the `3 + 20h`
    /// bound): what the session counts per USR packet it unicasts in
    /// `ServerStats::usr_bytes`.
    pub fn usr_len_hint(&self) -> usize {
        let layout = self.controller.config().layout;
        layout.usr_packet_len(self.tree.height() as usize + 1)
    }

    /// Processes one batch: marks the tree and mints the fresh keys, runs
    /// UKA over the outcome, and opens a transport session at the
    /// controller's current proactivity factor.
    ///
    /// # Panics
    ///
    /// As [`KeyTree::process_batch`] for a malformed batch, and when the
    /// message cannot be put on the wire: a node ID of the updated tree
    /// exceeds the 16-bit wire range (`AssignError::IdOutOfRange` — the
    /// group has outgrown the format, about 49k users at `d = 4`), or one
    /// user's need-set exceeds a packet (`AssignError::PacketCapacity` —
    /// the layout is too small for this tree height). The tree has already
    /// been updated when either fires.
    pub fn rekey(&mut self, batch: Batch) -> RekeyArtifacts {
        let _span = obs::span("rekey.batch");
        obs::counter_add("rekey.batches", 1);
        self.msg_seq += 1;
        let msg_seq = self.msg_seq;
        #[cfg(feature = "sanitize")]
        let tree_before = self.tree.clone();
        #[cfg(feature = "sanitize")]
        let batch_copy = batch.clone();
        let outcome = self.tree.process_batch_compacting_in(
            batch,
            &mut self.keygen,
            &mut self.scratch,
            &self.compaction,
        );
        // Flight-recorder marker: the moment the new key set became live —
        // the interval boundary visible in a Perfetto trace.
        obs::trace::instant("rekey.install");
        #[expect(
            clippy::panic,
            reason = "the documented `# Panics` of `rekey` (wire ID range, packet capacity); ROADMAP 4b: becomes RekeyError"
        )]
        let assignment = UkaAssignment::build_in(
            &self.tree,
            &outcome,
            msg_seq,
            &self.controller.config().layout,
            &mut self.plan_scratch,
        )
        .unwrap_or_else(|e| panic!("rekey message {msg_seq} cannot be built: {e}"));
        let session = self
            .controller
            .begin_message(assignment.packets.clone(), self.usr_len_hint());
        #[cfg(feature = "sanitize")]
        {
            crate::sanitize::check_batch(&tree_before, &self.tree, &batch_copy, &outcome);
            crate::sanitize::check_message(
                &self.tree,
                &outcome,
                &assignment,
                session.blocks(),
                msg_seq,
            );
        }
        let outcome = Arc::new(outcome);
        self.last_outcome = Some(Arc::clone(&outcome));
        RekeyArtifacts {
            msg_seq,
            outcome,
            assignment,
            session,
        }
    }

    /// Feeds a delivered message back into the controller: its round-one
    /// NACKs into `AdjustRho`, its deadline misses into `numNACK`.
    pub(crate) fn absorb(&mut self, session: &ServerSession, missed_deadline: usize) {
        self.controller.absorb_feedback(session, missed_deadline);
    }

    /// The report of one delivered message: `artifacts` as
    /// [`KeyServer::rekey`] made them, once their session has run, and the
    /// transport loop's `stats`. Made before [`KeyServer::absorb`], so its
    /// `num_nack` is the target that was in force while it was sent.
    pub(crate) fn report(
        &self,
        artifacts: &RekeyArtifacts,
        stats: TransportStats,
    ) -> MessageReport {
        let session = &artifacts.session;
        MessageReport {
            msg_seq: artifacts.msg_seq,
            enc_packets: session.real_enc_count(),
            blocks: session.blocks().block_count(),
            rho: session.rho(),
            num_nack: self.controller.num_nack,
            nacks_round1: session.first_round_nack_count(),
            bandwidth_overhead: session.bandwidth_overhead(),
            server_rounds: session.stats.multicast_rounds,
            rounds_histogram: stats.rounds_histogram,
            unserved_users: stats.unserved,
            missed_deadline: stats.missed_deadline,
            usr_packets: session.stats.usr_sent,
            usr_bytes: session.stats.usr_bytes,
            duplication_overhead: artifacts.assignment.stats.duplication_overhead(),
            encoding_units: rse::cost::total_encoding_units(
                session.blocks().k(),
                &[session.stats.parity_multicast as u64],
            ),
        }
    }

    /// Builds the USR packet for `member` against the latest rekey
    /// message.
    pub fn usr_packet(&self, member: MemberId) -> Option<UsrPacket> {
        let outcome = self.last_outcome.as_ref()?;
        build_usr_packet(&self.tree, outcome, member, self.msg_seq)
    }

    /// Serialises the server's durable state — the key tree and message
    /// sequence — for crash recovery. Transport state (`rho`, `numNACK`)
    /// is soft and re-adapts within a few messages, so it is not stored.
    ///
    /// Snapshots contain key material; encrypt them at rest.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = self.msg_seq.to_le_bytes().to_vec();
        out.extend_from_slice(&self.tree.snapshot());
        out
    }

    /// Restores a server from [`KeyServer::snapshot`] bytes. The keygen is
    /// reseeded (never reuse a key stream after a restart) and the
    /// controller restarts from the configured initial state.
    pub fn restore(
        bytes: &[u8],
        options: ServerOptions,
        fresh_keygen_seed: u64,
    ) -> Result<Self, keytree::SnapshotError> {
        let Some(head) = bytes.first_chunk::<8>() else {
            return Err(keytree::SnapshotError::Truncated);
        };
        let msg_seq = u64::from_le_bytes(*head);
        Ok(KeyServer {
            tree: KeyTree::restore(&bytes[8..])?,
            keygen: KeyGen::from_seed(fresh_keygen_seed),
            msg_seq,
            ..KeyServer::new(options)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_builds_full_group() {
        let server = KeyServer::bootstrap(256, ServerOptions::default());
        assert_eq!(server.tree().user_count(), 256);
        assert!(server.tree().group_key().is_some());
    }

    #[test]
    fn rekey_produces_consistent_artifacts() {
        let mut server = KeyServer::bootstrap(64, ServerOptions::default());
        let a = server.rekey(Batch::new(vec![], vec![1, 2, 3]));
        assert_eq!(a.msg_seq, 1);
        assert_eq!(
            a.assignment.stats.distinct_encryptions,
            a.outcome.encryptions.len()
        );
        assert_eq!(server.tree().user_count(), 61);
        // Session sized to the assignment.
        assert_eq!(a.session.real_enc_count(), a.assignment.stats.packets);
    }

    #[test]
    fn msg_seq_monotone() {
        let mut server = KeyServer::bootstrap(16, ServerOptions::default());
        let key = server.mint_individual_key();
        let a1 = server.rekey(Batch::new(vec![], vec![0]));
        let a2 = server.rekey(Batch::new(vec![(100, key)], vec![]));
        assert_eq!(a1.msg_seq, 1);
        assert_eq!(a2.msg_seq, 2);
    }

    #[test]
    fn usr_packet_available_after_rekey() {
        let mut server = KeyServer::bootstrap(64, ServerOptions::default());
        assert!(server.usr_packet(5).is_none(), "no message yet");
        server.rekey(Batch::new(vec![], vec![1]));
        let usr = server.usr_packet(5).expect("member 5 remains");
        assert!(!usr.sealed.is_empty());
        assert!(server.usr_packet(1).is_none(), "departed member");
    }

    #[test]
    fn snapshot_restore_preserves_group_state() {
        let mut server = KeyServer::bootstrap(64, ServerOptions::default());
        server.rekey(Batch::new(vec![], vec![5, 6, 7]));
        let snap = server.snapshot();

        let mut restored = KeyServer::restore(&snap, ServerOptions::default(), 0xF4E5).unwrap();
        assert_eq!(restored.msg_seq(), server.msg_seq());
        assert_eq!(restored.tree().group_key(), server.tree().group_key());
        assert_eq!(restored.tree().user_count(), 61);
        // The restored server keeps rekeying.
        let a = restored.rekey(Batch::new(vec![], vec![10]));
        assert_eq!(a.msg_seq, server.msg_seq() + 1);
        assert!(a.outcome.group_key_changed());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(KeyServer::restore(&[1, 2, 3], ServerOptions::default(), 1).is_err());
        let mut bad = vec![0u8; 8];
        bad.extend_from_slice(b"NOPE");
        assert!(KeyServer::restore(&bad, ServerOptions::default(), 1).is_err());
    }

    #[test]
    fn usr_len_hint_matches_bound() {
        let server = KeyServer::bootstrap(256, ServerOptions::default());
        // Height 4 tree: path has 5 nodes, so bound is 3 + 20 * 5.
        assert_eq!(server.usr_len_hint(), 3 + 20 * 5);
    }
}
