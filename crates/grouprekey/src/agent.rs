//! The user-side key store. An agent holds its path and nothing else — per
//! level, root first, the node ID and its key if held — so a key off the
//! path is never stored and nothing is pruned.

use keytree::{ident, MemberId, NodeId};
use rekeymsg::{seal_context, EncFrame, UsrPacket};
use wirecrypto::{SealedKey, SymKey};

/// Why applying a rekey packet failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The user cannot rederive a current ID from `maxKID` — it is no
    /// longer in the group.
    NotInGroup,
    /// An encryption on the path could not be unsealed with any key the
    /// agent holds (corruption, or the agent's state is stale).
    MissingKey {
        /// The encrypting node whose key the agent lacks.
        node: NodeId,
    },
    /// A sealed blob failed authentication.
    BadSeal {
        /// The encrypting node of the offending blob.
        node: NodeId,
    },
    /// A USR packet carried a different number of encryptions than the
    /// agent's path shape admits.
    UsrShapeMismatch,
}

impl core::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ApplyError::NotInGroup => write!(f, "user is no longer in the group"),
            ApplyError::MissingKey { node } => write!(f, "no key held for node {node}"),
            ApplyError::BadSeal { node } => write!(f, "seal verification failed at node {node}"),
            ApplyError::UsrShapeMismatch => write!(f, "USR packet shape does not match path"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// A user's view of the key tree: its individual key plus the path keys it
/// currently holds, updated by applying rekey packets.
#[derive(Debug, Clone)]
pub struct UserAgent {
    member: MemberId,
    individual: SymKey,
    degree: u32,
    /// The path, root first: `path[l]` is the level-`l` node and the key
    /// held for it. The last slot is the u-node, holding the individual key.
    path: Vec<(NodeId, Option<SymKey>)>,
}

impl UserAgent {
    /// Creates an agent for a member admitted at u-node `node_id` with the
    /// given individual key.
    pub fn new(member: MemberId, node_id: NodeId, individual: SymKey, degree: u32) -> Self {
        let mut path = Vec::with_capacity(ident::level(node_id, degree) as usize + 1);
        path.push((0, None));
        let mut agent = UserAgent {
            member,
            individual,
            degree,
            path,
        };
        agent.relocate(node_id);
        agent
    }

    /// Creates an agent that already holds its full current path (as after
    /// a successful registration + initial rekey). Keys for nodes off the
    /// path are not stored.
    pub fn with_path(
        member: MemberId,
        node_id: NodeId,
        individual: SymKey,
        degree: u32,
        path_keys: impl IntoIterator<Item = (NodeId, SymKey)>,
    ) -> Self {
        let mut agent = UserAgent::new(member, node_id, individual, degree);
        for (id, k) in path_keys {
            if let Some(slot) = agent.path.iter_mut().find(|slot| slot.0 == id) {
                slot.1 = Some(k);
            }
        }
        agent
    }

    /// The member identity.
    pub fn member(&self) -> MemberId {
        self.member
    }

    /// The u-node ID the agent believes it occupies.
    pub fn node_id(&self) -> NodeId {
        self.path.last().map_or(0, |slot| slot.0)
    }

    /// The group key, if held.
    pub fn group_key(&self) -> Option<SymKey> {
        self.path.first().and_then(|slot| slot.1)
    }

    /// The key held for a node, if any.
    pub fn key_of(&self, node: NodeId) -> Option<SymKey> {
        self.path.iter().find(|slot| slot.0 == node)?.1
    }

    /// Number of keys currently held (1 individual + path keys).
    pub fn keys_held(&self) -> usize {
        self.path.iter().filter(|slot| slot.1.is_some()).count()
    }

    /// Applies the user's specific ENC packet from rekey message
    /// `msg_seq`, read off its frame: rederives the current ID from
    /// `maxKID`, then walks the path leaf-to-root unsealing every
    /// encryption addressed to it — the only ones copied out of the frame.
    // xcheck: no_alloc
    pub fn apply_enc(&mut self, pkt: &EncFrame, msg_seq: u64) -> Result<(), ApplyError> {
        let max_kid = pkt.header().max_kid;
        let new_id = ident::derive_current_id(self.node_id(), max_kid as NodeId, self.degree)
            .ok_or(ApplyError::NotInGroup)?;
        self.relocate(new_id);

        for level in (0..self.path.len()).rev() {
            let (c, kek) = self.path[level];
            let c16 = u16::try_from(c).map_err(|_| ApplyError::MissingKey { node: c })?;
            let Some(sealed) = pkt.entry(c16) else {
                continue;
            };
            let kek = kek.ok_or(ApplyError::MissingKey { node: c })?;
            let Some(parent) = level.checked_sub(1) else {
                // Entries never encrypt above the root; tolerate a
                // malformed packet rather than panic on hostile input.
                continue;
            };
            self.path[parent].1 = Some(unseal(&sealed, &kek, msg_seq, c)?);
        }
        Ok(())
    }

    /// Applies a USR packet: the sealed keys arrive in increasing
    /// encryption-ID order (root-side first) without explicit IDs; they
    /// correspond to the topmost `t` non-root path nodes, levels `1..=t`.
    // xcheck: no_alloc
    pub fn apply_usr(&mut self, pkt: &UsrPacket, msg_seq: u64) -> Result<(), ApplyError> {
        self.relocate(pkt.new_user_id as NodeId);
        if pkt.sealed.len() >= self.path.len() {
            return Err(ApplyError::UsrShapeMismatch);
        }
        // Unseal bottom-up: the deepest encrypting key is one the agent
        // already holds (an unchanged auxiliary key or its individual key).
        for (parent, sealed) in pkt.sealed.iter().enumerate().rev() {
            let (c, kek) = self.path[parent + 1];
            let kek = kek.ok_or(ApplyError::MissingKey { node: c })?;
            self.path[parent].1 = Some(unseal(sealed, &kek, msg_seq, c)?);
        }
        Ok(())
    }

    /// Accepts a server-announced compaction relocation. Unlike split
    /// moves — which [`UserAgent::apply_enc`] rederives from `maxKID`
    /// alone (Theorem 4.2) — compaction moves members *downward*, outside
    /// the rederivation window, so the new ID travels explicitly (the USR
    /// `newUserID` field, or this out-of-band call in the simulator). The
    /// agent keeps its individual key and bootstraps the new path from it.
    pub fn accept_relocation(&mut self, new_id: NodeId) {
        self.relocate(new_id);
    }

    /// Moves the agent to a (possibly) new u-node ID, re-keying its
    /// individual key: the ancestors both paths share keep their keys, the
    /// old u-node and the other levels hold none. Only growing the path past
    /// its capacity allocates.
    fn relocate(&mut self, new_id: NodeId) {
        let d = self.degree;
        if self.node_id() != new_id {
            if let Some(leaf) = self.path.last_mut() {
                leaf.1 = None;
            }
            self.path
                .resize(ident::level(new_id, d) as usize + 1, (0, None));
            // Appended slots read node 0, which names only the root: the
            // walk stops at the deepest shared ancestor, the root at worst.
            let up = self.path.iter_mut().rev().zip(ident::path_iter(new_id, d));
            for (slot, id) in up.take_while(|(slot, id)| slot.0 != *id) {
                *slot = (id, None);
            }
        }
        if let Some(leaf) = self.path.last_mut() {
            leaf.1 = Some(self.individual);
        }
    }
}

/// Unseals the key that `sealed`, found at encrypting node `c` of message
/// `msg_seq`, carries under `kek`.
fn unseal(sealed: &SealedKey, kek: &SymKey, msg_seq: u64, c: NodeId) -> Result<SymKey, ApplyError> {
    obs::counter_add("agent.unseals", 1);
    sealed
        .unseal(kek, seal_context(msg_seq, c))
        .map_err(|_| ApplyError::BadSeal { node: c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use keytree::{Batch, KeyTree};
    use rekeymsg::{build_usr_packet, EncPacket, Layout, UkaAssignment};
    use wirecrypto::KeyGen;

    /// Builds a tree, runs a batch, and returns everything a test needs.
    fn scenario(
        n: u32,
        leaves: Vec<MemberId>,
        joins: u32,
    ) -> (KeyTree, KeyTree, keytree::MarkOutcome, UkaAssignment) {
        let mut kg = KeyGen::from_seed(3);
        let mut tree = KeyTree::balanced(n, 4, &mut kg);
        let before = tree.clone();
        let join_list: Vec<(MemberId, SymKey)> =
            (0..joins).map(|i| (n + i, kg.next_key())).collect();
        let outcome = tree.process_batch(&Batch::new(join_list, leaves), &mut kg);
        let assignment = UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
        (before, tree, outcome, assignment)
    }

    /// The packet as the frame a receiver would hold.
    fn frame(pkt: &EncPacket) -> EncFrame {
        EncFrame::new(pkt.emit().into(), &Layout::DEFAULT).unwrap()
    }

    fn agent_for(tree: &KeyTree, member: MemberId, degree: u32) -> UserAgent {
        let node = tree.node_of_member(member).unwrap();
        let path = tree.keys_for_member(member).unwrap();
        let individual = path[0].1;
        UserAgent::with_path(member, node, individual, degree, path)
    }

    #[test]
    fn surviving_user_obtains_new_group_key_from_enc() {
        let (before, after, _outcome, assignment) = scenario(64, vec![3, 9, 41], 0);
        for member in [0u32, 10, 63] {
            let mut agent = agent_for(&before, member, 4);
            let uid = after.node_of_member(member).unwrap();
            let pi = assignment.packet_of_user(uid).expect("served user");
            agent
                .apply_enc(&frame(&assignment.packets[pi]), 1)
                .unwrap_or_else(|e| panic!("member {member}: {e}"));
            assert_eq!(agent.group_key(), after.group_key());
        }
    }

    #[test]
    fn usr_packet_equivalent_to_enc_packet() {
        let (before, after, outcome, assignment) = scenario(64, vec![3, 9, 41], 0);
        let member = 20u32;
        let uid = after.node_of_member(member).unwrap();

        let mut via_enc = agent_for(&before, member, 4);
        let pi = assignment.packet_of_user(uid).expect("served user");
        via_enc
            .apply_enc(&frame(&assignment.packets[pi]), 1)
            .unwrap();

        let mut via_usr = agent_for(&before, member, 4);
        let usr = build_usr_packet(&after, &outcome, member, 1).unwrap();
        via_usr.apply_usr(&usr, 1).unwrap();

        assert_eq!(via_enc.group_key(), via_usr.group_key());
        assert_eq!(via_enc.group_key(), after.group_key());
        assert_eq!(via_enc.keys_held(), via_usr.keys_held());
    }

    #[test]
    fn newly_joined_user_bootstraps_from_individual_key() {
        let (_before, after, _outcome, assignment) = scenario(64, vec![], 5);
        let member = 66u32; // one of the joiners
        let uid = after.node_of_member(member).unwrap();
        let individual = after.key_of(uid).unwrap();
        let mut agent = UserAgent::new(member, uid, individual, 4);
        let pi = assignment.packet_of_user(uid).expect("served user");
        agent.apply_enc(&frame(&assignment.packets[pi]), 1).unwrap();
        assert_eq!(agent.group_key(), after.group_key());
    }

    #[test]
    fn moved_user_relocates_and_recovers() {
        // Full 16-user tree + 1 join forces a split; the user at node 5
        // moves to 21.
        let mut kg = KeyGen::from_seed(8);
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let moved = tree.member_at(5).unwrap();
        let outcome = tree.process_batch(&Batch::new(vec![(100, kg.next_key())], vec![]), &mut kg);
        assert_eq!(outcome.moves.len(), 1);
        let assignment = UkaAssignment::build(&tree, &outcome, 2, &Layout::DEFAULT).unwrap();

        let mut agent = agent_for(&before, moved, 4);
        assert_eq!(agent.node_id(), 5);
        let uid = tree.node_of_member(moved).unwrap();
        let pi = assignment.packet_of_user(uid).expect("served user");
        agent.apply_enc(&frame(&assignment.packets[pi]), 2).unwrap();
        assert_eq!(agent.node_id(), 21);
        assert_eq!(agent.group_key(), tree.group_key());
    }

    #[test]
    fn departed_user_cannot_apply() {
        let (before, _after, _outcome, assignment) = scenario(64, vec![7], 0);
        let mut agent = agent_for(&before, 7, 4);
        // Its old packet region now serves the remaining users; applying
        // any packet must fail (bad seal or missing key), never silently
        // yield the new group key.
        let old_group_key = agent.group_key();
        for pkt in &assignment.packets {
            let _ = agent.apply_enc(&frame(pkt), 1);
        }
        assert_eq!(agent.group_key(), old_group_key, "forward secrecy violated");
    }

    #[test]
    fn wrong_msg_seq_fails_seal_check() {
        let (before, after, _outcome, assignment) = scenario(64, vec![3], 0);
        let mut agent = agent_for(&before, 0, 4);
        let uid = after.node_of_member(0).unwrap();
        let pi = assignment.packet_of_user(uid).expect("served user");
        let err = agent
            .apply_enc(&frame(&assignment.packets[pi]), 99)
            .unwrap_err();
        assert!(matches!(err, ApplyError::BadSeal { .. }));
    }

    #[test]
    fn holds_exactly_its_path() {
        let (before, after, _outcome, assignment) = scenario(64, vec![3], 0);
        let mut agent = agent_for(&before, 0, 4);
        let uid = after.node_of_member(0).unwrap();
        let pi = assignment.packet_of_user(uid).expect("served user");
        agent.apply_enc(&frame(&assignment.packets[pi]), 1).unwrap();
        // Height-3 tree: path holds 4 keys (leaf + 2 aux + root).
        assert_eq!(agent.keys_held(), 4);
        // A key offered for a node off the path is not stored.
        let off_path = UserAgent::with_path(
            0,
            uid,
            after.key_of(uid).unwrap(),
            4,
            [(2, SymKey::from_bytes([9; 16]))],
        );
        assert_eq!((off_path.keys_held(), off_path.key_of(2)), (1, None));
    }

    #[test]
    fn usr_shape_mismatch_rejected() {
        let (_before, after, outcome, _assignment) = scenario(64, vec![3], 0);
        let member = 0u32;
        let uid = after.node_of_member(member).unwrap();
        let individual = after.key_of(uid).unwrap();
        let mut agent = UserAgent::new(member, uid, individual, 4);
        let mut usr = build_usr_packet(&after, &outcome, member, 1).unwrap();
        // Inflate beyond the path length.
        while usr.sealed.len() <= 4 {
            usr.sealed.push(usr.sealed[0]);
        }
        assert_eq!(agent.apply_usr(&usr, 1), Err(ApplyError::UsrShapeMismatch));
    }
}

#[cfg(test)]
mod map_reference;
