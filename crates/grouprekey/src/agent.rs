//! The user-side key store. An agent holds its path and nothing else — its
//! individual key and, per ancestor, root first, a node ID and a key, held or
//! not — so a key off the path is never stored and nothing is pruned.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use keytree::{ident, MemberId, NodeId};
use rekeymsg::{seal_context, ColumnIndex, EncFrame, UsrPacket};
use rekeyproto::UserOutcome;
use wirecrypto::batch::{unseal_group, LANES};
use wirecrypto::{SealedKey, SymKey, UnsealError, SEALED_KEY_LEN};

use crate::frontend::MultiplyHasher;

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
    /// The u-node the agent occupies: level `path.len()`.
    node: NodeId,
    /// The u-node's ancestors, root first: `path[l]` is the level-`l` node
    /// and its key, read only if bit `l` of `held` is set.
    path: Vec<(NodeId, SymKey)>,
    held: u32,
}

/// Bit `level` of a held mask; none past 32 levels (a `u32` ID's at degree 2).
fn bit(level: usize) -> u32 {
    1u32.checked_shl(level as u32).unwrap_or(0)
}

impl UserAgent {
    /// Creates an agent for a member admitted at u-node `node_id` with the
    /// given individual key.
    pub fn new(member: MemberId, node_id: NodeId, individual: SymKey, degree: u32) -> Self {
        let mut agent = UserAgent {
            member,
            individual,
            degree,
            node: 0,
            path: Vec::with_capacity(ident::level(node_id, degree) as usize),
            held: 0,
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
            if let Some(level) = agent.path.iter().position(|slot| slot.0 == id) {
                agent.path[level].1 = k;
                agent.held |= bit(level);
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
        self.node
    }

    /// The group key, if held.
    pub fn group_key(&self) -> Option<SymKey> {
        self.at(0).1
    }

    /// The key held for a node, if any.
    pub fn key_of(&self, node: NodeId) -> Option<SymKey> {
        let mut levels = (0..=self.path.len()).map(|level| self.at(level));
        levels.find(|slot| slot.0 == node)?.1
    }

    /// Number of keys currently held (1 individual + path keys).
    pub fn keys_held(&self) -> usize {
        self.held.count_ones() as usize + 1
    }

    /// The level-`level` node of the path and the key held for it: an
    /// ancestor's, or past them the u-node's, the individual key.
    fn at(&self, level: usize) -> (NodeId, Option<SymKey>) {
        match self.path.get(level) {
            Some(&(node, key)) => (node, (self.held & bit(level) != 0).then_some(key)),
            None => (self.node, Some(self.individual)),
        }
    }

    /// Applies the user's specific ENC packet from rekey message
    /// `msg_seq`, read off its frame: rederives the current ID from
    /// `maxKID`, then walks the path leaf-to-root unsealing every
    /// encryption addressed to it — the only ones copied out of the frame.
    // xcheck: no_alloc
    pub fn apply_enc(&mut self, pkt: &EncFrame, msg_seq: u64) -> Result<(), ApplyError> {
        let chain = self.plan_enc(pkt)?;
        self.run(chain, msg_seq)
    }

    /// Applies a USR packet: the sealed keys arrive in increasing
    /// encryption-ID order (root-side first) without explicit IDs; they
    /// correspond to the topmost `t` non-root path nodes, levels `1..=t`.
    /// A packet the new ID's path cannot hold is refused before the agent
    /// moves.
    // xcheck: no_alloc
    pub fn apply_usr(&mut self, pkt: &UsrPacket, msg_seq: u64) -> Result<(), ApplyError> {
        let chain = self.plan_usr(pkt)?;
        self.run(chain, msg_seq)
    }

    /// Plans an ENC apply: rederives the current ID from `maxKID` and
    /// relocates to it. The chain starts at the u-node.
    fn plan_enc<'p>(&mut self, pkt: &'p EncFrame) -> Result<Chain<'p>, ApplyError> {
        let max_kid = pkt.header().max_kid;
        let new_id = ident::derive_current_id(self.node_id(), max_kid as NodeId, self.degree)
            .ok_or(ApplyError::NotInGroup)?;
        self.relocate(new_id);
        Ok(Chain {
            source: Source::Enc(pkt, None),
            level: self.path.len() + 1,
        })
    }

    /// Plans a USR apply: checks the packet's shape against the path of
    /// the ID it names, then relocates. The chain starts at level `t`, the
    /// deepest key the packet carries.
    fn plan_usr<'p>(&mut self, pkt: &'p UsrPacket) -> Result<Chain<'p>, ApplyError> {
        let new_id = NodeId::from(pkt.new_user_id);
        if pkt.sealed.len() > ident::level(new_id, self.degree) as usize {
            return Err(ApplyError::UsrShapeMismatch);
        }
        self.relocate(new_id);
        Ok(Chain {
            source: Source::Usr(pkt),
            level: pkt.sealed.len() + 1,
        })
    }

    /// The chain's next link toward the root and the key that unseals it,
    /// read off the path now — a link below may just have stored it. The
    /// root has no link: nothing encrypts above it, and its ID, 0, is the
    /// padding that ends a frame's ID column, so no entry names it. An ENC
    /// frame's entry is looked up through its index in `indexes`, if the
    /// chain names one, and by a scan of its column otherwise.
    // xcheck: no_alloc
    fn next_link(
        &self,
        chain: &mut Chain<'_>,
        indexes: &[ColumnIndex],
    ) -> Result<Option<Link>, ApplyError> {
        while chain.level > 1 {
            chain.level -= 1;
            let level = chain.level;
            let (node, kek) = self.at(level);
            let sealed = match chain.source {
                Source::Enc(pkt, index) => {
                    let c16 = u16::try_from(node).map_err(|_| ApplyError::MissingKey { node })?;
                    obs::counter_add("agent.entry_lookups", 1);
                    match index.and_then(|at| indexes.get(at)) {
                        Some(index) => index.entry(pkt, c16),
                        None => pkt.entry(c16),
                    }
                }
                Source::Usr(pkt) => pkt.sealed.get(level - 1).copied(),
            };
            let Some(sealed) = sealed else {
                continue;
            };
            let kek = kek.ok_or(ApplyError::MissingKey { node })?;
            return Ok(Some(Link {
                level,
                node,
                sealed,
                kek,
            }));
        }
        Ok(None)
    }

    /// Stores a link's unsealed key one level up.
    fn store(
        &mut self,
        link: Link,
        unsealed: Result<SymKey, UnsealError>,
    ) -> Result<(), ApplyError> {
        let key = unsealed.map_err(|_| ApplyError::BadSeal { node: link.node })?;
        self.path[link.level - 1].1 = key;
        self.held |= bit(link.level - 1);
        Ok(())
    }

    /// Runs a planned chain one link at a time: the install at one lane.
    fn run(&mut self, mut chain: Chain<'_>, msg_seq: u64) -> Result<(), ApplyError> {
        while let Some(link) = self.next_link(&mut chain, &[])? {
            obs::counter_add("agent.unseals", 1);
            let unsealed = (link.sealed).unseal(&link.kek, seal_context(msg_seq, link.node));
            self.store(link, unsealed)?;
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
        if self.node == new_id {
            return;
        }
        let d = self.degree;
        let depth = ident::level(new_id, d) as usize;
        self.held &= bit(depth).wrapping_sub(1);
        self.path.resize(depth, (0, SymKey::from_bytes([0; 16])));
        // Appended slots read node 0, which names only the root: the walk
        // stops at the deepest shared ancestor, the root at worst.
        let up = (self.path.iter_mut().enumerate().rev()).zip(ident::path_iter(new_id, d).skip(1));
        for ((level, slot), id) in up.take_while(|((_, slot), id)| slot.0 != *id) {
            slot.0 = id;
            self.held &= !bit(level);
        }
        self.node = new_id;
    }
}

/// Where a planned apply finds its sealed keys.
#[derive(Debug, Clone, Copy)]
enum Source<'p> {
    /// The ENC frame: the entry for a level's node, if it carries one,
    /// and where its column's index is among the installer's, if it has one.
    Enc(&'p EncFrame, Option<usize>),
    /// A USR packet: level `l`'s key is `sealed[l - 1]`, for `l` in `1..=t`.
    Usr(&'p UsrPacket),
}

/// A planned apply: where its sealed keys are, and the level the next link
/// is looked for below (the chain climbs toward the root).
#[derive(Debug, Clone, Copy)]
struct Chain<'p> {
    source: Source<'p>,
    level: usize,
}

/// One link of a chain: the sealed key found for `node`, the path's
/// level-`level` node, and `kek`, the key held for `node` that unseals it
/// into the slot one level up.
#[derive(Debug, Clone, Copy)]
struct Link {
    level: usize,
    node: NodeId,
    sealed: SealedKey,
    kek: SymKey,
}

/// An agent's install in flight on one lane: its place in the job order,
/// its chain, and the link it waits on.
struct Lane<'a, 'p> {
    job: usize,
    agent: &'a mut UserAgent,
    chain: Chain<'p>,
    link: Link,
}

/// The ID-column indexes [`install_lanes`] reads ENC frames through: one
/// per frame that another holder shares ([`EncFrame::is_shared`]), built
/// when an agent first meets it, keyed by the frame's address. A frame one
/// receiver holds alone — one FEC rebuilt for it — is scanned. The indexes
/// are wire structure read once for all; keys, unseals and tag checks stay
/// each agent's own. Cleared at each install and kept across them, so a
/// warm one allocates nothing.
#[derive(Debug, Default)]
pub struct InstallScratch {
    /// Frame address to the slot of its index in `indexes`: slots are
    /// handed out in order, so this install's are the first `frames.len()`.
    frames: HashMap<usize, usize, BuildHasherDefault<MultiplyHasher>>,
    indexes: Vec<ColumnIndex>,
}

impl InstallScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `frame`'s index, built the first time the frame is met;
    /// none for a frame held alone.
    // xcheck: no_alloc
    fn index_of(&mut self, frame: &EncFrame) -> Option<usize> {
        if !frame.is_shared() {
            return None;
        }
        let next = self.frames.len();
        let at = *self.frames.entry(frame.address()).or_insert(next);
        if at == next {
            obs::counter_add("agent.column_indexes", 1);
            match self.indexes.get_mut(at) {
                Some(index) => index.rebuild(frame),
                None => self.indexes.push(ColumnIndex::new(frame)),
            }
        }
        Some(at)
    }
}

/// Takes jobs in order until one has a link to run and puts it on a lane.
/// A job with nothing to apply is done at once; one that fails before its
/// first unseal goes to `failure`.
fn next_lane<'a, 'p>(
    jobs: &mut impl Iterator<Item = (usize, (&'a mut UserAgent, &'p UserOutcome))>,
    failure: &mut FirstFailure,
    scratch: &mut InstallScratch,
) -> Option<Lane<'a, 'p>> {
    for (job, (agent, outcome)) in jobs {
        let planned = match outcome {
            UserOutcome::Enc(pkt) => agent.plan_enc(pkt).map(|mut chain| {
                chain.source = Source::Enc(pkt, scratch.index_of(pkt));
                chain
            }),
            UserOutcome::Usr(pkt) => agent.plan_usr(pkt),
            UserOutcome::Pending => continue,
        };
        let first = planned.and_then(|mut chain| {
            let link = agent.next_link(&mut chain, &scratch.indexes)?;
            Ok(link.map(|link| (chain, link)))
        });
        match first {
            Ok(Some((chain, link))) => {
                return Some(Lane {
                    job,
                    agent,
                    chain,
                    link,
                })
            }
            Ok(None) => {}
            Err(e) => failure.note(job, agent.member(), e),
        }
    }
    None
}

/// The failure of the earliest job, whatever order the lanes met them in.
#[derive(Default)]
struct FirstFailure(Option<(usize, MemberId, ApplyError)>);

impl FirstFailure {
    fn note(&mut self, job: usize, member: MemberId, e: ApplyError) {
        if self.0.is_none_or(|(first, _, _)| job < first) {
            self.0 = Some((job, member, e));
        }
    }
}

/// Installs each agent's keys off its session's outcome — an ENC frame, a
/// USR packet, or nothing yet — [`LANES`] agents at a time.
///
/// Each agent runs the plan and the steps of [`UserAgent::apply_enc`] /
/// [`UserAgent::apply_usr`] on its own path with its own keys; what the
/// lanes share is one kernel call, [`unseal_group`], which unseals the
/// next link of every agent in flight side by side, each lane tag-checked
/// on its own. A lane whose agent is done or failed is refilled from the
/// next job in order. Every job is applied, and each agent ends exactly as
/// the one-agent apply leaves it. The error is the earliest failing job's
/// member and the error its one-agent apply returns.
///
/// An ENC frame that several agents hold has its ID column read once, into
/// an index in `scratch` that answers each of them ([`InstallScratch`]).
// xcheck: no_alloc
pub fn install_lanes<'a, 'p>(
    jobs: impl IntoIterator<Item = (&'a mut UserAgent, &'p UserOutcome)>,
    msg_seq: u64,
    scratch: &mut InstallScratch,
) -> Result<(), (MemberId, ApplyError)> {
    scratch.frames.clear();
    let mut jobs = jobs.into_iter().enumerate();
    let mut failure = FirstFailure::default();
    let mut lanes: [Option<Lane<'a, 'p>>; LANES] = core::array::from_fn(|_| None);
    let pad = (
        SymKey::from_bytes([0; 16]),
        SealedKey::from_bytes([0; SEALED_KEY_LEN]),
        0,
    );
    loop {
        let mut group = [pad; LANES];
        let mut busy = 0;
        for (slot, lane) in group.iter_mut().zip(&mut lanes) {
            if lane.is_none() {
                *lane = next_lane(&mut jobs, &mut failure, scratch);
            }
            if let Some(lane) = lane {
                let link = &lane.link;
                *slot = (link.kek, link.sealed, seal_context(msg_seq, link.node));
                busy += 1;
            }
        }
        if busy == 0 {
            break;
        }
        obs::counter_add("agent.unseals", busy);
        obs::counter_add("agent.unseal_groups", 1);
        for (lane, unsealed) in lanes.iter_mut().zip(unseal_group(&group)) {
            let Some(running) = lane else {
                continue;
            };
            let agent = &mut *running.agent;
            let next = (agent.store(running.link, unsealed))
                .and_then(|()| agent.next_link(&mut running.chain, &scratch.indexes));
            match next {
                Ok(Some(link)) => running.link = link,
                Ok(None) => *lane = None,
                Err(e) => {
                    failure.note(running.job, agent.member(), e);
                    *lane = None;
                }
            }
        }
    }
    failure.0.map_or(Ok(()), |(_, member, e)| Err((member, e)))
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
        // A split moves the member at node 5 to 21 (three levels below the
        // root); its USR packet names 21. One key too many for that path
        // is refused before the agent moves or drops a key.
        let mut kg = KeyGen::from_seed(8);
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let moved = tree.member_at(5).unwrap();
        let outcome = tree.process_batch(&Batch::new(vec![(100, kg.next_key())], vec![]), &mut kg);
        let mut agent = agent_for(&before, moved, 4);
        let held = (agent.node_id(), agent.keys_held(), agent.group_key());
        let mut usr = build_usr_packet(&tree, &outcome, moved, 1).unwrap();
        assert_eq!(usr.new_user_id, 21);
        while usr.sealed.len() < 4 {
            usr.sealed.push(usr.sealed[0]);
        }
        assert_eq!(agent.apply_usr(&usr, 1), Err(ApplyError::UsrShapeMismatch));
        assert_eq!(
            (agent.node_id(), agent.keys_held(), agent.group_key()),
            held,
            "a refused packet moves nothing"
        );
        // The packet as built installs.
        usr.sealed.truncate(3);
        agent.apply_usr(&usr, 1).unwrap();
        assert_eq!(agent.node_id(), 21);
        assert_eq!(agent.group_key(), tree.group_key());
    }

    /// Every member of a 64-user tree after three leaves with its session's
    /// outcome: its ENC frame, or for one in five its USR packet.
    fn outcomes(
        before: &KeyTree,
        after: &KeyTree,
        outcome: &keytree::MarkOutcome,
        assignment: &UkaAssignment,
    ) -> (Vec<UserAgent>, Vec<UserOutcome>) {
        (0..64u32)
            .filter(|&m| after.node_of_member(m).is_some())
            .map(|m| {
                let uid = after.node_of_member(m).unwrap();
                let got = if m % 5 == 0 {
                    UserOutcome::Usr(build_usr_packet(after, outcome, m, 1).unwrap())
                } else {
                    let pi = assignment.packet_of_user(uid).unwrap();
                    UserOutcome::Enc(frame(&assignment.packets[pi]))
                };
                (agent_for(before, m, 4), got)
            })
            .unzip()
    }

    #[test]
    fn installer_names_the_earliest_failing_member_and_installs_the_rest() {
        let (before, after, outcome, assignment) = scenario(64, vec![3, 9, 41], 0);
        let (mut agents, mut got) = outcomes(&before, &after, &outcome, &assignment);
        // The second member's frame carries its root-side key (its last
        // link) under one flipped bit; the fourth gets a USR packet too
        // long for its path, refused before any unseal — met first.
        let uid = after.node_of_member(agents[1].member()).unwrap();
        let pi = assignment.packet_of_user(uid).unwrap();
        let pkt = &assignment.packets[pi];
        let child_of_root = ident::path_iter(uid, 4).nth(2).unwrap() as u16;
        let forged = pkt.entries().map(|(id, sealed)| {
            let mut bytes = *sealed.as_bytes();
            bytes[0] ^= u8::from(id == child_of_root);
            (id, SealedKey::from_bytes(bytes))
        });
        got[1] = UserOutcome::Enc(frame(
            &EncPacket::new(pkt.header(), forged, &Layout::DEFAULT).unwrap(),
        ));
        let mut long = build_usr_packet(&after, &outcome, agents[3].member(), 1).unwrap();
        while long.sealed.len() < 4 {
            long.sealed.push(long.sealed[0]);
        }
        got[3] = UserOutcome::Usr(long);

        let mut solo = agents.clone();
        let solo_results: Vec<_> = (solo.iter_mut().zip(&got))
            .map(|(agent, got)| match got {
                UserOutcome::Enc(pkt) => agent.apply_enc(pkt, 1),
                UserOutcome::Usr(pkt) => agent.apply_usr(pkt, 1),
                UserOutcome::Pending => Ok(()),
            })
            .collect();
        let bad_seal = ApplyError::BadSeal {
            node: NodeId::from(child_of_root),
        };
        assert_eq!(solo_results[1], Err(bad_seal));
        assert_eq!(solo_results[3], Err(ApplyError::UsrShapeMismatch));

        let installed = install_lanes(agents.iter_mut().zip(&got), 1, &mut InstallScratch::new());
        assert_eq!(installed, Err((solo[1].member(), bad_seal)));
        for (i, (lane, one)) in agents.iter().zip(&solo).enumerate() {
            assert_eq!(lane.node_id(), one.node_id());
            assert_eq!(lane.keys_held(), one.keys_held());
            for id in ident::path_iter(one.node_id(), 4) {
                assert_eq!(lane.key_of(id), one.key_of(id), "agent {i}, node {id}");
            }
            let synced = lane.group_key() == after.group_key();
            assert_eq!(synced, i != 1 && i != 3, "agent {i}");
        }
    }
}
