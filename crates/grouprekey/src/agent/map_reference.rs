//! The path agent against the key map it replaced, which is kept here as
//! the reference: through a churning group — leaves, joins into a full
//! tree (Theorem 4.2 splits), compaction relocations, delivery by ENC and
//! by USR, and hostile packets — both agents report the same ID, the same
//! keys on the path, the same group key and the same result at every step.
//! Off the path the map may hold the old path's keys from a relocation
//! until an apply succeeds; the path agent never holds them.

use std::collections::BTreeMap;

use keytree::{Batch, CompactionPolicy, KeyTree, MarkScratch};
use proptest::prelude::*;
use rekeymsg::{build_usr_packet, Layout, UkaAssignment};
use wirecrypto::KeyGen;

use super::*;

/// The agent as a key map: every key inserted by node ID, pruned to the
/// path after each successful apply.
#[derive(Debug, Clone)]
struct MapAgent {
    node_id: NodeId,
    individual: SymKey,
    degree: u32,
    keys: BTreeMap<NodeId, SymKey>,
}

impl MapAgent {
    fn with_path(
        node_id: NodeId,
        individual: SymKey,
        degree: u32,
        path_keys: impl IntoIterator<Item = (NodeId, SymKey)>,
    ) -> Self {
        let mut keys = BTreeMap::from([(node_id, individual)]);
        keys.extend(path_keys);
        MapAgent {
            node_id,
            individual,
            degree,
            keys,
        }
    }

    fn key_of(&self, node: NodeId) -> Option<SymKey> {
        self.keys.get(&node).copied()
    }

    fn apply_enc(&mut self, pkt: &EncFrame, msg_seq: u64) -> Result<(), ApplyError> {
        let max_kid = pkt.header().max_kid;
        let new_id = ident::derive_current_id(self.node_id, max_kid as NodeId, self.degree)
            .ok_or(ApplyError::NotInGroup)?;
        self.relocate(new_id);
        for c in ident::path_iter(new_id, self.degree) {
            let c16 = u16::try_from(c).map_err(|_| ApplyError::MissingKey { node: c })?;
            let Some(sealed) = pkt.entry(c16) else {
                continue;
            };
            let kek = self.key_of(c).ok_or(ApplyError::MissingKey { node: c })?;
            let Some(parent) = ident::parent(c, self.degree) else {
                continue;
            };
            let key = sealed
                .unseal(&kek, seal_context(msg_seq, c))
                .map_err(|_| ApplyError::BadSeal { node: c })?;
            self.keys.insert(parent, key);
        }
        self.prune();
        Ok(())
    }

    fn apply_usr(&mut self, pkt: &UsrPacket, msg_seq: u64) -> Result<(), ApplyError> {
        let new_id = pkt.new_user_id as NodeId;
        let mut path = ident::path_to_root(new_id, self.degree);
        path.pop();
        path.reverse();
        // A packet the new path cannot hold moves nothing.
        if pkt.sealed.len() > path.len() {
            return Err(ApplyError::UsrShapeMismatch);
        }
        self.relocate(new_id);
        for (&c, sealed) in path.iter().zip(&pkt.sealed).rev() {
            let kek = self.key_of(c).ok_or(ApplyError::MissingKey { node: c })?;
            let key = sealed
                .unseal(&kek, seal_context(msg_seq, c))
                .map_err(|_| ApplyError::BadSeal { node: c })?;
            if let Some(parent) = ident::parent(c, self.degree) {
                self.keys.insert(parent, key);
            }
        }
        self.prune();
        Ok(())
    }

    fn relocate(&mut self, new_id: NodeId) {
        if new_id != self.node_id {
            self.keys.remove(&self.node_id);
            self.node_id = new_id;
        }
        self.keys.insert(new_id, self.individual);
    }

    fn prune(&mut self) {
        let (me, d) = (self.node_id, self.degree);
        self.keys
            .retain(|&id, _| ident::is_ancestor_or_self(id, me, d));
    }
}

/// The path agent and its reference, for one member.
type Pair = (UserAgent, MapAgent);

/// A member of `tree` holding its path, as after bootstrap.
fn holder(tree: &KeyTree, member: MemberId) -> Pair {
    let (d, node) = (tree.degree(), tree.node_of_member(member).unwrap());
    let path = tree.keys_for_member(member).unwrap();
    let individual = path[0].1;
    (
        UserAgent::with_path(member, node, individual, d, path.iter().copied()),
        MapAgent::with_path(node, individual, d, path),
    )
}

/// A member that joined `tree` with `individual`, holding nothing else.
fn joiner(tree: &KeyTree, member: MemberId, individual: SymKey) -> Pair {
    let (d, node) = (tree.degree(), tree.node_of_member(member).unwrap());
    (
        UserAgent::new(member, node, individual, d),
        MapAgent::with_path(node, individual, d, []),
    )
}

/// Both agents after a step: the same ID and group key; on the nodes of
/// both paths (`before`'s and the current one) the same keys where the node
/// is on the current path, none held by the path agent elsewhere; and as
/// many keys as the map holds on the path — all it holds once an apply has
/// `settled` (succeeded).
fn agree((agent, reference): &Pair, before: NodeId, settled: bool) -> TestCaseResult {
    let (node, d) = (agent.node_id(), reference.degree);
    prop_assert_eq!(node, reference.node_id);
    prop_assert_eq!(agent.group_key(), reference.key_of(0));
    for id in ident::path_iter(before, d).chain(ident::path_iter(node, d)) {
        let on_path = ident::is_ancestor_or_self(id, node, d);
        let expect = reference.key_of(id).filter(|_| on_path);
        prop_assert_eq!(agent.key_of(id), expect, "node {}", id);
    }
    let on_path = (reference.keys.keys())
        .filter(|&&id| ident::is_ancestor_or_self(id, node, d))
        .count();
    prop_assert_eq!(agent.keys_held(), on_path);
    if settled {
        prop_assert_eq!(agent.keys_held(), reference.keys.len());
    }
    Ok(())
}

/// One churning group: its shape and, per batch, the joins and the share
/// of members (per mille) that leave — none in about a third of batches, so
/// that joins into a full tree split.
#[derive(Debug, Clone)]
struct Case {
    n: u32,
    d: u32,
    seed: u64,
    batches: Vec<(u32, u64)>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (16u32..2048, prop::sample::select(vec![2u32, 4, 8])),
        (any::<bool>(), any::<u64>()),
        proptest::collection::vec((0u32..40, 0u64..1200), 1..5),
    )
        .prop_map(|((n, d), (full, seed), batches)| {
            // A full tree: every join is a split.
            let n = if full {
                let mut full_n = d;
                while full_n * d <= n {
                    full_n *= d;
                }
                full_n
            } else {
                n
            };
            let batches = (batches.into_iter())
                .map(|(joins, leave)| (joins, leave.saturating_sub(400)))
                .collect();
            Case {
                n,
                d,
                seed,
                batches,
            }
        })
}

fn agents_agree(c: &Case) -> TestCaseResult {
    let layout = Layout::DEFAULT;
    let policy = CompactionPolicy {
        max_moves_per_batch: 16,
    };
    let mut kg = KeyGen::from_seed(c.seed);
    let mut tree = KeyTree::balanced(c.n, c.d, &mut kg);
    let mut scratch = MarkScratch::new();
    let mut agents: BTreeMap<MemberId, Pair> = (0..c.n).map(|m| (m, holder(&tree, m))).collect();
    let (mut state, mut next_member) = (c.seed, c.n);
    let mut draw = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    for (step, &(joins, leave_per_mille)) in c.batches.iter().enumerate() {
        let msg_seq = step as u64 + 1;
        // Leavers drawn from the members, one kept.
        let mut members: Vec<MemberId> = agents.keys().copied().collect();
        let leaving = (members.len() as u64 * leave_per_mille / 1000) as usize;
        let leaves: Vec<MemberId> = (0..leaving.min(members.len() - 1))
            .map(|_| members.swap_remove((draw() % members.len() as u64) as usize))
            .collect();
        // Never an empty batch: every member then needs the new group key.
        let joins = if leaves.is_empty() {
            joins.max(1)
        } else {
            joins
        };
        let joins: Vec<(MemberId, SymKey)> = (next_member..next_member + joins)
            .map(|m| (m, kg.next_key()))
            .collect();
        next_member += joins.len() as u32;
        let outcome = tree.process_batch_compacting_in(
            Batch::new(joins.clone(), leaves.clone()),
            &mut kg,
            &mut scratch,
            &policy,
        );
        let assignment = UkaAssignment::build(&tree, &outcome, msg_seq, &layout).unwrap();
        let frames: Vec<EncFrame> = (assignment.packets.iter())
            .map(|pkt| EncFrame::new(pkt.emit().into(), &layout).unwrap())
            .collect();
        let frame_for = |node: NodeId| assignment.packet_of_user(node).map(|pi| &frames[pi]);
        // A quarter of the members are served by USR; a relocated one of
        // them learns its new ID from the packet alone.
        let by_usr = |m: MemberId| {
            (u64::from(m) ^ c.seed ^ msg_seq).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0
        };

        for rl in &outcome.relocations {
            let Some(p) = agents.get_mut(&rl.member) else {
                continue;
            };
            if by_usr(rl.member) && draw() % 2 == 0 {
                continue;
            }
            let before = p.0.node_id();
            p.0.accept_relocation(rl.new_id);
            p.1.relocate(rl.new_id);
            agree(p, before, false)?;
        }

        // A departed member gets nowhere with the packet for where it was
        // (or the first one): not in the group, a key it lacks, a seal that
        // fails, or no entry it can use — never the new group key.
        for m in &leaves {
            let Some(mut p) = agents.remove(m) else {
                continue;
            };
            let before = p.0.node_id();
            let id = ident::derive_current_id(before, outcome.nk.unwrap_or(0), c.d);
            let frame = id.and_then(frame_for).unwrap_or(&frames[0]);
            let result = p.0.apply_enc(frame, msg_seq);
            prop_assert_eq!(result, p.1.apply_enc(frame, msg_seq));
            agree(&p, before, result.is_ok())?;
            prop_assert_ne!(p.0.group_key(), tree.group_key(), "member {}", m);
        }

        for &(m, individual) in &joins {
            agents.insert(m, joiner(&tree, m, individual));
        }

        for (&m, p) in agents.iter_mut() {
            let before = p.0.node_id();
            let result = if by_usr(m) {
                let usr = build_usr_packet(&tree, &outcome, m, msg_seq).unwrap();
                // Hostile: one sealed key more than the path has levels.
                let mut long = usr.clone();
                let (mut agent, mut reference) = p.clone();
                while long.sealed.len() < ident::level(usr.new_user_id.into(), c.d) as usize + 1 {
                    long.sealed.push(usr.sealed[0]);
                }
                let refused = agent.apply_usr(&long, msg_seq);
                prop_assert_eq!(refused, Err(ApplyError::UsrShapeMismatch));
                prop_assert_eq!(refused, reference.apply_usr(&long, msg_seq));
                agree(&(agent, reference), before, false)?;

                let result = p.0.apply_usr(&usr, msg_seq);
                prop_assert_eq!(result, p.1.apply_usr(&usr, msg_seq));
                result
            } else {
                let node = tree.node_of_member(m).unwrap();
                let frame = frame_for(node).unwrap();
                // Hostile: the frame under another message's sequence.
                let (mut agent, mut reference) = p.clone();
                let refused = agent.apply_enc(frame, msg_seq + 64);
                prop_assert!(matches!(refused, Err(ApplyError::BadSeal { .. })));
                prop_assert_eq!(refused, reference.apply_enc(frame, msg_seq + 64));
                agree(&(agent, reference), before, false)?;

                let result = p.0.apply_enc(frame, msg_seq);
                prop_assert_eq!(result, p.1.apply_enc(frame, msg_seq));
                result
            };
            prop_assert_eq!(result, Ok(()), "member {}", m);
            agree(p, before, true)?;
            prop_assert_eq!(p.0.group_key(), tree.group_key());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn path_agent_matches_the_key_map(c in case()) {
        agents_agree(&c)?;
    }
}
