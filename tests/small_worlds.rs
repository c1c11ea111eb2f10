//! Every batch on every small tree, checked from the server to each member.
//!
//! Marking, Lemma 4.1, Theorem 4.2's rederivation from `maxKID` and UKA's
//! one-packet-per-user promise are claims about every tree and every batch,
//! and the small ones can all be listed. The first interval applies every
//! batch (every leaver subset × 0..=3 joins × compaction off and on) to the
//! balanced trees of 1..=8 members at each degree; the second applies every
//! batch again to each tree structure (its u-node IDs, not its keys) of at
//! most six members that the first reaches. Each batch is held to the
//! marking oracle (`keytree::sanitize`; an empty batch that moves no member
//! must rekey nothing), one subtree row per updated k-node, Lemma 4.1,
//! Theorem 4.2 and `encryption_by_child` against a scan; at 2, 3
//! and 46 encryptions a packet to the reference plan (`rekeymsg::sanitize`),
//! the wire (`emit` → `parse`, `ColumnIndex` against `EncFrame::entry`) and
//! every member's install from the bytes through a `UserAgent`, no departed
//! member reaching the new group key; by USR to the same installs; and to
//! `snapshot` → `restore` and the iterator accessors. Worlds run smallest
//! first, so the first failure is the smallest world that has one, and its
//! message names that world. The second interval is ignored in debug builds;
//! `tools/ci.sh` runs it in release.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use grouprekey::UserAgent;
use keytree::sanitize::verify_marking;
use keytree::{
    ident, Batch, CompactionPolicy, KeyTree, MarkOutcome, MarkScratch, MemberId, NodeId,
};
use rekeymsg::sanitize::{check_plan_identity, reference_plan};
use rekeymsg::{assign, build_usr_packet, AssignError, ColumnIndex, EncFrame, Layout, Packet};
use rekeymsg::{PlanScratch, UkaAssignment};
use wirecrypto::{KeyGen, SymKey};

const DEGREES: [u32; 4] = [2, 3, 4, 8];
/// Encryptions a packet holds: at two and three UKA splits, duplicates and
/// refuses on these trees; 46 is the paper's.
const CAPACITIES: [usize; 3] = [2, 3, 46];
const MAX_JOINS: u32 = 3;
const COMPACTION: CompactionPolicy = CompactionPolicy {
    max_moves_per_batch: 8,
};

/// Returns the formatted error unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// How often each behaviour the enumeration must reach occurred.
#[derive(Debug, Default)]
struct Tally {
    batches: usize,
    split_moves: usize,
    relocations: usize,
    capacity_refusals: usize,
    multi_packet_messages: usize,
    usr_installs: usize,
    departed: usize,
}

impl Tally {
    fn assert_each_behaviour_occurs(&self, trees: usize) {
        println!("small worlds: {trees} trees, {self:?}");
        let seen = [
            self.split_moves,
            self.relocations,
            self.capacity_refusals,
            self.multi_packet_messages,
            self.usr_installs,
            self.departed,
        ];
        assert!(seen.iter().all(|&n| n > 0), "a behaviour never occurred");
    }
}

/// Runs and checks every batch on `tree`, smallest first: by leavers plus
/// joins, then by leaver subset, compaction off before on. Each draws its
/// keys from the next `seed`, since a batch seed drawn twice on one tree
/// re-mints a k-node's key, which `verify_marking` rightly reports as kept.
/// Hands each world and the tree it reached to `reached`. Joiners take the
/// member IDs past the largest in the tree.
fn every_batch(
    tree: &KeyTree,
    first: Option<&str>,
    seed: &mut u64,
    tally: &mut Tally,
    mut reached: impl FnMut(String, KeyTree),
) {
    let mut members = tree.member_ids();
    members.sort_unstable();
    let (n, first_joiner) = (members.len(), members.last().map_or(0, |m| m + 1));
    let name = format!(
        "d = {}, N = {n} (u-nodes {:?})",
        tree.degree(),
        tree.user_ids()
    );
    let after_first = first.map_or(String::new(), |f| format!("; after the first batch [{f}]"));
    let msg_seq = 1 + u64::from(first.is_some());
    let (mut mark, mut plan) = (MarkScratch::new(), PlanScratch::new());
    for size in 0..=n + MAX_JOINS as usize {
        for joins in 0..=MAX_JOINS.min(size as u32) {
            let leaving = size - joins as usize;
            for mask in (0u32..1 << n).filter(|mask| mask.count_ones() as usize == leaving) {
                let leavers: Vec<MemberId> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| members[i])
                    .collect();
                for (policy, on) in [(CompactionPolicy::DISABLED, "off"), (COMPACTION, "on")] {
                    *seed += 1;
                    let world = format!(
                        "{name}, leavers {leavers:?}, {joins} joins, compaction {on}, seed {seed}{after_first}"
                    );
                    let mut kg = KeyGen::from_seed(*seed);
                    let joiners = (first_joiner..first_joiner + joins).map(|m| (m, kg.next_key()));
                    let batch = Batch::new(joiners.collect(), leavers.clone());
                    let mut after = tree.clone();
                    let outcome = after.process_batch_compacting_in(
                        batch.clone(),
                        &mut kg,
                        &mut mark,
                        &policy,
                    );
                    let all =
                        check_batch(tree, &after, &batch, &outcome, msg_seq, &mut plan, tally);
                    if let Err(e) = all {
                        panic!("smallest failing world: {world}: {e}");
                    }
                    reached(world, after);
                }
            }
        }
    }
}

/// Every check on one batch. Returns the first violation.
fn check_batch(
    before: &KeyTree,
    after: &KeyTree,
    batch: &Batch,
    outcome: &MarkOutcome,
    msg_seq: u64,
    warm: &mut PlanScratch,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.batches += 1;
    tally.split_moves += outcome.moves.len();
    tally.relocations += outcome.relocations.len();
    verify_marking(before, after, batch, outcome)?;
    if batch.is_empty() && outcome.relocations.is_empty() {
        let (updated, same_key) = (
            &outcome.updated_knodes,
            after.group_key() == before.group_key(),
        );
        ensure!(
            updated.is_empty() && same_key,
            "an empty batch rekeyed {updated:?} (group key kept: {same_key})"
        );
    }
    let rows = outcome.subtree().len();
    ensure!(rows == outcome.updated_knodes.len(), "{rows} subtree rows");
    let d = after.degree();
    if let Some(nk) = after.max_knode_id() {
        let min_u = after.user_ids_iter().min();
        ensure!(
            min_u.is_some_and(|u| nk < u),
            "Lemma 4.1: k-node {nk}, u-node {min_u:?}"
        );
        for m in after.member_ids_iter() {
            let relocated = outcome.relocations.iter().any(|rl| rl.member == m);
            let (Some(old), false) = (before.node_of_member(m), relocated) else {
                continue;
            };
            let (now, derived) = (
                after.node_of_member(m),
                ident::derive_current_id(old, nk, d),
            );
            ensure!(
                derived == now,
                "Theorem 4.2: member {m} at {old} derives {derived:?}, is at {now:?}"
            );
        }
    }
    for id in 0..after.storage_len() as NodeId + 2 * d {
        let scan = outcome.encryptions.iter().position(|e| e.child == id);
        let found = outcome.encryption_by_child(id);
        ensure!(
            found == scan,
            "encryption_by_child({id}) is {found:?}, a scan finds {scan:?}"
        );
    }
    check_tree_accessors(after)?;
    for capacity in CAPACITIES {
        check_enc_message(before, after, outcome, msg_seq, capacity, warm, tally)
            .map_err(|e| format!("capacity {capacity}: {e}"))?;
    }
    for m in after.member_ids_iter() {
        let usr = build_usr_packet(after, outcome, m, msg_seq).ok_or("a member gets no USR")?;
        let layout = Layout::DEFAULT;
        let parsed = match Packet::parse(&Packet::Usr(usr.clone()).emit(&layout), &layout) {
            Ok(Packet::Usr(parsed)) => parsed,
            other => return Err(format!("member {m}: USR packet parses as {other:?}")),
        };
        ensure!(parsed == usr, "member {m}: USR packet changes on the wire");
        let mut agent = agent_of(before, after, m).ok_or("a member without an agent")?;
        (agent.apply_usr(&parsed, msg_seq)).map_err(|e| format!("member {m}: USR: {e}"))?;
        tally.usr_installs += usize::from(!usr.sealed.is_empty());
        holds_its_path(&agent, after).map_err(|e| format!("by USR: {e}"))?;
    }
    tally.departed += outcome.departed.len();
    Ok(())
}

/// `snapshot` → `restore`, and each iterator accessor against its `Vec`.
fn check_tree_accessors(tree: &KeyTree) -> Result<(), String> {
    let ids: Vec<NodeId> = tree.user_ids_iter().collect();
    ensure!(
        ids == tree.user_ids(),
        "user_ids_iter differs from user_ids"
    );
    let members: Vec<MemberId> = tree.member_ids_iter().collect();
    ensure!(
        members == tree.member_ids(),
        "member_ids_iter differs from member_ids"
    );
    let snap = tree.snapshot();
    let restored = KeyTree::restore(&snap).map_err(|e| format!("restore failed: {e:?}"))?;
    ensure!(
        restored.snapshot() == snap,
        "snapshot does not survive restore"
    );
    ensure!(
        restored.member_ids() == members,
        "restore changed the members"
    );
    for m in members {
        let keys = tree.keys_for_member(m);
        let via_iter: Option<Vec<_>> = (tree.keys_for_member_iter(m))
            .and_then(|it| it.map(|(id, k)| Some((id, k?))).collect());
        ensure!(via_iter == keys, "member {m}: keys_for_member_iter differs");
        ensure!(
            restored.keys_for_member(m) == keys,
            "member {m}: restore changed its keys"
        );
    }
    Ok(())
}

/// The message at one packet capacity: the plan against the reference, the
/// packets on the wire, and every member's install from its ENC frame.
fn check_enc_message(
    before: &KeyTree,
    after: &KeyTree,
    outcome: &MarkOutcome,
    msg_seq: u64,
    capacity: usize,
    warm: &mut PlanScratch,
    tally: &mut Tally,
) -> Result<(), String> {
    let layout = Layout::new(3 + 6 + 22 * capacity);
    let cold = assign::plan(after, outcome, &layout);
    let warm_plan = assign::plan_in(after, outcome, &layout, warm);
    ensure!(
        warm_plan == cold,
        "a warm plan_in differs from the cold plan"
    );
    match &cold {
        Ok(plans) => check_plan_identity(after, outcome, plans, &layout)?,
        Err(AssignError::PacketCapacity { user, .. }) => {
            let reference = reference_plan(after, outcome, &layout)
                .err()
                .unwrap_or_default();
            let named = reference.contains(&format!("user {user} "));
            ensure!(
                named,
                "the planner refused user {user}, the reference: {reference:?}"
            );
            tally.capacity_refusals += 1;
            return Ok(());
        }
        Err(other) => return Err(format!("unexpected planner error: {other}")),
    }
    let assignment = UkaAssignment::build(after, outcome, msg_seq, &layout)
        .map_err(|e| format!("UkaAssignment::build failed: {e}"))?;
    tally.multi_packet_messages += usize::from(assignment.packets.len() > 1);
    let mut frames = Vec::with_capacity(assignment.packets.len());
    for (pi, pkt) in assignment.packets.iter().enumerate() {
        let bytes = pkt.emit();
        let parsed = Packet::parse(&bytes, &layout);
        ensure!(
            parsed == Ok(Packet::Enc(pkt.clone())),
            "ENC packet {pi} parses as {parsed:?}"
        );
        let frame = EncFrame::new(bytes.into(), &layout).map_err(|e| format!("ENC {pi}: {e}"))?;
        let index = ColumnIndex::new(&frame);
        for id in 0..=after.storage_len() as u16 {
            let (indexed, scanned) = (index.entry(&frame, id), frame.entry(id));
            ensure!(
                indexed == scanned,
                "ENC packet {pi}: ColumnIndex::entry({id}) differs"
            );
        }
        frames.push(frame);
    }
    for m in after.member_ids_iter() {
        let mut agent = agent_of(before, after, m).ok_or("a member without an agent")?;
        if let Some(rl) = outcome.relocations.iter().find(|rl| rl.member == m) {
            agent.accept_relocation(rl.new_id);
            keeps_shared_ancestors(&agent, before, rl.old_id)?;
        }
        let uid = after.node_of_member(m).ok_or("a member without a u-node")?;
        if let Some(pi) = assignment.packet_of_user(uid) {
            (agent.apply_enc(&frames[pi], msg_seq)).map_err(|e| format!("member {m}: ENC: {e}"))?;
        }
        holds_its_path(&agent, after).map_err(|e| format!("by ENC: {e}"))?;
    }
    for &m in &outcome.departed {
        for (pi, frame) in frames.iter().enumerate() {
            let mut departed = agent_of(before, after, m).ok_or("a departed member unknown")?;
            let _ = departed.apply_enc(frame, msg_seq);
            let reached =
                departed.group_key().is_some() && departed.group_key() == after.group_key();
            ensure!(
                !reached,
                "departed member {m} reaches the new group key from ENC {pi}"
            );
        }
    }
    Ok(())
}

/// `m`'s agent as the batch finds it: every key it held before, or a
/// joiner's individual key alone.
fn agent_of(before: &KeyTree, after: &KeyTree, m: MemberId) -> Option<UserAgent> {
    let d = after.degree();
    let Some(uid) = before.node_of_member(m) else {
        let uid = after.node_of_member(m)?;
        return Some(UserAgent::new(m, uid, after.key_of(uid)?, d));
    };
    let path = before.keys_for_member(m)?;
    Some(UserAgent::with_path(m, uid, before.key_of(uid)?, d, path))
}

/// A relocated agent keeps the keys of the ancestors its old u-node `old`
/// shares with its new one, and only those, until the message delivers the
/// rest.
fn keeps_shared_ancestors(agent: &UserAgent, before: &KeyTree, old: NodeId) -> Result<(), String> {
    let (m, new, d) = (agent.member(), agent.node_id(), before.degree());
    let mut shared = 0;
    for id in ident::path_iter(new, d).skip(1) {
        if id != old && ident::is_ancestor_or_self(id, old, d) {
            shared += 1;
            let kept = agent.key_of(id) == before.key_of(id);
            ensure!(
                kept,
                "member {m} moved {old} -> {new} and lost shared ancestor {id}'s key"
            );
        }
    }
    let held = agent.keys_held();
    ensure!(
        held == 1 + shared,
        "member {m} moved {old} -> {new}: {held} keys, {shared} shared"
    );
    Ok(())
}

/// The agent sits at its member's u-node and holds every key of its path.
fn holds_its_path(agent: &UserAgent, tree: &KeyTree) -> Result<(), String> {
    let (m, at) = (agent.member(), agent.node_id());
    let uid = tree.node_of_member(m);
    ensure!(
        uid == Some(at),
        "member {m} believes it is at {at}, the tree has {uid:?}"
    );
    for (id, key) in tree.keys_for_member(m).ok_or("a member without keys")? {
        ensure!(
            agent.key_of(id) == Some(key),
            "member {m} lacks the key of node {id}"
        );
    }
    Ok(())
}

/// Trees reached, smallest first (by member count, then degree, then u-node
/// IDs), each with the world that first reached it.
type Reached = BTreeMap<(usize, u32, Vec<NodeId>), (KeyTree, String)>;

/// The first interval: every batch on every balanced tree of 1..=8 members.
/// Returns the trees of at most six members it reaches.
fn first_interval(tally: &mut Tally) -> Reached {
    let (mut seed, mut trees) = (0, Reached::new());
    for n in 1..=8u32 {
        for d in DEGREES {
            let tree = KeyTree::balanced(
                n,
                d,
                &mut KeyGen::from_seed(1 << 40 | u64::from(d << 8 | n)),
            );
            every_batch(&tree, None, &mut seed, tally, |world, tree| {
                if tree.user_count() <= 6 {
                    let key = (tree.user_count(), tree.degree(), tree.user_ids());
                    trees.entry(key).or_insert((tree, world));
                }
            });
        }
    }
    trees
}

#[test]
fn every_batch_on_every_balanced_tree_of_up_to_eight_members() {
    let mut tally = Tally::default();
    first_interval(&mut tally);
    tally.assert_each_behaviour_occurs(8 * DEGREES.len());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "175k checked batches: run in release, as tools/ci.sh does"
)]
fn every_batch_on_every_tree_of_up_to_six_members_the_first_interval_reaches() {
    let trees = first_interval(&mut Tally::default());
    let (mut tally, mut seed) = (Tally::default(), 1 << 32);
    for (tree, first) in trees.values() {
        every_batch(tree, Some(first), &mut seed, &mut tally, |_, _| {});
    }
    tally.assert_each_behaviour_occurs(trees.len());
}

/// `batch` on a copy of `tree` panics with a message holding `expected`,
/// before it changes the copy.
fn refused(tree: &KeyTree, batch: Batch, expected: String) {
    let world = (tree.degree(), tree.user_count(), format!("{batch:?}"));
    let mut copy = tree.clone();
    let mut kg = KeyGen::from_seed(7);
    let run = catch_unwind(AssertUnwindSafe(|| copy.process_batch(&batch, &mut kg)));
    let Err(payload) = run else {
        panic!("(d, N, batch) = {world:?}: accepted, not \"{expected}\"");
    };
    let text = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(text.contains(&expected), "{world:?}: {text}");
    assert!(
        copy.snapshot() == tree.snapshot(),
        "{world:?}: changed the tree"
    );
}

/// Every invalid batch on the trees of up to four members panics naming the
/// member before it changes the tree, in every build: an unknown leaver, the
/// join of a present member, a duplicate joiner and one leaver named twice.
#[test]
fn every_invalid_batch_on_trees_of_up_to_four_members_panics_naming_the_member() {
    let key = SymKey::from_bytes([9; 16]);
    for n in 1..=4u32 {
        for d in DEGREES {
            let tree = KeyTree::balanced(n, d, &mut KeyGen::from_seed(u64::from(d << 8 | n)));
            for mask in 0u32..1 << n {
                let leavers: Vec<MemberId> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
                let unknown = Batch::new(vec![], [leavers.clone(), vec![n + 5]].concat());
                let why = format!("leave request for unknown member {}", n + 5);
                refused(&tree, unknown, why);
                let twice = Batch::new(vec![(n, key); 2], leavers);
                refused(&tree, twice, format!("join request names member {n} twice"));
            }
            for m in 0..n {
                let present = Batch::new(vec![(m, key)], vec![]);
                let why = format!("join request for member {m} already in group");
                refused(&tree, present, why);
                for joins in 0..=MAX_JOINS {
                    let twice = Batch::new((n..n + joins).map(|j| (j, key)).collect(), vec![m, m]);
                    let why = format!("leave request names member {m} twice");
                    refused(&tree, twice, why);
                }
            }
        }
    }
}
