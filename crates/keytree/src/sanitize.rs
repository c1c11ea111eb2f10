//! Brute-force cross-checks of the marking algorithm, for the tests and
//! the `sanitize` pass.
//!
//! [`verify_marking`] takes the tree as it stood *before* a batch, the
//! tree after, the batch itself, and the [`MarkOutcome`] the marking
//! algorithm produced — and re-derives everything the outcome claims from
//! first principles:
//!
//! * the set of k-nodes whose keys changed (by comparing every key in the
//!   two trees) must be exactly `updated_knodes`;
//! * the encryption edges must be exactly the non-empty children of every
//!   updated k-node, in the documented order;
//! * every current member must be able to reach the new group key by
//!   decrypting edges with keys it already holds (simulated decryption);
//! * no key a departed member held may survive the batch;
//! * every relocation must be re-derivable from `maxKID` alone
//!   (Theorem 4.2).
//!
//! None of this consults the marking code's own labels — the point is an
//! independent derivation that disagrees loudly when the marking code is
//! wrong.

use std::collections::HashMap;

use wirecrypto::SymKey;

use crate::ident;
use crate::marking::{Batch, MarkOutcome};
use crate::node::NodeId;
use crate::tree::KeyTree;

/// Verifies one batch's [`MarkOutcome`] against an independent
/// re-derivation from the before/after trees. Returns the first violation
/// as text.
pub fn verify_marking(
    before: &KeyTree,
    after: &KeyTree,
    batch: &Batch,
    outcome: &MarkOutcome,
) -> Result<(), String> {
    after.check_invariants()?;
    let d = after.degree();

    // ---- membership bookkeeping ------------------------------------
    for m in &batch.leaves {
        if after.node_of_member(*m).is_some() {
            return Err(format!("departed member {m} is still in the tree"));
        }
    }
    for (m, _) in &batch.joins {
        if after.node_of_member(*m).is_none() {
            return Err(format!("joined member {m} is missing from the tree"));
        }
    }
    if outcome.departed != batch.leaves {
        return Err("outcome.departed does not match the batch".into());
    }
    let joined: Vec<_> = batch.joins.iter().map(|(m, _)| *m).collect();
    if outcome.joined != joined {
        return Err("outcome.joined does not match the batch".into());
    }
    if outcome.nk != after.max_knode_id() {
        return Err(format!(
            "outcome.nk = {:?} but the tree's max k-node id is {:?}",
            outcome.nk,
            after.max_knode_id()
        ));
    }

    // ---- changed keys: brute-force rediscovery ---------------------
    // A k-node belongs in `updated_knodes` iff it is new or its key
    // changed. Compare every key slot across the two trees.
    for w in outcome.updated_knodes.windows(2) {
        if w[0] <= w[1] {
            return Err(format!(
                "updated_knodes not in descending order: {} then {}",
                w[0], w[1]
            ));
        }
    }
    let updated: std::collections::HashSet<NodeId> =
        outcome.updated_knodes.iter().copied().collect();
    let storage = before.storage_len().max(after.storage_len());
    for i in 0..storage {
        let id = i as NodeId;
        if !after.node(id).is_k() {
            continue;
        }
        let changed = before.key_of(id) != after.key_of(id);
        if changed && !updated.contains(&id) {
            return Err(format!(
                "k-node {id} got a fresh key but is not in updated_knodes"
            ));
        }
        if !changed && updated.contains(&id) {
            return Err(format!("k-node {id} is in updated_knodes but kept its key"));
        }
    }
    for &id in &outcome.updated_knodes {
        if !after.node(id).is_k() {
            return Err(format!(
                "updated_knodes contains {id}, which is not a k-node"
            ));
        }
    }

    // ---- encryption edges: brute-force rediscovery -----------------
    // For each updated k-node, every non-empty child must receive the new
    // key (vacated slots are n-nodes by now and need nothing). Order:
    // parents in `updated_knodes` order, children ascending.
    let mut expected: Vec<(NodeId, NodeId)> = Vec::new();
    for &p in &outcome.updated_knodes {
        for c in ident::children(p, d) {
            if !after.node(c).is_n() {
                expected.push((c, p));
            }
        }
    }
    let got: Vec<(NodeId, NodeId)> = outcome
        .encryptions
        .iter()
        .map(|e| (e.child, e.parent))
        .collect();
    if got != expected {
        return Err(format!(
            "encryption edges differ from re-derivation: got {got:?}, expected {expected:?}"
        ));
    }

    // ---- delivery: every member reaches the new group key ----------
    // Simulate decryption: a member starts from its individual key plus
    // its old path keys and may learn `parent` from an edge only if it
    // already holds `child`.
    let new_group_key = after.group_key();
    for m in after.member_ids() {
        let uid = after
            .node_of_member(m)
            .ok_or_else(|| format!("member {m} lost its u-node"))?;
        let mut have: HashMap<NodeId, SymKey> = HashMap::new();
        let own = after
            .key_of(uid)
            .ok_or_else(|| format!("member {m} has no individual key"))?;
        have.insert(uid, own);
        if let Some(old_keys) = before.keys_for_member(m) {
            for (id, k) in old_keys {
                have.entry(id).or_insert(k);
            }
        }
        for id in ident::path_to_root(uid, d) {
            if let Some(idx) = outcome.encryption_by_child(id) {
                let edge = outcome.encryptions[idx];
                if !have.contains_key(&edge.child) {
                    return Err(format!(
                        "member {m} lacks key {} needed to decrypt {{{}}}",
                        edge.child, edge.parent
                    ));
                }
                let parent_key = after
                    .key_of(edge.parent)
                    .ok_or_else(|| format!("edge parent {} has no key", edge.parent))?;
                have.insert(edge.parent, parent_key);
            } else if let Some(p) = ident::parent(id, d) {
                if updated.contains(&p) {
                    return Err(format!("updated k-node {p} has no edge from child {id}"));
                }
            }
        }
        if have.get(&0).copied() != new_group_key {
            return Err(format!("member {m} cannot reach the new group key"));
        }
    }

    // ---- forward secrecy: departed members learn nothing -----------
    for m in &outcome.departed {
        if after.node_of_member(*m).is_some() {
            continue; // re-admitted in the same batch
        }
        let old_uid = before
            .node_of_member(*m)
            .ok_or_else(|| format!("departed member {m} was never in the tree"))?;
        if let Some(idx) = outcome.encryption_by_child(old_uid) {
            let edge = outcome.encryptions[idx];
            if after.key_of(edge.child) == before.key_of(old_uid) {
                return Err(format!(
                    "edge under slot {old_uid} is sealed with departed member {m}'s key"
                ));
            }
        }
        // Every k-key the member knew must be replaced or gone.
        for id in ident::path_to_root(old_uid, d) {
            if id == old_uid {
                continue;
            }
            if after.node(id).is_k() && after.key_of(id) == before.key_of(id) {
                return Err(format!(
                    "k-node {id} kept its key although departed member {m} knew it"
                ));
            }
        }
    }

    // ---- Theorem 4.2: moves re-derivable from maxKID alone ---------
    for mv in &outcome.moves {
        let derived = outcome
            .nk
            .and_then(|nk| ident::derive_current_id(mv.old_id, nk, d));
        if derived != Some(mv.new_id) {
            return Err(format!(
                "move {} -> {} not re-derivable from maxKID (got {derived:?})",
                mv.old_id, mv.new_id
            ));
        }
    }

    // ---- compaction relocations: explicit, downward, key-preserving -
    // Unlike `moves`, these are NOT re-derivable from maxKID (they go
    // *down*, outside Theorem 4.2's upward split window), which is
    // exactly why they travel in a separate field. Check each one moved
    // a real member downward with its individual key intact, and that
    // the rederivation identity holds at the destination so ENC
    // processing still works for the relocated member.
    for rl in &outcome.relocations {
        if rl.new_id >= rl.old_id {
            return Err(format!(
                "relocation {} -> {} is not downward",
                rl.old_id, rl.new_id
            ));
        }
        if before.member_at(rl.old_id) != Some(rl.member) {
            return Err(format!(
                "relocated member {} was not at {} before the batch",
                rl.member, rl.old_id
            ));
        }
        if after.node_of_member(rl.member) != Some(rl.new_id) {
            return Err(format!(
                "relocated member {} is not at {} after the batch",
                rl.member, rl.new_id
            ));
        }
        if after.key_of(rl.new_id) != before.key_of(rl.old_id) {
            return Err(format!(
                "relocation {} -> {} did not preserve the individual key",
                rl.old_id, rl.new_id
            ));
        }
        let derived = outcome
            .nk
            .and_then(|nk| ident::derive_current_id(rl.new_id, nk, d));
        if derived != Some(rl.new_id) {
            return Err(format!(
                "relocated slot {} is outside the maxKID window (derived {derived:?})",
                rl.new_id
            ));
        }
        if outcome.moves.iter().any(|mv| mv.member == rl.member) {
            return Err(format!(
                "member {} appears in both moves and relocations",
                rl.member
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::{Label, MarkScratch};
    use wirecrypto::KeyGen;

    fn keygen() -> KeyGen {
        KeyGen::from_seed(99)
    }

    fn join(kg: &mut KeyGen, m: u32) -> (u32, SymKey) {
        (m, kg.next_key())
    }

    /// Processes a batch and runs the full cross-check.
    fn checked_batch(tree: &mut KeyTree, batch: Batch, kg: &mut KeyGen) -> MarkOutcome {
        checked_batch_in(tree, batch, kg, &mut MarkScratch::new())
    }

    /// [`checked_batch`] leaving the batch's labels in the caller's scratch.
    fn checked_batch_in(
        tree: &mut KeyTree,
        batch: Batch,
        kg: &mut KeyGen,
        scratch: &mut MarkScratch,
    ) -> MarkOutcome {
        let before = tree.clone();
        let outcome = tree.process_batch_in(batch.clone(), kg, scratch);
        verify_marking(&before, tree, &batch, &outcome).unwrap();
        outcome
    }

    #[test]
    fn leave_all_members_passes() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let leaves: Vec<u32> = (0..16).collect();
        let outcome = checked_batch(&mut tree, Batch::new(vec![], leaves), &mut kg);
        assert_eq!(tree.user_count(), 0);
        assert_eq!(tree.group_key(), None);
        assert!(outcome.encryptions.is_empty());
    }

    #[test]
    fn joins_only_with_splits_passes() {
        let mut kg = keygen();
        // Full 16-user degree-4 tree: any join forces node splitting.
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let joins: Vec<_> = (0..9).map(|i| join(&mut kg, 100 + i)).collect();
        let outcome = checked_batch(&mut tree, Batch::new(joins, vec![]), &mut kg);
        assert!(!outcome.moves.is_empty(), "splits must relocate users");
        assert_eq!(tree.user_count(), 25);
    }

    #[test]
    fn long_empty_slots_are_not_labelled_leave() {
        // The DESIGN.md deviation from the paper's Appendix B: an n-node
        // that was *already* empty before the batch must stay transparent
        // to labelling — only slots vacated this batch read Leave. The
        // paper's literal text would label all n-nodes Leave, forcing key
        // churn from long-empty slots on every batch.
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        // Batch 1 vacates slot 5 (member 0), leaving a lasting hole.
        let mut scratch = MarkScratch::new();
        let first = Batch::new(vec![], vec![0]);
        checked_batch_in(&mut tree, first, &mut kg, &mut scratch);
        assert_eq!(
            scratch.label_of(5),
            Some(Label::Leave),
            "fresh hole is Leave"
        );

        // Batch 2 touches a *different* subtree. The old hole at 5 must
        // not resurface as Leave, and k-node 1 above it must change only
        // because the group key path demands it — here it must stay
        // untouched entirely.
        let second = Batch::new(vec![], vec![15]);
        let o2 = checked_batch_in(&mut tree, second, &mut kg, &mut scratch);
        assert_eq!(
            scratch.label_of(5),
            None,
            "long-empty slot must be unlabelled"
        );
        assert!(
            !o2.updated_knodes.contains(&1),
            "k-node above a long-empty slot must not rekey"
        );
    }

    #[test]
    fn churn_sequence_passes_cross_check_every_round() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(27, 3, &mut kg);
        let mut next = 27u32;
        for round in 0u32..12 {
            let members = tree.member_ids();
            let leaves: Vec<u32> = members
                .iter()
                .copied()
                .filter(|m| (m + round) % 4 == 0)
                .take(5)
                .collect();
            let joins: Vec<_> = (0..(round % 7))
                .map(|_| {
                    next += 1;
                    join(&mut kg, next)
                })
                .collect();
            checked_batch(&mut tree, Batch::new(joins, leaves), &mut kg);
        }
    }

    #[test]
    fn cross_check_rejects_a_forged_outcome() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let batch = Batch::new(vec![], vec![3]);
        let mut outcome = tree.process_batch(&batch, &mut kg);
        // Drop an edge: delivery must now fail for some member.
        outcome.encryptions.pop();
        assert!(verify_marking(&before, &tree, &batch, &outcome).is_err());
    }

    #[test]
    fn compaction_passes_cross_check_every_round() {
        use crate::marking::{CompactionPolicy, MarkScratch};
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(512, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy::DEFAULT_ON;
        // Mass departure, then empty batches drain the relocation budget;
        // every round must survive the full oracle, relocations included.
        let leaves: Vec<u32> = (32..512).collect();
        let mut batch = Batch::new(vec![], leaves);
        let mut saw_relocations = false;
        for _ in 0..24 {
            let before = tree.clone();
            let outcome =
                tree.process_batch_compacting_in(batch.clone(), &mut kg, &mut scratch, &policy);
            verify_marking(&before, &tree, &batch, &outcome).unwrap();
            saw_relocations |= !outcome.relocations.is_empty();
            if outcome.relocations.is_empty() && outcome.departed.is_empty() {
                break;
            }
            batch = Batch::default();
        }
        assert!(saw_relocations, "compaction never produced relocations");
    }

    #[test]
    fn cross_check_rejects_a_forged_relocation() {
        use crate::marking::{CompactionPolicy, MarkScratch, UserMove};
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(512, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy::DEFAULT_ON;
        let before = tree.clone();
        let batch = Batch::new(vec![], (32..512).collect());
        let mut outcome =
            tree.process_batch_compacting_in(batch.clone(), &mut kg, &mut scratch, &policy);
        // Claim a relocation that never happened: member 0 did not move.
        let bogus_slot = tree.node_of_member(0).unwrap();
        outcome.relocations.push(UserMove {
            member: 0,
            old_id: bogus_slot + 1000,
            new_id: bogus_slot,
        });
        assert!(verify_marking(&before, &tree, &batch, &outcome).is_err());
    }
}
