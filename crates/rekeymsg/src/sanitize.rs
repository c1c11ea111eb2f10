//! Deep rekey-message checks, for the tests and the `sanitize` pass.
//!
//! [`verify_message`] audits one sealed [`UkaAssignment`] against the tree
//! and marking outcome it was built from:
//!
//! * UKA coverage — every member that needs encryptions is served by
//!   exactly one packet that carries *all* of them, and the packets' user
//!   ranges strictly increase (what block-ID estimation relies on);
//! * cryptographic consistency — every `<ID, sealed key>` entry actually
//!   unseals, under the child's current key and the message's seal
//!   context, to the parent's current key;
//! * wire identity — `emit` followed by `parse` reproduces every packet
//!   exactly, as does a frame kept over its bytes ([`EncFrame::to_packet`]),
//!   and the header a receiver probes off the FEC body
//!   ([`EncHeader::from_fec_body`]) is the packet's.

use std::collections::HashSet;

use keytree::{KeyTree, MarkOutcome, NodeId};

use crate::assign::{PacketPlan, UkaAssignment};
use crate::layout::Layout;
use crate::seal_context;
use crate::wire::{EncFrame, EncHeader, Packet};

/// One packet of the reference (user-by-user) UKA plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferencePlan {
    /// First served user ID.
    pub frm_id: NodeId,
    /// Last served user ID.
    pub to_id: NodeId,
    /// Indices into `MarkOutcome::encryptions`, ascending by encryption ID.
    pub enc_indices: Vec<usize>,
    /// Every served user, ascending — materialized, O(N) total.
    pub users: Vec<NodeId>,
}

/// The original user-by-user UKA planner, kept verbatim as the oracle for
/// the run-aggregated production planner: walk the sorted user IDs,
/// greedily extend the open packet while the union of need-sets fits, and
/// split exactly when the next user would overflow it. O(N·h) — fine for
/// an oracle, the reason the production planner aggregates runs.
///
/// # Errors
///
/// Returns the same condition [`crate::assign::AssignError::PacketCapacity`]
/// reports — a user whose whole need-set exceeds one packet — as text,
/// naming the same (first violating) user.
pub fn reference_plan(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    layout: &Layout,
) -> Result<Vec<ReferencePlan>, String> {
    let capacity = layout.encryptions_per_packet();
    let degree = tree.degree();
    let mut plans: Vec<ReferencePlan> = Vec::new();
    let mut current_users: Vec<NodeId> = Vec::new();
    let mut current_set: HashSet<usize> = HashSet::new();
    let mut current_list: Vec<usize> = Vec::new();
    let mut needs: Vec<usize> = Vec::new();
    let close = |users: &mut Vec<NodeId>, list: &mut Vec<usize>| {
        let mut enc_indices = std::mem::take(list);
        enc_indices.sort_by_key(|&i| outcome.encryptions[i].child);
        let users = std::mem::take(users);
        ReferencePlan {
            frm_id: users.first().copied().unwrap_or(0),
            to_id: users.last().copied().unwrap_or(0),
            enc_indices,
            users,
        }
    };
    for uid in tree.user_ids_iter() {
        outcome.encryptions_for_user_into(uid, degree, &mut needs);
        if needs.is_empty() {
            continue;
        }
        if needs.len() > capacity {
            return Err(format!(
                "user {uid} needs {} encryptions but packets hold {capacity}: \
                 layout too small for this tree height",
                needs.len()
            ));
        }
        let extra = needs.iter().filter(|i| !current_set.contains(*i)).count();
        if !current_users.is_empty() && current_set.len() + extra > capacity {
            plans.push(close(&mut current_users, &mut current_list));
            current_set.clear();
        }
        for &i in &needs {
            if current_set.insert(i) {
                current_list.push(i);
            }
        }
        current_users.push(uid);
    }
    if !current_users.is_empty() {
        plans.push(close(&mut current_users, &mut current_list));
    }
    Ok(plans)
}

/// Checks that `plans` (from the run-aggregated planner) are bit-identical
/// to the reference user-by-user plan: same packet count, and per packet
/// the same `frm_id`/`to_id`, the same sorted `enc_indices`, and the same
/// enumerated users. Returns the first divergence as text.
pub fn check_plan_identity(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    plans: &[PacketPlan],
    layout: &Layout,
) -> Result<(), String> {
    let reference = reference_plan(tree, outcome, layout)?;
    if plans.len() != reference.len() {
        return Err(format!(
            "planner emitted {} packets, reference {}",
            plans.len(),
            reference.len()
        ));
    }
    for (pi, (got, want)) in plans.iter().zip(reference.iter()).enumerate() {
        if (got.frm_id, got.to_id) != (want.frm_id, want.to_id) {
            return Err(format!(
                "packet {pi} range <{}, {}> != reference <{}, {}>",
                got.frm_id, got.to_id, want.frm_id, want.to_id
            ));
        }
        if got.enc_indices != want.enc_indices {
            return Err(format!(
                "packet {pi} enc_indices {:?} != reference {:?}",
                got.enc_indices, want.enc_indices
            ));
        }
        let mut got_users = got.users_iter(tree);
        let mut n = 0usize;
        for &want_u in &want.users {
            match got_users.next() {
                Some(u) if u == want_u => n += 1,
                Some(u) => {
                    return Err(format!(
                        "packet {pi} user #{n} is {u}, reference has {want_u}"
                    ));
                }
                None => {
                    return Err(format!(
                        "packet {pi} enumerates {n} users, reference {}",
                        want.users.len()
                    ));
                }
            }
        }
        if let Some(u) = got_users.next() {
            return Err(format!(
                "packet {pi} enumerates extra user {u} beyond the reference's {}",
                want.users.len()
            ));
        }
    }
    Ok(())
}

/// Verifies one assignment end to end. Returns the first violation as
/// text.
pub fn verify_message(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    assignment: &UkaAssignment,
    msg_seq: u64,
    layout: &Layout,
) -> Result<(), String> {
    if assignment.packets.len() != assignment.plans.len() {
        return Err(format!(
            "{} packets but {} plans",
            assignment.packets.len(),
            assignment.plans.len()
        ));
    }

    // ---- UKA ranges strictly increase and never overlap ------------
    for w in assignment.plans.windows(2) {
        if w[0].to_id >= w[1].frm_id {
            return Err(format!(
                "user ranges overlap or regress: <{}, {}> then <{}, {}>",
                w[0].frm_id, w[0].to_id, w[1].frm_id, w[1].to_id
            ));
        }
    }

    // ---- plans are bit-identical to the user-by-user oracle --------
    check_plan_identity(tree, outcome, &assignment.plans, layout)?;

    // ---- coverage: one packet per user, carrying its whole path ----
    for uid in tree.user_ids() {
        let needs = outcome.encryptions_for_user(uid, tree.degree());
        match assignment.packet_of_user(uid) {
            None => {
                if !needs.is_empty() {
                    return Err(format!(
                        "user {uid} needs {} encryptions but no packet serves it",
                        needs.len()
                    ));
                }
            }
            Some(pi) => {
                let pkt = assignment
                    .packets
                    .get(pi)
                    .ok_or_else(|| format!("user {uid} mapped to missing packet {pi}"))?;
                if !pkt.serves(uid as u16) {
                    return Err(format!(
                        "packet {pi} <{}, {}> does not serve its user {uid}",
                        pkt.header().frm_id,
                        pkt.header().to_id
                    ));
                }
                for i in needs {
                    let child = outcome.encryptions[i].child;
                    if !pkt.entries().any(|(id, _)| id == child as u16) {
                        return Err(format!(
                            "packet {pi} serves user {uid} but lacks encryption {child}"
                        ));
                    }
                }
            }
        }
    }

    // ---- every entry unseals to the parent's current key -----------
    for (pi, pkt) in assignment.packets.iter().enumerate() {
        for (enc_id, sealed) in pkt.entries() {
            let child = enc_id as NodeId;
            let idx = outcome
                .encryption_by_child(child)
                .ok_or_else(|| format!("packet {pi} carries unknown encryption {child}"))?;
            let edge = outcome.encryptions[idx];
            let kek = tree
                .key_of(child)
                .ok_or_else(|| format!("tree lost the key of child {child}"))?;
            let plain = tree
                .key_of(edge.parent)
                .ok_or_else(|| format!("tree lost the key of parent {}", edge.parent))?;
            match sealed.unseal(&kek, seal_context(msg_seq, child)) {
                Ok(k) if k == plain => {}
                Ok(_) => {
                    return Err(format!(
                        "entry {child} in packet {pi} unseals to the wrong key"
                    ));
                }
                Err(e) => {
                    return Err(format!("entry {child} in packet {pi} fails to unseal: {e}"));
                }
            }
        }
    }

    // ---- wire identity: emit → parse, header and FEC-body paths ----
    for (pi, pkt) in assignment.packets.iter().enumerate() {
        let bytes = pkt.emit();
        match Packet::parse(&bytes, layout) {
            Ok(Packet::Enc(back)) => {
                if back != *pkt {
                    return Err(format!("packet {pi} does not survive emit/parse"));
                }
            }
            Ok(_) => return Err(format!("packet {pi} re-parsed as a non-ENC packet")),
            Err(e) => return Err(format!("packet {pi} fails to re-parse: {e}")),
        }
        let frame = EncFrame::new(bytes.into(), layout)
            .map_err(|e| format!("packet {pi} fails to make a frame: {e}"))?;
        let h = pkt.header();
        let probed = EncHeader::from_fec_body(pkt.as_ref(), h.msg_id, h.block_id, h.seq);
        if frame.to_packet() != *pkt || probed != Ok(h) {
            return Err(format!(
                "packet {pi} frame or body header altered its fields"
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::EncPacket;
    use keytree::Batch;
    use wirecrypto::KeyGen;

    fn setup() -> (KeyTree, MarkOutcome, UkaAssignment, u64, Layout) {
        let mut kg = KeyGen::from_seed(11);
        let mut tree = KeyTree::balanced(64, 4, &mut kg);
        let leaves: Vec<u32> = vec![1, 9, 17, 33];
        let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
        let layout = Layout::DEFAULT;
        let msg_seq = 7;
        let assignment = UkaAssignment::build(&tree, &outcome, msg_seq, &layout).unwrap();
        (tree, outcome, assignment, msg_seq, layout)
    }

    #[test]
    fn well_formed_assignment_passes() {
        let (tree, outcome, assignment, msg_seq, layout) = setup();
        verify_message(&tree, &outcome, &assignment, msg_seq, &layout).unwrap();
    }

    #[test]
    fn corrupted_seal_is_detected() {
        let (tree, outcome, mut assignment, msg_seq, layout) = setup();
        // Swap two entries' sealed keys: both still parse, neither unseals
        // to the right parent under its own context.
        let pkt = &mut assignment.packets[0];
        let mut entries: Vec<_> = pkt.entries().collect();
        assert!(entries.len() >= 2, "test needs two entries");
        let a = entries[0].1;
        entries[0].1 = entries[1].1;
        entries[1].1 = a;
        *pkt = EncPacket::new(pkt.header(), entries, &layout).unwrap();
        let err = verify_message(&tree, &outcome, &assignment, msg_seq, &layout).unwrap_err();
        assert!(err.contains("unseal"), "{err}");
    }

    #[test]
    fn dropped_entry_is_detected() {
        let (tree, outcome, mut assignment, msg_seq, layout) = setup();
        let pkt = &mut assignment.packets[0];
        let mut entries: Vec<_> = pkt.entries().collect();
        entries.pop();
        *pkt = EncPacket::new(pkt.header(), entries, &layout).unwrap();
        assert!(verify_message(&tree, &outcome, &assignment, msg_seq, &layout).is_err());
    }

    #[test]
    fn wrong_msg_seq_fails_unsealing() {
        let (tree, outcome, assignment, msg_seq, layout) = setup();
        let err = verify_message(&tree, &outcome, &assignment, msg_seq + 1, &layout).unwrap_err();
        assert!(err.contains("unseal"), "{err}");
    }
}
