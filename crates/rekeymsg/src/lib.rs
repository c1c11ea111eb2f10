//! Rekey message construction and parsing.
//!
//! This crate turns the logical output of the marking algorithm (a list of
//! encryptions `{k_parent}_{k_child}`) into the four wire packet types of
//! the rekey transport protocol, and gives users the tools to consume them:
//!
//! * [`wire`] — byte-level formats for `ENC`, `PARITY`, `USR` and `NACK`
//!   packets (fixed-length `ENC`/`PARITY` packets so FEC can operate on
//!   whole packet bodies), parsed in full, header-only in place, or — the
//!   one `ENC` packet that serves a user — kept as its frame and read there;
//! * [`assign`] — the **User-oriented Key Assignment** (UKA) algorithm: all
//!   of a user's encryptions land in a single `ENC` packet, with packets
//!   covering non-overlapping, increasing user-ID ranges;
//! * [`blocks`] — partition of the `ENC` sequence into FEC blocks of size
//!   `k`, last-block duplication, interleaved send order, and on-demand
//!   Reed–Solomon parity generation;
//! * [`estimate`] — the user-side block-ID estimation of Appendix D, for
//!   users that lost their specific `ENC` packet.
//!
//! With the default layout (1027-byte `ENC` packets, 20-byte sealed keys,
//! 2-byte encryption IDs, 9 bytes of header) a packet carries 46
//! encryptions — the constant the paper's duplication-overhead bound
//! `(log_d N - 1) / 46` refers to.

//! # Example
//!
//! ```
//! use keytree::{Batch, KeyTree};
//! use rekeymsg::{Layout, UkaAssignment};
//! use wirecrypto::KeyGen;
//!
//! let mut kg = KeyGen::from_seed(1);
//! let mut tree = KeyTree::balanced(64, 4, &mut kg);
//! let outcome = tree.process_batch(&Batch::new(vec![], vec![3, 17]), &mut kg);
//!
//! let msg = UkaAssignment::build(&tree, &outcome, 1, &Layout::DEFAULT).unwrap();
//! // Every remaining user's encryptions sit in exactly one packet.
//! for (user, pkt) in msg.served_users(&tree) {
//!     assert!(msg.packets[pkt].serves(user as u16));
//! }
//! ```

// Panic-free outside tests; an exception is a reasoned `#[expect]` (ci.sh denies clippy warnings).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod assign;
pub mod blocks;
pub mod estimate;
mod layout;
pub mod sanitize;
pub mod wire;

pub use assign::{
    naive_plan_stats, plan, plan_in, AssignError, AssignmentStats, NaiveAssignmentStats,
    PacketPlan, PlanScratch, UkaAssignment, UserRun,
};
pub use blocks::{BlockSet, SendOrder};
pub use layout::{Layout, PROTECTED_HEADER_LEN, UNPROTECTED_HEADER_LEN};
pub use wire::{
    ColumnIndex, EncFrame, EncHeader, EncPacket, Header, NackPacket, NackRequest, Packet,
    ParityPacket, UsrPacket, WireError, MAX_BLOCK_SIZE,
};

/// Builds the USR packet for one user: the sealed encryptions it needs,
/// in increasing encryption-ID order (IDs omitted on the wire).
///
/// `None` when `member` is not in the tree, when a key on its path is
/// missing, or when its u-node ID does not fit the 16-bit `newUserID`
/// wire field (a truncated ID would address the packet to another user).
pub fn build_usr_packet(
    tree: &keytree::KeyTree,
    outcome: &keytree::MarkOutcome,
    member: keytree::MemberId,
    msg_seq: u64,
) -> Option<UsrPacket> {
    let uid = tree.node_of_member(member)?;
    let new_user_id = u16::try_from(uid).ok()?;
    let mut idxs = outcome.encryptions_for_user(uid, tree.degree());
    // Path order is leaf-first; wire order is increasing encryption (child)
    // ID, which is root-side first.
    idxs.sort_by_key(|&i| outcome.encryptions[i].child);
    let mut sealed = Vec::with_capacity(idxs.len());
    for &i in &idxs {
        let edge = outcome.encryptions[i];
        let kek = tree.key_of(edge.child)?;
        let plain = tree.key_of(edge.parent)?;
        sealed.push(wirecrypto::SealedKey::seal(
            &kek,
            &plain,
            seal_context(msg_seq, edge.child),
        ));
    }
    Some(UsrPacket {
        msg_id: (msg_seq & 0x3f) as u8,
        new_user_id,
        sealed,
    })
}

/// Nonce/context for sealing the encryption whose encrypting key is node
/// `child` within rekey message `msg_seq`.
///
/// Uses the *full* message sequence number (not the 6-bit wire ID): both
/// sides count messages, and a key that survives several intervals (an
/// Unchanged child) must never reuse a sealing context.
pub fn seal_context(msg_seq: u64, child: keytree::NodeId) -> u64 {
    (msg_seq << 20) ^ child as u64
}
