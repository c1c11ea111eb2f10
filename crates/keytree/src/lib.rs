//! Logical key hierarchy (LKH) key trees with periodic batch rekeying.
//!
//! This crate implements the key-management component of the group
//! rekeying system: the key tree, the paper's key-identification strategy,
//! and the *marking algorithm* that processes a batch of `J` joins and `L`
//! leaves at the end of each rekey interval, producing the rekey subtree
//! whose edges become the encryptions of the rekey message.
//!
//! # The tree and its IDs
//!
//! A key tree of degree `d` holds three kinds of nodes:
//!
//! * **u-nodes** — leaves holding users' *individual keys*;
//! * **k-nodes** — interior nodes holding auxiliary keys, with the *group
//!   key* at the root;
//! * **n-nodes** — null placeholders for empty slots.
//!
//! Nodes are identified by the integer they receive when the tree is
//! (conceptually) expanded to a full, balanced tree and numbered top-down,
//! left-to-right: the root is `0`, the children of `m` are
//! `d*m + 1 ..= d*m + d`, and the parent of `m` is `(m - 1) / d`. The ID of
//! a user is the ID of its u-node; the ID of an *encryption* `{k'}_k` is
//! the ID of the encrypting (child) key `k`.
//!
//! The marking algorithm preserves the paper's Lemma 4.1 — every k-node ID
//! is smaller than every u-node ID — which is what lets a user rederive its
//! own ID after tree restructuring from nothing but the maximum current
//! k-node ID (`maxKID`, Theorem 4.2); see [`ident::derive_current_id`].
//!
//! # Example
//!
//! ```
//! use keytree::{Batch, KeyTree};
//! use wirecrypto::KeyGen;
//!
//! let mut keygen = KeyGen::from_seed(1);
//! // A full, balanced group of 16 users with tree degree 4.
//! let mut tree = KeyTree::balanced(16, 4, &mut keygen);
//! let old_group_key = tree.group_key().unwrap();
//!
//! // The user with member id 3 leaves; nobody joins.
//! let batch = Batch::new(vec![], vec![3]);
//! let outcome = tree.process_batch(&batch, &mut keygen);
//!
//! assert_ne!(tree.group_key().unwrap(), old_group_key);
//! assert!(!outcome.encryptions.is_empty());
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

/// Closed-form cost analysis of marking outcomes (paper Section 4).
pub mod analysis;
/// Node-ID arithmetic: Lemma 4.1 ordering and Theorem 4.2 derivation.
pub mod ident;
mod marking;
mod node;
pub mod sanitize;
mod snapshot;
mod tree;

pub use marking::{
    Batch, CompactionPolicy, EncEdge, Label, MarkOutcome, MarkScratch, SubtreeRow, UserMove,
};
pub use node::{MemberId, Node, NodeId};
pub use snapshot::SnapshotError;
pub use tree::KeyTree;
