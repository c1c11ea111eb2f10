//! The driver-side deep invariant pass (`--features sanitize`).
//!
//! When the workspace is built with the `sanitize` feature, the key server
//! and the experiment driver run every deep checker after every batch:
//!
//! * [`keytree::sanitize::verify_marking`] — structural invariants plus a
//!   brute-force re-derivation of changed keys and encryption edges;
//! * [`rekeymsg::sanitize::verify_message`] — UKA coverage, seal/unseal
//!   consistency, and wire encode/decode identity;
//! * [`rse::sanitize::verify_block_roundtrip`] — encode→erase→decode
//!   round trip over every FEC block's actual packet bodies.
//!
//! A sanitizer finding is always a bug in the pipeline, never a recoverable
//! condition, so violations panic with the checker's description.

#![expect(
    clippy::panic,
    reason = "this module's job: a sanitizer finding is a bug in the pipeline, reported by panicking with the checker's description"
)]

use keytree::{Batch, KeyTree, MarkOutcome};
use rekeymsg::{BlockSet, UkaAssignment};

/// Parity shares re-encoded per block for the round-trip check; two is
/// enough to exercise a non-trivial Vandermonde submatrix on both erasure
/// patterns without dominating sim time.
const ROUNDTRIP_PARITIES: usize = 2;

/// Cross-checks one processed batch against its before/after trees.
///
/// # Panics
///
/// Panics on the first violated invariant.
pub fn check_batch(before: &KeyTree, after: &KeyTree, batch: &Batch, outcome: &MarkOutcome) {
    if let Err(e) = keytree::sanitize::verify_marking(before, after, batch, outcome) {
        panic!("sanitize: marking cross-check failed: {e}");
    }
}

/// Audits one rekey message: the sealed assignment and every FEC block.
///
/// # Panics
///
/// Panics on the first violated invariant.
pub fn check_message(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    assignment: &UkaAssignment,
    blocks: &BlockSet,
    msg_seq: u64,
) {
    let layout = &blocks.layout();
    if let Err(e) = rekeymsg::sanitize::verify_message(tree, outcome, assignment, msg_seq, layout) {
        panic!("sanitize: message audit failed: {e}");
    }
    for b in 0..blocks.block_count() {
        let Some(block) = blocks.block(b) else {
            panic!("sanitize: block {b} out of range despite block_count");
        };
        let bodies: Vec<Vec<u8>> = block.packets.iter().map(|p| p.as_ref().to_vec()).collect();
        if let Err(e) =
            rse::sanitize::verify_block_roundtrip(blocks.k(), &bodies, ROUNDTRIP_PARITIES)
        {
            panic!("sanitize: FEC round-trip failed on block {b}: {e}");
        }
    }
}
