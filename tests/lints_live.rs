//! One deliberate violation per project lint, each under an `#[expect]`,
//! compiled by `cargo clippy --all-targets -- -D warnings` (tools/ci.sh).
//! Nothing here runs.
//!
//! What an expectation proves depends on where the rule lives. For the two
//! lists in `clippy.toml` it is the proof that the list is read and
//! matches: without its entry the lint has nothing to report here and the
//! expectation is unfulfilled (tried: deleting `HashMap::keys`,
//! `HashSet::iter` or `AtomicU64` from the list fails this file). For the
//! `[workspace.lints.clippy]` names it pins the shape each lint has to
//! catch and that clippy still has a lint of that name — but an `#[expect]`
//! raises its lint whatever the table says, so that the table switches them
//! on, and that every member inherits it, is `tools/ci.sh`'s wiring check.
//!
//! Not here: `unsafe_code` is `forbid`, which no `#[expect]` may override
//! (xcheck-rt's `GlobalAlloc` impl is the live expectation, under `deny`);
//! the panic-family lints and gf256's cast lint are attribute lines in
//! those crates.

use std::collections::{HashMap, HashSet};

/// `clippy.toml` `disallowed-methods`, the `HashMap` entries: an iterator
/// chain off a map, which `iter_over_hash_type` does not see.
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: proves the list is read"
)]
pub fn unordered_map_chain(map: &HashMap<u32, u8>) -> Vec<u32> {
    map.keys().copied().collect()
}

/// `clippy.toml` `disallowed-methods`, the `HashSet` entries.
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: proves the list is read"
)]
pub fn unordered_set_chain(set: &HashSet<u32>) -> Vec<u32> {
    set.iter().map(|v| v + 1).collect()
}

/// `clippy.toml` `disallowed-types`: an atomic without its justification.
#[expect(clippy::disallowed_types, reason = "fixture: proves the list is read")]
pub fn unjustified_atomic() -> u64 {
    std::sync::atomic::AtomicU64::new(0).into_inner()
}

/// `iter_over_hash_type`: a `for` over a hash collection.
#[expect(
    clippy::iter_over_hash_type,
    reason = "fixture: the shape the lint must catch"
)]
pub fn unordered_for(set: &HashSet<u32>, out: &mut Vec<u32>) {
    for v in set {
        out.push(*v);
    }
}

/// `missing_docs`.
pub mod undocumented {
    #[expect(missing_docs, reason = "fixture: the shape the lint must catch")]
    pub fn no_doc_comment() {}
}

/// `todo`.
#[expect(clippy::todo, reason = "fixture: the shape the lint must catch")]
pub fn unfinished() {
    todo!()
}

/// `unimplemented`.
#[expect(
    clippy::unimplemented,
    reason = "fixture: the shape the lint must catch"
)]
pub fn stubbed() {
    unimplemented!()
}

/// `allow_attributes` and `allow_attributes_without_reason`: suppression is
/// `#[expect]` with a reason, never a bare `#[allow]`.
#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "fixture: the shape the lints must catch"
)]
pub mod bare_allow {
    #[allow(dead_code)]
    fn unused() {}
}
