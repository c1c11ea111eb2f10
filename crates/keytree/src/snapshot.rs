//! Key-tree snapshots: serialise the server's entire key state for crash
//! recovery.
//!
//! The rekey protocol is stateful in a dangerous way: the server encrypts
//! *next* interval's keys under *this* interval's keys, so losing the tree
//! means re-registering every member. A snapshot captures the full tree
//! (structure + key material) in a compact self-describing binary format;
//! [`KeyTree::restore`] validates structure and re-checks the paper's
//! invariants before accepting it.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "LKH1" | degree: u32 | node count: u64 |
//!   per node: tag u8 (0 = N, 1 = K, 2 = U) |
//!     K: key 16 B
//!     U: member u32, key 16 B
//! ```
//!
//! Snapshots contain raw key material: encrypt them at rest (e.g. with
//! `wirecrypto::StreamCipher` under a storage master key).

use wirecrypto::SymKey;

use crate::node::{Node, NodeId};
use crate::tree::KeyTree;

const MAGIC: &[u8; 4] = b"LKH1";

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic/version header.
    BadMagic,
    /// The buffer ended mid-record.
    Truncated,
    /// An unknown node tag.
    BadTag(u8),
    /// Structural validation failed after decoding.
    Invalid(String),
    /// A declared size is beyond sane bounds.
    Unreasonable,
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a key-tree snapshot"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadTag(t) => write!(f, "unknown node tag {t}"),
            SnapshotError::Invalid(why) => write!(f, "snapshot fails validation: {why}"),
            SnapshotError::Unreasonable => write!(f, "snapshot declares an unreasonable size"),
        }
    }
}

impl std::error::Error for SnapshotError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[expect(
    clippy::unreachable,
    reason = "invariant: `take(n)` returns exactly n bytes or `Truncated`"
)]
impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let Some(bytes) = self.take(4)?.first_chunk::<4>() else {
            unreachable!("take(4) returns 4 bytes")
        };
        Ok(u32::from_le_bytes(*bytes))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let Some(bytes) = self.take(8)?.first_chunk::<8>() else {
            unreachable!("take(8) returns 8 bytes")
        };
        Ok(u64::from_le_bytes(*bytes))
    }

    fn key(&mut self) -> Result<SymKey, SnapshotError> {
        let Some(bytes) = self.take(16)?.first_chunk::<16>() else {
            unreachable!("take(16) returns 16 bytes")
        };
        Ok(SymKey::from_bytes(*bytes))
    }
}

impl KeyTree {
    /// Serialises the whole tree (structure and key material).
    ///
    /// The encoding is canonical: trailing n-node slots are trimmed, so
    /// two trees with the same live nodes — regardless of how much slack
    /// their storage accumulated — serialise to identical bytes, and
    /// `restore(snapshot(t)).snapshot() == snapshot(t)`.
    pub fn snapshot(&self) -> Vec<u8> {
        let node_count = (0..self.storage_len() as NodeId)
            .rev()
            .find(|&id| !self.is_n(id))
            .map_or(0, |id| id as usize + 1);
        let mut out = Vec::with_capacity(12 + node_count * 21);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.degree().to_le_bytes());
        out.extend_from_slice(&(node_count as u64).to_le_bytes());
        for id in 0..node_count as NodeId {
            match self.node(id) {
                Node::N => out.push(0),
                Node::K { key } => {
                    out.push(1);
                    out.extend_from_slice(key.as_bytes());
                }
                Node::U { member, key } => {
                    out.push(2);
                    out.extend_from_slice(&member.to_le_bytes());
                    out.extend_from_slice(key.as_bytes());
                }
            }
        }
        out
    }

    /// Restores a tree from a snapshot, re-validating all invariants.
    pub fn restore(bytes: &[u8]) -> Result<KeyTree, SnapshotError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let degree = r.u32()?;
        if !(2..=64).contains(&degree) {
            return Err(SnapshotError::Invalid(format!("degree {degree}")));
        }
        let node_count = r.u64()?;
        if node_count > 16_000_000 {
            return Err(SnapshotError::Unreasonable);
        }
        let mut tree = KeyTree::new(degree);
        for id in 0..node_count as NodeId {
            let node = match r.u8()? {
                0 => Node::N,
                1 => Node::K { key: r.key()? },
                2 => Node::U {
                    member: r.u32()?,
                    key: r.key()?,
                },
                t => return Err(SnapshotError::BadTag(t)),
            };
            if !matches!(node, Node::N) {
                tree.set_node(id, node);
            }
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::Invalid("trailing bytes".into()));
        }
        tree.check_invariants().map_err(SnapshotError::Invalid)?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batch;
    use wirecrypto::KeyGen;

    fn churned_tree() -> KeyTree {
        let mut kg = KeyGen::from_seed(7);
        let mut tree = KeyTree::balanced(64, 4, &mut kg);
        // Leave holes and splits behind.
        tree.process_batch(&Batch::new(vec![], vec![3, 17, 40, 41, 42, 43]), &mut kg);
        let joins = (0..9).map(|i| (100 + i, kg.next_key())).collect();
        tree.process_batch(&Batch::new(joins, vec![]), &mut kg);
        tree
    }

    #[test]
    fn round_trip_preserves_everything() {
        let tree = churned_tree();
        let snap = tree.snapshot();
        let restored = KeyTree::restore(&snap).unwrap();
        assert_eq!(restored.degree(), tree.degree());
        assert_eq!(restored.user_count(), tree.user_count());
        assert_eq!(restored.group_key(), tree.group_key());
        assert_eq!(restored.max_knode_id(), tree.max_knode_id());
        for m in tree.member_ids() {
            assert_eq!(restored.node_of_member(m), tree.node_of_member(m));
            assert_eq!(
                restored.keys_for_member(m),
                tree.keys_for_member(m),
                "member {m} keys"
            );
        }
        // And the restored tree keeps working.
        let mut kg = KeyGen::from_seed(99);
        let mut restored = restored;
        let outcome = restored.process_batch(&Batch::new(vec![], vec![100]), &mut kg);
        assert!(outcome.group_key_changed());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut snap = churned_tree().snapshot();
        snap[0] ^= 1;
        assert!(matches!(
            KeyTree::restore(&snap),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn truncation_rejected() {
        let snap = churned_tree().snapshot();
        for cut in [3usize, 10, snap.len() / 2, snap.len() - 1] {
            assert!(
                KeyTree::restore(&snap[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut snap = churned_tree().snapshot();
        snap.push(0);
        assert!(matches!(
            KeyTree::restore(&snap),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut snap = churned_tree().snapshot();
        // First node tag byte is at offset 16.
        snap[16] = 9;
        assert!(matches!(
            KeyTree::restore(&snap),
            Err(SnapshotError::BadTag(9))
        ));
    }

    #[test]
    fn structural_corruption_rejected() {
        // Turn the root k-node into an n-node: u-nodes lose their
        // ancestor chain and validation must fail.
        let tree = churned_tree();
        let snap = tree.snapshot();
        assert_eq!(snap[16], 1, "root is a k-node");
        // Remove the root record (tag + 16 key bytes) by marking N and
        // shifting the remainder up.
        let mut cut = snap.clone();
        cut[16] = 0;
        cut.drain(17..33);
        assert!(matches!(
            KeyTree::restore(&cut),
            Err(SnapshotError::Invalid(_))
                | Err(SnapshotError::Truncated)
                | Err(SnapshotError::BadTag(_))
        ));
    }

    #[test]
    fn unreasonable_size_rejected() {
        let mut snap = Vec::new();
        snap.extend_from_slice(b"LKH1");
        snap.extend_from_slice(&4u32.to_le_bytes());
        snap.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            KeyTree::restore(&snap),
            Err(SnapshotError::Unreasonable)
        ));
    }

    #[test]
    fn empty_tree_round_trips() {
        let tree = KeyTree::new(4);
        let restored = KeyTree::restore(&tree.snapshot()).unwrap();
        assert_eq!(restored.user_count(), 0);
        assert_eq!(restored.group_key(), None);
    }
}
