//! The [`KeyTree`] container: storage, construction, lookup, invariants.

use wirecrypto::{KeyGen, SymKey};

use crate::ident;
use crate::node::{MemberId, Node, NodeId};

/// Node tag: empty slot.
const TAG_N: u8 = 0;
/// Node tag: key node.
const TAG_K: u8 = 1;
/// Node tag: user node.
const TAG_U: u8 = 2;

/// Sentinel in the member index for "member not in the group".
const NO_NODE: NodeId = NodeId::MAX;
/// Sentinel in the occupant array for "slot holds no member".
const NO_MEMBER: MemberId = MemberId::MAX;

/// A logical key hierarchy for one secure group.
///
/// Storage is structure-of-arrays indexed by node ID: a packed `u8` tag
/// array (`N`/`K`/`U`), a parallel key array, and a parallel occupant
/// array (the member at a u-node). Slots that fall outside the live tree
/// read as [`Node::N`]. The member index `member -> u-node id` is a
/// direct-indexed vector (member IDs are assigned densely by
/// registration), so both directions of the user/slot mapping are O(1)
/// array reads with no hashing.
///
/// The tree maintains the paper's structural invariants (checked by
/// [`KeyTree::check_invariants`] in tests):
///
/// 1. every u-node's ancestors are all k-nodes;
/// 2. Lemma 4.1: every k-node ID is smaller than every u-node ID;
/// 3. every u-node ID is at most `d * nk + d` where `nk` is the maximum
///    k-node ID.
#[derive(Debug, Clone)]
pub struct KeyTree {
    degree: u32,
    /// Per-slot tag (`TAG_N`/`TAG_K`/`TAG_U`).
    tags: Vec<u8>,
    /// Per-slot key material; meaningless where the tag is `TAG_N`.
    keys: Vec<SymKey>,
    /// Per-slot occupant; `NO_MEMBER` where the tag is not `TAG_U`.
    occupants: Vec<MemberId>,
    /// Member ID -> u-node ID; `NO_NODE` for members not in the group.
    member_slot: Vec<NodeId>,
    /// Number of u-nodes (cached count of the member index).
    user_count: usize,
    /// Cached maximum k-node ID (`nk`); kept current by `set_node`.
    max_k: Option<NodeId>,
}

impl KeyTree {
    /// Creates an empty tree of the given degree (`d >= 2`).
    pub fn new(degree: u32) -> Self {
        assert!(degree >= 2, "key tree degree must be at least 2");
        KeyTree {
            degree,
            tags: vec![TAG_N],
            keys: vec![SymKey::from_bytes([0; 16])],
            occupants: vec![NO_MEMBER],
            member_slot: Vec::new(),
            user_count: 0,
            max_k: None,
        }
    }

    /// Builds a populated tree of minimum height for `n_users` users with
    /// member IDs `0 .. n_users`, all u-nodes at the deepest level filled
    /// left to right — the "full and balanced" starting point used
    /// throughout the paper's experiments (exactly full when `n_users` is a
    /// power of `degree`).
    pub fn balanced(n_users: u32, degree: u32, keygen: &mut KeyGen) -> Self {
        let mut tree = KeyTree::new(degree);
        if n_users == 0 {
            return tree;
        }
        let d = degree as u64;
        // Height: smallest h >= 1 with d^h >= n_users (at least 1 so that
        // even a single-user group has a root k-node above the u-node).
        let mut height = 1u32;
        let mut capacity = d;
        while capacity < n_users as u64 {
            capacity *= d;
            height += 1;
        }
        // First leaf ID = (d^h - 1) / (d - 1).
        let first_leaf = (d.pow(height) - 1) / (d - 1);
        let last_user = first_leaf + n_users as u64 - 1;
        tree.ensure_capacity(last_user as NodeId);

        // Place users.
        for i in 0..n_users {
            let id = (first_leaf + i as u64) as NodeId;
            let key = keygen.next_key();
            tree.set_node(id, Node::U { member: i, key });
        }
        // Make every ancestor of a u-node a k-node, walking up until an
        // already-created k-node is met (ancestors of a k-node are done).
        for i in 0..n_users {
            let id = (first_leaf + i as u64) as NodeId;
            let mut cur = id;
            while let Some(p) = ident::parent(cur, degree) {
                if tree.tags[p as usize] == TAG_K {
                    break;
                }
                tree.set_node(
                    p,
                    Node::K {
                        key: keygen.next_key(),
                    },
                );
                cur = p;
            }
        }
        tree
    }

    /// Tree degree `d`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Number of users currently in the group.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// The group key (the key at the root), if the group is non-empty.
    pub fn group_key(&self) -> Option<SymKey> {
        if self.tags.first() == Some(&TAG_K) {
            Some(self.keys[0])
        } else {
            None
        }
    }

    /// The node at `id` ([`Node::N`] for IDs beyond storage), materialised
    /// by value from the column arrays.
    pub fn node(&self, id: NodeId) -> Node {
        let i = id as usize;
        match self.tags.get(i) {
            Some(&TAG_K) => Node::K { key: self.keys[i] },
            Some(&TAG_U) => Node::U {
                member: self.occupants[i],
                key: self.keys[i],
            },
            _ => Node::N,
        }
    }

    /// True when slot `id` is an empty (or out-of-storage) slot.
    #[inline]
    pub fn is_n(&self, id: NodeId) -> bool {
        self.tags.get(id as usize).is_none_or(|&t| t == TAG_N)
    }

    /// True when slot `id` holds a k-node.
    #[inline]
    pub fn is_k(&self, id: NodeId) -> bool {
        self.tags.get(id as usize) == Some(&TAG_K)
    }

    /// True when slot `id` holds a u-node.
    #[inline]
    pub fn is_u(&self, id: NodeId) -> bool {
        self.tags.get(id as usize) == Some(&TAG_U)
    }

    /// The key held at `id`, if the node has one.
    pub fn key_of(&self, id: NodeId) -> Option<SymKey> {
        match self.tags.get(id as usize) {
            Some(&TAG_K) | Some(&TAG_U) => Some(self.keys[id as usize]),
            _ => None,
        }
    }

    /// The u-node ID of a member, if present.
    pub fn node_of_member(&self, member: MemberId) -> Option<NodeId> {
        match self.member_slot.get(member as usize) {
            Some(&id) if id != NO_NODE => Some(id),
            _ => None,
        }
    }

    /// The member occupying u-node `id`, if any.
    pub fn member_at(&self, id: NodeId) -> Option<MemberId> {
        if self.is_u(id) {
            Some(self.occupants[id as usize])
        } else {
            None
        }
    }

    /// Maximum current k-node ID (`nk`, the wire field `maxKID`).
    /// `None` when the tree has no k-node. O(1): maintained incrementally
    /// by the mutation API.
    pub fn max_knode_id(&self) -> Option<NodeId> {
        self.max_k
    }

    /// Iterator over the IDs of all current u-nodes, ascending. A tag-array
    /// scan: no allocation, no sort (BFS numbering is already the order).
    pub fn user_ids_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == TAG_U)
            .map(|(i, _)| i as NodeId)
    }

    /// Sorted IDs of all current u-nodes (allocating convenience wrapper
    /// around [`KeyTree::user_ids_iter`]).
    pub fn user_ids(&self) -> Vec<NodeId> {
        self.user_ids_iter().collect()
    }

    /// First u-node ID in the inclusive slot range `lo..=hi`, if any. A
    /// forward tag scan, no allocation — the run-aggregated UKA planner
    /// uses it to trim and emptiness-test frontier ID windows, so its
    /// cost is the vacant prefix of the window, not the window.
    pub fn first_user_in(&self, lo: NodeId, hi: NodeId) -> Option<NodeId> {
        let end = (hi as usize + 1).min(self.tags.len());
        let start = (lo as usize).min(end);
        self.tags[start..end]
            .iter()
            .position(|&t| t == TAG_U)
            .map(|off| (start + off) as NodeId)
    }

    /// Last u-node ID in the inclusive slot range `lo..=hi`, if any. A
    /// backward tag scan, no allocation (see [`KeyTree::first_user_in`]).
    pub fn last_user_in(&self, lo: NodeId, hi: NodeId) -> Option<NodeId> {
        let end = (hi as usize + 1).min(self.tags.len());
        let start = (lo as usize).min(end);
        self.tags[start..end]
            .iter()
            .rposition(|&t| t == TAG_U)
            .map(|off| (start + off) as NodeId)
    }

    /// Number of u-nodes in the inclusive slot range `lo..=hi`. A tag
    /// scan, no allocation — the run-aggregated baseline statistics
    /// weight each need-set by the users sharing it.
    pub fn count_users_in(&self, lo: NodeId, hi: NodeId) -> usize {
        let end = (hi as usize + 1).min(self.tags.len());
        let start = (lo as usize).min(end);
        self.tags[start..end]
            .iter()
            .filter(|&&t| t == TAG_U)
            .count()
    }

    /// Iterator over all members currently in the group, ascending by
    /// member ID. No allocation.
    pub fn member_ids_iter(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.member_slot
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != NO_NODE)
            .map(|(m, _)| m as MemberId)
    }

    /// All members currently in the group, ascending by member ID
    /// (allocating convenience wrapper around
    /// [`KeyTree::member_ids_iter`]).
    pub fn member_ids(&self) -> Vec<MemberId> {
        self.member_ids_iter().collect()
    }

    /// Non-allocating iterator over the keys a given member must hold: its
    /// individual key plus every k-node key on the path from its u-node to
    /// the root, as `(node id, key)` pairs leaf-first.
    ///
    /// Yields `(id, None)` if a path node unexpectedly has no key (an
    /// invariant violation); [`KeyTree::keys_for_member`] turns that into
    /// an overall `None`.
    pub fn keys_for_member_iter(
        &self,
        member: MemberId,
    ) -> Option<impl Iterator<Item = (NodeId, Option<SymKey>)> + '_> {
        let id = self.node_of_member(member)?;
        Some(ident::path_iter(id, self.degree).map(|node_id| (node_id, self.key_of(node_id))))
    }

    /// The keys a given member must hold: its individual key plus every
    /// k-node key on the path from its u-node to the root, returned as
    /// `(node id, key)` pairs leaf-first. This is what the user-side agent
    /// keeps in its key store.
    pub fn keys_for_member(&self, member: MemberId) -> Option<Vec<(NodeId, SymKey)>> {
        let iter = self.keys_for_member_iter(member)?;
        let mut out = Vec::new();
        for (node_id, key) in iter {
            out.push((node_id, key?));
        }
        Some(out)
    }

    /// Height of the tree: the level of the deepest u-node (0 for a group
    /// whose only node is the root). BFS numbering makes level monotone in
    /// ID, so the deepest u-node is the last `U` tag in storage.
    pub fn height(&self) -> u32 {
        self.tags
            .iter()
            .rposition(|&t| t == TAG_U)
            .map(|i| ident::level(i as NodeId, self.degree))
            .unwrap_or(0)
    }

    /// Mean level of the current u-nodes (0.0 for an empty group). The
    /// per-member counterpart of [`KeyTree::height`]: sustained one-sided
    /// churn skews this away from `log_d(N)` unless compaction runs.
    pub fn mean_user_depth(&self) -> f64 {
        if self.user_count == 0 {
            return 0.0;
        }
        let total: u64 = self
            .user_ids_iter()
            .map(|id| u64::from(ident::level(id, self.degree)))
            .sum();
        total as f64 / self.user_count as f64
    }

    /// ID of the highest current u-node (the compaction source scan).
    /// `None` when the group is empty. BFS numbering makes this the last
    /// `U` tag in storage.
    pub fn highest_unode_id(&self) -> Option<NodeId> {
        self.tags
            .iter()
            .rposition(|&t| t == TAG_U)
            .map(|i| i as NodeId)
    }

    /// Length of the underlying node storage (the last allocated ID + 1).
    /// The denominator for `bench_scale`'s bytes-per-node column.
    pub fn storage_len(&self) -> usize {
        self.tags.len()
    }

    /// Bytes of heap resident in the tree's column arrays and member
    /// index. The numerator of `bench_scale`'s bytes-per-node column.
    pub fn resident_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u8>()
            + self.keys.capacity() * std::mem::size_of::<SymKey>()
            + self.occupants.capacity() * std::mem::size_of::<MemberId>()
            + self.member_slot.capacity() * std::mem::size_of::<NodeId>()
    }

    // ----- crate-internal mutation API used by the marking algorithm -----

    pub(crate) fn ensure_capacity(&mut self, id: NodeId) {
        if self.tags.len() <= id as usize {
            let len = id as usize + 1;
            self.tags.resize(len, TAG_N);
            self.keys.resize(len, SymKey::from_bytes([0; 16]));
            self.occupants.resize(len, NO_MEMBER);
        }
    }

    pub(crate) fn set_node(&mut self, id: NodeId, node: Node) {
        self.ensure_capacity(id);
        let i = id as usize;
        // Keep the member index coherent on every write.
        if self.tags[i] == TAG_U {
            self.member_slot[self.occupants[i] as usize] = NO_NODE;
            self.occupants[i] = NO_MEMBER;
            self.user_count -= 1;
        }
        let was_k = self.tags[i] == TAG_K;
        match node {
            Node::N => {
                self.tags[i] = TAG_N;
            }
            Node::K { key } => {
                self.tags[i] = TAG_K;
                self.keys[i] = key;
                if self.max_k.is_none_or(|mk| mk < id) {
                    self.max_k = Some(id);
                }
            }
            Node::U { member, key } => {
                let m = member as usize;
                if self.member_slot.len() <= m {
                    self.member_slot.resize(m + 1, NO_NODE);
                }
                self.member_slot[m] = id;
                self.occupants[i] = member;
                self.tags[i] = TAG_U;
                self.keys[i] = key;
                self.user_count += 1;
            }
        }
        // If the maximum k-node was overwritten, rescan downward for the
        // new maximum (amortised cheap: ids only shrink past pruned tails).
        if was_k && self.tags[i] != TAG_K && self.max_k == Some(id) {
            self.max_k = self.tags[..i]
                .iter()
                .rposition(|&t| t == TAG_K)
                .map(|p| p as NodeId);
        }
    }

    pub(crate) fn set_key(&mut self, id: NodeId, key: SymKey) {
        match self.tags.get(id as usize) {
            Some(&TAG_K) | Some(&TAG_U) => self.keys[id as usize] = key,
            #[expect(
                clippy::panic,
                reason = "invariant: crate-private, and marking rekeys only the k-nodes it has just collected"
            )]
            _ => panic!("cannot set key on an n-node (id {id})"),
        }
    }

    /// Truncates the column arrays to the last live (non-`N`) slot and the
    /// member index to the last registered member, returning the freed
    /// capacity to the allocator. After a mass departure or a compaction
    /// run the tail of every array is dead weight; without this,
    /// `resident_bytes` stays at its historical peak forever.
    pub(crate) fn shrink_storage(&mut self) {
        let live = self
            .tags
            .iter()
            .rposition(|&t| t != TAG_N)
            .map_or(1, |i| i + 1);
        self.tags.truncate(live);
        self.keys.truncate(live);
        self.occupants.truncate(live);
        self.tags.shrink_to_fit();
        self.keys.shrink_to_fit();
        self.occupants.shrink_to_fit();
        let members = self
            .member_slot
            .iter()
            .rposition(|&id| id != NO_NODE)
            .map_or(0, |m| m + 1);
        self.member_slot.truncate(members);
        self.member_slot.shrink_to_fit();
    }

    /// Calls [`KeyTree::shrink_storage`] only when the dead tail is worth
    /// reclaiming: storage at least twice the live extent and at least 64
    /// slots of slack. Steady-state batches therefore never pay a
    /// reallocation; only a genuine contraction does.
    pub(crate) fn shrink_storage_if_slack(&mut self) {
        let live = self
            .tags
            .iter()
            .rposition(|&t| t != TAG_N)
            .map_or(1, |i| i + 1);
        if self.tags.capacity() >= 2 * live && self.tags.capacity() - live >= 64 {
            self.shrink_storage();
        }
    }

    /// Renders the tree level by level for debugging and teaching:
    /// `K` = key node, `u<member>` = user node, `.` = empty slot. Trailing
    /// empty slots of each level are elided.
    ///
    /// ```
    /// use keytree::KeyTree;
    /// use wirecrypto::KeyGen;
    /// let mut kg = KeyGen::from_seed(1);
    /// let tree = KeyTree::balanced(5, 4, &mut kg);
    /// let art = tree.render_ascii();
    /// assert!(art.contains("level 0: K"));
    /// assert!(art.contains("u0"));
    /// ```
    pub fn render_ascii(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let d = self.degree as u64;
        let mut level = 0u32;
        let mut first: u64 = 0;
        let mut width: u64 = 1;
        loop {
            let mut cells: Vec<String> = Vec::new();
            let mut any_live = false;
            for id in first..first + width {
                if id >= self.tags.len() as u64 {
                    break;
                }
                let cell = match self.node(id as NodeId) {
                    Node::K { .. } => {
                        any_live = true;
                        "K".to_string()
                    }
                    Node::U { member, .. } => {
                        any_live = true;
                        format!("u{member}")
                    }
                    Node::N => ".".to_string(),
                };
                cells.push(cell);
            }
            if !any_live {
                break;
            }
            while cells.last().is_some_and(|c| c == ".") {
                cells.pop();
            }
            let _ = writeln!(out, "level {level}: {}", cells.join(" "));
            first = first * d + 1;
            width *= d;
            level += 1;
            if first >= self.tags.len() as u64 {
                break;
            }
        }
        out
    }

    /// Verifies the structural invariants; returns a description of the
    /// first violation. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut max_k: Option<NodeId> = None;
        let mut min_u: Option<NodeId> = None;
        let mut max_u: Option<NodeId> = None;
        let mut u_count = 0usize;
        for (i, &tag) in self.tags.iter().enumerate() {
            let id = i as NodeId;
            match tag {
                TAG_K => max_k = Some(id),
                TAG_U => {
                    if min_u.is_none() {
                        min_u = Some(id);
                    }
                    max_u = Some(id);
                    u_count += 1;
                    let member = self.occupants[i];
                    if self.node_of_member(member) != Some(id) {
                        return Err(format!("member index out of sync at u-node {id}"));
                    }
                    // Ancestors must all be k-nodes.
                    let mut cur = id;
                    while let Some(p) = ident::parent(cur, self.degree) {
                        if !self.is_k(p) {
                            return Err(format!(
                                "u-node {id} has non-k ancestor {p} ({:?})",
                                self.node(p)
                            ));
                        }
                        cur = p;
                    }
                }
                _ => {}
            }
        }
        if self.user_count != u_count {
            return Err("member index size mismatch".into());
        }
        if self.max_k != max_k {
            return Err(format!(
                "cached max k-node id {:?} but storage says {:?}",
                self.max_k, max_k
            ));
        }
        if let (Some(k), Some(u)) = (max_k, min_u) {
            if k >= u {
                return Err(format!("Lemma 4.1 violated: max k id {k} >= min u id {u}"));
            }
            let d = self.degree as u64;
            let bound = d * k as u64 + d;
            if let Some(max_u) = max_u {
                if max_u as u64 > bound {
                    return Err(format!("u-node {max_u} beyond d*nk+d = {bound}"));
                }
            }
        }
        // No orphan keys: every k-node must lie on some member's path to
        // the root (marking prunes emptied subtrees, so a k-node with no
        // u-node descendant is dead weight and a leak of key material).
        let mut on_path = vec![false; self.tags.len()];
        for uid in self.user_ids_iter() {
            for id in ident::path_iter(uid, self.degree) {
                if on_path[id as usize] {
                    break;
                }
                on_path[id as usize] = true;
            }
        }
        for (i, &tag) in self.tags.iter().enumerate() {
            if tag == TAG_K && !on_path[i] {
                return Err(format!("k-node {i} has no u-node descendant"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keygen() -> KeyGen {
        KeyGen::from_seed(42)
    }

    #[test]
    fn empty_tree() {
        let t = KeyTree::new(4);
        assert_eq!(t.user_count(), 0);
        assert_eq!(t.group_key(), None);
        assert_eq!(t.max_knode_id(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn degree_one_rejected() {
        let _ = KeyTree::new(1);
    }

    #[test]
    fn balanced_power_of_d() {
        let mut kg = keygen();
        let t = KeyTree::balanced(16, 4, &mut kg);
        assert_eq!(t.user_count(), 16);
        assert_eq!(t.height(), 2);
        // Full tree: internal ids 0..=4 are k-nodes, leaves 5..=20 users.
        for id in 0..=4u32 {
            assert!(t.node(id).is_k(), "id {id}");
        }
        for id in 5..=20u32 {
            assert!(t.node(id).is_u(), "id {id}");
        }
        assert_eq!(t.max_knode_id(), Some(4));
        t.check_invariants().unwrap();
    }

    #[test]
    fn balanced_non_power_of_d() {
        let mut kg = keygen();
        // 9 users, d=4: height 2, leaves 5..=13 used, 14..=20 empty.
        let t = KeyTree::balanced(9, 4, &mut kg);
        assert_eq!(t.user_count(), 9);
        assert!(t.node(13).is_u());
        assert!(t.node(14).is_n());
        // k-nodes: 0, 1, 2, 3 (ancestors of users); 4 has no users below.
        assert!(t.node(3).is_k());
        assert!(t.node(4).is_n());
        assert_eq!(t.max_knode_id(), Some(3));
        t.check_invariants().unwrap();
    }

    #[test]
    fn balanced_single_user() {
        let mut kg = keygen();
        let t = KeyTree::balanced(1, 4, &mut kg);
        assert_eq!(t.user_count(), 1);
        // Even a single-user group has a root k-node (the group key) above
        // the u-node.
        assert!(t.group_key().is_some());
        assert_eq!(t.node_of_member(0), Some(1));
        assert_eq!(t.max_knode_id(), Some(0));
        t.check_invariants().unwrap();
    }

    #[test]
    fn keys_for_member_walks_path() {
        let mut kg = keygen();
        let t = KeyTree::balanced(16, 4, &mut kg);
        let keys = t.keys_for_member(7).unwrap();
        // Path: u-node, one auxiliary level, root => 3 keys at height 2.
        assert_eq!(keys.len(), 3);
        assert_eq!(keys.last().unwrap().0, 0);
        assert_eq!(keys.last().unwrap().1, t.group_key().unwrap());
        // First entry is the member's own u-node.
        assert_eq!(t.member_at(keys[0].0), Some(7));
    }

    #[test]
    fn keys_for_member_iter_agrees_with_vec() {
        let mut kg = keygen();
        let t = KeyTree::balanced(40, 4, &mut kg);
        for m in 0..40u32 {
            let vec = t.keys_for_member(m).unwrap();
            let via_iter: Vec<(NodeId, SymKey)> = t
                .keys_for_member_iter(m)
                .unwrap()
                .map(|(id, k)| (id, k.unwrap()))
                .collect();
            assert_eq!(vec, via_iter, "member {m}");
        }
        assert!(t.keys_for_member_iter(40).is_none());
    }

    #[test]
    fn member_lookup_round_trip() {
        let mut kg = keygen();
        let t = KeyTree::balanced(64, 4, &mut kg);
        for m in 0..64u32 {
            let id = t.node_of_member(m).unwrap();
            assert_eq!(t.member_at(id), Some(m));
        }
        assert_eq!(t.node_of_member(64), None);
    }

    #[test]
    fn user_ids_sorted_and_contiguous_for_full_tree() {
        let mut kg = keygen();
        let t = KeyTree::balanced(16, 4, &mut kg);
        let ids = t.user_ids();
        assert_eq!(ids.len(), 16);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*ids.first().unwrap(), 5);
        assert_eq!(*ids.last().unwrap(), 20);
    }

    #[test]
    fn member_ids_sorted_ascending() {
        let mut kg = keygen();
        let t = KeyTree::balanced(16, 4, &mut kg);
        let members = t.member_ids();
        assert_eq!(members, (0..16).collect::<Vec<_>>());
        assert_eq!(
            t.member_ids_iter().collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn individual_keys_are_distinct() {
        let mut kg = keygen();
        let t = KeyTree::balanced(32, 4, &mut kg);
        let mut keys: Vec<_> = (0..32u32)
            .map(|m| {
                let id = t.node_of_member(m).unwrap();
                t.key_of(id).unwrap()
            })
            .collect();
        keys.sort_by_key(|k| *k.as_bytes());
        keys.dedup();
        assert_eq!(keys.len(), 32);
    }

    #[test]
    fn degree_two_and_three_shapes() {
        let mut kg = keygen();
        let t2 = KeyTree::balanced(8, 2, &mut kg);
        assert_eq!(t2.height(), 3);
        t2.check_invariants().unwrap();

        let t3 = KeyTree::balanced(9, 3, &mut kg);
        assert_eq!(t3.height(), 2);
        assert_eq!(t3.max_knode_id(), Some(3));
        t3.check_invariants().unwrap();
    }

    #[test]
    fn max_knode_cache_tracks_mutations() {
        let mut kg = keygen();
        let mut t = KeyTree::balanced(16, 4, &mut kg);
        assert_eq!(t.max_knode_id(), Some(4));
        // Promote a leaf slot to a k-node: cache must rise.
        t.set_node(5, Node::K { key: kg.next_key() });
        assert_eq!(t.max_knode_id(), Some(5));
        // Clear it again: cache must fall back to the previous maximum.
        t.set_node(5, Node::N);
        assert_eq!(t.max_knode_id(), Some(4));
    }
}
