//! The marking algorithm (Appendix B): batch tree update, rekey-subtree
//! labelling, and encryption-edge generation.
//!
//! One deliberate refinement over the paper's text: the paper labels *all*
//! n-nodes as Leave. When n-nodes only exist where departures just happened
//! (the paper's experiments always start from a full, balanced tree) this
//! is equivalent to what we do; but taken literally it would also mark
//! long-empty slots as Leave, forcing key changes — and non-empty rekey
//! messages — even for an *empty* batch. We therefore label Leave only the
//! slots vacated *this* batch (departed u-nodes and the k-nodes pruned
//! above them); other n-nodes are transparent to labelling. DESIGN.md
//! records this substitution.
//!
//! # Cost model
//!
//! [`KeyTree::process_batch_in`] touches only the rekey subtree, never the
//! whole tree. Labelling is one bottom-up sweep over sorted levels: the
//! slots this batch placed or vacated, descending, seed the deepest level;
//! the parents of a descending level are descending too, so deduplicating
//! neighbours and merging in the next level's seeds gives the level above,
//! and each node finds its listed children next to each other in the level
//! below. A (J, L) batch costs `O((J + L) · log_d N)` regardless of `N`,
//! with no search and no sort. All per-batch working state lives in a
//! caller-owned [`MarkScratch`] whose buffers are reused across batches, the
//! outcome's lists are copied out of it exactly sized, and fresh keys for
//! the updated k-nodes are derived from a single per-batch seed, so a batch
//! costs the key generator one draw however many nodes it updates.

use core::ops::Range;

use wirecrypto::batch::keystream16_batch;
use wirecrypto::KeyGen;

use crate::ident;
use crate::node::{MemberId, Node, NodeId};
use crate::tree::KeyTree;
use wirecrypto::SymKey;

/// The join and leave requests collected during one rekey interval.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Newly admitted members with their individual keys (from
    /// registration), in admission order.
    pub joins: Vec<(MemberId, SymKey)>,
    /// Members that left during the interval.
    pub leaves: Vec<MemberId>,
}

impl Batch {
    /// Builds a batch.
    pub fn new(joins: Vec<(MemberId, SymKey)>, leaves: Vec<MemberId>) -> Self {
        Batch { joins, leaves }
    }

    /// `J`, the number of joins.
    pub fn j(&self) -> usize {
        self.joins.len()
    }

    /// `L`, the number of leaves.
    pub fn l(&self) -> usize {
        self.leaves.len()
    }

    /// True when there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }
}

/// Rekey-subtree label of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Key unchanged; no encryption needed below this node.
    Unchanged,
    /// Key changed because of joins only (no departed user knew it).
    Join,
    /// The node vacated this interval (departed u-node / pruned k-node).
    Leave,
    /// Key changed and at least one departed user knew the old key.
    Replace,
}

/// One edge of the rekey subtree: the encryption `{key(parent)}_{key(child)}`.
///
/// The encryption's wire ID is `child` (each key encrypts at most one other
/// key per rekey message, so the encrypting key's node ID is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncEdge {
    /// Node whose key encrypts (a child of `parent` in the tree).
    pub child: NodeId,
    /// The updated k-node whose new key is being distributed.
    pub parent: NodeId,
}

/// A user relocated by node splitting (its u-node ID changed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserMove {
    /// The member that moved.
    pub member: MemberId,
    /// Its u-node ID before the batch.
    pub old_id: NodeId,
    /// Its u-node ID after the batch.
    pub new_id: NodeId,
}

/// An updated k-node's row of the rekey subtree, as the marking sweep
/// recorded it, indexed like [`MarkOutcome::updated_knodes`]: what the UKA
/// planner walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeRow {
    /// The node's level: how many edges its chain up to the root has.
    pub depth: u32,
    /// Its own edge (index into [`MarkOutcome::encryptions`]), the one to
    /// its parent; 0 at the root.
    pub edge: u32,
    /// Its parent's position in `updated_knodes`; 0 at the root.
    pub parent: u32,
    /// The edges it is the parent of: `encryptions[group.0..group.1]`.
    pub group: (u32, u32),
    /// Positions of its updated children, `kids.0..kids.1` (IDs descending).
    pub kids: (u32, u32),
}

/// A node of one level of the sweep: its label, and its position in
/// `updated_knodes` if its key changed.
#[derive(Debug, Clone, Copy)]
struct Mark {
    id: NodeId,
    label: Label,
    pos: Option<u32>,
}

/// Reusable per-batch working state of the marking algorithm.
///
/// The label map is epoch-stamped: bumping the epoch in
/// `MarkScratch::begin` invalidates every entry in O(1), so consecutive
/// batches share the buffers without clearing them. A long-lived server
/// holds one scratch next to its tree and allocates for marking only the
/// outcome it returns (buffers grow to the tree's storage size and stay).
#[derive(Debug, Default)]
pub struct MarkScratch {
    /// Current batch epoch; entries with a different stamp are invalid.
    /// 64 bits wide: a `u32` epoch would wrap after 2^32 batches, at which
    /// point every stale stamp from four billion batches ago would read as
    /// current again and leak phantom labels into the rekey subtree. At
    /// one batch per millisecond a `u64` epoch outlives the hardware; the
    /// wrap branch in [`MarkScratch::begin`] stays as a defensive
    /// hard-clear so even a forced wrap cannot resurrect stale entries.
    epoch: u64,
    /// Per node: the epoch that last stamped it and its label then.
    labels: Vec<(u64, Label)>,
    /// Sorted u-node IDs of this batch's departures.
    departed_ids: Vec<NodeId>,
    /// One bit per member ID, set for this batch's joins while they are
    /// checked for a repeat; all clear between batches.
    joining: Vec<u64>,
    /// U-node slots filled this batch (joins, replacements, moved users).
    placed: Vec<NodeId>,
    /// The sweep's seeds, ascending: every u-slot placed or vacated.
    seeds: Vec<NodeId>,
    /// Merge buffer for the seeds.
    spare: Vec<NodeId>,
    /// The level the sweep reads and the level above it, IDs descending.
    lower: Vec<Mark>,
    upper: Vec<Mark>,
    /// The outcome, staged: copied out exactly sized.
    updated: Vec<NodeId>,
    edges: Vec<EncEdge>,
    rows: Vec<SubtreeRow>,
    moves: Vec<UserMove>,
    relocations: Vec<UserMove>,
}

impl MarkScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MarkScratch::default()
    }

    /// Starts a new batch epoch and sizes the node maps for a tree with
    /// `storage` slots.
    fn begin(&mut self, storage: usize) {
        if self.epoch == u64::MAX {
            // Epoch wrapped: every stale stamp would look current again,
            // so hard-clear the stamp map. Unreachable in practice with
            // a 64-bit epoch; kept as defence in depth (and exercised by
            // the forced-wrap regression test).
            self.labels.iter_mut().for_each(|e| e.0 = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.grow(storage);
        self.departed_ids.clear();
        self.placed.clear();
        self.moves.clear();
        self.relocations.clear();
    }

    /// Jumps the epoch counter to `epoch` (test-only): lets the
    /// forced-wrap regression test reach the `u64::MAX` hard-clear branch
    /// without running 2^64 batches.
    #[cfg(test)]
    fn set_epoch_for_wrap_test(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn grow(&mut self, storage: usize) {
        if self.labels.len() < storage {
            self.labels.resize(storage, (0, Label::Unchanged));
        }
    }

    fn stamp(&mut self, id: NodeId, label: Label) {
        self.grow(id as usize + 1);
        self.labels[id as usize] = (self.epoch, label);
    }

    /// The label the scratch's latest batch gave node `id`: set for the
    /// rekey subtree only (the nodes that batch placed, vacated or
    /// relabelled), `None` elsewhere. Valid until the scratch's next
    /// batch, which invalidates every label.
    pub fn label_of(&self, id: NodeId) -> Option<Label> {
        let stamped = self.labels.get(id as usize).filter(|e| e.0 == self.epoch);
        stamped.map(|e| e.1)
    }

    /// The sweep's seeds, ascending and distinct: every departure's slot,
    /// the slots the J > L fill placed (ascending: the fill cursor never
    /// moves back, and a split's child lies just past the range it closes)
    /// and both ends of every relocation, the one list not born sorted.
    // xcheck: no_alloc
    fn gather_seeds(&mut self, fills: Range<usize>) {
        merge_sorted(&self.departed_ids, &self.placed[fills], &mut self.seeds);
        if !self.relocations.is_empty() {
            self.departed_ids.clear();
            (self.departed_ids).extend(self.relocations.iter().flat_map(|r| [r.old_id, r.new_id]));
            self.departed_ids.sort_unstable();
            core::mem::swap(&mut self.seeds, &mut self.spare);
            merge_sorted(&self.spare, &self.departed_ids, &mut self.seeds);
        }
    }

    /// Phases 2–3: labels the rekey subtree and lays out its edges, one
    /// level at a time from the deepest seed up to the root. Each level is
    /// the descending merge of the parents of the level below — adjacent
    /// duplicates folded — and that level's seeds; a node's listed
    /// children sit next to each other in the level below, and its other
    /// children label from their tag (live: Unchanged; empty: transparent).
    /// The updated k-nodes, their edges and their rows come out in the
    /// outcome's order: descending IDs, children ascending.
    // xcheck: no_alloc
    fn sweep(&mut self, tree: &KeyTree) {
        let d = tree.degree();
        self.lower.clear();
        self.updated.clear();
        self.edges.clear();
        self.rows.clear();
        let Some(&deepest) = self.seeds.last() else {
            return;
        };
        let mut level = ident::level(deepest, d);
        let mut first = (0..level).fold(0u64, |f, _| f * u64::from(d) + 1);
        let mut s = self.seeds.len();
        // `(id - 1) / d` as one multiplication, exact for every 32-bit ID
        // (Lemire's fastdiv; `d >= 2`, so the magic fits 64 bits).
        let magic = u128::from(u64::MAX / u64::from(d) + 1);
        let parent = |id: NodeId| ((magic * u128::from(id - 1)) >> 64) as NodeId;
        loop {
            self.upper.clear();
            let mut i = 0;
            loop {
                let below = self.lower.get(i).map(|m| parent(m.id));
                let seed = s.checked_sub(1).map(|k| self.seeds[k]);
                let seed = seed.filter(|&q| u64::from(q) >= first);
                let Some(x) = below.max(seed) else { break };
                s -= usize::from(seed == Some(x));
                let mut j = i;
                if below == Some(x) {
                    let lo = ident::first_child(x, d);
                    while self.lower.get(j).is_some_and(|m| m.id >= lo) {
                        j += 1;
                    }
                }
                let (label, pos) = self.label(tree, x, level, i..j);
                self.upper.push(Mark { id: x, label, pos });
                i = j;
            }
            core::mem::swap(&mut self.lower, &mut self.upper);
            if level == 0 {
                break;
            }
            (level, first) = (level - 1, (first - 1) / u64::from(d));
        }
    }

    /// Labels node `x` at `level` whose listed children are `lower[run]`,
    /// and returns its label and, for an updated k-node, its position: it
    /// gets its edge group and row, and becomes the parent of its updated
    /// children's rows.
    // xcheck: no_alloc
    fn label(
        &mut self,
        tree: &KeyTree,
        x: NodeId,
        level: u32,
        run: Range<usize>,
    ) -> (Label, Option<u32>) {
        if !tree.is_k(x) {
            // A seed, or a k-node pruned above one: as phase 1 stamped it.
            return (self.label_of(x).unwrap_or(Label::Unchanged), None);
        }
        let (start, pos) = (self.edges.len() as u32, self.updated.len() as u32);
        // One bit per label met among the children, listed or live.
        let mut seen = 0u8;
        let mut kids = (0, 0);
        // Children ascending: the run is descending, so read it backwards.
        let mut r = run.end;
        for c in ident::children(x, tree.degree()) {
            let cl = if r > run.start && self.lower[r - 1].id == c {
                r -= 1;
                let m = self.lower[r];
                if let Some(kid) = m.pos {
                    let row = &mut self.rows[kid as usize];
                    (row.edge, row.parent) = (self.edges.len() as u32, pos);
                    kids = (kid, if kids.0 == kids.1 { kid + 1 } else { kids.1 });
                }
                m.label
            } else if tree.is_n(c) {
                continue;
            } else {
                Label::Unchanged
            };
            seen |= 1 << cl as u8;
            if cl != Label::Leave {
                self.edges.push(EncEdge {
                    child: c,
                    parent: x,
                });
            }
        }
        let bit = |label: Label| 1 << label as u8;
        let label = if seen == 0 || seen == bit(Label::Unchanged) {
            // No child changed (a live k-node with no labelled children
            // included): unchanged.
            Label::Unchanged
        } else if seen == bit(Label::Leave) {
            Label::Leave
        } else if seen & !(bit(Label::Unchanged) | bit(Label::Join)) == 0 {
            Label::Join
        } else {
            Label::Replace
        };
        self.stamp(x, label);
        if !matches!(label, Label::Join | Label::Replace) {
            self.edges.truncate(start as usize);
            return (label, None);
        }
        self.updated.push(x);
        self.rows.push(SubtreeRow {
            depth: level,
            group: (start, self.edges.len() as u32),
            kids,
            ..SubtreeRow::default()
        });
        (label, Some(pos))
    }
}

/// Merges two ascending lists into `out`, ascending and distinct.
// xcheck: no_alloc
fn merge_sorted(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
        let v = if take_a { a[i] } else { b[j] };
        (i, j) = if take_a { (i + 1, j) } else { (i, j + 1) };
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
}

/// When and how hard the tree compacts itself under one-sided churn.
///
/// Sustained departures leave the key tree sparse: `nk` (the maximum
/// k-node ID) stays at its historical peak while the population shrinks,
/// so tree depth — and with it encryptions per member and USR packet size
/// — reflects the *peak* group, not the current one. Compaction relocates
/// members from the highest u-node slots into the lowest empty slots of
/// the legal window `(nk, d*nk + d]`, which lets emptied subtrees prune
/// away and `nk` fall back toward the compact optimum.
///
/// Relocations are deliberately *tail-first* (highest occupied slot to
/// lowest hole), which preserves Lemma 4.1 at every step. Unlike split
/// moves, a compaction relocation moves a member *downward* in ID space
/// and is therefore **not** re-derivable from `maxKID` via Theorem 4.2 —
/// the server must tell the member its new ID explicitly (the USR wire
/// format already carries `newUserID`); see [`MarkOutcome::relocations`].
///
/// The work is amortized: at most [`CompactionPolicy::max_moves_per_batch`]
/// relocations per batch, each costing one vacate + one place + `O(log N)`
/// pruning/revival, so a batch's cost stays `O((J + L + moves) log N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Relocation budget per batch (amortization knob). Zero switches
    /// compaction off: [`KeyTree::process_batch_compacting_in`] then
    /// behaves exactly like [`KeyTree::process_batch_in`].
    pub max_moves_per_batch: usize,
}

/// Trigger slack: compact only once `nk` exceeds `SLACK * ideal_nk + d`,
/// where `ideal_nk ~ (U - 1) / (d - 1)` is the maximum k-node ID of a
/// compact tree holding the current `U` users.
const SLACK: u64 = 2;

impl CompactionPolicy {
    /// Compaction off — the default, so existing pipelines (and their
    /// byte-identical baselines) are unaffected unless a caller opts in.
    pub const DISABLED: CompactionPolicy = CompactionPolicy {
        max_moves_per_batch: 0,
    };

    /// The recommended on-switch: trigger at 2x the compact tree size,
    /// amortize at most 64 relocations per batch.
    pub const DEFAULT_ON: CompactionPolicy = CompactionPolicy {
        max_moves_per_batch: 64,
    };

    /// The maximum k-node ID a compact tree of `users` members needs: a
    /// full degree-`d` tree with `U` leaves has `ceil((U - 1) / (d - 1))`
    /// internal nodes, and BFS numbering packs them densely from 0.
    fn ideal_nk(users: usize, d: u32) -> u64 {
        if users == 0 {
            return 0;
        }
        let d = u64::from(d.max(2));
        (users as u64).saturating_sub(1).div_ceil(d - 1)
    }

    /// Whether the tree is sparse enough to start compacting.
    fn should_compact(&self, nk: NodeId, users: usize, d: u32) -> bool {
        self.max_moves_per_batch > 0
            && users > 0
            && u64::from(nk) > SLACK * Self::ideal_nk(users, d) + u64::from(d)
    }

    /// Whether, mid-compaction, another relocation is still worth doing
    /// (hysteresis: once triggered, compact down to `ideal_nk + d`, not
    /// merely below the trigger line).
    fn keep_compacting(nk: NodeId, users: usize, d: u32) -> bool {
        u64::from(nk) > Self::ideal_nk(users, d) + u64::from(d)
    }
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy::DISABLED
    }
}

/// Everything the rekey-transport layer needs about one processed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkOutcome {
    /// k-nodes that received fresh keys, deepest (largest ID) first — the
    /// paper's bottom-up traversal order.
    pub updated_knodes: Vec<NodeId>,
    /// The encryptions of the rekey message, grouped by parent in
    /// `updated_knodes` order (descending IDs), children ascending within
    /// a parent. [`MarkOutcome::encryption_by_child`] searches by this
    /// order.
    pub encryptions: Vec<EncEdge>,
    /// Users whose u-node IDs changed due to splitting.
    pub moves: Vec<UserMove>,
    /// Users relocated *downward* by tail compaction
    /// ([`CompactionPolicy`]). Unlike [`MarkOutcome::moves`], these are
    /// **not** re-derivable from `maxKID` (Theorem 4.2 only covers the
    /// upward split direction), so the server must notify each relocated
    /// member of its new ID explicitly — the USR packet's `newUserID`
    /// field carries it on the wire. Empty unless compaction ran.
    pub relocations: Vec<UserMove>,
    /// Members removed by this batch.
    pub departed: Vec<MemberId>,
    /// Members added by this batch.
    pub joined: Vec<MemberId>,
    /// Maximum k-node ID after the batch (the `maxKID` wire field).
    pub nk: Option<NodeId>,
    /// Degree of the tree the batch ran on: a child's parent is its key in
    /// the order of [`MarkOutcome::encryptions`].
    degree: u32,
    /// One row per updated k-node, as the sweep recorded it.
    rows: Vec<SubtreeRow>,
}

impl MarkOutcome {
    /// The index (into [`Self::encryptions`]) of the encryption whose
    /// encrypting key is node `child`, if one exists: a binary search of
    /// `encryptions` by its order, parent descending, then child
    /// ascending.
    pub fn encryption_by_child(&self, child: NodeId) -> Option<usize> {
        let parent = ident::parent(child, self.degree)?;
        self.encryptions
            .binary_search_by(|e| parent.cmp(&e.parent).then(e.child.cmp(&child)))
            .ok()
    }

    /// Indices of the encryptions a user at u-node `user_id` needs: those
    /// whose encrypting key lies on the path from the u-node to the root.
    /// Returned leaf-side first, which is also decryption order.
    pub fn encryptions_for_user(&self, user_id: NodeId, degree: u32) -> Vec<usize> {
        let mut out = Vec::new();
        self.encryptions_for_user_into(user_id, degree, &mut out);
        out
    }

    /// Non-allocating variant of [`Self::encryptions_for_user`]: clears
    /// `out` and fills it with the needed indices, leaf-side first.
    pub fn encryptions_for_user_into(&self, user_id: NodeId, degree: u32, out: &mut Vec<usize>) {
        out.clear();
        out.extend(ident::path_iter(user_id, degree).filter_map(|n| self.encryption_by_child(n)));
    }

    /// True when the batch changed the group key.
    pub fn group_key_changed(&self) -> bool {
        self.updated_knodes.contains(&0)
    }

    /// The rekey subtree's rows, one per updated k-node, as marking
    /// recorded them — every index in them lies inside the two lists. Empty
    /// when `updated_knodes` or `encryptions` no longer has the length
    /// marking gave it (an outcome edited since); an edit that keeps both
    /// lengths keeps the rows, which then no longer describe the lists.
    pub fn subtree(&self) -> &[SubtreeRow] {
        let edges = self.rows.last().map_or(0, |root| root.group.1 as usize);
        let intact =
            (self.rows.len(), edges) == (self.updated_knodes.len(), self.encryptions.len());
        if intact {
            &self.rows
        } else {
            &[]
        }
    }
}

impl KeyTree {
    /// Runs the marking algorithm over one batch: updates the tree
    /// (replacements, pruning, splitting), relabels, mints fresh keys for
    /// every updated k-node, and returns the rekey-subtree edges.
    ///
    /// Convenience wrapper over [`KeyTree::process_batch_in`] that clones
    /// the batch and allocates a throwaway [`MarkScratch`]; long-lived
    /// servers should hold a scratch and call `process_batch_in` directly.
    ///
    /// # Panics
    ///
    /// Panics if a leave names an unknown member, a join names a member
    /// already in the group, or either names one member twice — all caller
    /// bugs (the key-management front end validates requests against
    /// individual keys before they reach the tree). The panic names the
    /// member.
    pub fn process_batch(&mut self, batch: &Batch, keygen: &mut KeyGen) -> MarkOutcome {
        let mut scratch = MarkScratch::new();
        self.process_batch_in(batch.clone(), keygen, &mut scratch)
    }

    /// [`KeyTree::process_batch`] without the per-call allocations: takes
    /// the batch by value (its join/leave vectors move into the outcome)
    /// and reuses the caller's [`MarkScratch`] across batches.
    ///
    /// # Panics
    ///
    /// As [`KeyTree::process_batch`].
    pub fn process_batch_in(
        &mut self,
        batch: Batch,
        keygen: &mut KeyGen,
        scratch: &mut MarkScratch,
    ) -> MarkOutcome {
        self.process_batch_compacting_in(batch, keygen, scratch, &CompactionPolicy::DISABLED)
    }

    /// [`KeyTree::process_batch_in`] plus amortized tail compaction: after
    /// the batch's own topology changes, if the tree has grown sparse
    /// enough to trip `policy`, members are relocated from the highest
    /// u-node slots into the lowest legal holes (at most
    /// [`CompactionPolicy::max_moves_per_batch`] per call) and the
    /// vacated tail prunes away, pulling `nk` — and with it tree depth and
    /// per-member rekey cost — back toward the compact optimum. The
    /// relocated members are reported in [`MarkOutcome::relocations`] and
    /// rekeyed like joiners (their subtree edges are sealed under their
    /// individual keys), so delivery and forward secrecy are unaffected.
    ///
    /// With [`CompactionPolicy::DISABLED`] this is byte-identical to
    /// [`KeyTree::process_batch_in`]. Warm, it allocates only the outcome's
    /// lists, each once at its final size (pinned by `no_alloc_marks`).
    ///
    /// # Panics
    ///
    /// As [`KeyTree::process_batch`].
    pub fn process_batch_compacting_in(
        &mut self,
        batch: Batch,
        keygen: &mut KeyGen,
        scratch: &mut MarkScratch,
        policy: &CompactionPolicy,
    ) -> MarkOutcome {
        let _span_batch = obs::span("keytree.mark_batch");
        if scratch.epoch > 0 {
            // A warm scratch means its node maps and work lists carry
            // capacity over from an earlier batch — the allocation-free
            // steady state long-lived servers run in.
            obs::counter_add("keytree.scratch_reuse_hits", 1);
        }
        let span_mark = obs::span("stage.mark");
        scratch.begin(self.storage_len());
        let fills = self.update_topology(&batch, keygen, scratch);
        // Only after split-free batches: a splitting batch means the tree
        // is full (nothing to compact), and keeping the two relocation
        // directions out of one batch keeps Theorem 4.2's oracle crisp —
        // `moves` stays fully maxKID-rederivable, `relocations` fully
        // explicit.
        if scratch.moves.is_empty() {
            self.compact_tail_in(keygen, scratch, policy);
        }
        scratch.gather_seeds(fills);
        scratch.sweep(self);
        drop(span_mark);

        // Mint the fresh keys from one batch seed (no draw at all when
        // nothing was updated, preserving the generator's sequence): each
        // is a PRF of (seed, node ID) — the cipher's first 16 keystream
        // bytes under the seed with the ID as nonce — eight nodes at a time.
        let span_mint = obs::span("stage.mint");
        let updated = &scratch.updated;
        if !updated.is_empty() {
            let seed = keygen.next_key();
            keystream16_batch(updated.iter().map(|&id| (seed, id as u64)), |i, key| {
                self.set_key(updated[i], SymKey::from_bytes(key));
            });
        }
        obs::counter_add("keytree.keys_minted", updated.len() as u64);
        obs::counter_add("keytree.encryptions", scratch.edges.len() as u64);
        drop(span_mint);

        debug_assert_eq!(self.check_invariants(), Ok(()));

        if policy.max_moves_per_batch > 0 {
            // Reclaim storage the compacted (or mass-departed) tail no
            // longer reaches. Gated on a 2x slack so steady-state batches
            // never pay a reallocation; only a genuine contraction does.
            self.shrink_storage_if_slack();
        }

        let Batch { joins, leaves } = batch;
        MarkOutcome {
            updated_knodes: scratch.updated.to_vec(),
            encryptions: scratch.edges.to_vec(),
            moves: scratch.moves.to_vec(),
            relocations: scratch.relocations.to_vec(),
            departed: leaves,
            joined: joins.into_iter().map(|(m, _)| m).collect(),
            nk: self.max_knode_id(),
            degree: self.degree(),
            rows: scratch.rows.to_vec(),
        }
    }

    /// Phase 1: applies one batch's topology changes — replacements,
    /// pruning, splitting, revivals — stamping every slot it places or
    /// vacates and recording the split moves in `scratch`. Returns the
    /// range of `scratch.placed` the J > L fill placed (ascending).
    // xcheck: no_alloc
    fn update_topology(
        &mut self,
        batch: &Batch,
        keygen: &mut KeyGen,
        scratch: &mut MarkScratch,
    ) -> Range<usize> {
        let d = self.degree();
        for m in &batch.leaves {
            #[expect(
                clippy::panic,
                reason = "the documented `# Panics` of the batch entry points; ROADMAP 4a: becomes a typed BatchError, checked before any mutation"
            )]
            let Some(id) = self.node_of_member(*m) else {
                panic!("leave request for unknown member {m}");
            };
            scratch.departed_ids.push(id);
        }
        scratch.departed_ids.sort_unstable();
        let twice = (scratch.departed_ids.windows(2))
            .find(|w| w[0] == w[1])
            .and_then(|w| self.member_at(w[0]));
        assert!(
            twice.is_none(),
            "leave request names member {} twice",
            twice.unwrap_or_default()
        );
        for (m, _) in &batch.joins {
            assert!(
                self.node_of_member(*m).is_none(),
                "join request for member {m} already in group"
            );
        }
        // A bit per joiner, not a sort: O(J), and the words grow with the
        // member IDs as the tree's own member index does.
        let mut twice = None;
        for &(m, _) in &batch.joins {
            let (word, bit) = ((m / 64) as usize, 1u64 << (m % 64));
            if word >= scratch.joining.len() {
                scratch.joining.resize(word + 1, 0);
            }
            if scratch.joining[word] & bit != 0 {
                twice = twice.or(Some(m));
            }
            scratch.joining[word] |= bit;
        }
        for &(m, _) in &batch.joins {
            scratch.joining[(m / 64) as usize] = 0;
        }
        assert!(
            twice.is_none(),
            "join request names member {} twice",
            twice.unwrap_or_default()
        );

        let j = batch.j();
        let l = batch.l();

        // Replace the min(J, L) smallest-ID departures with joins; the rest
        // become n-nodes and may prune upward.
        for i in 0..l {
            let slot = scratch.departed_ids[i];
            if i < j {
                let (member, key) = batch.joins[i];
                self.set_node(slot, Node::U { member, key });
                scratch.stamp(slot, Label::Replace);
                scratch.placed.push(slot);
            } else {
                self.vacate(slot, scratch);
            }
        }
        if j > l {
            // J > L: the remaining joins fill n-node slots in
            // (nk, d*nk + d], low to high, splitting node nk+1 whenever the
            // range is exhausted.
            let mut next_join = l;
            // Bootstrap an empty tree: a root k-node with d empty slots.
            if self.max_knode_id().is_none() && next_join < j {
                self.set_node(
                    0,
                    Node::K {
                        key: keygen.next_key(),
                    },
                );
            }
            // The fill cursor never moves backwards: within one batch this
            // phase only fills slots, so everything below the cursor stays
            // non-empty, and each split opens fresh slots past the old
            // range end. One monotone scan covers every split round.
            let mut cursor: NodeId = 0;
            while next_join < j {
                #[expect(
                    clippy::unreachable,
                    reason = "invariant: the bootstrap above planted a root k-node, and a batch never removes the last one while joins remain"
                )]
                let Some(nk) = self.max_knode_id() else {
                    unreachable!("bootstrap guarantees a k-node exists")
                };
                let high = d as u64 * nk as u64 + d as u64;
                #[expect(
                    clippy::panic,
                    reason = "a size limit (2^32 node IDs); ROADMAP 4a: becomes a typed BatchError, checked before any mutation"
                )]
                let Ok(high) = NodeId::try_from(high) else {
                    panic!("tree exceeds NodeId range")
                };
                cursor = cursor.max(nk + 1);
                while cursor <= high && next_join < j {
                    if self.is_n(cursor) {
                        let (member, key) = batch.joins[next_join];
                        next_join += 1;
                        self.set_node(cursor, Node::U { member, key });
                        scratch.stamp(cursor, Label::Join);
                        scratch.placed.push(cursor);
                    }
                    cursor += 1;
                }
                if next_join == j {
                    break;
                }
                // Split node nk+1: it becomes a k-node and its occupant
                // moves to its leftmost child.
                let split = nk + 1;
                let child = ident::first_child(split, d);
                let occupant = self.member_at(split);
                let occupant_key = self.key_of(split);
                // Convert the slot to a k-node first so the member index
                // entry for its occupant is released before re-insertion.
                self.set_node(
                    split,
                    Node::K {
                        key: keygen.next_key(),
                    },
                );
                if let Some(member) = occupant {
                    #[expect(
                        clippy::unreachable,
                        reason = "invariant: a u-node's key column is written with its occupant (`set_node`)"
                    )]
                    let Some(key) = occupant_key
                    else {
                        unreachable!("occupied slot {split} holds a key")
                    };
                    self.set_node(child, Node::U { member, key });
                    // A slot can split repeatedly in one batch (its child
                    // range fills up and splits again). Theorem 4.2
                    // rederives pre-batch ID -> final ID, so chained hops
                    // coalesce into one move per member.
                    if let Some(mv) = scratch.moves.iter_mut().find(|mv| mv.member == member) {
                        mv.new_id = child;
                    } else {
                        scratch.moves.push(UserMove {
                            member,
                            old_id: split,
                            new_id: child,
                        });
                    }
                    // The moved user is "new" at its slot: its parent
                    // must deliver keys encrypted under its individual
                    // key, exactly as for a join.
                    scratch.stamp(child, Label::Join);
                    scratch.placed.push(child);
                }
                // Splitting an empty slot just deepens the tree.
            }
        }

        // Update rule 4: any n-node with a u-node descendant becomes a
        // k-node (fresh key; it will be labelled from its children).
        // Only slots placed *this* batch can have n-node ancestors —
        // invariant 1 guarantees every pre-existing user's ancestors are
        // all k-nodes, and pruning never reaches above a live user — so
        // the walk is O(placed · height), not O(N · height).
        for i in 0..scratch.placed.len() {
            self.revive_above(scratch.placed[i], keygen);
        }
        l.min(scratch.placed.len())..scratch.placed.len()
    }

    /// Empties `slot` (label Leave) and prunes upward: a k-node whose
    /// children are all n-nodes becomes one, and so on up.
    // xcheck: no_alloc
    fn vacate(&mut self, slot: NodeId, scratch: &mut MarkScratch) {
        let d = self.degree();
        let mut cur = slot;
        loop {
            self.set_node(cur, Node::N);
            scratch.stamp(cur, Label::Leave);
            match ident::parent(cur, d) {
                Some(p) if self.is_k(p) && ident::children(p, d).all(|c| self.is_n(c)) => cur = p,
                _ => break,
            }
        }
    }
    /// Update rule 4 above a slot just filled: its n-node ancestors
    /// become k-nodes with fresh keys, up to the first k-node (whose own
    /// ancestors are k-nodes already, pre-existing or revived moments ago).
    // xcheck: no_alloc
    fn revive_above(&mut self, slot: NodeId, keygen: &mut KeyGen) {
        let d = self.degree();
        let mut cur = slot;
        while let Some(p) = ident::parent(cur, d) {
            if self.is_k(p) {
                break;
            }
            debug_assert!(self.is_n(p), "u-node above a filled slot");
            self.set_node(
                p,
                Node::K {
                    key: keygen.next_key(),
                },
            );
            cur = p;
        }
    }

    /// The tail-compaction loop: while the tree is sparser than `policy`
    /// tolerates and budget remains, vacate the *highest* occupied u-node
    /// and re-place its member (individual key unchanged) at the *lowest*
    /// hole of the legal window `(nk, d*nk + d]` strictly below it.
    ///
    /// Order of operations per move keeps every invariant true at every
    /// step:
    ///
    /// 1. pick source `s` (highest u-node) and hole `h` (lowest in-window
    ///    n-slot with `h < s`) — if no such pair exists, the tail is
    ///    already dense and compaction stops;
    /// 2. vacate `s` (label Leave) and prune emptied ancestors exactly
    ///    like a departure, possibly lowering `nk`;
    /// 3. place the member at `h` (label Join — it bootstraps from its
    ///    individual key like a joiner) and immediately revive any n-node
    ///    ancestors of `h` to k-nodes, so `nk` again covers `h`'s parent
    ///    before the next move picks its window.
    ///
    /// Tail-first order is what preserves Lemma 4.1: `h`'s parent has ID
    /// `<= nk`, so no k-node ever lands above a u-node ID, and every
    /// remaining member's ID stays inside the window Theorem 4.2 searches.
    // xcheck: no_alloc
    fn compact_tail_in(
        &mut self,
        keygen: &mut KeyGen,
        scratch: &mut MarkScratch,
        policy: &CompactionPolicy,
    ) {
        let d = self.degree();
        let Some(nk0) = self.max_knode_id() else {
            return;
        };
        if !policy.should_compact(nk0, self.user_count(), d) {
            return;
        }
        let _span = obs::span("stage.compact");

        for _ in 0..policy.max_moves_per_batch {
            let Some(nk) = self.max_knode_id() else {
                break;
            };
            if !CompactionPolicy::keep_compacting(nk, self.user_count(), d) {
                break;
            }
            // Source: the highest occupied u-node slot. A slot stamped
            // this batch (a joiner the fill phase placed, or the hole a
            // previous compaction move just filled) is never a source:
            // relocations must map *pre-batch* positions to final ones,
            // one per member. A stamped tail slot also means every hole
            // below it was already denser-packed — nothing left to gain.
            let Some(src) = self.highest_unode_id() else {
                break;
            };
            if scratch.label_of(src).is_some() {
                break;
            }
            // Hole: the lowest empty in-window slot strictly below it.
            // (Everything in the window below `src` is a u-node or a
            // hole — k-node IDs stop at nk — so the first n-tag wins.)
            let high = u64::from(d) * u64::from(nk) + u64::from(d);
            let mut window = (nk + 1..src).take_while(|&c| u64::from(c) <= high);
            let Some(hole) = window.find(|&c| self.is_n(c)) else {
                // No hole below the tail: the occupied region is dense.
                break;
            };
            #[expect(
                clippy::unreachable,
                reason = "invariant: `highest_unode_id` scans the tag column for a u-node, which has an occupant"
            )]
            let Some(member) = self.member_at(src) else {
                unreachable!("highest_unode_id returned a non-u slot")
            };
            #[expect(
                clippy::unreachable,
                reason = "invariant: a u-node's key column is written with its occupant (`set_node`)"
            )]
            let Some(key) = self.key_of(src) else {
                unreachable!("occupied slot {src} holds a key")
            };

            // Vacate the source exactly like a departure.
            self.vacate(src, scratch);

            // Re-place the member (same individual key) at the hole; it
            // is "new" there, so its parent seals the fresh subtree keys
            // under its individual key exactly as for a join.
            self.set_node(hole, Node::U { member, key });
            scratch.stamp(hole, Label::Join);
            // Revive n-node ancestors immediately (update rule 4), so
            // `nk` covers the new slot's parent before the next move.
            self.revive_above(hole, keygen);

            scratch.relocations.push(UserMove {
                member,
                old_id: src,
                new_id: hole,
            });
        }
        obs::counter_add("keytree.compaction_moves", scratch.relocations.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::ident::derive_current_id;

    fn keygen() -> KeyGen {
        KeyGen::from_seed(7)
    }

    fn join(kg: &mut KeyGen, m: MemberId) -> (MemberId, SymKey) {
        (m, kg.next_key())
    }

    /// Every current member, given only the encryptions it can decrypt
    /// starting from the keys it held before the batch, must end up with
    /// the new group key; every departed member must not.
    fn assert_delivery(tree_before: &KeyTree, tree_after: &KeyTree, outcome: &MarkOutcome) {
        let d = tree_after.degree();
        let new_group_key = tree_after.group_key();

        for m in tree_after.member_ids() {
            let uid = tree_after.node_of_member(m).unwrap();
            // Keys the member holds: its individual key plus any path keys
            // from before that are still valid. Simulate decryption: walk
            // the path leaf to root, at each step using the child key to
            // obtain the parent key (from the outcome) or keeping the old
            // key if unchanged.
            let mut have: HashMap<NodeId, SymKey> = HashMap::new();
            have.insert(uid, tree_after.key_of(uid).unwrap());
            // Old path keys (only for members that existed before).
            if let Some(old_keys) = tree_before.keys_for_member(m) {
                for (id, k) in old_keys {
                    have.entry(id).or_insert(k);
                }
            }
            for id in ident::path_to_root(uid, d) {
                if let Some(idx) = outcome.encryption_by_child(id) {
                    let edge = outcome.encryptions[idx];
                    assert!(
                        have.contains_key(&edge.child),
                        "member {m} lacks key {} to decrypt {{{}}}",
                        edge.child,
                        edge.parent
                    );
                    have.insert(edge.parent, tree_after.key_of(edge.parent).unwrap());
                } else if let Some(p) = ident::parent(id, d) {
                    // No encryption under `id`: parent key must be
                    // unchanged from before (the member already has it)
                    // or delivered via a sibling edge... for path walks,
                    // parent must either be unchanged or have an edge from
                    // this child. Updated parents always edge to every
                    // non-leave child, so:
                    if outcome.updated_knodes.contains(&p) {
                        panic!("updated k-node {p} has no edge to child {id}");
                    }
                }
            }
            assert_eq!(
                have.get(&0).copied(),
                new_group_key,
                "member {m} did not obtain the group key"
            );
        }

        // Departed members: their old individual key must not decrypt any
        // encryption (no edge has child == their old u-node id with their
        // key still installed).
        for m in &outcome.departed {
            if tree_after.node_of_member(*m).is_some() {
                continue; // re-joined in the same batch (not produced here)
            }
            let old_uid = tree_before.node_of_member(*m).unwrap();
            if let Some(idx) = outcome.encryption_by_child(old_uid) {
                // An edge exists at the slot: it must target a *different*
                // key now (slot replaced by a new member whose key differs).
                let edge = outcome.encryptions[idx];
                let new_key = tree_after.key_of(edge.child);
                let old_key = tree_before.key_of(old_uid);
                assert_ne!(new_key, old_key, "departed member {m} can still decrypt");
            }
        }
    }

    #[test]
    fn paper_example_single_leave() {
        // Section 2.1: 9 users, d = 3, u9 leaves. In our layout the 9
        // users sit at ids 4..=12 (root 0, k-nodes 1..=3).
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(9, 3, &mut kg);
        let before = tree.clone();
        let batch = Batch::new(vec![], vec![8]); // member 8 == "u9", id 12
        let outcome = tree.process_batch(&batch, &mut kg);

        // Updated k-nodes: k789 (id 3) and the root, deepest first.
        assert_eq!(outcome.updated_knodes, vec![3, 0]);
        // Encryptions: {k78}k7, {k78}k8, {k1-8}k123, {k1-8}k456, {k1-8}k78.
        let edges: Vec<(NodeId, NodeId)> = outcome
            .encryptions
            .iter()
            .map(|e| (e.child, e.parent))
            .collect();
        assert_eq!(edges, vec![(10, 3), (11, 3), (1, 0), (2, 0), (3, 0)]);
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn batch_key_derivation_matches_one_at_a_time_reference() {
        // The updated k-nodes' keys come out of the cipher eight at a time;
        // the tree must end up byte for byte where deriving each key alone
        // — the first 16 keystream bytes under the batch seed, node ID as
        // nonce — leaves it. Updated-node counts around the group size: no
        // group, one lane, a short group, a full one, a full one and a
        // tail, and a server-scale batch (170 groups and a tail of 5).
        let spread: Vec<MemberId> = (0..512).map(|i| i * 32).collect();
        let cases: [(u32, u32, Vec<MemberId>, usize); 6] = [
            (16, 4, vec![], 0),
            (4, 4, vec![0], 1),
            (128, 2, vec![0], 7),
            (256, 2, vec![0], 8),
            (512, 2, vec![0], 9),
            (16384, 4, spread, 1365),
        ];
        for (n, d, leaves, want) in cases {
            let mut kg = keygen();
            let mut tree = KeyTree::balanced(n, d, &mut kg);
            let joins = (0..leaves.len() as u32)
                .map(|i| join(&mut kg, 100_000 + i))
                .collect();
            let mut kg_ref = kg.clone();
            let outcome =
                tree.process_batch_in(Batch::new(joins, leaves), &mut kg, &mut MarkScratch::new());
            assert_eq!(outcome.updated_knodes.len(), want, "n={n} d={d}");

            // The seed is the batch's last generator draw (none at all
            // when nothing was updated).
            let draws = kg.generated() - kg_ref.generated();
            assert_eq!(draws > 0, want > 0, "n={n} d={d}");
            let seed = (0..draws).map(|_| kg_ref.next_key()).last();
            let mut reference = tree.clone();
            for &id in &outcome.updated_knodes {
                let mut key = [0u8; 16];
                wirecrypto::StreamCipher::new(&seed.expect("a draw was made"), id as u64)
                    .apply(&mut key);
                reference.set_key(id, SymKey::from_bytes(key));
            }
            assert_eq!(tree.snapshot(), reference.snapshot(), "n={n} d={d}");
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let gk = tree.group_key();
        let outcome = tree.process_batch(&Batch::default(), &mut kg);
        assert!(outcome.encryptions.is_empty());
        assert!(outcome.updated_knodes.is_empty());
        assert_eq!(tree.group_key(), gk);
    }

    #[test]
    fn join_equals_leave_replaces_in_place() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let batch = Batch::new(vec![join(&mut kg, 100), join(&mut kg, 101)], vec![3, 9]);
        let mut scratch = MarkScratch::new();
        let outcome = tree.process_batch_in(batch, &mut kg, &mut scratch);

        assert_eq!(tree.user_count(), 16);
        assert!(tree.node_of_member(100).is_some());
        assert!(tree.node_of_member(3).is_none());
        // Replacement happens at the departed slots (smallest first).
        let s3 = before.node_of_member(3).unwrap();
        let s9 = before.node_of_member(9).unwrap();
        assert_eq!(scratch.label_of(s3), Some(Label::Replace));
        assert_eq!(scratch.label_of(s9), Some(Label::Replace));
        assert_delivery(&before, &tree, &outcome);
    }

    #[test]
    fn leave_only_prunes_and_replaces() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        // Remove a whole subtree: members 0..4 occupy ids 5..=8 (children
        // of k-node 1).
        let batch = Batch::new(vec![], vec![0, 1, 2, 3]);
        let mut scratch = MarkScratch::new();
        let outcome = tree.process_batch_in(batch, &mut kg, &mut scratch);

        assert!(tree.node(1).is_n(), "emptied k-node must prune to n-node");
        assert_eq!(scratch.label_of(1), Some(Label::Leave));
        // Root is Replace; no encryption under the pruned child.
        assert_eq!(scratch.label_of(0), Some(Label::Replace));
        assert!(outcome.encryption_by_child(1).is_none());
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn all_users_leave_empties_tree() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(4, 4, &mut kg);
        let batch = Batch::new(vec![], (0..4).collect());
        let outcome = tree.process_batch(&batch, &mut kg);
        assert_eq!(tree.user_count(), 0);
        assert_eq!(tree.group_key(), None);
        assert!(outcome.encryptions.is_empty());
        assert_eq!(outcome.nk, None);
    }

    #[test]
    fn join_only_fills_holes_first() {
        let mut kg = keygen();
        // 9 users in a d=4 height-2 tree: leaves 5..=13, holes 14..=20.
        let mut tree = KeyTree::balanced(9, 4, &mut kg);
        let before = tree.clone();
        let batch = Batch::new(vec![join(&mut kg, 50), join(&mut kg, 51)], vec![]);
        let mut scratch = MarkScratch::new();
        let outcome = tree.process_batch_in(batch, &mut kg, &mut scratch);

        // nk was 3; fill range is (3, 16], low to high: the first hole is
        // the internal-level slot 4 (the paper permits u-nodes above the
        // leaf level), then the leaf hole 14.
        assert_eq!(tree.node_of_member(50), Some(4));
        assert_eq!(tree.node_of_member(51), Some(14));
        // k-node 3 gains a join only => label Join; root Join too.
        assert_eq!(scratch.label_of(3), Some(Label::Join));
        assert_eq!(scratch.label_of(0), Some(Label::Join));
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn join_fills_hole_under_pruned_subtree() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        // Empty the first subtree (ids 5..=8 under k-node 1).
        tree.process_batch(&Batch::new(vec![], vec![0, 1, 2, 3]), &mut kg);
        assert!(tree.node(1).is_n());
        let before = tree.clone();

        // One join: fill range is (nk, 4*nk+4]; nk is 4, so range (4, 20]
        // — the first hole is id 5, whose parent (1) is an n-node and must
        // be revived as a k-node.
        let batch = Batch::new(vec![join(&mut kg, 99)], vec![]);
        let outcome = tree.process_batch(&batch, &mut kg);
        assert_eq!(tree.node_of_member(99), Some(5));
        assert!(tree.node(1).is_k(), "revived ancestor must be a k-node");
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn join_overflow_splits() {
        let mut kg = keygen();
        // Full 16-user tree (d=4): no holes, so a 17th user forces a split
        // of node nk+1 = 5.
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let moved_member = tree.member_at(5).unwrap();
        let batch = Batch::new(vec![join(&mut kg, 200)], vec![]);
        let outcome = tree.process_batch(&batch, &mut kg);

        assert!(tree.node(5).is_k(), "node 5 must have split into a k-node");
        // The occupant of 5 moved to its leftmost child 21.
        assert_eq!(tree.node_of_member(moved_member), Some(21));
        assert_eq!(
            outcome.moves,
            vec![UserMove {
                member: moved_member,
                old_id: 5,
                new_id: 21
            }]
        );
        // The new user fills the next slot, 22.
        assert_eq!(tree.node_of_member(200), Some(22));
        // Theorem 4.2 rederives the move from maxKID alone.
        let nk = outcome.nk.unwrap();
        assert_eq!(derive_current_id(5, nk, 4), Some(21));
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn mass_join_multiple_splits() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let before = tree.clone();
        let batch = Batch::new((0..32).map(|i| join(&mut kg, 300 + i)).collect(), vec![]);
        let outcome = tree.process_batch(&batch, &mut kg);
        assert_eq!(tree.user_count(), 48);
        assert!(outcome.moves.len() >= 2, "several slots must split");
        // All moved users rederive their IDs via Theorem 4.2.
        let nk = outcome.nk.unwrap();
        for mv in &outcome.moves {
            assert_eq!(derive_current_id(mv.old_id, nk, 4), Some(mv.new_id));
        }
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bootstrap_from_empty_tree() {
        let mut kg = keygen();
        let mut tree = KeyTree::new(4);
        let batch = Batch::new((0..6).map(|i| join(&mut kg, i)).collect(), vec![]);
        let before = tree.clone();
        let outcome = tree.process_batch(&batch, &mut kg);
        assert_eq!(tree.user_count(), 6);
        assert!(tree.group_key().is_some());
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn more_leaves_than_joins() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(64, 4, &mut kg);
        let before = tree.clone();
        let leaves: Vec<MemberId> = (0..16).collect();
        let joins: Vec<_> = (0..4).map(|i| join(&mut kg, 500 + i)).collect();
        let outcome = tree.process_batch(&Batch::new(joins, leaves), &mut kg);
        assert_eq!(tree.user_count(), 64 - 16 + 4);
        // Joins landed on the 4 smallest departed slots.
        let slots: Vec<NodeId> = (0..4)
            .map(|i| tree.node_of_member(500 + i).unwrap())
            .collect();
        let mut departed_slots: Vec<NodeId> = (0..16u32)
            .map(|m| before.node_of_member(m).unwrap())
            .collect();
        departed_slots.sort_unstable();
        assert_eq!(slots, departed_slots[..4].to_vec());
        assert_delivery(&before, &tree, &outcome);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn group_key_always_changes_on_membership_change() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let g0 = tree.group_key().unwrap();

        let o1 = tree.process_batch(&Batch::new(vec![join(&mut kg, 90)], vec![]), &mut kg);
        let g1 = tree.group_key().unwrap();
        assert_ne!(g0, g1);
        assert!(o1.group_key_changed());

        let o2 = tree.process_batch(&Batch::new(vec![], vec![90]), &mut kg);
        let g2 = tree.group_key().unwrap();
        assert_ne!(g1, g2);
        assert!(o2.group_key_changed());
    }

    #[test]
    fn sequential_batches_maintain_invariants() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(32, 4, &mut kg);
        let mut next_member = 32u32;
        let mut scratch = MarkScratch::new();
        // Drifting churn across 20 intervals, one shared scratch.
        for round in 0..20 {
            let members = tree.member_ids();
            let leaves: Vec<MemberId> = members
                .iter()
                .copied()
                .filter(|m| (m + round) % 5 == 0)
                .take(6)
                .collect();
            let joins: Vec<_> = (0..(round % 9))
                .map(|_| {
                    let m = next_member;
                    next_member += 1;
                    join(&mut kg, m)
                })
                .collect();
            let before = tree.clone();
            let outcome = tree.process_batch_in(Batch::new(joins, leaves), &mut kg, &mut scratch);
            assert_delivery(&before, &tree, &outcome);
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // The same batch sequence through one long-lived scratch and
        // through per-batch fresh scratches must be indistinguishable.
        let run = |reuse: bool| -> Vec<MarkOutcome> {
            let mut kg = keygen();
            let mut tree = KeyTree::balanced(27, 3, &mut kg);
            let mut shared = MarkScratch::new();
            let mut outcomes = Vec::new();
            let mut next = 27u32;
            for round in 0u32..10 {
                let leaves: Vec<MemberId> = tree
                    .member_ids()
                    .into_iter()
                    .filter(|m| (m + round) % 4 == 0)
                    .take(4)
                    .collect();
                let joins: Vec<_> = (0..(round % 5))
                    .map(|_| {
                        next += 1;
                        join(&mut kg, next)
                    })
                    .collect();
                let batch = Batch::new(joins, leaves);
                let outcome = if reuse {
                    tree.process_batch_in(batch, &mut kg, &mut shared)
                } else {
                    tree.process_batch_in(batch, &mut kg, &mut MarkScratch::new())
                };
                outcomes.push(outcome);
            }
            outcomes
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "unknown member")]
    fn leave_of_unknown_member_panics() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(4, 4, &mut kg);
        tree.process_batch(&Batch::new(vec![], vec![77]), &mut kg);
    }

    #[test]
    #[should_panic(expected = "already in group")]
    fn duplicate_join_panics() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(4, 4, &mut kg);
        tree.process_batch(&Batch::new(vec![join(&mut kg, 0)], vec![]), &mut kg);
    }

    #[test]
    fn encryption_ids_are_unique_per_message() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(256, 4, &mut kg);
        let leaves: Vec<MemberId> = (0..64).collect();
        let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
        let mut children: Vec<NodeId> = outcome.encryptions.iter().map(|e| e.child).collect();
        let before = children.len();
        children.sort_unstable();
        children.dedup();
        assert_eq!(children.len(), before, "an encrypting key repeated");
    }

    #[test]
    fn encryptions_needed_per_user_is_at_most_path_length() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(256, 4, &mut kg);
        let leaves: Vec<MemberId> = (0..64).collect();
        let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
        let height = tree.height();
        for uid in tree.user_ids() {
            let needs = outcome.encryptions_for_user(uid, 4);
            assert!(
                needs.len() <= height as usize + 1,
                "user {uid} needs {} encryptions",
                needs.len()
            );
        }
    }

    /// Satellite 1 regression: force the scratch epoch across its wrap
    /// point mid-stream and check the outcomes match a never-wrapped run
    /// batch for batch — no stale stamp from before the wrap may read as
    /// valid afterwards.
    #[test]
    fn epoch_wrap_does_not_leak_stale_stamps() {
        let run = |wrap: bool| -> Vec<MarkOutcome> {
            let mut kg = keygen();
            let mut tree = KeyTree::balanced(64, 4, &mut kg);
            let mut scratch = MarkScratch::new();
            let mut outcomes = Vec::new();
            let mut next = 64u32;
            for round in 0u32..8 {
                if wrap && round == 4 {
                    // The next `begin` increments past u64::MAX: every
                    // slot stamped in rounds 0..4 carries an epoch that a
                    // wrapped counter would re-reach.
                    scratch.set_epoch_for_wrap_test(u64::MAX);
                }
                let leaves: Vec<MemberId> = tree
                    .member_ids()
                    .into_iter()
                    .filter(|m| (m + round) % 3 == 0)
                    .take(8)
                    .collect();
                let joins: Vec<_> = (0..(round % 6))
                    .map(|_| {
                        next += 1;
                        join(&mut kg, next)
                    })
                    .collect();
                outcomes.push(tree.process_batch_in(
                    Batch::new(joins, leaves),
                    &mut kg,
                    &mut scratch,
                ));
            }
            outcomes
        };
        assert_eq!(run(true), run(false));
    }

    /// A disabled policy routed through the compacting entry points must
    /// be byte-identical to the plain path: same outcomes, no
    /// relocations.
    #[test]
    fn disabled_policy_matches_plain_path() {
        let run = |compacting: bool| -> Vec<MarkOutcome> {
            let mut kg = keygen();
            let mut tree = KeyTree::balanced(81, 3, &mut kg);
            let mut scratch = MarkScratch::new();
            let mut outcomes = Vec::new();
            for round in 0u32..6 {
                let leaves: Vec<MemberId> = tree
                    .member_ids()
                    .into_iter()
                    .filter(|m| (m + round) % 4 == 0)
                    .take(10)
                    .collect();
                let batch = Batch::new(vec![], leaves);
                let outcome = if compacting {
                    tree.process_batch_compacting_in(
                        batch,
                        &mut kg,
                        &mut scratch,
                        &CompactionPolicy::DISABLED,
                    )
                } else {
                    tree.process_batch_in(batch, &mut kg, &mut scratch)
                };
                assert!(outcome.relocations.is_empty());
                outcomes.push(outcome);
            }
            outcomes
        };
        assert_eq!(run(true), run(false));
    }

    /// Sustained mass departure with compaction on: tree depth and `nk`
    /// must come back down to the small group's ideal shape instead of
    /// staying at the historical peak, every batch must still deliver the
    /// group key to every member, and relocated members keep their
    /// individual keys.
    #[test]
    fn compaction_bounds_depth_after_mass_departure() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(1024, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy::DEFAULT_ON;

        // Keep every 32nd member: 32 survivors of 1024.
        let leaves: Vec<MemberId> = (0..1024).filter(|m| m % 32 != 0).collect();
        let before = tree.clone();
        let outcome = tree.process_batch_compacting_in(
            Batch::new(vec![], leaves),
            &mut kg,
            &mut scratch,
            &policy,
        );
        assert_delivery(&before, &tree, &outcome);
        let peak_height = before.height();

        // Drain the relocation budget over follow-up empty batches.
        let mut total_relocations = outcome.relocations.len();
        let mut individual_keys: HashMap<MemberId, SymKey> = tree
            .member_ids()
            .into_iter()
            .map(|m| (m, tree.key_of(tree.node_of_member(m).unwrap()).unwrap()))
            .collect();
        for _ in 0..32 {
            let before = tree.clone();
            let outcome =
                tree.process_batch_compacting_in(Batch::default(), &mut kg, &mut scratch, &policy);
            assert_delivery(&before, &tree, &outcome);
            tree.check_invariants().unwrap();
            for rl in &outcome.relocations {
                // Downward, key-preserving, one per member per batch.
                assert!(rl.new_id < rl.old_id);
                assert_eq!(tree.node_of_member(rl.member), Some(rl.new_id));
                assert_eq!(tree.key_of(rl.new_id), Some(individual_keys[&rl.member]));
            }
            total_relocations += outcome.relocations.len();
            individual_keys = tree
                .member_ids()
                .into_iter()
                .map(|m| (m, tree.key_of(tree.node_of_member(m).unwrap()).unwrap()))
                .collect();
            if outcome.relocations.is_empty() {
                break;
            }
        }
        assert!(total_relocations > 0, "compaction never ran");
        assert_eq!(tree.user_count(), 32);
        // 32 users at d=4 fit in height 3 (4^3 = 64 leaves); without
        // compaction the survivors would sit at the old height 5.
        assert!(
            tree.height() <= 3,
            "height {} did not come down from peak {peak_height}",
            tree.height()
        );
        let nk = tree.max_knode_id().unwrap();
        assert!(
            u64::from(nk) <= 2 * CompactionPolicy::ideal_nk(32, 4) + 4,
            "nk {nk} still at mass-departure scale"
        );
    }

    /// Compaction must stay inert for trees already near their ideal
    /// shape, and the per-batch move budget must cap the relocation work.
    #[test]
    fn compaction_respects_trigger_and_budget() {
        let mut kg = keygen();
        // Dense tree: nowhere near the slack trigger.
        let mut tree = KeyTree::balanced(256, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let outcome = tree.process_batch_compacting_in(
            Batch::default(),
            &mut kg,
            &mut scratch,
            &CompactionPolicy::DEFAULT_ON,
        );
        assert!(outcome.relocations.is_empty(), "dense tree was compacted");

        // Sparse tree with a tiny budget: at most `max_moves_per_batch`
        // relocations per batch.
        let mut tree = KeyTree::balanced(1024, 4, &mut kg);
        let leaves: Vec<MemberId> = (0..1024).filter(|m| m % 16 != 0).collect();
        tree.process_batch_in(Batch::new(vec![], leaves), &mut kg, &mut scratch);
        let tiny = CompactionPolicy {
            max_moves_per_batch: 3,
        };
        let outcome =
            tree.process_batch_compacting_in(Batch::default(), &mut kg, &mut scratch, &tiny);
        assert!(
            outcome.relocations.len() <= 3,
            "budget exceeded: {} moves",
            outcome.relocations.len()
        );
        assert!(!outcome.relocations.is_empty(), "sparse tree not compacted");
    }

    /// Compaction alongside a same-batch join/leave mix: joiners placed
    /// this batch are never relocation sources, so every relocation maps
    /// a pre-batch slot to a final slot.
    #[test]
    fn compaction_composes_with_batch_churn() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(512, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy::DEFAULT_ON;
        // Mass departure to open the gap...
        let leaves: Vec<MemberId> = (0..512).filter(|m| m % 8 != 0).collect();
        tree.process_batch_in(Batch::new(vec![], leaves), &mut kg, &mut scratch);
        // ...then churn batches with simultaneous joins and leaves.
        let mut next = 1000u32;
        for round in 0u32..12 {
            let leaves: Vec<MemberId> = tree
                .member_ids()
                .into_iter()
                .filter(|m| (m + round) % 7 == 0)
                .take(4)
                .collect();
            let joins: Vec<_> = (0..(round % 4))
                .map(|_| {
                    next += 1;
                    join(&mut kg, next)
                })
                .collect();
            let before = tree.clone();
            let outcome = tree.process_batch_compacting_in(
                Batch::new(joins, leaves),
                &mut kg,
                &mut scratch,
                &policy,
            );
            assert_delivery(&before, &tree, &outcome);
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            for rl in &outcome.relocations {
                assert_eq!(
                    before.member_at(rl.old_id),
                    Some(rl.member),
                    "relocation source {} was not member {}'s pre-batch slot",
                    rl.old_id,
                    rl.member
                );
                assert!(!outcome.moves.iter().any(|mv| mv.member == rl.member));
            }
        }
    }

    /// Satellite 2 regression: a mass departure followed by compaction
    /// must return `resident_bytes` near the small group's working set
    /// instead of pinning the SoA columns and member index at their
    /// historical peak forever.
    #[test]
    fn compaction_reclaims_resident_bytes_after_mass_departure() {
        let mut kg = keygen();
        let mut tree = KeyTree::balanced(4096, 4, &mut kg);
        let mut scratch = MarkScratch::new();
        let policy = CompactionPolicy::DEFAULT_ON;
        let peak = tree.resident_bytes();

        let leaves: Vec<MemberId> = (64..4096).collect();
        tree.process_batch_compacting_in(
            Batch::new(vec![], leaves),
            &mut kg,
            &mut scratch,
            &policy,
        );
        for _ in 0..64 {
            let outcome =
                tree.process_batch_compacting_in(Batch::default(), &mut kg, &mut scratch, &policy);
            if outcome.relocations.is_empty() {
                break;
            }
        }
        assert_eq!(tree.user_count(), 64);
        tree.check_invariants().unwrap();
        let settled = tree.resident_bytes();
        // 64 survivors of 4096: the working set is ~1/64th of peak.
        assert!(
            settled * 8 <= peak,
            "resident_bytes {settled} still near peak {peak}"
        );
        // And a reference tree built directly at the final size agrees on
        // the order of magnitude (allow slack for allocator rounding and
        // the not-perfectly-packed compacted shape).
        let reference = KeyTree::balanced(64, 4, &mut kg).resident_bytes();
        assert!(
            settled <= reference * 8,
            "resident_bytes {settled} far from reference {reference}"
        );
    }
}
