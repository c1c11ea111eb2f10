//! The User-oriented Key Assignment (UKA) algorithm.
//!
//! UKA guarantees that **all of a user's encryptions land in one ENC
//! packet**, so the vast majority of users can recover their keys from a
//! single received packet without FEC decoding. It works on the sorted
//! list of user IDs: repeatedly take the longest prefix of remaining users
//! whose union of needed encryptions still fits one packet, emit that
//! packet with the inclusive user-ID range `<frmID, toID>`, and continue.
//! Ranges never overlap and strictly increase, which block-ID estimation
//! relies on.
//!
//! **Run aggregation.** The packing never needs to visit users one by
//! one: a user's need-set is exactly the encryption edges on its
//! leaf-to-root path, and that set is constant across every user under
//! the same *frontier* node — an encryption-bearing child of the rekey
//! subtree that is not itself an updated k-node. Updated k-nodes form a
//! root-connected subtree, so frontier subtrees are disjoint and every
//! served user lies in exactly one. Under BFS numbering a frontier
//! node's descendants at each level form a contiguous ID interval, and
//! all per-level intervals across frontier nodes are pairwise disjoint —
//! so the planner enumerates those intervals in ascending ID order
//! (*runs*) and packs whole runs: within a run the marginal cost of
//! every user after the first is zero, hence the greedy split points are
//! identical to the user-by-user walk, packet by packet, field by field.
//! The subtree's structure — each updated node's edges, own edge, parent
//! and depth — is read from the marks marking left ([`MarkOutcome::subtree`]),
//! and a packet's entries are kept by level, so they come out in ID order
//! by merging, not sorting. Cost: O(E + W + emitted) for E edges, W
//! windows and the entries packed, instead of O(N·h) for N users, with no
//! search and no sort. The user-by-user walk survives as the test oracle
//! (`crate::sanitize::reference_plan`).
//!
//! The price of UKA is duplication: users in different packets that share
//! path encryptions receive copies. [`AssignmentStats::duplication_overhead`]
//! measures that cost exactly as the paper does (duplicated encryptions
//! over total encryptions in the rekey subtree).

use keytree::{ident, EncEdge, KeyTree, MarkOutcome, NodeId, SubtreeRow};
use wirecrypto::batch::seal_batch;
use wirecrypto::SealedKey;

use crate::layout::Layout;
use crate::seal_context;
use crate::wire::{EncHeader, EncPacket, WireError};

/// An inclusive interval of node IDs served by one ENC packet, all lying
/// inside one frontier subtree. `lo` is always a genuine u-node; `hi` may
/// overshoot the last user of the interval (only u-slots in between are
/// users — vacant and out-of-range slots carry nothing). Every u-node in
/// `lo..=hi` shares the packet's need-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserRun {
    /// First served user ID of the run.
    pub lo: NodeId,
    /// Last slot ID of the run (inclusive; u-slots only are users).
    pub hi: NodeId,
}

/// One planned ENC packet: which users it serves and which encryptions it
/// carries. No cryptography yet — experiment drivers that only need counts
/// use plans directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketPlan {
    /// First served user ID.
    pub frm_id: NodeId,
    /// Last served user ID (inclusive).
    pub to_id: NodeId,
    /// Indices into `MarkOutcome::encryptions`, ascending by encryption ID.
    pub enc_indices: Vec<usize>,
    /// The served users as a sorted, disjoint run list — O(runs), not
    /// O(users). Enumerate with [`PacketPlan::users_iter`].
    pub user_runs: Vec<UserRun>,
}

impl PacketPlan {
    /// Iterator over the u-node IDs this packet serves, ascending. Takes
    /// the tree the plan was built against (runs are ID intervals; the
    /// tag array says which slots inside them hold users).
    pub fn users_iter<'a>(&'a self, tree: &'a KeyTree) -> impl Iterator<Item = NodeId> + 'a {
        self.user_runs
            .iter()
            .flat_map(move |r| (r.lo..=r.hi).filter(move |&id| tree.is_u(id)))
    }

    /// True when `uid` — which must be a current u-node ID — is served by
    /// this packet. O(log runs).
    pub fn covers_user(&self, uid: NodeId) -> bool {
        let i = self.user_runs.partition_point(|r| r.hi < uid);
        self.user_runs.get(i).is_some_and(|r| r.lo <= uid)
    }
}

/// Counting statistics of one assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AssignmentStats {
    /// Number of ENC packets produced.
    pub packets: usize,
    /// Total `<encryption, ID>` entries emitted across all packets.
    pub entries_emitted: usize,
    /// Distinct encryptions in the rekey subtree.
    pub distinct_encryptions: usize,
}

impl AssignmentStats {
    /// Duplicated encryptions over total encryptions in the rekey subtree
    /// (the paper's duplication-overhead metric). Zero for an empty
    /// message.
    pub fn duplication_overhead(&self) -> f64 {
        if self.distinct_encryptions == 0 {
            0.0
        } else {
            (self.entries_emitted - self.distinct_encryptions) as f64
                / self.distinct_encryptions as f64
        }
    }
}

/// One clipped per-level frontier window awaiting packing: the IDs
/// `lo..=hi` are the descendants of one frontier node at one level,
/// intersected with the tree's user zone.
#[derive(Debug, Clone, Copy)]
struct RunWindow {
    lo: NodeId,
    hi: NodeId,
    /// Index into `MarkOutcome::encryptions` of the frontier edge.
    edge: u32,
    /// Position of the edge's parent, where its need-chain starts.
    parent: u32,
}

/// Packed representation of one planned packet inside [`PlanScratch`]:
/// arena segment ends (starts are the previous meta's ends).
#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    frm: NodeId,
    to: NodeId,
    enc_end: u32,
    run_end: u32,
}

/// Reusable scratch for the run-aggregated UKA planner: epoch-stamped
/// packet membership, the frontier windows, the open packet's entries by
/// level, and the packed plan output. The rekey subtree's structure comes
/// from the outcome ([`MarkOutcome::subtree`]), as marking recorded it.
/// With a warm scratch (same batch shape as a previous call)
/// [`PlanScratch::compute`] performs zero heap allocations — the dynamic
/// `tests/no_alloc_marks.rs` harness pins that.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Current packet stamp; bumped per packet and per `compute` call, so
    /// `in_packet[e] == stamp` means encryption `e` is in the open packet.
    stamp: u64,
    /// Per encryption index: stamp of the packet that last took it.
    in_packet: Vec<u64>,
    /// Clipped frontier windows, ascending by `lo`.
    windows: Vec<RunWindow>,
    /// The open packet's entries, `width` slots per level of the encrypting
    /// key, each level in the order its entries were taken; `taken[level]`
    /// counts them. An entry is `child << 32 | edge index`.
    by_level: Vec<u64>,
    taken: Vec<u32>,
    width: usize,
    /// Packed output: one meta per packet over the two arenas.
    packets: Vec<PacketMeta>,
    enc_arena: Vec<u64>,
    run_arena: Vec<UserRun>,
    /// Chain-walk steps of the last `compute` (the complexity pin).
    #[cfg(test)]
    walk_steps: usize,
}

impl PlanScratch {
    /// Fresh, cold scratch (first `compute` call sizes the buffers).
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }

    /// Fills the ascending frontier windows for `outcome`. Returns false
    /// when there is nothing to plan (no subtree rows — so no encryptions
    /// — or no users / k-nodes).
    // xcheck: no_alloc
    fn prepare(&mut self, tree: &KeyTree, outcome: &MarkOutcome) -> bool {
        self.windows.clear();
        let rows = outcome.subtree();
        let (Some(root), Some(maxk), Some(maxu)) =
            (rows.last(), tree.max_knode_id(), tree.highest_unode_id())
        else {
            return false;
        };

        // Frontier windows: for every edge whose child is NOT an updated
        // k-node, the child's descendants at each level form one
        // contiguous ID interval; clip each to the user zone
        // (maxk, maxu] — Lemma 4.1 puts every u-node there, and it spans
        // at most two levels — and keep the non-empty clips. Frontier
        // subtrees are disjoint and BFS levels are disjoint ID bands, so a
        // pre-order DFS per level, children ascending, lists them in order.
        let degree = tree.degree().max(2);
        let zone = (u64::from(maxk) + 1, u64::from(maxu));
        let (pos, level) = (rows.len() as u32 - 1, root.depth + 1);
        for target in ident::level(maxk.saturating_add(1), degree)..=ident::level(maxu, degree) {
            self.windows_below(outcome, pos, level, target, u64::from(degree), zone);
        }
        true
    }

    /// Appends, in pre-order with children ascending, the windows at level
    /// `target` under the group of updated position `pos`, whose children
    /// sit at `level`: an edge whose child is the next of `pos`'s updated
    /// children (positions descending as IDs ascend) recurses, any other is
    /// a frontier edge. Recursion stops at `target`, so it is never deeper
    /// than a node ID has levels, whatever the outcome.
    // xcheck: no_alloc
    fn windows_below(
        &mut self,
        outcome: &MarkOutcome,
        pos: u32,
        level: u32,
        target: u32,
        d: u64,
        zone: (u64, u64),
    ) {
        if level > target {
            return;
        }
        let rows = outcome.subtree();
        let SubtreeRow { group, kids, .. } = rows[pos as usize];
        let mut kid = kids.1;
        for e in group.0..group.1 {
            if kid > kids.0 && rows[kid as usize - 1].edge == e {
                kid -= 1;
                self.windows_below(outcome, kid, level + 1, target, d, zone);
                continue;
            }
            let child = u64::from(outcome.encryptions[e as usize].child);
            let (mut lo, mut hi) = (child, child);
            for _ in level..target {
                lo = lo.saturating_mul(d).saturating_add(1);
                hi = hi.saturating_mul(d).saturating_add(d);
            }
            let (lo, hi) = (lo.max(zone.0), hi.min(zone.1));
            if lo <= hi {
                self.windows.push(RunWindow {
                    lo: lo as NodeId,
                    hi: hi as NodeId,
                    edge: e,
                    parent: pos,
                });
            }
        }
    }

    /// Walks a window's need-set — its edge, then the chain up from its
    /// parent — to the first edge the open packet already holds, and
    /// returns how many edges it passed; with `take` they join the packet,
    /// each under the level of its encrypting key. Stopping there is
    /// exact: the packet's edges are closed upward, each having gone in
    /// with every edge above it.
    // xcheck: no_alloc
    fn walk(&mut self, edges: &[EncEdge], rows: &[SubtreeRow], w: RunWindow, take: bool) -> usize {
        let (mut e, mut pos, mut fresh) = (w.edge as usize, w.parent, 0);
        let mut level = rows[pos as usize].depth as usize + 1;
        loop {
            #[cfg(test)]
            {
                self.walk_steps += 1;
            }
            if self.in_packet[e] == self.stamp {
                break fresh;
            }
            if take {
                self.in_packet[e] = self.stamp;
                let slot = level * self.width + self.taken[level] as usize;
                self.by_level[slot] = (u64::from(edges[e].child) << 32) | e as u64;
                self.taken[level] += 1;
            }
            fresh += 1;
            match rows.get(pos as usize) {
                Some(row) if row.depth > 0 => {
                    (e, pos, level) = (row.edge as usize, row.parent, level - 1);
                }
                _ => break fresh,
            }
        }
    }

    /// Runs the greedy UKA packing over the prepared run windows, filling
    /// the packed-plan arenas. Returns the packet count. Bit-identical to
    /// the user-by-user reference walk: within a run every user after the
    /// first adds zero marginal cost, so the greedy split decisions — and
    /// therefore `frm_id`/`to_id`/`enc_indices` — land on the same
    /// boundaries.
    ///
    /// # Errors
    ///
    /// [`AssignError::PacketCapacity`] when one user's whole-path
    /// need-set alone exceeds the layout's packet capacity (UKA's
    /// one-packet-per-user guarantee would be unsatisfiable).
    // xcheck: no_alloc
    pub fn compute(
        &mut self,
        tree: &KeyTree,
        outcome: &MarkOutcome,
        layout: &Layout,
    ) -> Result<usize, AssignError> {
        self.packets.clear();
        self.enc_arena.clear();
        self.run_arena.clear();
        #[cfg(test)]
        {
            self.walk_steps = 0;
        }
        if !self.prepare(tree, outcome) {
            return Ok(0);
        }
        let capacity = layout.encryptions_per_packet();
        let (edges, rows) = (&outcome.encryptions[..], outcome.subtree());
        self.in_packet.resize(edges.len(), 0);
        self.stamp += 1;
        // A packet holds at most `capacity` entries, and no level more
        // edges than there are; the deepest row's children are the deepest
        // encrypting keys.
        self.width = capacity.min(edges.len());
        let levels = rows[0].depth as usize + 2;
        self.taken.clear();
        self.taken.resize(levels, 0);
        self.by_level.resize(levels * self.width, 0);

        let (mut held, mut run_start, mut frm, mut open) = (0, 0, 0, false);
        for wi in 0..self.windows.len() {
            let w = self.windows[wi];
            // Vacant windows (every slot an empty or relocated-away
            // u-slot) serve nobody and must not influence the packing.
            let Some(first) = tree.first_user_in(w.lo, w.hi) else {
                continue;
            };
            let need_len = 1 + rows[w.parent as usize].depth as usize;
            if need_len > capacity {
                return Err(AssignError::PacketCapacity {
                    user: first,
                    needed: need_len,
                    capacity,
                });
            }
            // The whole need-set bounds what the window adds: only a
            // packet it might overflow pays for the exact count.
            if open
                && held + need_len > capacity
                && held + self.walk(edges, rows, w, false) > capacity
            {
                self.close_packet(tree, frm);
                run_start = self.run_arena.len();
                self.stamp += 1;
                (held, open) = (0, false);
            }
            if !open {
                frm = first;
                open = true;
            }
            held += self.walk(edges, rows, w, true);
            // Adjacent windows (same frontier node across levels, or
            // abutting siblings) merge into one stored run.
            let in_packet = self.run_arena.len() > run_start;
            match self.run_arena.last_mut() {
                Some(last) if in_packet && last.hi + 1 == w.lo => last.hi = w.hi,
                _ => self.run_arena.push(UserRun {
                    lo: first,
                    hi: w.hi,
                }),
            }
        }
        if open {
            self.close_packet(tree, frm);
        }
        Ok(self.packets.len())
    }

    /// Seals the open packet: trims the final run to its last real user
    /// (the packet's `to_id`), writes the packet's entries ascending by
    /// encryption (child) ID, and records the packet meta. IDs ascend level
    /// by level, and within one level the windows of one target level took
    /// their keys ascending — windows ascend, and so do their ancestors —
    /// so a level holds at most two ascending runs, one per target level
    /// of the user zone, and one linear merge orders it.
    // xcheck: no_alloc
    fn close_packet(&mut self, tree: &KeyTree, frm: NodeId) {
        let to = self.run_arena.last_mut().map_or(frm, |last| {
            // The final run is non-vacant by construction; fall back to
            // its first user to stay total.
            last.hi = tree.last_user_in(last.lo, last.hi).unwrap_or(last.lo);
            last.hi
        });
        for level in 0..self.taken.len() {
            let base = level * self.width;
            let taken =
                &self.by_level[base..base + core::mem::take(&mut self.taken[level]) as usize];
            let split = taken
                .windows(2)
                .position(|p| p[1] < p[0])
                .map_or(taken.len(), |i| i + 1);
            let (a, b) = taken.split_at(split);
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let from_a = j == b.len() || (i < a.len() && a[i] < b[j]);
                self.enc_arena.push(if from_a { a[i] } else { b[j] });
                (i, j) = if from_a { (i + 1, j) } else { (i, j + 1) };
            }
        }
        self.packets.push(PacketMeta {
            frm,
            to,
            enc_end: self.enc_arena.len() as u32,
            run_end: self.run_arena.len() as u32,
        });
    }

    /// Materializes the packed plans of the last [`PlanScratch::compute`]
    /// call (allocates the output vectors).
    fn emit(&self) -> Vec<PacketPlan> {
        let mut plans = Vec::with_capacity(self.packets.len());
        let (mut e0, mut r0) = (0usize, 0usize);
        for m in &self.packets {
            plans.push(PacketPlan {
                frm_id: m.frm,
                to_id: m.to,
                enc_indices: self.enc_arena[e0..m.enc_end as usize]
                    .iter()
                    .map(|&key| key as u32 as usize)
                    .collect(),
                user_runs: self.run_arena[r0..m.run_end as usize].to_vec(),
            });
            e0 = m.enc_end as usize;
            r0 = m.run_end as usize;
        }
        plans
    }
}

/// Plans the UKA packing without sealing anything (fresh scratch; steady
/// -state callers reuse one via [`plan_in`]).
///
/// Users that need no encryptions (their whole path is unchanged) are
/// skipped — they are vacuously satisfied by the rekey message.
///
/// # Errors
///
/// [`AssignError::PacketCapacity`] when a user's whole-path need-set
/// exceeds one packet (layout too small for this tree height).
pub fn plan(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    layout: &Layout,
) -> Result<Vec<PacketPlan>, AssignError> {
    plan_in(tree, outcome, layout, &mut PlanScratch::default())
}

/// [`plan`] with a caller-owned scratch: with a warm scratch the planning
/// core allocates nothing; only the returned plan vectors are fresh.
///
/// # Errors
///
/// As [`plan`].
pub fn plan_in(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    layout: &Layout,
    scratch: &mut PlanScratch,
) -> Result<Vec<PacketPlan>, AssignError> {
    scratch.compute(tree, outcome, layout)?;
    Ok(scratch.emit())
}

/// Plans the UKA packing and seals the full edge list, without
/// assembling wire packets.
///
/// This is [`UkaAssignment::build_in`] minus the 16-bit wire stage: no
/// `maxKID`/ID range checks and no `EncPacket` assembly, so it stays
/// total for populations whose node IDs overflow the `u16` wire space
/// (N > 2^14 at degree 4). `build_in` runs it and then assembles packets.
/// `sealed[i]` is the seal of `outcome.encryptions[i]`.
///
/// Every edge is on some live user's path (the orphan-key invariant: each
/// live k-node has a u-descendant), so sealing the whole edge list does
/// exactly the work the plans require — without the distinct-index set
/// and keyed cache a plan-driven walk would need — and no edge depends on
/// another, so they go through the cipher eight at a time
/// ([`wirecrypto::batch::seal_batch`]). The first failing edge, in edge
/// order, is the error returned.
///
/// # Errors
///
/// Fails when an encryption edge refers to a key absent from the tree or
/// when a need-set exceeds the packet capacity.
pub(crate) fn plan_and_seal(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    msg_seq: u64,
    layout: &Layout,
    scratch: &mut PlanScratch,
) -> Result<(Vec<PacketPlan>, Vec<SealedKey>), AssignError> {
    let _span_build = obs::span("uka.build");
    let span_plan = obs::span("uka.plan");
    let plans = plan_in(tree, outcome, layout, scratch)?;
    drop(span_plan);
    let span_seal = obs::span("stage.seal");
    let mut sealed: Vec<SealedKey> = Vec::with_capacity(outcome.encryptions.len());
    let mut missing = None;
    let triples = outcome.encryptions.iter().map_while(|edge| {
        let keys = tree.key_of(edge.child).zip(tree.key_of(edge.parent));
        if keys.is_none() {
            missing = Some(*edge);
        }
        keys.map(|(kek, plain)| (kek, plain, seal_context(msg_seq, edge.child)))
    });
    seal_batch(triples, |_, blob| sealed.push(blob));
    if let Some(EncEdge { child, parent }) = missing {
        return Err(AssignError::MissingKey { child, parent });
    }
    drop(span_seal);
    obs::counter_add("uka.keys_sealed", sealed.len() as u64);
    obs::counter_add(
        "uka.bytes_sealed",
        (sealed.len() * wirecrypto::SEALED_KEY_LEN) as u64,
    );
    Ok((plans, sealed))
}

/// Why building an assignment failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignError {
    /// An encryption edge refers to a key the tree no longer holds.
    MissingKey {
        /// The encrypting (child) node of the edge.
        child: NodeId,
        /// The encrypted (parent) node of the edge.
        parent: NodeId,
    },
    /// A node ID does not fit the 16-bit wire representation.
    IdOutOfRange(NodeId),
    /// A user's whole-path need-set exceeds one packet's capacity: the
    /// layout is too small for this tree height, so UKA's
    /// one-packet-per-user guarantee is unsatisfiable.
    PacketCapacity {
        /// The first (lowest-ID) user whose need-set does not fit.
        user: NodeId,
        /// Encryptions that user needs.
        needed: usize,
        /// Encryptions one packet holds under the layout.
        capacity: usize,
    },
    /// A planned packet does not fit its wire fields.
    Wire(WireError),
}

impl core::fmt::Display for AssignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AssignError::MissingKey { child, parent } => {
                write!(
                    f,
                    "encryption edge {child} -> {parent} refers to a missing key"
                )
            }
            AssignError::IdOutOfRange(id) => {
                write!(f, "node ID {id} exceeds the 16-bit wire range")
            }
            AssignError::PacketCapacity {
                user,
                needed,
                capacity,
            } => {
                write!(
                    f,
                    "user {user} needs {needed} encryptions but packets hold {capacity}: \
                     layout too small for this tree height"
                )
            }
            AssignError::Wire(e) => write!(f, "packet cannot be written: {e}"),
        }
    }
}

impl std::error::Error for AssignError {}

/// Statistics of the *naive* (non-UKA) assignment baseline: encryptions
/// packed in rekey-subtree generation order with no per-user alignment.
///
/// This is the ablation that motivates UKA. Without alignment a user's
/// encryptions scatter over several packets, so its single-round success
/// probability drops from `(1 - p)` to `(1 - p)^m` — and it must FEC-
/// decode (or re-request) *every* block its packets land in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveAssignmentStats {
    /// Packets produced (no duplication, so never more than UKA's count).
    pub packets: usize,
    /// Mean number of distinct packets a user needs.
    pub avg_packets_per_user: f64,
    /// Worst-case packets a user needs.
    pub max_packets_per_user: usize,
    /// Fraction of users whose needs land in a single packet.
    pub single_packet_fraction: f64,
}

/// Computes the naive-baseline statistics for the same workload UKA would
/// pack. Encryptions are taken in `MarkOutcome::encryptions` order
/// (bottom-up rekey-subtree traversal) and cut greedily into packets of
/// `layout.encryptions_per_packet()`.
///
/// Run-aggregated like [`plan`]: per-user packet spread is constant
/// across a frontier run, so each run is evaluated once and weighted by
/// its user count.
pub fn naive_plan_stats(
    tree: &KeyTree,
    outcome: &MarkOutcome,
    layout: &Layout,
) -> NaiveAssignmentStats {
    let capacity = layout.encryptions_per_packet();
    let mut scratch = PlanScratch::default();
    // Nothing to plan (no edges, users or k-nodes) packs nothing either.
    let planned = scratch.prepare(tree, outcome);
    let packets = planned.then(|| outcome.encryptions.len().div_ceil(capacity));
    let (mut sum, mut max, mut single, mut users) = (0usize, 0usize, 0usize, 0usize);
    let mut pkts: Vec<usize> = Vec::new();
    for w in &scratch.windows {
        let count = tree.count_users_in(w.lo, w.hi);
        if count == 0 {
            continue;
        }
        pkts.clear();
        pkts.push(w.edge as usize / capacity);
        let mut pos = w.parent;
        while let Some(row) = outcome.subtree().get(pos as usize).filter(|r| r.depth > 0) {
            pkts.push(row.edge as usize / capacity);
            pos = row.parent;
        }
        pkts.sort_unstable();
        pkts.dedup();
        users += count;
        sum += pkts.len() * count;
        max = max.max(pkts.len());
        single += count * usize::from(pkts.len() == 1);
    }
    let per_user = |n: usize| n as f64 / users.max(1) as f64;
    NaiveAssignmentStats {
        packets: packets.unwrap_or(0),
        avg_packets_per_user: per_user(sum),
        max_packets_per_user: max,
        single_packet_fraction: if users == 0 { 1.0 } else { per_user(single) },
    }
}

/// The full assignment: sealed ENC packets plus bookkeeping.
#[derive(Debug, Clone)]
pub struct UkaAssignment {
    /// The ENC packets in generation order, each written once into its
    /// FEC body. `block_id`/`seq` are zero here; block partitioning fills
    /// them in.
    pub packets: Vec<EncPacket>,
    /// Plans aligned with `packets`.
    pub plans: Vec<PacketPlan>,
    /// Counting statistics.
    pub stats: AssignmentStats,
}

impl UkaAssignment {
    /// Which packet (index) serves user `uid`, or `None` when the user
    /// needs nothing from this message. `uid` must be a current u-node ID
    /// (as from [`KeyTree::node_of_member`] — non-user slot IDs inside a
    /// packet's range are not distinguished). O(log packets + log runs)
    /// by binary search over the strictly increasing packet ranges.
    pub fn packet_of_user(&self, uid: NodeId) -> Option<usize> {
        let pi = self.plans.partition_point(|p| p.to_id < uid);
        let p = self.plans.get(pi)?;
        p.covers_user(uid).then_some(pi)
    }

    /// Iterator over `(user ID, packet index)` for every served user,
    /// ascending by packet then user ID.
    pub fn served_users<'a>(
        &'a self,
        tree: &'a KeyTree,
    ) -> impl Iterator<Item = (NodeId, usize)> + 'a {
        self.plans
            .iter()
            .enumerate()
            .flat_map(move |(pi, p)| p.users_iter(tree).map(move |u| (u, pi)))
    }

    /// Runs UKA and seals every encryption (each distinct encryption is
    /// sealed once and written into every packet that carries it),
    /// planning in a fresh scratch; a server that builds a message per
    /// interval keeps one and calls [`UkaAssignment::build_in`].
    ///
    /// # Errors
    ///
    /// As [`UkaAssignment::build_in`].
    pub fn build(
        tree: &KeyTree,
        outcome: &MarkOutcome,
        msg_seq: u64,
        layout: &Layout,
    ) -> Result<UkaAssignment, AssignError> {
        Self::build_in(tree, outcome, msg_seq, layout, &mut PlanScratch::new())
    }

    /// [`UkaAssignment::build`] with a caller-owned planner scratch: warm,
    /// the planning core allocates nothing.
    ///
    /// # Errors
    ///
    /// Fails when an encryption edge refers to a key absent from the tree,
    /// when a node ID exceeds the 16-bit wire range, or when a need-set
    /// exceeds the packet capacity — all indicate a tree/marking/layout
    /// mismatch upstream.
    pub fn build_in(
        tree: &KeyTree,
        outcome: &MarkOutcome,
        msg_seq: u64,
        layout: &Layout,
        scratch: &mut PlanScratch,
    ) -> Result<UkaAssignment, AssignError> {
        let msg_id = (msg_seq & 0x3f) as u8;
        // 16-bit wire range: `maxKID` and every encryption ID a packet
        // carries must fit `u16` (packet ranges are checked at assembly).
        let nk = outcome.nk.unwrap_or(0);
        let max_kid = u16::try_from(nk).map_err(|_| AssignError::IdOutOfRange(nk))?;
        if let Some(edge) = outcome
            .encryptions
            .iter()
            .find(|edge| edge.child > u16::MAX as NodeId)
        {
            return Err(AssignError::IdOutOfRange(edge.child));
        }
        let (plans, sealed) = plan_and_seal(tree, outcome, msg_seq, layout, scratch)?;
        let _span_assemble = obs::span("uka.assemble");
        let mut packets = Vec::with_capacity(plans.len());
        let fixed = EncHeader {
            msg_id,
            max_kid,
            ..EncHeader::default()
        };
        for plan in plans.iter() {
            let (Ok(frm_id), Ok(to_id)) = (u16::try_from(plan.frm_id), u16::try_from(plan.to_id))
            else {
                return Err(AssignError::IdOutOfRange(plan.frm_id.max(plan.to_id)));
            };
            let header = EncHeader {
                frm_id,
                to_id,
                ..fixed
            };
            let entries = (plan.enc_indices.iter())
                .map(|&i| (outcome.encryptions[i].child as u16, sealed[i]));
            packets.push(EncPacket::new(header, entries, layout).map_err(AssignError::Wire)?);
        }

        obs::counter_add("uka.enc_packets", packets.len() as u64);
        let stats = AssignmentStats {
            packets: plans.len(),
            entries_emitted: plans.iter().map(|p| p.enc_indices.len()).sum(),
            distinct_encryptions: outcome.encryptions.len(),
        };
        Ok(UkaAssignment {
            packets,
            plans,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keytree::Batch;
    use std::collections::HashSet;
    use wirecrypto::KeyGen;

    fn setup(n: u32, leaves: u32) -> (KeyTree, MarkOutcome) {
        let mut kg = KeyGen::from_seed(5);
        let mut tree = KeyTree::balanced(n, 4, &mut kg);
        // Spread the leavers uniformly over the leaf level (contiguous
        // leavers would prune whole subtrees and shrink the message).
        let stride = (n / leaves).max(1);
        let batch = Batch::new(vec![], (0..leaves).map(|i| (i * stride) % n).collect());
        let outcome = tree.process_batch(&batch, &mut kg);
        (tree, outcome)
    }

    #[test]
    fn every_user_covered_by_exactly_one_packet() {
        let (tree, outcome) = setup(256, 64);
        let plans = plan(&tree, &outcome, &Layout::DEFAULT).unwrap();
        let mut covered = HashSet::new();
        for p in &plans {
            for u in p.users_iter(&tree) {
                assert!(covered.insert(u), "user {u} in two packets");
            }
        }
        // Every remaining user with needs is covered.
        for uid in tree.user_ids() {
            let needs = outcome.encryptions_for_user(uid, 4);
            assert_eq!(
                covered.contains(&uid),
                !needs.is_empty(),
                "coverage mismatch for {uid}"
            );
        }
    }

    #[test]
    fn all_of_a_users_encryptions_in_its_packet() {
        let (tree, outcome) = setup(256, 64);
        let plans = plan(&tree, &outcome, &Layout::DEFAULT).unwrap();
        for p in &plans {
            let have: HashSet<usize> = p.enc_indices.iter().copied().collect();
            for u in p.users_iter(&tree) {
                for i in outcome.encryptions_for_user(u, 4) {
                    assert!(have.contains(&i), "user {u} missing encryption {i}");
                }
            }
        }
    }

    #[test]
    fn ranges_strictly_increase() {
        let (tree, outcome) = setup(1024, 256);
        let plans = plan(&tree, &outcome, &Layout::DEFAULT).unwrap();
        assert!(plans.len() > 1, "want multiple packets for this test");
        for w in plans.windows(2) {
            assert!(w[0].to_id < w[1].frm_id);
        }
        for p in &plans {
            assert!(p.frm_id <= p.to_id);
        }
    }

    #[test]
    fn capacity_respected() {
        let (tree, outcome) = setup(1024, 256);
        let layout = Layout::DEFAULT;
        for p in plan(&tree, &outcome, &layout).unwrap() {
            assert!(p.enc_indices.len() <= layout.encryptions_per_packet());
        }
    }

    #[test]
    fn small_packets_force_more_duplication() {
        let (tree, outcome) = setup(256, 64);
        let big = plan(&tree, &outcome, &Layout::DEFAULT).unwrap();
        let small_layout = Layout::new(3 + 6 + 22 * 12); // 12 encryptions/packet
        let small = plan(&tree, &outcome, &small_layout).unwrap();
        assert!(small.len() > big.len());

        let emitted =
            |plans: &[PacketPlan]| -> usize { plans.iter().map(|p| p.enc_indices.len()).sum() };
        assert!(emitted(&small) >= emitted(&big));
    }

    #[test]
    fn too_small_layout_is_a_typed_error() {
        let (tree, outcome) = setup(1024, 256);
        // 3 encryptions per packet < path length on a depth-5 tree.
        let tiny = Layout::new(3 + 6 + 22 * 3);
        match plan(&tree, &outcome, &tiny) {
            Err(AssignError::PacketCapacity {
                user,
                needed,
                capacity,
            }) => {
                assert_eq!(capacity, 3);
                assert!(needed > capacity);
                assert!(tree.is_u(user), "reported user {user} is a u-node");
                // The reported user is the first (lowest-ID) violator.
                let first_violator = tree
                    .user_ids_iter()
                    .find(|&u| outcome.encryptions_for_user(u, 4).len() > capacity)
                    .expect("a violator exists");
                assert_eq!(user, first_violator);
            }
            other => panic!("want PacketCapacity, got {other:?}"),
        }
        // The sealed builders surface the same error.
        let err = UkaAssignment::build(&tree, &outcome, 0, &tiny).unwrap_err();
        assert!(matches!(err, AssignError::PacketCapacity { .. }));
        let err = plan_and_seal(&tree, &outcome, 0, &tiny, &mut PlanScratch::new()).unwrap_err();
        assert!(matches!(err, AssignError::PacketCapacity { .. }));
    }

    #[test]
    fn matches_reference_plan_across_layouts() {
        for (n, l) in [(64u32, 16u32), (256, 64), (1024, 256), (300, 77)] {
            let (tree, outcome) = setup(n, l);
            for cap in [5usize, 8, 12, 46] {
                let layout = Layout::new(3 + 6 + 22 * cap);
                match plan(&tree, &outcome, &layout) {
                    Ok(plans) => {
                        crate::sanitize::check_plan_identity(&tree, &outcome, &plans, &layout)
                            .unwrap_or_else(|e| panic!("n={n} l={l} cap={cap}: {e}"))
                    }
                    Err(AssignError::PacketCapacity { user, .. }) => {
                        let reference = crate::sanitize::reference_plan(&tree, &outcome, &layout);
                        let err = reference.expect_err("reference must also overflow");
                        assert!(err.contains(&format!("user {user} ")), "{err}");
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_outcome_produces_no_packets() {
        let mut kg = KeyGen::from_seed(1);
        let mut tree = KeyTree::balanced(64, 4, &mut kg);
        let outcome = tree.process_batch(&Batch::default(), &mut kg);
        assert!(plan(&tree, &outcome, &Layout::DEFAULT).unwrap().is_empty());
        let built = UkaAssignment::build(&tree, &outcome, 0, &Layout::DEFAULT).unwrap();
        assert_eq!(built.stats.packets, 0);
        assert_eq!(built.stats.duplication_overhead(), 0.0);
    }

    #[test]
    fn build_seals_decryptable_entries() {
        let (tree, outcome) = setup(64, 16);
        let msg_seq = 9;
        let built = UkaAssignment::build(&tree, &outcome, msg_seq, &Layout::DEFAULT).unwrap();
        assert_eq!(built.stats.distinct_encryptions, outcome.encryptions.len());

        // Every entry unseals under the child key with the right context.
        for pkt in &built.packets {
            for (id, sealed) in pkt.entries() {
                let child = id as NodeId;
                let kek = tree.key_of(child).unwrap();
                let parent = keytree::ident::parent(child, 4).unwrap();
                let got = sealed
                    .unseal(&kek, crate::seal_context(msg_seq, child))
                    .expect("entry must unseal");
                assert_eq!(Some(got), tree.key_of(parent));
            }
        }
    }

    #[test]
    fn missing_key_names_exactly_the_first_failing_edge() {
        // A parent ID outside the tree holds no key. Wherever the edge
        // falls in the cipher's groups of eight — first lane, inside a
        // group, in the short last group — the error is that edge, and an
        // earlier failure wins over a later one.
        let (tree, outcome) = setup(256, 64);
        let n = outcome.encryptions.len();
        let lanes = wirecrypto::batch::LANES;
        assert!(
            n > 3 * lanes && n % lanes != 0,
            "want full groups and a tail, got {n}"
        );
        let absent: NodeId = tree.storage_len() as NodeId + 7;
        for at in [0, lanes + 3, 2 * lanes, n - 1] {
            let mut broken = outcome.clone();
            broken.encryptions[at].parent = absent;
            broken.encryptions[n - 1].parent = absent;
            let want = AssignError::MissingKey {
                child: outcome.encryptions[at].child,
                parent: absent,
            };
            let got = plan_and_seal(&tree, &broken, 4, &Layout::DEFAULT, &mut PlanScratch::new());
            assert_eq!(got.unwrap_err(), want, "edge {at} of {n}");
            let got = UkaAssignment::build(&tree, &broken, 4, &Layout::DEFAULT);
            assert_eq!(got.unwrap_err(), want, "edge {at} of {n}");
        }
    }

    #[test]
    fn duplication_overhead_matches_hand_count() {
        let (tree, outcome) = setup(1024, 256);
        let built = UkaAssignment::build(&tree, &outcome, 0, &Layout::DEFAULT).unwrap();
        let emitted: usize = built.packets.iter().map(|p| p.entries().count()).sum();
        assert_eq!(built.stats.entries_emitted, emitted);
        let expect =
            (emitted - outcome.encryptions.len()) as f64 / outcome.encryptions.len() as f64;
        assert!((built.stats.duplication_overhead() - expect).abs() < 1e-12);
        assert!(built.stats.duplication_overhead() >= 0.0);
    }

    #[test]
    fn naive_baseline_scatters_users() {
        let (tree, outcome) = setup(1024, 256);
        let layout = Layout::DEFAULT;
        let naive = naive_plan_stats(&tree, &outcome, &layout);
        let uka = plan(&tree, &outcome, &layout).unwrap();
        // Naive never duplicates, so it uses at most as many packets...
        assert!(naive.packets <= uka.len());
        // ...but scatters users across packets, which UKA never does.
        assert!(
            naive.avg_packets_per_user > 1.2,
            "naive avg {}",
            naive.avg_packets_per_user
        );
        assert!(naive.max_packets_per_user >= 2);
        assert!(naive.single_packet_fraction < 0.9);
    }

    #[test]
    fn naive_baseline_matches_per_user_walk() {
        // The run-aggregated statistics equal the user-by-user
        // recomputation exactly (same per-user values, same weights).
        for (n, l) in [(64u32, 16u32), (256, 64), (1024, 256), (300, 77)] {
            let (tree, outcome) = setup(n, l);
            for cap in [5usize, 12, 46] {
                let layout = Layout::new(3 + 6 + 22 * cap);
                let fast = naive_plan_stats(&tree, &outcome, &layout);
                let capacity = layout.encryptions_per_packet();
                let (mut sum, mut max, mut single, mut users) = (0usize, 0usize, 0usize, 0usize);
                for uid in tree.user_ids_iter() {
                    let needs = outcome.encryptions_for_user(uid, tree.degree());
                    if needs.is_empty() {
                        continue;
                    }
                    let mut pkts: Vec<usize> = needs.iter().map(|&i| i / capacity).collect();
                    pkts.sort_unstable();
                    pkts.dedup();
                    users += 1;
                    sum += pkts.len();
                    max = max.max(pkts.len());
                    single += usize::from(pkts.len() == 1);
                }
                assert_eq!(fast.max_packets_per_user, max);
                let avg = if users == 0 {
                    0.0
                } else {
                    sum as f64 / users as f64
                };
                assert!((fast.avg_packets_per_user - avg).abs() < 1e-12);
                let frac = if users == 0 {
                    1.0
                } else {
                    single as f64 / users as f64
                };
                assert!((fast.single_packet_fraction - frac).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn naive_baseline_empty_message() {
        let mut kg = KeyGen::from_seed(1);
        let mut tree = KeyTree::balanced(16, 4, &mut kg);
        let outcome = tree.process_batch(&Batch::default(), &mut kg);
        let s = naive_plan_stats(&tree, &outcome, &Layout::DEFAULT);
        assert_eq!(s.packets, 0);
        assert_eq!(s.single_packet_fraction, 1.0);
    }

    #[test]
    fn packet_of_user_agrees_with_ranges() {
        let (tree, outcome) = setup(256, 64);
        let built = UkaAssignment::build(&tree, &outcome, 0, &Layout::DEFAULT).unwrap();
        let mut served = 0usize;
        for uid in tree.user_ids_iter() {
            let needs = outcome.encryptions_for_user(uid, tree.degree());
            match built.packet_of_user(uid) {
                Some(pi) => {
                    served += 1;
                    assert!(built.packets[pi].serves(uid as u16));
                    assert!(!needs.is_empty());
                }
                None => assert!(needs.is_empty(), "unserved user {uid} has needs"),
            }
        }
        assert!(served > 0);
        // served_users enumerates exactly the same mapping.
        let listed: Vec<(NodeId, usize)> = built.served_users(&tree).collect();
        assert_eq!(listed.len(), served);
        for (uid, pi) in listed {
            assert_eq!(built.packet_of_user(uid), Some(pi));
        }
    }

    #[test]
    fn warm_scratch_replans_identically() {
        let mut scratch = PlanScratch::new();
        for round in 0..3u32 {
            let (tree, outcome) = setup(512, 64 + round);
            let cold = plan(&tree, &outcome, &Layout::DEFAULT).unwrap();
            let warm = plan_in(&tree, &outcome, &Layout::DEFAULT, &mut scratch).unwrap();
            assert_eq!(cold, warm, "round {round}");
        }
    }

    #[test]
    fn chain_walk_steps_are_linear_in_windows_and_entries() {
        // Each window walks twice (count, then take), and each walk stops
        // at the first edge the open packet already holds.
        let mut scratch = PlanScratch::new();
        let mut planned = 0;
        for (n, l) in [(64u32, 16u32), (300, 77), (1024, 256), (4096, 100)] {
            let (tree, outcome) = setup(n, l);
            for cap in [5usize, 8, 12, 46] {
                let layout = Layout::new(3 + 6 + 22 * cap);
                if scratch.compute(&tree, &outcome, &layout).is_err() {
                    continue;
                }
                planned += 1;
                let (windows, entries) = (scratch.windows.len(), scratch.enc_arena.len());
                let steps = scratch.walk_steps;
                assert!(
                    steps > 0 && steps <= 2 * (windows + entries),
                    "n={n} cap={cap}"
                );
                // The walk it replaced went over every served window's
                // whole need-set twice.
                let whole: usize = (scratch.windows.iter())
                    .filter(|w| tree.first_user_in(w.lo, w.hi).is_some())
                    .map(|w| 2 * (1 + outcome.subtree()[w.parent as usize].depth as usize))
                    .sum();
                assert!(steps < whole, "n={n} cap={cap}: {steps} steps of {whole}");
            }
        }
        assert!(planned >= 12, "only {planned} cases planned");
    }

    /// Bends `outcome` out of shape: `a` and `b` pick edges or updated
    /// positions modulo their counts; absent IDs lie beyond the tree's
    /// storage, up to `NodeId::MAX`.
    fn bend(tree: &KeyTree, outcome: &mut MarkOutcome, kind: u8, a: u32, b: u32) {
        let absent = if b.is_multiple_of(2) {
            tree.storage_len() as NodeId + b % 64
        } else {
            NodeId::MAX - b % 8
        };
        let (edges, updated) = (&mut outcome.encryptions, &mut outcome.updated_knodes);
        let (e, f) = (a as usize % edges.len(), b as usize % edges.len());
        let u = a as usize % updated.len().max(1);
        match kind {
            0 => edges.swap(e, f),
            1 if !updated.is_empty() => drop(updated.remove(u)),
            2 => edges[e].parent = absent,
            3 => edges[e].child = absent,
            4 if !updated.is_empty() => updated[u] = absent,
            5 => edges[e].parent = edges[f].child,
            _ => updated.insert(u, absent),
        }
    }

    /// The first edge whose key the tree lacks, as the error sealing owes.
    fn first_missing(tree: &KeyTree, outcome: &MarkOutcome) -> Option<AssignError> {
        outcome
            .encryptions
            .iter()
            .find(|e| tree.key_of(e.child).is_none() || tree.key_of(e.parent).is_none())
            .map(|e| AssignError::MissingKey {
                child: e.child,
                parent: e.parent,
            })
    }

    /// Plans a malformed outcome cold and through a warm scratch, seals it,
    /// and replans the pristine outcome on the same scratch: plans (within
    /// capacity) or a typed error, never a panic; sealing names the first
    /// missing key; the scratch keeps no state from the bent outcome.
    fn check_total(tree: &KeyTree, pristine: &MarkOutcome, bent: &MarkOutcome, name: &str) {
        let layout = Layout::DEFAULT;
        let mut warm = PlanScratch::new();
        let cold = plan(tree, pristine, &layout).unwrap();
        assert_eq!(plan_in(tree, pristine, &layout, &mut warm).unwrap(), cold);
        match plan_in(tree, bent, &layout, &mut warm) {
            Ok(plans) => {
                for p in &plans {
                    assert!(
                        p.enc_indices.len() <= layout.encryptions_per_packet(),
                        "{name}"
                    );
                    assert!(p.enc_indices.iter().all(|&i| i < bent.encryptions.len()));
                }
            }
            Err(AssignError::PacketCapacity { .. }) => {}
            Err(other) => panic!("{name}: unexpected {other:?}"),
        }
        let sealed = plan_and_seal(tree, bent, 4, &layout, &mut warm);
        assert_eq!(sealed.err(), first_missing(tree, bent), "{name}");
        assert_eq!(plan_in(tree, pristine, &layout, &mut warm).unwrap(), cold);
    }

    #[test]
    fn malformed_outcomes_plan_or_fail_typed() {
        let (tree, outcome) = setup(1024, 256);
        // A parent missing from `updated_knodes` (an interior one, and the
        // root).
        let mut no_parent = outcome.clone();
        no_parent
            .updated_knodes
            .remove(no_parent.updated_knodes.len() / 2);
        check_total(&tree, &outcome, &no_parent, "missing parent");
        let mut no_root = outcome.clone();
        no_root.updated_knodes.pop();
        check_total(&tree, &outcome, &no_root, "missing root");
        // Edges out of group order.
        let mut shuffled = outcome.clone();
        shuffled.encryptions.reverse();
        shuffled.encryptions.rotate_left(7);
        check_total(&tree, &outcome, &shuffled, "out of group order");
        // IDs beyond the tree's storage, in edges and updated k-nodes.
        let mut beyond = outcome.clone();
        let absent = tree.storage_len() as NodeId + 5;
        beyond.encryptions[3].child = absent;
        beyond.encryptions[9].parent = NodeId::MAX;
        beyond.updated_knodes.insert(0, NodeId::MAX);
        beyond.updated_knodes.push(absent);
        check_total(&tree, &outcome, &beyond, "beyond storage");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn bent_outcomes_plan_totally(
            bends in proptest::collection::vec(
                (0u8..7, proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
                1..5,
            ),
            leaves in 8u32..96,
        ) {
            let (tree, pristine) = setup(256, leaves);
            let mut bent = pristine.clone();
            for &(kind, a, b) in &bends {
                bend(&tree, &mut bent, kind, a, b);
            }
            check_total(&tree, &pristine, &bent, &format!("{bends:?}"));
        }
    }
}
