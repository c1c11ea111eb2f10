//! The key-management front end: authenticated join/leave requests and
//! per-interval batch collection.
//!
//! The paper's key management component "validates the requests by
//! checking whether they are encrypted by individual keys". Here a
//! request carries a MAC under the requester's individual key (leaves) or
//! the registration-granted key (joins), and the collector accumulates
//! validated requests during a rekey interval, deduplicates them, and
//! emits the [`Batch`] the marking algorithm consumes at the interval
//! boundary.
//!
//! [`Batch`]: keytree::Batch

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use keytree::{Batch, MemberId};
use wirecrypto::{mac, SymKey};

/// A leave request as received from the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveRequest {
    /// Who is leaving.
    pub member: MemberId,
    /// Interval the request is bound to (replay defence).
    pub interval: u64,
    /// `mac64(individual_key, "leave" || member || interval)`.
    pub tag: u64,
}

impl LeaveRequest {
    /// Builds a request on the user side.
    pub fn sign(member: MemberId, interval: u64, individual_key: &SymKey) -> Self {
        LeaveRequest {
            member,
            interval,
            tag: mac::mac64(individual_key, &payload::<17>(b"leave", member, interval)),
        }
    }

    /// Server-side verification against the member's individual key.
    // xcheck: no_alloc
    pub fn verify(&self, individual_key: &SymKey) -> bool {
        Self::sign(self.member, self.interval, individual_key).tag == self.tag
    }
}

/// A join request: the member identity plus the individual key it
/// negotiated with the registrar, authenticated by that same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinRequest {
    /// The joining member (registration identity).
    pub member: MemberId,
    /// Interval the request is bound to.
    pub interval: u64,
    /// `mac64(individual_key, "join" || member || interval)`.
    pub tag: u64,
}

impl JoinRequest {
    /// Builds a request on the user side.
    pub fn sign(member: MemberId, interval: u64, individual_key: &SymKey) -> Self {
        JoinRequest {
            member,
            interval,
            tag: mac::mac64(individual_key, &payload::<16>(b"join", member, interval)),
        }
    }

    /// Server-side verification.
    // xcheck: no_alloc
    pub fn verify(&self, individual_key: &SymKey) -> bool {
        Self::sign(self.member, self.interval, individual_key).tag == self.tag
    }
}

/// What a request's tag covers: `kind`, the member and the interval, in
/// little-endian bytes.
fn payload<const N: usize>(kind: &[u8], member: MemberId, interval: u64) -> [u8; N] {
    let mut bytes = [0u8; N];
    let (head, tail) = bytes.split_at_mut(kind.len());
    head.copy_from_slice(kind);
    tail[..4].copy_from_slice(&member.to_le_bytes());
    tail[4..].copy_from_slice(&interval.to_le_bytes());
    bytes
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// MAC did not verify under the claimed member's key.
    BadAuthentication,
    /// Request bound to a different interval.
    WrongInterval {
        /// The collector's current interval.
        expected: u64,
        /// The interval in the request.
        got: u64,
    },
    /// Leave for a member not in the group / join for one already present
    /// or already queued.
    UnknownOrDuplicate,
}

impl core::fmt::Display for RequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RequestError::BadAuthentication => write!(f, "request failed authentication"),
            RequestError::WrongInterval { expected, got } => {
                write!(f, "request for interval {got}, current is {expected}")
            }
            RequestError::UnknownOrDuplicate => write!(f, "unknown member or duplicate request"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Hashes an integer key — a member ID here, a frame address in the lane
/// installer — by one multiply with 2^64 over the golden ratio, folded so
/// the high half, which every key bit reaches, also picks the bucket (an
/// address's low bits are all zero). The collector hashes an ID only once
/// its request verified under a key the registrar issued, the installer
/// hashes the addresses of frames it was handed, so nobody outside picks
/// the keys, and neither iterates its tables: SipHash's flood resistance
/// buys them nothing.
#[derive(Debug, Default)]
pub(crate) struct MultiplyHasher(u64);

impl Hasher for MultiplyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, id: MemberId) {
        self.write_u64(u64::from(id));
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0.rotate_left(29) ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, key: usize) {
        self.write_u64(key as u64);
    }
}

/// Accumulates validated requests for the current rekey interval.
#[derive(Debug, Default)]
pub struct IntervalCollector {
    interval: u64,
    joins: HashMap<MemberId, SymKey, BuildHasherDefault<MultiplyHasher>>,
    join_order: Vec<MemberId>,
    /// Queued leavers in arrival order, and the same members as a set (the
    /// duplicate check must not scan the queue: it is L long).
    leaves: Vec<MemberId>,
    leaving: HashSet<MemberId, BuildHasherDefault<MultiplyHasher>>,
}

impl IntervalCollector {
    /// Starts collecting for interval 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current interval number.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Queued `(J, L)` so far.
    pub fn pending(&self) -> (usize, usize) {
        (self.join_order.len(), self.leaves.len())
    }

    /// Validates and queues a leave. `lookup_key` resolves a member's
    /// current individual key (None for members not in the group).
    pub fn submit_leave(
        &mut self,
        req: LeaveRequest,
        lookup_key: impl FnOnce(MemberId) -> Option<SymKey>,
    ) -> Result<(), RequestError> {
        if req.interval != self.interval {
            return Err(RequestError::WrongInterval {
                expected: self.interval,
                got: req.interval,
            });
        }
        let key = lookup_key(req.member).ok_or(RequestError::UnknownOrDuplicate)?;
        if !req.verify(&key) {
            return Err(RequestError::BadAuthentication);
        }
        if self.leaving.contains(&req.member) {
            return Err(RequestError::UnknownOrDuplicate);
        }
        // A member that joined and leaves within one interval simply
        // cancels out.
        if self.joins.remove(&req.member).is_some() {
            self.join_order.retain(|m| *m != req.member);
            return Ok(());
        }
        self.leaving.insert(req.member);
        self.leaves.push(req.member);
        Ok(())
    }

    /// Validates and queues a join. `in_group` says whether the member is
    /// already a group member; `granted_key` is the individual key issued
    /// by the registrar for this member.
    pub fn submit_join(
        &mut self,
        req: JoinRequest,
        granted_key: SymKey,
        in_group: bool,
    ) -> Result<(), RequestError> {
        if req.interval != self.interval {
            return Err(RequestError::WrongInterval {
                expected: self.interval,
                got: req.interval,
            });
        }
        if !req.verify(&granted_key) {
            return Err(RequestError::BadAuthentication);
        }
        if in_group || self.joins.contains_key(&req.member) {
            return Err(RequestError::UnknownOrDuplicate);
        }
        self.joins.insert(req.member, granted_key);
        self.join_order.push(req.member);
        Ok(())
    }

    /// Closes the interval: emits the batch and advances the interval
    /// counter.
    pub fn close_interval(&mut self) -> Batch {
        self.interval += 1;
        let joins = std::mem::take(&mut self.join_order)
            .into_iter()
            .filter_map(|m| {
                // `join_order` and `joins` are kept in lockstep by
                // `submit_join`, so the key is always present.
                self.joins.remove(&m).map(|key| (m, key))
            })
            .collect();
        self.leaving.clear();
        Batch::new(joins, std::mem::take(&mut self.leaves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use wirecrypto::KeyGen;

    fn key(b: u8) -> SymKey {
        SymKey::from_bytes([b; 16])
    }

    /// The collector's rules over ordered maps: what the hashed tables must
    /// answer, verdict for verdict and batch for batch.
    #[derive(Default)]
    struct Reference {
        interval: u64,
        joins: BTreeMap<MemberId, SymKey>,
        join_order: Vec<MemberId>,
        leaves: Vec<MemberId>,
        leaving: BTreeSet<MemberId>,
    }

    impl Reference {
        fn check_interval(&self, got: u64) -> Result<(), RequestError> {
            let expected = self.interval;
            (got == expected)
                .then_some(())
                .ok_or(RequestError::WrongInterval { expected, got })
        }

        fn leave(&mut self, req: LeaveRequest, key: Option<SymKey>) -> Result<(), RequestError> {
            self.check_interval(req.interval)?;
            let key = key.ok_or(RequestError::UnknownOrDuplicate)?;
            if !req.verify(&key) {
                return Err(RequestError::BadAuthentication);
            }
            if self.leaving.contains(&req.member) {
                return Err(RequestError::UnknownOrDuplicate);
            }
            if self.joins.remove(&req.member).is_some() {
                self.join_order.retain(|&m| m != req.member);
            } else {
                self.leaving.insert(req.member);
                self.leaves.push(req.member);
            }
            Ok(())
        }

        fn join(
            &mut self,
            req: JoinRequest,
            key: SymKey,
            in_group: bool,
        ) -> Result<(), RequestError> {
            self.check_interval(req.interval)?;
            if !req.verify(&key) {
                return Err(RequestError::BadAuthentication);
            }
            if in_group || self.joins.contains_key(&req.member) {
                return Err(RequestError::UnknownOrDuplicate);
            }
            self.joins.insert(req.member, key);
            self.join_order.push(req.member);
            Ok(())
        }

        fn close(&mut self) -> Batch {
            self.interval += 1;
            self.leaving.clear();
            let joins = (self.join_order.drain(..))
                .map(|m| (m, self.joins[&m]))
                .collect();
            self.joins.clear();
            Batch::new(joins, std::mem::take(&mut self.leaves))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random request streams over a small pool of members, so that
        /// duplicates, leaves after joins, stale or future intervals and
        /// bad tags all occur: every verdict, every pending count and every
        /// batch (joins in admission order, leaves in arrival order) is the
        /// reference's.
        #[test]
        fn collector_reference_agrees_on_random_streams(
            ops in proptest::collection::vec((0u8..8, 0u32..24, 0u8..8), 1..200),
        ) {
            let (mut c, mut r) = (IntervalCollector::new(), Reference::default());
            for (kind, member, twist) in ops {
                // Members below 12 are in the group; every fifth member is
                // unknown to the key lookup; `twist` picks a stale or a
                // future interval, or a tag under the wrong key.
                let interval = match twist {
                    0 => c.interval().wrapping_sub(1),
                    1 => c.interval() + 1,
                    _ => c.interval(),
                };
                let own = key(member as u8);
                let signer = if twist == 2 { key(member as u8 ^ 0x80) } else { own };
                let lookup = (member % 5 != 4).then_some(own);
                match kind {
                    0..=2 => {
                        let req = LeaveRequest::sign(member, interval, &signer);
                        prop_assert_eq!(c.submit_leave(req, |_| lookup), r.leave(req, lookup));
                    }
                    3..=6 => {
                        let req = JoinRequest::sign(member, interval, &signer);
                        let in_group = member < 12;
                        prop_assert_eq!(
                            c.submit_join(req, own, in_group),
                            r.join(req, own, in_group)
                        );
                    }
                    _ => {
                        let (got, want) = (c.close_interval(), r.close());
                        prop_assert_eq!(got.joins, want.joins);
                        prop_assert_eq!(got.leaves, want.leaves);
                    }
                }
                prop_assert_eq!(c.pending(), (r.join_order.len(), r.leaves.len()));
                prop_assert_eq!(c.interval(), r.interval);
            }
            let (got, want) = (c.close_interval(), r.close());
            prop_assert_eq!(got.joins, want.joins);
            prop_assert_eq!(got.leaves, want.leaves);
        }
    }

    #[test]
    fn valid_leave_is_queued() {
        let mut c = IntervalCollector::new();
        let req = LeaveRequest::sign(7, 0, &key(7));
        c.submit_leave(req, |m| (m == 7).then(|| key(7))).unwrap();
        assert_eq!(c.pending(), (0, 1));
        let batch = c.close_interval();
        assert_eq!(batch.leaves, vec![7]);
        assert_eq!(c.interval(), 1);
    }

    #[test]
    fn forged_leave_rejected() {
        let mut c = IntervalCollector::new();
        // Attacker signs with the wrong key.
        let req = LeaveRequest::sign(7, 0, &key(99));
        assert_eq!(
            c.submit_leave(req, |_| Some(key(7))),
            Err(RequestError::BadAuthentication)
        );
        assert_eq!(c.pending(), (0, 0));
    }

    #[test]
    fn tampered_member_id_rejected() {
        let mut c = IntervalCollector::new();
        let mut req = LeaveRequest::sign(7, 0, &key(7));
        req.member = 8; // retarget the request
        assert_eq!(
            c.submit_leave(req, |_| Some(key(8))),
            Err(RequestError::BadAuthentication)
        );
    }

    #[test]
    fn replay_into_next_interval_rejected() {
        let mut c = IntervalCollector::new();
        let req = LeaveRequest::sign(7, 0, &key(7));
        c.submit_leave(req, |_| Some(key(7))).unwrap();
        c.close_interval();
        assert_eq!(
            c.submit_leave(req, |_| Some(key(7))),
            Err(RequestError::WrongInterval {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn duplicate_leave_rejected() {
        let mut c = IntervalCollector::new();
        let req = LeaveRequest::sign(7, 0, &key(7));
        c.submit_leave(req, |_| Some(key(7))).unwrap();
        assert_eq!(
            c.submit_leave(req, |_| Some(key(7))),
            Err(RequestError::UnknownOrDuplicate)
        );
    }

    #[test]
    fn leaves_keep_arrival_order_and_the_duplicate_set_resets_per_interval() {
        let mut c = IntervalCollector::new();
        for m in [30u32, 10, 20] {
            c.submit_leave(LeaveRequest::sign(m, 0, &key(1)), |_| Some(key(1)))
                .unwrap();
        }
        assert_eq!(
            c.submit_leave(LeaveRequest::sign(10, 0, &key(1)), |_| Some(key(1))),
            Err(RequestError::UnknownOrDuplicate)
        );
        assert_eq!(c.close_interval().leaves, vec![30, 10, 20]);
        // A new interval starts with nobody queued.
        c.submit_leave(LeaveRequest::sign(10, 1, &key(1)), |_| Some(key(1)))
            .unwrap();
        assert_eq!(c.close_interval().leaves, vec![10]);
    }

    #[test]
    fn unknown_member_leave_rejected() {
        let mut c = IntervalCollector::new();
        let req = LeaveRequest::sign(7, 0, &key(7));
        assert_eq!(
            c.submit_leave(req, |_| None),
            Err(RequestError::UnknownOrDuplicate)
        );
    }

    #[test]
    fn join_flow_and_ordering() {
        let mut kg = KeyGen::from_seed(1);
        let mut c = IntervalCollector::new();
        for m in [30u32, 10, 20] {
            let k = kg.next_key();
            let req = JoinRequest::sign(m, 0, &k);
            c.submit_join(req, k, false).unwrap();
        }
        let batch = c.close_interval();
        let order: Vec<MemberId> = batch.joins.iter().map(|(m, _)| *m).collect();
        assert_eq!(order, vec![30, 10, 20], "admission order preserved");
    }

    #[test]
    fn join_of_existing_member_rejected() {
        let mut c = IntervalCollector::new();
        let k = key(5);
        let req = JoinRequest::sign(5, 0, &k);
        assert_eq!(
            c.submit_join(req, k, true),
            Err(RequestError::UnknownOrDuplicate)
        );
    }

    #[test]
    fn join_then_leave_within_interval_cancels() {
        let mut c = IntervalCollector::new();
        let k = key(9);
        c.submit_join(JoinRequest::sign(9, 0, &k), k, false)
            .unwrap();
        assert_eq!(c.pending(), (1, 0));
        c.submit_leave(LeaveRequest::sign(9, 0, &k), |_| Some(k))
            .unwrap();
        assert_eq!(c.pending(), (0, 0));
        let batch = c.close_interval();
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_feeds_the_tree() {
        // End to end: collector output drives the marking algorithm.
        let mut kg = KeyGen::from_seed(4);
        let mut tree = keytree::KeyTree::balanced(16, 4, &mut kg);
        let mut c = IntervalCollector::new();

        let leaver_key = tree.keys_for_member(3).expect("member 3 exists")[0].1;
        c.submit_leave(LeaveRequest::sign(3, 0, &leaver_key), |m| {
            tree.node_of_member(m).and_then(|id| tree.key_of(id))
        })
        .unwrap();
        let newcomer_key = kg.next_key();
        c.submit_join(
            JoinRequest::sign(100, 0, &newcomer_key),
            newcomer_key,
            false,
        )
        .unwrap();

        let batch = c.close_interval();
        let outcome = tree.process_batch(&batch, &mut kg);
        assert!(outcome.group_key_changed());
        assert!(tree.node_of_member(100).is_some());
        assert!(tree.node_of_member(3).is_none());
    }
}
