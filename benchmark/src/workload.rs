//! The seeded request generator.
//!
//! Rekeying is periodic, so every workload is a closed loop with one client:
//! the requests of interval *i+1* are generated after interval *i* completed.
//! Members come from a bounded identity pool of `2N` IDs — leavers are chosen
//! uniformly from the live members, joiners are taken FIFO from the departed
//! ones and get a fresh individual key — so neither the ID space nor the
//! resident set grows with run length, and `J <= L` keeps the key tree (and
//! with it every node ID) inside today's 16-bit wire cap.
//!
//! The product sees only what comes out of here: signed requests.

use std::collections::VecDeque;

use crate::layers::{self, JoinRequest, Key, LeaveRequest, MemberId};
use crate::stats::{Digest, SplitMix64};

/// The pre-signed requests of one rekey interval.
#[derive(Debug, Clone)]
pub struct Requests {
    pub leaves: Vec<LeaveRequest>,
    /// Each join with the individual key the registrar granted it.
    pub joins: Vec<(JoinRequest, Key)>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.leaves.len() + self.joins.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub struct Generator {
    picks: SplitMix64,
    key_stream: SplitMix64,
    live: Vec<MemberId>,
    departed: VecDeque<MemberId>,
    /// Individual key each pool member holds (or last held), by member ID.
    keys: Vec<Key>,
    interval: u64,
    joins: usize,
    leaves: usize,
    digest: Digest,
}

impl Generator {
    /// Members `0..N` are live and hold `initial_keys` (their individual keys
    /// from the bootstrap tree); IDs `N..2N` start out departed.
    ///
    /// # Panics
    ///
    /// Panics when `joins > leaves`: the group would outgrow the pool.
    pub fn new(seed: u64, initial_keys: Vec<Key>, joins: usize, leaves: usize) -> Self {
        assert!(joins <= leaves, "J <= L keeps the group inside the pool");
        let n = initial_keys.len() as MemberId;
        let mut keys = initial_keys;
        keys.resize(2 * n as usize, layers::key_from_bytes([0; 16]));
        Generator {
            picks: SplitMix64::new(seed),
            key_stream: SplitMix64::new(seed ^ 0x6B65_795F_7374_726D),
            live: (0..n).collect(),
            departed: (n..2 * n).collect(),
            keys,
            interval: 0,
            joins,
            leaves,
            digest: Digest::default(),
        }
    }

    /// Generates and signs the next interval's requests.
    pub fn next_interval(&mut self) -> Requests {
        // Joiners leave the queue before this interval's leavers enter it, so
        // nobody leaves and rejoins within one interval.
        let joiners: Vec<MemberId> = (0..self.joins)
            .filter_map(|_| self.departed.pop_front())
            .collect();
        let mut leaves = Vec::with_capacity(self.leaves);
        for _ in 0..self.leaves.min(self.live.len()) {
            let member = self.live.swap_remove(self.picks.below(self.live.len()));
            let req = layers::sign_leave(member, self.interval, &self.keys[member as usize]);
            self.digest.u64(u64::from(req.member));
            self.digest.u64(req.tag);
            leaves.push(req);
            self.departed.push_back(member);
        }
        let mut joins = Vec::with_capacity(joiners.len());
        for member in joiners {
            let key = layers::key_from_bytes(self.key_stream.next_16());
            self.keys[member as usize] = key;
            let req = layers::sign_join(member, self.interval, &key);
            self.digest.u64(u64::from(req.member));
            self.digest.u64(req.tag);
            joins.push((req, key));
            self.live.push(member);
        }
        self.interval += 1;
        Requests { leaves, joins }
    }

    /// Current members (after the last generated interval).
    pub fn live(&self) -> &[MemberId] {
        &self.live
    }

    /// Digest of every request generated so far.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64, n: u32, joins: usize, leaves: usize) -> Generator {
        let keys = (0..n)
            .map(|m| layers::key_from_bytes([m as u8; 16]))
            .collect();
        Generator::new(seed, keys, joins, leaves)
    }

    fn stream_digest(seed: u64) -> u64 {
        let mut g = generator(seed, 64, 8, 8);
        for _ in 0..50 {
            g.next_interval();
        }
        g.digest()
    }

    #[test]
    fn same_seed_same_request_stream() {
        assert_eq!(stream_digest(7), stream_digest(7));
    }

    #[test]
    fn different_seed_different_request_stream() {
        assert_ne!(stream_digest(7), stream_digest(8));
    }

    #[test]
    #[should_panic(expected = "J <= L")]
    fn more_joins_than_leaves_is_refused() {
        generator(1, 16, 3, 2);
    }

    #[test]
    fn fewer_joins_than_leaves_shrinks_the_group() {
        let mut g = generator(1, 64, 2, 4);
        let r = g.next_interval();
        assert_eq!((r.joins.len(), r.leaves.len()), (2, 4));
        assert_eq!(g.live().len(), 62);
    }

    #[test]
    fn ids_stay_inside_the_pool_for_10k_intervals() {
        let n = 64u32;
        let mut g = generator(3, n, 8, 8);
        for _ in 0..10_000 {
            let r = g.next_interval();
            assert_eq!((r.joins.len(), r.leaves.len()), (8, 8));
            assert!(r.leaves.iter().all(|l| l.member < 2 * n));
            assert!(r.joins.iter().all(|(j, _)| j.member < 2 * n));
            // Nobody leaves and joins in the same interval.
            assert!(r
                .joins
                .iter()
                .all(|(j, _)| r.leaves.iter().all(|l| l.member != j.member)));
        }
        let mut seen: Vec<MemberId> = g.live().iter().chain(g.departed.iter()).copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..2 * n).collect::<Vec<_>>(), "pool is a partition");
        assert_eq!(g.live().len(), n as usize);
    }

    #[test]
    fn leaves_are_signed_with_the_members_current_key() {
        let mut g = generator(5, 16, 4, 4);
        for _ in 0..200 {
            let r = g.next_interval();
            for l in &r.leaves {
                assert!(l.verify(&g.keys[l.member as usize]));
            }
            for (j, key) in &r.joins {
                assert!(j.verify(key));
                assert_eq!(g.keys[j.member as usize], *key);
            }
        }
    }
}
