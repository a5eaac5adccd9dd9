//! A strict two-phase-locking lock manager.
//!
//! Shared/exclusive locks with FIFO wait queues. The manager also exports
//! the current wait-for edges — exactly the "t1 waits-for t2" facts the
//! paper's deadlock-detection protocol multicasts (§4.2). Lock ordering,
//! not message ordering, is what serializes transactions: "the ordering
//! of transactions is dictated by 2-phase locking on the data that is
//! accessed as part of the transaction" (§4.3).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// A transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TxId(pub u64);

/// A lockable resource identifier.
pub(crate) type Key = u64;

/// Lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared (read).
    Shared,
    /// Exclusive (write).
    Exclusive,
}

/// Result of a lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// Granted immediately (or already held at sufficient strength).
    Granted,
    /// Queued behind the given current holders.
    Waiting(Vec<TxId>),
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders and their mode (all Shared, or one Exclusive).
    holders: BTreeMap<TxId, LockMode>,
    /// FIFO queue of waiting requests.
    waiters: VecDeque<(TxId, LockMode)>,
}

impl LockState {
    fn compatible(&self, tx: TxId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(&h, &m)| h == tx || m == LockMode::Shared),
            LockMode::Exclusive => self.holders.keys().all(|&h| h == tx),
        }
    }
}

/// The lock manager for one node's data.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: BTreeMap<Key, LockState>,
}

impl LockManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `mode` on `key` for `tx`. FIFO fairness: a request queues
    /// behind earlier waiters even if it would be compatible with the
    /// current holders.
    pub fn acquire(&mut self, tx: TxId, key: Key, mode: LockMode) -> LockOutcome {
        let st = self.locks.entry(key).or_default();
        // Upgrade: Shared holder requesting Exclusive.
        if let Some(&held) = st.holders.get(&tx) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return LockOutcome::Granted;
            }
            // Upgrade possible only if sole holder.
            if st.holders.len() == 1 {
                st.holders.insert(tx, LockMode::Exclusive);
                return LockOutcome::Granted;
            }
            let blockers: Vec<TxId> = st.holders.keys().copied().filter(|&h| h != tx).collect();
            st.waiters.push_back((tx, LockMode::Exclusive));
            return LockOutcome::Waiting(blockers);
        }
        if st.waiters.is_empty() && st.compatible(tx, mode) {
            st.holders.insert(tx, mode);
            LockOutcome::Granted
        } else {
            let blockers: Vec<TxId> = st
                .holders
                .keys()
                .copied()
                .chain(st.waiters.iter().map(|&(t, _)| t))
                .filter(|&h| h != tx)
                .collect();
            st.waiters.push_back((tx, mode));
            LockOutcome::Waiting(blockers)
        }
    }

    /// Releases all locks held (and requests queued) by `tx`; returns the
    /// requests that became granted, as `(tx, key)` pairs.
    pub(crate) fn release_all(&mut self, tx: TxId) -> Vec<(TxId, Key)> {
        let mut granted = Vec::new();
        let keys: Vec<Key> = self.locks.keys().copied().collect();
        for key in keys {
            let st = self.locks.get_mut(&key).expect("key exists");
            st.holders.remove(&tx);
            st.waiters.retain(|&(t, _)| t != tx);
            // Promote waiters in FIFO order while compatible.
            while let Some(&(next, mode)) = st.waiters.front() {
                if !st.compatible(next, mode) {
                    break;
                }
                st.waiters.pop_front();
                st.holders.insert(next, mode);
                granted.push((next, key));
            }
            if st.holders.is_empty() && st.waiters.is_empty() {
                self.locks.remove(&key);
            }
        }
        granted
    }

    /// The current wait-for edges: `(waiter, holder)` pairs.
    pub(crate) fn wait_for_edges(&self) -> Vec<(TxId, TxId)> {
        let mut edges = Vec::new();
        for st in self.locks.values() {
            for &(w, _) in &st.waiters {
                for &h in st.holders.keys() {
                    if h != w {
                        edges.push((w, h));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `tx` currently holds `key` at least at `mode` strength.
    fn holds(lm: &LockManager, tx: TxId, key: Key, mode: LockMode) -> bool {
        lm.locks
            .get(&key)
            .and_then(|st| st.holders.get(&tx))
            .is_some_and(|&m| m == LockMode::Exclusive || mode == LockMode::Shared)
    }
    use proptest::prelude::*;

    const K: Key = 1;

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(TxId(1), K, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(TxId(2), K, LockMode::Shared),
            LockOutcome::Granted
        );
        assert!(holds(&lm, TxId(1), K, LockMode::Shared));
        assert!(holds(&lm, TxId(2), K, LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Exclusive);
        match lm.acquire(TxId(2), K, LockMode::Shared) {
            LockOutcome::Waiting(blockers) => assert_eq!(blockers, vec![TxId(1)]),
            g => panic!("expected wait, got {g:?}"),
        }
        assert!(!holds(&lm, TxId(2), K, LockMode::Shared));
    }

    #[test]
    fn release_promotes_fifo() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Exclusive);
        lm.acquire(TxId(2), K, LockMode::Exclusive);
        lm.acquire(TxId(3), K, LockMode::Exclusive);
        let granted = lm.release_all(TxId(1));
        assert_eq!(granted, vec![(TxId(2), K)]);
        assert!(holds(&lm, TxId(2), K, LockMode::Exclusive));
        assert!(!holds(&lm, TxId(3), K, LockMode::Exclusive));
    }

    #[test]
    fn release_promotes_multiple_readers() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Exclusive);
        lm.acquire(TxId(2), K, LockMode::Shared);
        lm.acquire(TxId(3), K, LockMode::Shared);
        let granted = lm.release_all(TxId(1));
        assert_eq!(granted.len(), 2);
    }

    #[test]
    fn fifo_prevents_reader_overtaking() {
        // Writer waits; a later reader must queue behind it, not sneak in
        // with the current readers (no writer starvation).
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Shared);
        lm.acquire(TxId(2), K, LockMode::Exclusive); // waits
        match lm.acquire(TxId(3), K, LockMode::Shared) {
            LockOutcome::Waiting(_) => {}
            g => panic!("reader must queue behind writer, got {g:?}"),
        }
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Exclusive);
        assert_eq!(
            lm.acquire(TxId(1), K, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(TxId(1), K, LockMode::Shared),
            LockOutcome::Granted
        );
    }

    #[test]
    fn upgrade_sole_holder() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Shared);
        assert_eq!(
            lm.acquire(TxId(1), K, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert!(holds(&lm, TxId(1), K, LockMode::Exclusive));
    }

    #[test]
    fn upgrade_with_other_readers_waits() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Shared);
        lm.acquire(TxId(2), K, LockMode::Shared);
        match lm.acquire(TxId(1), K, LockMode::Exclusive) {
            LockOutcome::Waiting(b) => assert_eq!(b, vec![TxId(2)]),
            g => panic!("expected wait, got {g:?}"),
        }
    }

    #[test]
    fn wait_for_edges_reflect_queues() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), K, LockMode::Exclusive);
        lm.acquire(TxId(2), K, LockMode::Exclusive);
        lm.acquire(TxId(2), 2, LockMode::Exclusive);
        lm.acquire(TxId(1), 2, LockMode::Exclusive); // classic deadlock shape
        let edges = lm.wait_for_edges();
        assert!(edges.contains(&(TxId(2), TxId(1))));
        assert!(edges.contains(&(TxId(1), TxId(2))));
    }

    #[test]
    fn release_all_drops_every_key() {
        let mut lm = LockManager::new();
        lm.acquire(TxId(1), 1, LockMode::Shared);
        lm.acquire(TxId(1), 2, LockMode::Exclusive);
        assert!(holds(&lm, TxId(1), 1, LockMode::Shared));
        assert!(holds(&lm, TxId(1), 2, LockMode::Exclusive));
        lm.release_all(TxId(1));
        assert!(!holds(&lm, TxId(1), 1, LockMode::Shared));
        assert!(!holds(&lm, TxId(1), 2, LockMode::Shared));
        assert!(lm.locks.is_empty());
    }

    proptest! {
        /// Safety: at no point do two transactions hold conflicting locks.
        #[test]
        fn no_conflicting_holders(
            ops in proptest::collection::vec((1u64..6, 1u64..4, proptest::bool::ANY, proptest::bool::ANY), 1..60)
        ) {
            let mut lm = LockManager::new();
            for (tx, key, exclusive, release) in ops {
                if release {
                    lm.release_all(TxId(tx));
                } else {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    lm.acquire(TxId(tx), key, mode);
                }
                // Invariant check over all keys.
                for st in lm.locks.values() {
                    let exclusives: Vec<_> = st.holders.values().filter(|&&m| m == LockMode::Exclusive).collect();
                    if !exclusives.is_empty() {
                        prop_assert_eq!(st.holders.len(), 1, "exclusive must be sole holder");
                    }
                }
            }
        }
    }
}
