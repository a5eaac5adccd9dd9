//! A multi-version key-value store: the state under the transactions.
//!
//! Each key keeps a history of committed versions stamped with the
//! committing transaction's [`TotalStamp`] — the §4.3 commit-time
//! ordering ("local timestamp of the coordinator ... plus node id to
//! break ties"). Reads can be served *as of* any stamp (snapshot reads
//! for OCC); writes stage per transaction and become visible atomically
//! at commit.

use crate::lock::TxId;
use clocks::lamport::TotalStamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One committed version of a key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Version {
    /// Commit stamp (global order position).
    pub stamp: TotalStamp,
    /// Committing transaction.
    pub tx: TxId,
    /// The value.
    pub value: i64,
}

/// A multi-version store with staged (uncommitted) writes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MvccStore {
    /// Committed history per key, stamp-ordered.
    committed: BTreeMap<u64, Vec<Version>>,
    /// Staged writes per transaction.
    staged: BTreeMap<TxId, BTreeMap<u64, i64>>,
}

impl MvccStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a write for `tx` (invisible to everyone else).
    pub fn stage(&mut self, tx: TxId, key: u64, value: i64) {
        self.staged.entry(tx).or_default().insert(key, value);
    }

    /// Reads the latest committed value of `key` at or before `as_of`
    /// (a snapshot read — no transaction context).
    pub fn read_committed(&self, key: u64, as_of: TotalStamp) -> Option<i64> {
        self.committed.get(&key).and_then(|versions| {
            versions
                .iter()
                .rev()
                .find(|v| v.stamp <= as_of)
                .map(|v| v.value)
        })
    }

    /// Commits `tx` at `stamp`: all staged writes become visible
    /// atomically, in global-stamp order.
    ///
    /// # Panics
    ///
    /// Panics if a version with a later stamp is already committed for
    /// one of the keys (commit stamps must be handed out in order per
    /// key — the lock manager guarantees this under 2PL).
    pub fn commit(&mut self, tx: TxId, stamp: TotalStamp) -> usize {
        let Some(writes) = self.staged.remove(&tx) else {
            return 0;
        };
        let n = writes.len();
        for (key, value) in writes {
            let versions = self.committed.entry(key).or_default();
            if let Some(last) = versions.last() {
                assert!(last.stamp < stamp, "commit stamps must be monotone per key");
            }
            versions.push(Version { stamp, tx, value });
        }
        n
    }

    /// Aborts `tx`: staged writes vanish.
    pub(crate) fn abort(&mut self, tx: TxId) -> usize {
        self.staged.remove(&tx).map(|w| w.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: u64) -> TotalStamp {
        TotalStamp { time: t, node: 0 }
    }

    #[test]
    fn staged_writes_invisible_until_commit() {
        let mut kv = MvccStore::new();
        kv.stage(TxId(1), 10, 100);
        assert_eq!(kv.read_committed(10, s(99)), None);
        kv.commit(TxId(1), s(5));
        assert_eq!(kv.read_committed(10, s(99)), Some(100));
    }

    #[test]
    fn snapshot_reads_respect_stamps() {
        let mut kv = MvccStore::new();
        kv.stage(TxId(1), 10, 1);
        kv.commit(TxId(1), s(5));
        kv.stage(TxId(2), 10, 2);
        kv.commit(TxId(2), s(10));
        assert_eq!(kv.read_committed(10, s(4)), None);
        assert_eq!(kv.read_committed(10, s(5)), Some(1));
        assert_eq!(kv.read_committed(10, s(7)), Some(1));
        assert_eq!(kv.read_committed(10, s(10)), Some(2));
    }

    #[test]
    fn abort_discards_writes() {
        let mut kv = MvccStore::new();
        kv.stage(TxId(1), 10, 1);
        assert_eq!(kv.abort(TxId(1)), 1);
        assert_eq!(kv.read_committed(10, s(99)), None);
        assert_eq!(kv.commit(TxId(1), s(5)), 0, "nothing left to commit");
    }

    #[test]
    #[should_panic(expected = "monotone per key")]
    fn out_of_order_commit_stamps_rejected() {
        let mut kv = MvccStore::new();
        kv.stage(TxId(1), 10, 1);
        kv.commit(TxId(1), s(10));
        kv.stage(TxId(2), 10, 2);
        kv.commit(TxId(2), s(5));
    }
}
