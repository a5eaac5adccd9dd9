//! Versioned object stores: per-object state clocks.
//!
//! The shared manufacturing database of §3.1: "if 'lot status' records
//! contained version numbers, then any recipient can easily and correctly
//! order the messages. ... the provision of these version numbers, which
//! can be viewed as logical clocks on the database state, obviates the
//! need for CATOCS."

use clocks::versions::{ObjectId, Version, VersionedTag};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of applying a versioned update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The update advanced the object to this version.
    Fresh(Version),
    /// The update was older than (or equal to) the stored version and was
    /// ignored — the prescriptive-ordering fix for misordered delivery.
    Stale { stored: Version, offered: Version },
    /// The update skipped versions; applied, with the gap noted (callers
    /// that need gap-free histories use [`crate::prescriptive`] instead).
    FreshWithGap { from: Version, to: Version },
}

/// A record in the store.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionedRecord<V> {
    /// Current version.
    pub version: Version,
    /// Current value.
    pub value: V,
}

/// A map of objects to versioned values with last-writer-wins-by-version
/// semantics.
///
/// # Examples
///
/// ```
/// use statelevel::versioned::{Applied, VersionedStore};
/// use clocks::versions::{ObjectId, Version, VersionedTag};
///
/// let mut store = VersionedStore::new();
/// let lot = ObjectId(42);
/// // "Stop" (v2) arrives before "Start" (v1) — the Figure 2 anomaly.
/// store.apply_remote(VersionedTag::new(lot, Version(2)), "stopped");
/// let late = store.apply_remote(VersionedTag::new(lot, Version(1)), "started");
/// assert!(matches!(late, Applied::Stale { .. }));
/// assert_eq!(store.get(lot).unwrap().value, "stopped");
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VersionedStore<V> {
    records: BTreeMap<ObjectId, VersionedRecord<V>>,
    stale_rejected: u64,
}

impl<V> VersionedStore<V> {
    /// An empty store.
    pub fn new() -> Self {
        VersionedStore {
            records: BTreeMap::new(),
            stale_rejected: 0,
        }
    }

    /// Performs a local update: bumps the object's version and stores
    /// `value`. Returns the new tag (to be carried in the outgoing
    /// message's designated version field).
    pub fn update_local(&mut self, object: ObjectId, value: V) -> VersionedTag {
        let rec = self
            .records
            .entry(object)
            .or_insert_with(|| VersionedRecord {
                version: Version::INITIAL,
                value,
            });
        rec.version = rec.version.next();
        VersionedTag::new(object, rec.version)
    }

    /// Applies a replicated update received from elsewhere, carrying an
    /// explicit version. Stale versions are rejected — this is the whole
    /// trick: delivery order no longer matters.
    pub fn apply_remote(&mut self, tag: VersionedTag, value: V) -> Applied {
        match self.records.get_mut(&tag.object) {
            Some(rec) if tag.version <= rec.version => {
                self.stale_rejected += 1;
                Applied::Stale {
                    stored: rec.version,
                    offered: tag.version,
                }
            }
            Some(rec) => {
                let gap = tag.version.0 > rec.version.0 + 1;
                let from = rec.version;
                rec.version = tag.version;
                rec.value = value;
                if gap {
                    Applied::FreshWithGap {
                        from,
                        to: tag.version,
                    }
                } else {
                    Applied::Fresh(tag.version)
                }
            }
            None => {
                let gap = tag.version.0 > 1;
                self.records.insert(
                    tag.object,
                    VersionedRecord {
                        version: tag.version,
                        value,
                    },
                );
                if gap {
                    Applied::FreshWithGap {
                        from: Version::INITIAL,
                        to: tag.version,
                    }
                } else {
                    Applied::Fresh(tag.version)
                }
            }
        }
    }

    /// Reads the current record for `object`.
    pub fn get(&self, object: ObjectId) -> Option<&VersionedRecord<V>> {
        self.records.get(&object)
    }

    /// Number of stale updates rejected so far.
    pub fn stale_rejected(&self) -> u64 {
        self.stale_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(i: u64) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn local_updates_advance_versions() {
        let mut s = VersionedStore::new();
        let t1 = s.update_local(obj(1), "a");
        let t2 = s.update_local(obj(1), "a");
        assert_eq!(t1.version, Version(1));
        assert_eq!(t2.version, Version(2));
        assert_eq!(s.get(obj(1)).unwrap().version, Version(2));
        assert!(s.get(obj(9)).is_none());
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn remote_updates_in_order() {
        let mut s = VersionedStore::new();
        assert_eq!(
            s.apply_remote(VersionedTag::new(obj(1), Version(1)), "v1"),
            Applied::Fresh(Version(1))
        );
        assert_eq!(
            s.apply_remote(VersionedTag::new(obj(1), Version(2)), "v2"),
            Applied::Fresh(Version(2))
        );
        assert_eq!(s.get(obj(1)).unwrap().value, "v2");
    }

    #[test]
    fn misordered_delivery_is_harmless() {
        // The Figure 2 fix: "Stop" (v2) arrives before "Start" (v1); the
        // late "Start" is rejected as stale, so the final state is right.
        let mut s = VersionedStore::new();
        s.apply_remote(VersionedTag::new(obj(7), Version(2)), "stopped");
        let r = s.apply_remote(VersionedTag::new(obj(7), Version(1)), "started");
        assert_eq!(
            r,
            Applied::Stale {
                stored: Version(2),
                offered: Version(1)
            }
        );
        assert_eq!(s.get(obj(7)).unwrap().value, "stopped");
        assert_eq!(s.stale_rejected(), 1);
    }

    #[test]
    fn gaps_are_noted() {
        let mut s = VersionedStore::new();
        s.apply_remote(VersionedTag::new(obj(1), Version(1)), 10);
        match s.apply_remote(VersionedTag::new(obj(1), Version(5)), 50) {
            Applied::FreshWithGap { from, to } => {
                assert_eq!(from, Version(1));
                assert_eq!(to, Version(5));
            }
            other => panic!("expected gap, got {other:?}"),
        }
    }

    proptest! {
        /// Any permutation of a version sequence converges to the maximum
        /// version — delivery order is irrelevant.
        #[test]
        fn permutation_invariance(mut order in Just((1u64..=8).collect::<Vec<_>>()).prop_shuffle()) {
            let mut s = VersionedStore::new();
            for &v in &order {
                s.apply_remote(VersionedTag::new(obj(1), Version(v)), v);
            }
            prop_assert_eq!(s.get(obj(1)).unwrap().version, Version(8));
            prop_assert_eq!(s.get(obj(1)).unwrap().value, 8);
            order.sort_unstable();
        }

        /// Stale rejections never decrease the stored version.
        #[test]
        fn version_monotone(updates in proptest::collection::vec((1u64..4, 1u64..10), 1..40)) {
            let mut s = VersionedStore::new();
            let mut high: BTreeMap<u64, u64> = BTreeMap::new();
            for (o, v) in updates {
                s.apply_remote(VersionedTag::new(obj(o), Version(v)), v);
                let h = high.entry(o).or_insert(0);
                *h = (*h).max(v);
            }
            for (o, h) in high {
                prop_assert_eq!(s.get(obj(o)).unwrap().version, Version(h));
            }
        }
    }
}
