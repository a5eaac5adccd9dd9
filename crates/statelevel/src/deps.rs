//! Dependency tracking for computed data — the trading-floor fix (§4.1).
//!
//! "In production systems we have designed, every pricing service
//! maintains version numbers on security prices ... Each computed data
//! object records the id and version number of its base data object in a
//! designated 'dependency' field. General-purpose utilities maintain the
//! dependencies among data objects, and applications exploit this
//! information in ordering and presenting data."
//!
//! [`DependencyTracker`] is that general-purpose utility: it remembers the
//! latest version of every base object and classifies each incoming
//! derived datum as *current* or *stale*. A monitor using it can never
//! display the Figure 4 false crossing: a theoretical price derived from
//! option-price v1 is flagged stale the moment option-price v2 is known.

use clocks::versions::{DependencyStamp, ObjectId, Version, VersionedTag};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Classification of a derived datum on arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// Derived from the latest known base version (or not derived at all).
    Current,
    /// Derived from an older base version than the latest known.
    Stale {
        /// The base version the datum was computed from.
        based_on: Version,
        /// The latest base version known here.
        latest: Version,
    },
    /// Derived from a base version *newer* than any update seen here —
    /// the base update is in flight; the datum is usable and also tells
    /// us the base has advanced.
    AheadOfBase,
}

/// The state-level dependency utility.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DependencyTracker {
    /// Latest known version per base object.
    latest: BTreeMap<ObjectId, Version>,
}

impl DependencyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observed base-object update (e.g. a raw option price).
    /// Returns true if it advanced the known version.
    pub fn observe_base(&mut self, tag: VersionedTag) -> bool {
        let e = self.latest.entry(tag.object).or_insert(Version::INITIAL);
        if tag.version > *e {
            *e = tag.version;
            true
        } else {
            false
        }
    }

    /// Classifies a derived datum carrying `stamp` against current
    /// knowledge, and folds any dependency information it carries into
    /// the tracker (a dependency on base v7 proves base v7 exists).
    pub fn classify(&mut self, stamp: &DependencyStamp) -> Freshness {
        let Some(dep) = stamp.depends_on else {
            return Freshness::Current;
        };
        let latest = self
            .latest
            .get(&dep.object)
            .copied()
            .unwrap_or(Version::INITIAL);
        if dep.version > latest {
            // Learn from the stamp itself.
            self.latest.insert(dep.object, dep.version);
            Freshness::AheadOfBase
        } else if dep.version < latest {
            Freshness::Stale {
                based_on: dep.version,
                latest,
            }
        } else {
            Freshness::Current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(o: u64, v: u64) -> VersionedTag {
        VersionedTag::new(ObjectId(o), Version(v))
    }

    #[test]
    fn underived_data_is_always_current() {
        let mut t = DependencyTracker::new();
        let stamp = DependencyStamp::base(ObjectId(1), Version(5));
        assert_eq!(t.classify(&stamp), Freshness::Current);
    }

    #[test]
    fn figure4_false_crossing_detected() {
        // Option price v1 → theoretical (derived from v1); then option
        // price v2 arrives; the old theoretical must be flagged stale.
        let mut t = DependencyTracker::new();
        t.observe_base(tag(1, 1));
        let theo_v1 = DependencyStamp::derived(ObjectId(2), Version(1), tag(1, 1));
        assert_eq!(t.classify(&theo_v1), Freshness::Current);
        t.observe_base(tag(1, 2));
        assert_eq!(
            t.classify(&theo_v1),
            Freshness::Stale {
                based_on: Version(1),
                latest: Version(2)
            }
        );
    }

    #[test]
    fn derived_ahead_of_base_teaches_the_tracker() {
        // Theoretical derived from option v3 arrives before option v3
        // itself (misordered network) — the stamp proves v3 exists.
        let mut t = DependencyTracker::new();
        t.observe_base(tag(1, 2));
        let theo = DependencyStamp::derived(ObjectId(2), Version(7), tag(1, 3));
        assert_eq!(t.classify(&theo), Freshness::AheadOfBase);
        let next = DependencyStamp::derived(ObjectId(2), Version(8), tag(1, 3));
        assert_eq!(t.classify(&next), Freshness::Current);
        // The late-arriving base v3 no longer advances anything.
        assert!(!t.observe_base(tag(1, 3)));
    }

    #[test]
    fn observe_base_monotone() {
        let mut t = DependencyTracker::new();
        assert!(t.observe_base(tag(1, 2)));
        assert!(!t.observe_base(tag(1, 1)));
        let old = DependencyStamp::derived(ObjectId(2), Version(1), tag(1, 1));
        assert_eq!(
            t.classify(&old),
            Freshness::Stale {
                based_on: Version(1),
                latest: Version(2)
            }
        );
    }
}
