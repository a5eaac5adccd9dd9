//! State-level version clocks: "clock ticks on the state".
//!
//! The paper's recurring alternative to CATOCS is *prescriptive ordering*
//! carried in the data itself: per-object version numbers (the shared
//! manufacturing database of §3.1), and dependency fields on computed data
//! ("each computed data object records the id and version number of its
//! base data object in a designated 'dependency' field", §4.1). This
//! module provides those primitives; `statelevel` builds the
//! order-preserving cache and dependency utilities on top of them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies an application object (a security, a lot record, an article).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A per-object version number — the state-level logical clock.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default, Debug,
)]
pub struct Version(pub u64);

impl Version {
    /// The version before any update.
    pub const INITIAL: Version = Version(0);

    /// The next version.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

/// A fully qualified object version: which object, at which version.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct VersionedTag {
    /// The object.
    pub object: ObjectId,
    /// Its version.
    pub version: Version,
}

impl VersionedTag {
    /// Builds a tag.
    pub fn new(object: ObjectId, version: Version) -> Self {
        VersionedTag { object, version }
    }
}

/// The "dependency field" of a computed data object (§4.1): the base
/// object version it was derived from, if any.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct DependencyStamp {
    /// The version of this datum itself.
    pub own: Option<VersionedTag>,
    /// The base datum this was computed from.
    pub depends_on: Option<VersionedTag>,
}

impl DependencyStamp {
    /// A stamp for a base (non-computed) datum.
    pub fn base(object: ObjectId, version: Version) -> Self {
        DependencyStamp {
            own: Some(VersionedTag::new(object, version)),
            depends_on: None,
        }
    }

    /// A stamp for a datum computed from `base`.
    pub fn derived(object: ObjectId, version: Version, base: VersionedTag) -> Self {
        DependencyStamp {
            own: Some(VersionedTag::new(object, version)),
            depends_on: Some(base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_next_increments() {
        assert_eq!(Version::INITIAL.next(), Version(1));
        assert_eq!(Version(41).next(), Version(42));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(5).to_string(), "obj#5");
        assert_eq!(format!("{:?}", ObjectId(5)), "obj#5");
    }
}
