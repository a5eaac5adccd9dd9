//! Prescriptive ordering: delivery order dictated by the data, not the
//! transport.
//!
//! "Many systems use or provide what we call *prescriptive ordering*
//! where message delivery order is effectively based on ordering
//! constraints explicitly specified or prescribed by a process at the
//! time it sends a message" (§2). The inbox below reorders (or drops)
//! per-object updates using the version number carried in each update —
//! the state-level replacement for a causal holdback queue, with the key
//! differences the paper stresses: the constraint is *exactly* the
//! semantic one (no false causality across objects), and stale data can
//! simply be dropped when only the latest value matters (§4.6).

use clocks::versions::{ObjectId, Version};
use simnet::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// How the inbox treats out-of-order updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrescriptivePolicy {
    /// Deliver every version in order, holding successors until gaps
    /// fill (a per-object FIFO — e.g. an audit log).
    InOrder,
    /// Deliver only when the update is newer than the last delivered
    /// version; older updates are dropped. This is the monitoring-system
    /// policy of §4.6 ("the communication system giving priority to the
    /// most recent updates, dropping older updates if necessary").
    LatestWins,
}

/// An update released to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Released<T> {
    /// Which object.
    pub object: ObjectId,
    /// The version released.
    pub version: Version,
    /// The update body.
    pub body: T,
    /// When the update arrived.
    pub arrived_at: SimTime,
    /// When it was released.
    pub released_at: SimTime,
}

/// Per-object state under [`PrescriptivePolicy::InOrder`].
#[derive(Debug)]
struct ObjectStream<T> {
    delivered: u64,
    held: BTreeMap<u64, (T, SimTime)>,
}

/// A reordering/dropping inbox driven by data-carried versions.
///
/// # Examples
///
/// ```
/// use statelevel::prescriptive::{PrescriptiveInbox, PrescriptivePolicy};
/// use clocks::versions::{ObjectId, Version};
/// use simnet::time::SimTime;
///
/// let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::LatestWins);
/// let sensor = ObjectId(1);
/// let t = SimTime::ZERO;
/// assert_eq!(inbox.offer(sensor, Version(5), 210, t).len(), 1);
/// // A late, older sample is simply dropped — no holdback, ever.
/// assert!(inbox.offer(sensor, Version(3), 195, t).is_empty());
/// assert_eq!(inbox.delivered_version(sensor), Version(5));
/// ```
#[derive(Debug)]
pub struct PrescriptiveInbox<T> {
    policy: PrescriptivePolicy,
    streams: HashMap<ObjectId, ObjectStream<T>>,
}

impl<T> PrescriptiveInbox<T> {
    /// Creates an inbox with the given policy.
    pub fn new(policy: PrescriptivePolicy) -> Self {
        PrescriptiveInbox {
            policy,
            streams: HashMap::new(),
        }
    }

    /// Offers an update; returns the updates released by it (possibly
    /// several, when it fills a gap; possibly none, when held or stale).
    pub fn offer(
        &mut self,
        object: ObjectId,
        version: Version,
        body: T,
        now: SimTime,
    ) -> Vec<Released<T>> {
        let stream = self.streams.entry(object).or_insert_with(|| ObjectStream {
            delivered: 0,
            held: BTreeMap::new(),
        });
        match self.policy {
            PrescriptivePolicy::LatestWins => {
                if version.0 <= stream.delivered {
                    Vec::new()
                } else {
                    stream.delivered = version.0;
                    vec![Released {
                        object,
                        version,
                        body,
                        arrived_at: now,
                        released_at: now,
                    }]
                }
            }
            PrescriptivePolicy::InOrder => {
                if version.0 <= stream.delivered || stream.held.contains_key(&version.0) {
                    return Vec::new();
                }
                stream.held.insert(version.0, (body, now));
                let mut released = Vec::new();
                while let Some((body, arrived)) = stream.held.remove(&(stream.delivered + 1)) {
                    stream.delivered += 1;
                    released.push(Released {
                        object,
                        version: Version(stream.delivered),
                        body,
                        arrived_at: arrived,
                        released_at: now,
                    });
                }
                released
            }
        }
    }

    /// The highest delivered version for `object`.
    pub fn delivered_version(&self, object: ObjectId) -> Version {
        Version(self.streams.get(&object).map(|s| s.delivered).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn obj() -> ObjectId {
        ObjectId(1)
    }

    #[test]
    fn in_order_releases_immediately_when_sequential() {
        let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::InOrder);
        let r = inbox.offer(obj(), Version(1), "a", t(0));
        assert_eq!(r.len(), 1);
        let r = inbox.offer(obj(), Version(2), "b", t(1));
        assert_eq!(r.len(), 1);
        assert_eq!(inbox.delivered_version(obj()), Version(2));
    }

    #[test]
    fn in_order_holds_gaps_and_releases_in_sequence() {
        let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::InOrder);
        assert!(inbox.offer(obj(), Version(3), "c", t(0)).is_empty());
        assert!(inbox.offer(obj(), Version(2), "b", t(1)).is_empty());
        let r = inbox.offer(obj(), Version(1), "a", t(2));
        let bodies: Vec<&str> = r.iter().map(|x| x.body).collect();
        assert_eq!(bodies, vec!["a", "b", "c"]);
        let held = r.iter().filter(|x| x.arrived_at < x.released_at).count();
        assert_eq!(held, 2);
    }

    #[test]
    fn latest_wins_drops_stale() {
        let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::LatestWins);
        assert_eq!(inbox.offer(obj(), Version(5), 50, t(0)).len(), 1);
        assert!(inbox.offer(obj(), Version(3), 30, t(1)).is_empty());
        assert_eq!(inbox.delivered_version(obj()), Version(5));
        // A newer one goes straight through — no holdback ever — and the
        // dropped one is never released.
        let r = inbox.offer(obj(), Version(9), 90, t(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].version, Version(9));
        assert_eq!(r[0].released_at, t(2));
    }

    #[test]
    fn objects_are_independent() {
        // No false causality: a gap in object 1 never delays object 2.
        let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::InOrder);
        assert!(inbox
            .offer(ObjectId(1), Version(2), "held", t(0))
            .is_empty());
        let r = inbox.offer(ObjectId(2), Version(1), "flows", t(1));
        assert_eq!(r.len(), 1, "independent object must not be delayed");
    }

    #[test]
    fn duplicate_versions_dropped() {
        let mut inbox = PrescriptiveInbox::new(PrescriptivePolicy::InOrder);
        inbox.offer(obj(), Version(1), "a", t(0));
        assert!(inbox.offer(obj(), Version(1), "a-dup", t(1)).is_empty());
        let r = inbox.offer(obj(), Version(2), "b", t(2));
        let bodies: Vec<&str> = r.iter().map(|x| x.body).collect();
        assert_eq!(bodies, vec!["b"]);
    }
}
