//! Deceit-style "write safety level" tracking (§4.4).
//!
//! In the Deceit file system each `cbcast` write waits for `k`
//! acknowledgements before the operation is considered safe. The paper's
//! point: `k = 0` is asynchronous but loses data on a single failure,
//! while any `k ≥ 1` with typical replication degrees collapses into a
//! synchronous update — "the actual asynchrony one achieves with CATOCS
//! systems is limited". This tracker measures the time from multicast to
//! k-safety so experiment T8 can plot write latency against `k`.

use crate::group::MsgId;
use crate::stability::StabilityTracker;
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A pending write awaiting its safety level.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    sent_at: SimTime,
}

/// Tracks time-to-k-safety for multicasts issued by one member.
#[derive(Debug)]
pub struct SafetyTracker {
    /// Required acknowledgement count (members known to have delivered),
    /// including the sender itself.
    k: usize,
    pending: BTreeMap<MsgId, PendingWrite>,
    /// Completed (id, latency) records.
    completed: Vec<(MsgId, SimDuration)>,
}

impl SafetyTracker {
    /// Creates a tracker with write-safety level `k` (number of members,
    /// including the sender, that must be known to have the message).
    pub fn new(k: usize) -> Self {
        SafetyTracker {
            k,
            pending: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// Registers a just-sent write.
    pub fn register(&mut self, id: MsgId, now: SimTime) {
        if self.k <= 1 {
            // Level 0/1: safe at the sender immediately (asynchronous).
            self.completed.push((id, SimDuration::ZERO));
        } else {
            self.pending.insert(id, PendingWrite { sent_at: now });
        }
    }

    /// Re-evaluates pending writes against current stability knowledge;
    /// returns ids that just became safe.
    pub fn advance(&mut self, stability: &StabilityTracker, now: SimTime) -> Vec<MsgId> {
        let ready: Vec<MsgId> = self
            .pending
            .iter()
            .filter(|(id, _)| stability.ack_count(id.sender, id.seq) >= self.k)
            .map(|(id, _)| *id)
            .collect();
        for id in &ready {
            let w = self.pending.remove(id).expect("present");
            self.completed.push((*id, now.saturating_since(w.sent_at)));
        }
        ready
    }

    /// Writes still awaiting safety.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// All completed (id, time-to-safety) records.
    pub fn completed(&self) -> &[(MsgId, SimDuration)] {
        &self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocks::vector::VectorClock;

    fn id(seq: u64) -> MsgId {
        MsgId { sender: 0, seq }
    }

    #[test]
    fn level_zero_is_immediately_safe() {
        let mut s = SafetyTracker::new(0);
        s.register(id(1), SimTime::from_millis(5));
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.completed(), [(id(1), SimDuration::ZERO)]);
    }

    #[test]
    fn level_k_waits_for_k_members() {
        let mut s = SafetyTracker::new(2);
        let mut st = StabilityTracker::new(3);
        st.record_local_delivery(0, 0, 1); // sender has it
        s.register(id(1), SimTime::from_millis(0));
        assert!(s.advance(&st, SimTime::from_millis(1)).is_empty());
        // Second member acks.
        st.update_row(1, &VectorClock::from_entries(vec![1, 0, 0]));
        let ready = s.advance(&st, SimTime::from_millis(4));
        assert_eq!(ready, vec![id(1)]);
        assert_eq!(s.completed(), [(id(1), SimDuration::from_millis(4))]);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn full_replication_waits_for_all() {
        let mut s = SafetyTracker::new(3);
        let mut st = StabilityTracker::new(3);
        st.record_local_delivery(0, 0, 1);
        st.update_row(1, &VectorClock::from_entries(vec![1, 0, 0]));
        s.register(id(1), SimTime::from_millis(0));
        assert!(s.advance(&st, SimTime::from_millis(2)).is_empty());
        st.update_row(2, &VectorClock::from_entries(vec![1, 0, 0]));
        assert_eq!(s.advance(&st, SimTime::from_millis(6)), vec![id(1)]);
        assert_eq!(s.k, 3);
    }

    #[test]
    fn multiple_pending_resolve_independently() {
        let mut s = SafetyTracker::new(2);
        let mut st = StabilityTracker::new(2);
        st.record_local_delivery(0, 0, 1);
        st.record_local_delivery(0, 0, 2);
        s.register(id(1), SimTime::from_millis(0));
        s.register(id(2), SimTime::from_millis(1));
        // Peer acks only the first.
        st.update_row(1, &VectorClock::from_entries(vec![1, 0]));
        let ready = s.advance(&st, SimTime::from_millis(3));
        assert_eq!(ready, vec![id(1)]);
        assert_eq!(s.pending_len(), 1);
    }
}
