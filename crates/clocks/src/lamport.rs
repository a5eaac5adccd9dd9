//! Lamport scalar logical clocks.
//!
//! The classic clock of \[Lamport '78\]: each process keeps a counter,
//! ticks it on every local event, stamps outgoing messages, and on receipt
//! advances to `max(local, received) + 1`. Scalar clocks are *consistent*
//! with happens-before (if `a → b` then `C(a) < C(b)`) but not
//! *characterizing* (the converse fails) — which is exactly why CATOCS
//! implementations need vector clocks, and why the paper's §4.3 can get
//! away with "local timestamp of the coordinator ... plus node id to break
//! ties" for optimistic transaction ordering: a total order is all that is
//! needed there, not causality detection.

use serde::{Deserialize, Serialize};

/// A Lamport scalar clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportClock {
    value: u64,
}

impl LamportClock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances for a local event and returns the new stamp.
    pub fn tick(&mut self) -> u64 {
        self.value += 1;
        self.value
    }

    /// Merges an incoming stamp (receive rule) and returns the new value.
    pub fn observe(&mut self, received: u64) -> u64 {
        self.value = self.value.max(received) + 1;
        self.value
    }

    /// A totally ordered stamp `(clock, node)` — the paper's §4.3 tie-break
    /// construction ("local timestamp of the coordinator at the initiation
    /// of the commit protocol, plus node id to break ties").
    pub fn total_stamp(&mut self, node: usize) -> TotalStamp {
        TotalStamp {
            time: self.tick(),
            node,
        }
    }
}

/// A totally ordered logical timestamp: Lamport time with node tie-break.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TotalStamp {
    /// Lamport time component (most significant in comparisons).
    pub time: u64,
    /// Node id tie-breaker.
    pub node: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tick_is_monotone() {
        let mut c = LamportClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.value, 2);
    }

    #[test]
    fn observe_jumps_past_received() {
        let mut c = LamportClock::new();
        c.tick();
        let v = c.observe(100);
        assert_eq!(v, 101);
        // Observing an old stamp still advances.
        let v2 = c.observe(5);
        assert_eq!(v2, 102);
    }

    #[test]
    fn message_chain_is_ordered() {
        // Simulate a → b → c across three processes.
        let mut p = LamportClock::new();
        let mut q = LamportClock::new();
        let mut r = LamportClock::new();
        let a = p.tick(); // send at P
        let b = q.observe(a); // receive at Q
        let b2 = q.tick(); // send at Q
        let c = r.observe(b2); // receive at R
        assert!(a < b && b < b2 && b2 < c);
    }

    #[test]
    fn total_stamps_order_lexicographically() {
        let mut a = LamportClock::new();
        let mut b = LamportClock::new();
        let s1 = a.total_stamp(1);
        let s2 = b.total_stamp(2);
        // Same time → node breaks tie.
        assert!(s1 < s2);
        let s3 = a.total_stamp(1);
        assert!(s2 < s3);
    }

    proptest! {
        #[test]
        fn observe_result_exceeds_both(local in 0u64..1_000_000, recv in 0u64..1_000_000) {
            let mut c = LamportClock { value: local };
            let v = c.observe(recv);
            prop_assert!(v > local);
            prop_assert!(v > recv);
        }

        #[test]
        fn total_stamps_never_equal_across_nodes(t in 0u64..1000, n1 in 0usize..64, n2 in 0usize..64) {
            prop_assume!(n1 != n2);
            let s1 = TotalStamp { time: t, node: n1 };
            let s2 = TotalStamp { time: t, node: n2 };
            prop_assert!(s1 != s2);
            prop_assert!(s1 < s2 || s2 < s1);
        }
    }
}
