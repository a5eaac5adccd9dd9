//! Simulated synchronized real-time clocks with bounded skew and drift.
//!
//! The paper's §4.6 argues that for real-time systems, synchronized
//! real-time timestamps beat CATOCS: "a timestamp can have a granularity
//! in the microsecond range and an accuracy to less than one millisecond,
//! and yet the events in most real-time systems occur at the granularity
//! of tens of milliseconds or more". This module models exactly that: each
//! process owns a [`SyncClock`] whose reading is true simulated time plus
//! a bounded offset (static skew plus slow drift, clamped to the
//! advertised accuracy). Experiment T13 uses it to order oven-sensor events
//! by temporal precedence.

use serde::{Deserialize, Serialize};
use simnet::time::{SimDuration, SimTime};

/// A per-process synchronized clock with bounded error.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyncClock {
    /// Static offset from true time, signed microseconds.
    skew_us: i64,
    /// Drift rate in parts per million (microseconds gained per second).
    drift_ppm: i64,
    /// Guaranteed bound on |reading - true time|.
    error_bound: SimDuration,
}

impl SyncClock {
    /// Creates a clock with the given static skew and drift.
    ///
    /// `error_bound` is the advertised accuracy (the paper's "less than
    /// one millisecond"); `SyncClock::read` clamps to it, modeling a
    /// sync protocol that re-zeros the clock before the bound is exceeded.
    pub fn new(skew_us: i64, drift_ppm: i64, error_bound: SimDuration) -> Self {
        SyncClock {
            skew_us,
            drift_ppm,
            error_bound,
        }
    }

    /// Reads the clock at true time `now`.
    ///
    /// The reading is `now + skew + drift`, clamped to the error bound.
    pub(crate) fn read(&self, now: SimTime) -> SimTime {
        let elapsed_s = now.since(SimTime::ZERO).as_secs_f64();
        let drift_us = (self.drift_ppm as f64 * elapsed_s).round() as i64;
        let mut offset = self.skew_us + drift_us;
        let bound = self.error_bound.as_micros() as i64;
        offset = offset.clamp(-bound, bound);
        if offset >= 0 {
            now + SimDuration::from_micros(offset as u64)
        } else {
            now - SimDuration::from_micros((-offset) as u64)
        }
    }

    /// A totally ordered timestamp: clock reading plus node tie-break.
    pub fn stamp(&self, now: SimTime, node: usize) -> RtStamp {
        RtStamp {
            time: self.read(now),
            node,
        }
    }
}

/// A real-time timestamp with node id tie-break — the paper's "temporal
/// precedence" ordering device (§4.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RtStamp {
    /// The clock reading.
    pub time: SimTime,
    /// Node id tie-breaker.
    pub node: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = SyncClock::new(0, 0, SimDuration::ZERO);
        let t = SimTime::from_millis(123);
        assert_eq!(c.read(t), t);
    }

    #[test]
    fn skew_shifts_reading() {
        let c = SyncClock::new(500, 0, SimDuration::from_millis(1));
        assert_eq!(
            c.read(SimTime::from_millis(10)),
            SimTime::from_micros(10_500)
        );
        let neg = SyncClock::new(-500, 0, SimDuration::from_millis(1));
        assert_eq!(
            neg.read(SimTime::from_millis(10)),
            SimTime::from_micros(9_500)
        );
    }

    #[test]
    fn drift_accumulates() {
        // 100 ppm = 100us per second.
        let c = SyncClock::new(0, 100, SimDuration::from_millis(10));
        let t = SimTime::from_secs(5);
        assert_eq!(c.read(t), t + SimDuration::from_micros(500));
    }

    #[test]
    fn error_is_clamped_to_bound() {
        let c = SyncClock::new(0, 1_000, SimDuration::from_micros(800));
        // After 10s, raw drift would be 10_000us; clamped to 800.
        let t = SimTime::from_secs(10);
        assert_eq!(t.since(SimTime::ZERO).as_micros(), 10_000_000);
        assert_eq!(c.read(t), t + SimDuration::from_micros(800));
    }

    #[test]
    fn stamps_totally_ordered() {
        let c = SyncClock::new(0, 0, SimDuration::ZERO);
        let s1 = c.stamp(SimTime::from_millis(1), 0);
        let s2 = c.stamp(SimTime::from_millis(1), 1);
        let s3 = c.stamp(SimTime::from_millis(2), 0);
        assert!(s1 < s2 && s2 < s3);
    }

    proptest! {
        /// Reading error never exceeds the bound.
        #[test]
        fn error_bounded(
            skew in -5_000i64..5_000,
            drift in -500i64..500,
            t_ms in 0u64..100_000
        ) {
            let bound = SimDuration::from_millis(1);
            let c = SyncClock::new(skew, drift, bound);
            let now = SimTime::from_millis(t_ms);
            let r = c.read(now);
            let err = if r >= now { r.since(now) } else { now.since(r) };
            prop_assert!(err <= bound);
        }

        /// Readings are monotone in true time when drift is non-negative
        /// and skew is fixed (physical clocks don't run backwards).
        #[test]
        fn monotone_reading(skew in -1_000i64..1_000, drift in 0i64..500, a in 0u64..10_000, b in 0u64..10_000) {
            let c = SyncClock::new(skew, drift, SimDuration::from_secs(1));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.read(SimTime::from_millis(lo)) <= c.read(SimTime::from_millis(hi)));
        }
    }
}
