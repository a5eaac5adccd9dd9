//! Heartbeat failure detection.
//!
//! Each member multicasts a heartbeat every `interval`; a peer silent for
//! `suspect_after` becomes *suspected*. The detector is deliberately
//! simple (timeout-based, eventually-perfect under bounded delay) — the
//! paper notes that "ordered failure notification can be provided without
//! CATOCS and is useful as a stand-alone capability"; this module is that
//! stand-alone capability, feeding the view-change machinery in
//! [`crate::membership`].

use simnet::time::{SimDuration, SimTime};

/// Per-member liveness tracking for one observer.
#[derive(Debug)]
pub(crate) struct FailureDetector {
    me: usize,
    interval: SimDuration,
    suspect_after: SimDuration,
    last_heard: Vec<SimTime>,
    suspected: Vec<bool>,
    last_beat: SimTime,
}

impl FailureDetector {
    /// Creates a detector for member `me` of a group of `n`, constructed
    /// at time `now`. Every peer is credited as heard-from at `now`:
    /// seeding `last_heard` with the construction time (rather than time
    /// zero) is what keeps a detector started late — or rebuilt after a
    /// crash recovery — from instantly suspecting every peer before the
    /// first heartbeat round.
    pub(crate) fn new(
        me: usize,
        n: usize,
        interval: SimDuration,
        suspect_after: SimDuration,
        now: SimTime,
    ) -> Self {
        FailureDetector {
            me,
            interval,
            suspect_after,
            last_heard: vec![now; n],
            suspected: vec![false; n],
            last_beat: now,
        }
    }

    /// Forgets everything and re-seeds `last_heard` at `now` — the state a
    /// freshly constructed detector would have. Used on crash recovery,
    /// where the persisted `last_heard` times are arbitrarily stale.
    pub(crate) fn reset(&mut self, now: SimTime) {
        for t in &mut self.last_heard {
            *t = now;
        }
        for s in &mut self.suspected {
            *s = false;
        }
        self.last_beat = now;
    }

    /// Records a heartbeat (or any traffic) from `who` at `now`.
    pub(crate) fn heard_from(&mut self, who: usize, now: SimTime) {
        if who < self.last_heard.len() {
            self.last_heard[who] = now;
            self.suspected[who] = false;
        }
    }

    /// Whether it is time to emit our own heartbeat; updates internal
    /// pacing state when it returns true.
    pub(crate) fn should_beat(&mut self, now: SimTime) -> bool {
        if now.saturating_since(self.last_beat) >= self.interval {
            self.last_beat = now;
            true
        } else {
            false
        }
    }

    /// Re-evaluates suspicions at `now` and returns every member suspected,
    /// not only the new ones: the membership engine re-derives its
    /// proposal from the whole set on every tick. Allocates only when
    /// someone is.
    pub(crate) fn check(&mut self, now: SimTime) -> Vec<usize> {
        let mut suspects = Vec::new();
        for k in 0..self.last_heard.len() {
            if k != self.me && now.saturating_since(self.last_heard[k]) >= self.suspect_after {
                self.suspected[k] = true;
            }
            if self.suspected[k] {
                suspects.push(k);
            }
        }
        suspects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> FailureDetector {
        FailureDetector::new(
            0,
            3,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            SimTime::ZERO,
        )
    }

    #[test]
    fn late_start_does_not_suspect_before_first_round() {
        // Regression: a detector constructed long after time zero used to
        // seed `last_heard` with SimTime::ZERO and suspect every peer on
        // the very first check, before any heartbeat could arrive.
        let born = SimTime::from_secs(10);
        let mut d = FailureDetector::new(
            0,
            3,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            born,
        );
        assert!(
            d.check(born + SimDuration::from_millis(1)).is_empty(),
            "no peer may be suspected before suspect_after elapses from construction"
        );
        // The timeout still applies from the construction instant.
        let newly = d.check(born + SimDuration::from_millis(50));
        assert_eq!(newly, vec![1, 2]);
    }

    #[test]
    fn reset_clears_suspicion_and_reseeds() {
        let mut d = det();
        d.check(SimTime::from_millis(100));
        assert!(d.suspected[1] && d.suspected[2]);
        d.reset(SimTime::from_millis(100));
        assert!(!d.suspected[1] && !d.suspected[2]);
        assert!(d.check(SimTime::from_millis(120)).is_empty());
        let newly = d.check(SimTime::from_millis(150));
        assert_eq!(newly, vec![1, 2], "timeout restarts from the reset point");
    }

    #[test]
    fn silence_leads_to_suspicion() {
        let mut d = det();
        d.heard_from(1, SimTime::from_millis(0));
        d.heard_from(2, SimTime::from_millis(40));
        let newly = d.check(SimTime::from_millis(60));
        assert_eq!(newly, vec![1]);
        assert!(d.suspected[1]);
        assert!(!d.suspected[2]);
    }

    #[test]
    fn hearing_again_clears_suspicion() {
        let mut d = det();
        d.check(SimTime::from_millis(100));
        assert!(d.suspected[1]);
        d.heard_from(1, SimTime::from_millis(101));
        assert!(!d.suspected[1]);
        assert_eq!(d.check(SimTime::from_millis(101)), vec![2]);
    }

    #[test]
    fn never_suspects_self() {
        let mut d = det();
        let newly = d.check(SimTime::from_secs(10));
        assert!(!newly.contains(&0));
    }

    #[test]
    fn suspicion_is_reported_until_heard_from() {
        let mut d = det();
        assert_eq!(d.check(SimTime::from_millis(100)), vec![1, 2]);
        assert_eq!(d.check(SimTime::from_millis(200)), vec![1, 2]);
        d.heard_from(2, SimTime::from_millis(201));
        assert_eq!(d.check(SimTime::from_millis(210)), vec![1]);
    }

    #[test]
    fn beat_pacing() {
        let mut d = det();
        assert!(d.should_beat(SimTime::from_millis(10)));
        assert!(!d.should_beat(SimTime::from_millis(15)));
        assert!(d.should_beat(SimTime::from_millis(20)));
    }
}
