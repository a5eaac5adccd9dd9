//! Message-stability tracking: who is known to have delivered what.
//!
//! A message is *stable* when every group member is known to have
//! delivered it; only then may its buffered copy be discarded. This module
//! wraps a [`MatrixClock`] with the accounting experiment T5 reads: how
//! much delivery knowledge a node carries (the matrix itself is `N×N`) and
//! where the group-wide stability frontier sits.
//!
//! The frontier is maintained incrementally. An ack costs work only for
//! the components it advanced, and a column's minimum is recomputed (one
//! `O(N)` scan) only when the last row holding it moves off — once per
//! stabilised message, amortised. `MatrixClock::stable_frontier`, the
//! from-scratch `O(N²)` walk, is what the tests here check it against.

use clocks::matrix::MatrixClock;
use clocks::vector::VectorClock;
use serde::{Deserialize, Serialize};

/// Per-endpoint stability knowledge.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StabilityTracker {
    matrix: MatrixClock,
    n: usize,
    /// Which members' rows count toward stability. A removed member's row
    /// freezes at its last known clock; without masking it out, the
    /// stable frontier (and therefore buffer GC) would freeze with it.
    alive: Vec<bool>,
    /// Component `s` is the minimum of column `s` over the live rows
    /// (zero when no row is live).
    frontier: VectorClock,
    /// Per column, how many live rows sit exactly on the frontier. While
    /// one remains the column's minimum cannot have moved.
    holders: Vec<u32>,
    /// Whether the frontier changed since the last
    /// [`StabilityTracker::take_frontier_moved`].
    moved: bool,
}

impl StabilityTracker {
    /// Creates a tracker for a group of `n`.
    pub fn new(n: usize) -> Self {
        StabilityTracker {
            matrix: MatrixClock::new(n),
            n,
            alive: vec![true; n],
            frontier: VectorClock::new(n),
            holders: vec![n as u32; n],
            moved: false,
        }
    }

    /// Restricts stability to `members` (surviving member indices) — the
    /// view-install hook. Rows of removed members no longer gate the
    /// stable frontier. Rebuilds every column, `O(N²)`.
    pub(crate) fn set_members(&mut self, members: &[usize]) {
        for (i, a) in self.alive.iter_mut().enumerate() {
            *a = members.contains(&i);
        }
        for s in 0..self.n {
            self.rescan_column(s);
        }
    }

    /// Records that `who` delivered the `seq`-th message from `sender`
    /// (used for the local process's own deliveries). Returns whether
    /// this was new knowledge.
    pub(crate) fn record_local_delivery(&mut self, who: usize, sender: usize, seq: u64) -> bool {
        let old = self.matrix.own_row(who).get(sender);
        if !self.matrix.record_delivery(who, sender, seq) {
            return false;
        }
        if self.alive[who] && old == self.frontier.get(sender) {
            self.holders[sender] -= 1;
            if self.holders[sender] == 0 {
                self.rescan_column(sender);
            }
        }
        true
    }

    /// Incorporates a peer's advertised delivered clock. Returns whether
    /// any component advanced.
    pub fn update_row(&mut self, who: usize, delivered: &VectorClock) -> bool {
        let (live, frontier, holders) = (self.alive[who], &self.frontier, &mut self.holders);
        // Columns left without a holder all lie in `lo..hi`.
        let (mut lo, mut hi) = (usize::MAX, 0);
        let advanced = self.matrix.update_row_with(who, delivered, |s, old| {
            // Only a live row that sat on the frontier held its column (a
            // clock wider than the group has no column to account for).
            if live && s < holders.len() && old == frontier.get(s) {
                holders[s] -= 1;
                if holders[s] == 0 {
                    lo = lo.min(s);
                    hi = s + 1;
                }
            }
        });
        for s in lo..hi {
            if self.holders[s] == 0 {
                self.rescan_column(s);
            }
        }
        advanced
    }

    /// Recomputes column `s`'s minimum and holder count from the live
    /// rows.
    fn rescan_column(&mut self, s: usize) {
        let (mut min, mut holders) = (0, 0);
        for i in (0..self.n).filter(|&i| self.alive[i]) {
            let v = self.matrix.own_row(i).get(s);
            if holders == 0 || v < min {
                (min, holders) = (v, 1);
            } else if v == min {
                holders += 1;
            }
        }
        if min != self.frontier.get(s) {
            self.frontier.set(s, min);
            self.moved = true;
        }
        self.holders[s] = holders;
    }

    /// The group-wide stability frontier: component `s` is the highest
    /// seq from sender `s` known delivered by every current member.
    pub fn stable_frontier(&self) -> VectorClock {
        self.frontier.clone()
    }

    /// Whether the frontier changed since this was last asked; asking
    /// clears the flag. Buffer GC runs only on a `true`.
    pub(crate) fn take_frontier_moved(&mut self) -> bool {
        std::mem::take(&mut self.moved)
    }

    /// How many members are known to have delivered `(sender, seq)` —
    /// the quantity a Deceit-style write-safety level compares against.
    pub(crate) fn ack_count(&self, sender: usize, seq: u64) -> usize {
        (0..self.n)
            .filter(|&i| self.knows_delivered(i, sender, seq))
            .count()
    }

    /// Whether member `who` is known to have delivered `(sender, seq)`.
    pub(crate) fn knows_delivered(&self, who: usize, sender: usize, seq: u64) -> bool {
        self.matrix.own_row(who).get(sender) >= seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `(sender, seq)` is known stable.
    fn stable(t: &StabilityTracker, sender: usize, seq: u64) -> bool {
        seq <= t.frontier.get(sender)
    }
    use proptest::prelude::*;

    #[test]
    fn frontier_advances_with_knowledge() {
        let mut s = StabilityTracker::new(3);
        s.record_local_delivery(0, 0, 2);
        assert_eq!(s.stable_frontier().get(0), 0);
        s.update_row(1, &VectorClock::from_entries(vec![2, 0, 0]));
        s.update_row(2, &VectorClock::from_entries(vec![2, 0, 0]));
        assert_eq!(s.stable_frontier().get(0), 2);
        assert!(stable(&s, 0, 2));
        assert!(!stable(&s, 0, 3));
    }

    #[test]
    fn ack_count_counts_members() {
        let mut s = StabilityTracker::new(4);
        s.record_local_delivery(0, 0, 1);
        assert_eq!(s.ack_count(0, 1), 1);
        s.update_row(2, &VectorClock::from_entries(vec![1, 0, 0, 0]));
        assert_eq!(s.ack_count(0, 1), 2);
        assert!(s.knows_delivered(2, 0, 1));
        assert!(!s.knows_delivered(3, 0, 1));
    }

    #[test]
    fn removed_member_no_longer_gates_stability() {
        let mut s = StabilityTracker::new(3);
        s.record_local_delivery(0, 0, 2);
        s.update_row(1, &VectorClock::from_entries(vec![2, 0, 0]));
        // Member 2 never acked; the frontier is stuck at 0.
        assert_eq!(s.stable_frontier().get(0), 0);
        assert!(!stable(&s, 0, 2));
        // A view change removes member 2: the survivors' knowledge now
        // suffices and GC can proceed.
        s.set_members(&[0, 1]);
        assert_eq!(s.stable_frontier().get(0), 2);
        assert!(stable(&s, 0, 2));
        assert!(!stable(&s, 0, 3));
    }

    #[test]
    fn frontier_moved_is_reported_once() {
        let mut s = StabilityTracker::new(2);
        assert!(!s.take_frontier_moved());
        s.record_local_delivery(0, 0, 1);
        assert!(!s.take_frontier_moved(), "member 1 still holds column 0");
        s.update_row(1, &VectorClock::from_entries(vec![1, 0]));
        assert!(s.take_frontier_moved());
        assert!(!s.take_frontier_moved());
    }

    #[test]
    fn clock_wider_than_the_group_is_tolerated() {
        let mut s = StabilityTracker::new(2);
        assert!(s.update_row(0, &VectorClock::from_entries(vec![1, 0, 9])));
        assert!(s.update_row(1, &VectorClock::from_entries(vec![1, 0, 9])));
        assert_eq!(s.stable_frontier(), VectorClock::from_entries(vec![1, 0]));
    }

    /// Group size of the differential test.
    const N: usize = 5;

    /// Column `s` of a dense model of the rows, live rows only.
    fn column<'a>(
        rows: &'a [Vec<u64>],
        alive: &'a [bool],
        s: usize,
    ) -> impl Iterator<Item = u64> + 'a {
        rows.iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(move |(r, _)| r[s])
    }

    /// The masked column minimum, recomputed from scratch.
    fn column_min(rows: &[Vec<u64>], alive: &[bool]) -> VectorClock {
        VectorClock::from_entries(
            (0..N)
                .map(|s| column(rows, alive, s).min().unwrap_or(0))
                .collect(),
        )
    }

    proptest! {
        /// Random interleavings of `update_row` (stale, partial-width and
        /// zero-width rows included), `record_local_delivery` and
        /// `set_members` (members removed and re-added): after every step
        /// the incremental frontier equals the from-scratch one, and the
        /// moved signal fires exactly when it changed.
        #[test]
        fn incremental_frontier_matches_the_oracle(
            ops in collection::vec(
                (
                    0u8..8,
                    0usize..N,
                    0usize..N,
                    collection::vec(0u64..4, N),
                    0usize..=N,
                    0usize..(1 << N),
                ),
                1..120,
            )
        ) {
            let mut tracker = StabilityTracker::new(N);
            let mut matrix = MatrixClock::new(N);
            let mut rows = vec![vec![0u64; N]; N];
            let mut alive = vec![true; N];
            let mut before = column_min(&rows, &alive);
            for (kind, who, sender, bumps, width, mask) in ops {
                match kind {
                    0..=4 => {
                        // Per component: one below, equal to, or above
                        // what the row already holds; cut to `width`.
                        let row: Vec<u64> = (0..width)
                            .map(|s| (rows[who][s] + bumps[s]).saturating_sub(1))
                            .collect();
                        let advanced = (0..width).any(|s| row[s] > rows[who][s]);
                        for s in 0..width {
                            rows[who][s] = rows[who][s].max(row[s]);
                        }
                        let row = VectorClock::from_entries(row);
                        matrix.update_row(who, &row);
                        prop_assert_eq!(tracker.update_row(who, &row), advanced);
                    }
                    5..=6 => {
                        let seq = (rows[who][sender] + bumps[0]).saturating_sub(1);
                        let advanced = seq > rows[who][sender];
                        rows[who][sender] = rows[who][sender].max(seq);
                        matrix.record_delivery(who, sender, seq);
                        prop_assert_eq!(tracker.record_local_delivery(who, sender, seq), advanced);
                    }
                    _ => {
                        let members: Vec<usize> =
                            (0..N).filter(|i| mask & (1 << i) != 0).collect();
                        for (i, a) in alive.iter_mut().enumerate() {
                            *a = members.contains(&i);
                        }
                        tracker.set_members(&members);
                    }
                }
                let now = column_min(&rows, &alive);
                prop_assert_eq!(tracker.stable_frontier(), now.clone());
                if alive.iter().all(|&a| a) {
                    prop_assert_eq!(matrix.stable_frontier(), now.clone());
                }
                prop_assert_eq!(tracker.take_frontier_moved(), now != before);
                for s in 0..N {
                    prop_assert!(stable(&tracker, s, now.get(s)));
                    prop_assert!(!stable(&tracker, s, now.get(s) + 1));
                    // An undercount would only cost needless rescans, so
                    // no output shows it: check the count itself.
                    let on_frontier = column(&rows, &alive, s)
                        .filter(|&v| v == now.get(s))
                        .count();
                    prop_assert_eq!(tracker.holders[s] as usize, on_frontier);
                }
                before = now;
            }
        }
    }
}
