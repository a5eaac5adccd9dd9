//! Matrix clocks: each process's knowledge of every other process's
//! vector clock.
//!
//! Row `i` of the matrix at process `p` is `p`'s best knowledge of what
//! process `i` has delivered. The column-wise minimum therefore bounds
//! what *everyone* is known to have delivered — exactly the stability
//! ("delivered everywhere") test that CATOCS implementations use to
//! garbage-collect their message buffers. Section 5 of the paper argues
//! that this state is itself a scaling problem: the matrix is `N×N`, and
//! stale rows keep messages buffered. Experiment T5 measures both.

use crate::vector::VectorClock;
use serde::{Deserialize, Serialize};

/// An `n × n` matrix clock for a group of `n` processes.
///
/// Rows are allocated lazily: a row stays zero-width until something is
/// written to it, and a zero-width row reads as all-zeros (exactly what
/// an eagerly allocated fresh row would). This keeps a fresh matrix at
/// `O(n)` memory instead of `O(n²)` — material for the T7+ scaling runs,
/// where a mostly-idle group of 4096 would otherwise pay ~134 MB per
/// endpoint for state that is almost entirely zeros. The *wire* cost
/// ([`MatrixClock::encoded_len`]) stays the analytic dense size; laziness
/// is a memory representation, not a protocol change.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixClock {
    n: usize,
    /// `rows[i]` = best-known vector clock of process `i`'s deliveries.
    /// May be shorter than `n` (missing components read as 0).
    rows: Vec<VectorClock>,
}

impl MatrixClock {
    /// A zero matrix for `n` processes.
    pub fn new(n: usize) -> Self {
        MatrixClock {
            n,
            rows: vec![VectorClock::new(0); n],
        }
    }

    /// Widens row `i` to full width before an indexed write.
    fn widen_row(&mut self, i: usize) {
        if self.rows[i].len() < self.n {
            let mut wide = VectorClock::new(self.n);
            wide.merge(&self.rows[i]);
            self.rows[i] = wide;
        }
    }

    /// This process's own row (its delivered clock).
    pub fn own_row(&self, me: usize) -> &VectorClock {
        &self.rows[me]
    }

    /// Records that `me` delivered the `seq`-th message from `sender`.
    /// Returns whether the row advanced (new delivery knowledge).
    pub fn record_delivery(&mut self, me: usize, sender: usize, seq: u64) -> bool {
        if self.rows[me].get(sender) < seq {
            self.widen_row(me);
            self.rows[me].set(sender, seq);
            true
        } else {
            false
        }
    }

    /// Incorporates a gossiped row: process `who` reports its delivered
    /// clock `row`. Returns whether any component advanced.
    pub fn update_row(&mut self, who: usize, row: &VectorClock) -> bool {
        self.update_row_with(who, row, |_, _| {})
    }

    /// [`MatrixClock::update_row`] that also calls `on_advance(s, old)`
    /// for each component `s` of row `who` it raises above `old` — the
    /// hook an incrementally maintained frontier hangs its bookkeeping on.
    pub fn update_row_with(
        &mut self,
        who: usize,
        row: &VectorClock,
        on_advance: impl FnMut(usize, u64),
    ) -> bool {
        self.rows[who].merge_advancing(row, on_advance)
    }

    /// The stability frontier: component `s` is the highest sequence
    /// number `k` such that *every* process is known to have delivered
    /// messages `1..=k` from sender `s`. Messages at or below the frontier
    /// may be garbage-collected.
    ///
    /// This is the from-scratch `O(n²)` walk. Endpoints read the frontier
    /// `catocs::stability::StabilityTracker` maintains incrementally;
    /// this one remains as the oracle its tests compare against.
    pub fn stable_frontier(&self) -> VectorClock {
        // Any never-written (zero-width) row reads as all-zeros and pins
        // the componentwise min at zero everywhere, so the O(n²) sweep
        // can be skipped. This is what makes per-delivery GC checks
        // affordable at N=4096, where most members never speak.
        if self.rows.iter().any(|r| r.is_empty()) {
            return VectorClock::new(self.n);
        }
        let mut frontier = VectorClock::new(self.n);
        for s in 0..self.n {
            let min = (0..self.n).map(|i| self.rows[i].get(s)).min().unwrap_or(0);
            frontier.set(s, min);
        }
        frontier
    }

    /// Bytes needed to ship this matrix (the §5 gossip overhead).
    pub fn encoded_len(&self) -> usize {
        4 + self.n * (4 + 8 * self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_matrix_has_zero_frontier() {
        let m = MatrixClock::new(3);
        assert_eq!(m.stable_frontier(), VectorClock::new(3));
    }

    #[test]
    fn stability_requires_everyone() {
        let mut m = MatrixClock::new(3);
        // P0 and P1 delivered msg 1 from sender 0; P2 has not.
        m.record_delivery(0, 0, 1);
        m.record_delivery(1, 0, 1);
        assert_eq!(m.stable_frontier().get(0), 0);
        m.record_delivery(2, 0, 1);
        assert_eq!(m.stable_frontier().get(0), 1);
    }

    #[test]
    fn record_delivery_is_monotone() {
        let mut m = MatrixClock::new(2);
        m.record_delivery(0, 1, 5);
        m.record_delivery(0, 1, 3); // late, lower — ignored
        assert_eq!(m.own_row(0).get(1), 5);
    }

    #[test]
    fn update_row_merges() {
        let mut m = MatrixClock::new(3);
        m.update_row(2, &VectorClock::from_entries(vec![1, 2, 3]));
        assert_eq!(m.own_row(2).get(2), 3);
    }

    #[test]
    fn fresh_rows_stay_narrow_until_written() {
        // Lazy allocation: a fresh matrix holds zero-width rows, and only
        // the rows that are actually written widen. Semantics must match
        // the dense representation throughout.
        let mut m = MatrixClock::new(4096);
        assert!(m.rows.iter().all(|r| r.is_empty()));
        m.record_delivery(7, 3, 1);
        assert_eq!(m.rows[7].len(), 4096);
        assert!(m
            .rows
            .iter()
            .enumerate()
            .all(|(i, r)| i == 7 || r.is_empty()));
        assert_eq!(m.own_row(7).get(3), 1);
        assert_eq!(m.own_row(0).get(3), 0);
        assert_eq!(m.stable_frontier(), VectorClock::new(4096));
        // update_row widens through VectorClock::merge's resize.
        m.update_row(9, &VectorClock::from_entries(vec![0, 2]));
        assert_eq!(m.own_row(9).get(1), 2);
        // Wire size is unchanged by the in-memory representation.
        assert_eq!(m.encoded_len(), MatrixClock::new(4096).encoded_len());
    }

    #[test]
    fn encoded_len_is_quadratic() {
        let m4 = MatrixClock::new(4).encoded_len();
        let m8 = MatrixClock::new(8).encoded_len();
        let m16 = MatrixClock::new(16).encoded_len();
        // Doubling n should roughly quadruple the size.
        assert!(m8 > 3 * m4 && m8 < 5 * m4, "m4={m4} m8={m8}");
        assert!(m16 > 3 * m8 && m16 < 5 * m8);
    }

    proptest! {
        /// The stable frontier never exceeds any process's row.
        #[test]
        fn frontier_is_lower_bound(
            deliveries in proptest::collection::vec((0usize..4, 0usize..4, 1u64..20), 0..50)
        ) {
            let mut m = MatrixClock::new(4);
            for (me, sender, seq) in deliveries {
                m.record_delivery(me, sender, seq);
            }
            let f = m.stable_frontier();
            for i in 0..4 {
                for s in 0..4 {
                    prop_assert!(f.get(s) <= m.own_row(i).get(s));
                }
            }
        }
    }
}
