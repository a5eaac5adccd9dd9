//! What one repetition of a workload produces once its timer has
//! stopped: the counts the end-to-end metrics are computed from, the
//! run digest, and the verdict of the correctness checks.

use catocs::wire::EndpointStats;
use std::time::Duration;

/// Point-to-point traffic the simulated network saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Wire messages handed to the network.
    pub sent: u64,
    /// Wire messages the network lost (loss, partitions).
    pub dropped: u64,
    /// Wire messages that reached a live process.
    pub delivered: u64,
}

/// Membership-layer totals over every node of every campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MembershipTotals {
    /// Views installed beyond the initial one, summed over nodes.
    pub view_changes: u64,
    /// Flush-protocol messages sent.
    pub flush_msgs: u64,
    /// Flush retransmissions fired by the retry timer.
    pub flush_retries: u64,
    /// Live processes left out of their campaign's final view.
    pub evicted_live: u64,
    /// Mean send-blackout per view change at each node that changed
    /// view, virtual ms (one sample per node per campaign).
    pub blackouts_vms: Vec<f64>,
}

/// Everything a repetition reports. Two repetitions of one seed must
/// agree on every field ([`Outcome::same_run`] checks the ones that
/// decide a metric).
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Application deliveries, self-deliveries included.
    pub deliveries: u64,
    /// Multicasts submitted.
    pub multicasts: u64,
    /// Point-to-point wire messages sent: data, acks, NACKs,
    /// retransmissions, flush traffic.
    pub wire_msgs: u64,
    /// Σ(`data_overhead_bytes` + `control_bytes`) over every endpoint.
    pub ordering_bytes: u64,
    /// Scheduler events (or, without simnet, wire events the driver fed).
    pub events: u64,
    /// Virtual send→deliver latency of every remote delivery, µs.
    pub latencies_us: Vec<u32>,
    /// The same latencies over the calmer half of the campaigns only —
    /// those whose own 99th percentile is lowest — sorted; what
    /// `vlat_p99_ms` is read from on `chaos_vsync`, empty elsewhere.
    ///
    /// Latency under faults is heavy-tailed: between 1 and 2.5 % of a
    /// seed's deliveries wait out a crash or a partition for hundreds
    /// of ms, so the 99th percentile of them all sits on the cliff
    /// between the repair tail and the fault tail and read anywhere
    /// from 48 to 528 ms over twenty seeds (interquartile 70 to 115 % of
    /// the median) — input variance that would bury any change to the
    /// code. Over the campaigns no fault wedged it is 23 to 25 ms
    /// (interquartile 4 to 5 %); the median campaign's own 99th
    /// percentile, the other robust candidate, moved by 16 %.
    pub calm_latencies_us: Vec<u32>,
    /// Order-sensitive digest of who delivered what, when.
    pub digest: u64,
    /// Checks made: expected deliveries plus invariant checks.
    pub attempted: u64,
    /// Checks that failed: missing, duplicate or misordered deliveries
    /// and invariant violations.
    pub failed: u64,
    /// Every endpoint's statistics folded together (sums; peaks by max).
    pub endpoint: EndpointStats,
    /// Simulated-network counters (zero without simnet).
    pub net: NetCounts,
    /// Membership totals (chaos only).
    pub membership: MembershipTotals,
}

impl Outcome {
    /// Whether `other` is the same run: same digest and the same counts
    /// behind every deterministic metric.
    pub fn same_run(&self, other: &Outcome) -> bool {
        self.digest == other.digest
            && self.deliveries == other.deliveries
            && self.multicasts == other.multicasts
            && self.wire_msgs == other.wire_msgs
            && self.ordering_bytes == other.ordering_bytes
            && self.events == other.events
            && self.failed == other.failed
            && self.latencies_us == other.latencies_us
            && self.calm_latencies_us == other.calm_latencies_us
    }
}

/// One timed repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall time of the fixed work, collection and checking excluded.
    pub wall: Duration,
    /// The same time split over consecutive parts of the work — the
    /// same parts in every repetition of a workload (a campaign, an
    /// observer, a slice of virtual time), so that part `i` of one
    /// repetition did exactly what part `i` of another did.
    pub parts: Vec<Duration>,
    /// What it produced.
    pub outcome: Outcome,
}

/// Folds `s` into `acc`: cumulative counters add, high-water marks take
/// the maximum, instantaneous gauges are dropped.
pub fn fold_stats(acc: &mut EndpointStats, s: &EndpointStats) {
    acc.sent += s.sent;
    acc.data_received += s.data_received;
    acc.delivered += s.delivered;
    acc.delivered_after_hold += s.delivered_after_hold;
    acc.hold_time_total.0 += s.hold_time_total.0;
    acc.duplicates += s.duplicates;
    acc.nacks_sent += s.nacks_sent;
    acc.retransmits_served += s.retransmits_served;
    acc.acks_sent += s.acks_sent;
    acc.control_bytes += s.control_bytes;
    acc.data_overhead_bytes += s.data_overhead_bytes;
    acc.buffered_peak = acc.buffered_peak.max(s.buffered_peak);
    acc.buffered_bytes_peak = acc.buffered_bytes_peak.max(s.buffered_bytes_peak);
    acc.holdback_peak = acc.holdback_peak.max(s.holdback_peak);
    acc.stabilized += s.stabilized;
    acc.holdback_work += s.holdback_work;
    acc.holdback_events += s.holdback_events;
    acc.ts_delta_sent += s.ts_delta_sent;
    acc.ts_full_sent += s.ts_full_sent;
    acc.ts_delta_parked += s.ts_delta_parked;
    acc.ts_decode_errors += s.ts_decode_errors;
    acc.rejected_removed += s.rejected_removed;
}

/// FNV-1a, the digest every workload folds its deliveries into.
#[derive(Clone, Copy, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The `q`-quantile of `sorted` by the nearest-rank rule (the smallest
/// value with at least `q` of the samples at or below it).
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so the spreads printed
/// here are the ones the acceptance rule is stated in. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0);
    }
}
