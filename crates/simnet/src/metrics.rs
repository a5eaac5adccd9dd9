//! Lightweight metrics: named counters, gauges and latency histograms.
//!
//! The experiment harness reads these after a run to produce the tables in
//! EXPERIMENTS.md and the `experiments bench` table. Everything
//! is plain in-memory state — no atomics are needed because the simulator
//! is single-threaded.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fixed-bucket log-scale histogram of durations (microseconds).
///
/// Buckets are powers of two from 1us up to ~2^40us, which comfortably
/// spans sub-microsecond protocol steps to multi-hour waits.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

const HISTOGRAM_BUCKETS: usize = 41;

impl Default for Histogram {
    /// An empty histogram with its buckets allocated — identical to
    /// [`Histogram::new`], so `record` never has to lazily re-create
    /// the bucket vector.
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one duration observation.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let idx = (64 - us.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram's observations into this one. The merged
    /// count, sum, min and max are exactly what recording both streams
    /// into one histogram would have produced.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, microseconds.
    pub fn sum_micros(&self) -> u128 {
        self.sum_us
    }

    /// Mean observation, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_us / self.count as u128) as u64)
        }
    }

    /// Minimum observation, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.min_us)
        }
    }

    /// Maximum observation.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// The value range a bucket index covers, inclusive on both ends.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Approximate quantile, `q` in `[0,1]`, with linear interpolation
    /// within the target bucket. On dense data this lands between the
    /// bucket bounds in proportion to the target rank instead of
    /// snapping to the power-of-two upper bound; the result is always
    /// clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = (((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = Self::bucket_range(i);
                // Rank within this bucket, in (0, 1]: interpolate
                // linearly across the bucket's value range.
                let frac = (target - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                let est = est.round() as u64;
                return SimDuration::from_micros(est.clamp(self.min_us, self.max_us));
            }
            seen += c;
        }
        self.max()
    }
}

/// The metrics sink owned by a simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Applies `update` to the value under `name`, starting it from `init`
/// on first use. The lookup borrows `name`; the key is allocated only
/// when it is first inserted, since these run several times per simulated
/// event.
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => update(v),
        None => {
            let mut v = init();
            update(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter.
    pub fn incr(&mut self, name: &str, by: u64) {
        upsert(&mut self.counters, name, || 0, |c| *c += by);
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        upsert(&mut self.gauges, name, || v, |g| *g = v);
    }

    /// Sets the named gauge to `max(current, v)`.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        upsert(
            &mut self.gauges,
            name,
            || f64::MIN,
            |g| {
                if v > *g {
                    *g = v;
                }
            },
        );
    }

    /// Reads a gauge (zero if never written).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Records a duration in the named histogram.
    pub fn observe(&mut self, name: &str, d: SimDuration) {
        upsert(&mut self.histograms, name, Histogram::new, |h| h.record(d));
    }

    /// Folds `other`'s observations into the named histogram, as if each
    /// had been [`Metrics::observe`]d.
    pub fn merge_histogram(&mut self, name: &str, other: &Histogram) {
        upsert(&mut self.histograms, name, Histogram::new, |h| {
            h.merge(other)
        });
    }

    /// Reads a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, for reports.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, for reports.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, for reports — the latency counterpart of
    /// [`Metrics::counters`] / [`Metrics::gauges`].
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_max() {
        let mut m = Metrics::new();
        m.set_gauge("g", 1.5);
        assert_eq!(m.gauge("g"), 1.5);
        m.gauge_max("g", 0.5);
        assert_eq!(m.gauge("g"), 1.5);
        m.gauge_max("g", 2.5);
        assert_eq!(m.gauge("g"), 2.5);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for ms in [1u64, 2, 4, 8] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), SimDuration::from_millis(1));
        assert_eq!(h.max(), SimDuration::from_millis(8));
        let mean = h.mean().as_micros();
        assert_eq!(mean, (1000 + 2000 + 4000 + 8000) / 4);
    }

    #[test]
    fn default_histogram_records_without_reinit() {
        // `Default` must allocate the bucket vector up front; recording
        // through a defaulted histogram is the regression this pins.
        let mut h = Histogram::default();
        h.record(SimDuration::from_micros(7));
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), SimDuration::from_micros(7));
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        assert!(p50 >= h.min());
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 1000 uniform values in [1, 1000]us: rank 500 falls in the
        // [256, 511] bucket, where a pure upper-bound quantile would
        // report 512. Linear interpolation recovers ~500 — the true
        // median of the dense uniform data.
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_micros();
        assert!(
            (450..=550).contains(&p50),
            "p50 {p50} should interpolate to ~500, not snap to a power of two"
        );
    }

    #[test]
    fn merge_matches_recording_both_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for us in [3u64, 70, 900] {
            a.record(SimDuration::from_micros(us));
            both.record(SimDuration::from_micros(us));
        }
        for us in [1u64, 40_000] {
            b.record(SimDuration::from_micros(us));
            both.record(SimDuration::from_micros(us));
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum_micros(), both.sum_micros());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_micros(10));
        let before = (a.count(), a.min(), a.max(), a.sum_micros());
        a.merge(&Histogram::new());
        assert_eq!(before, (a.count(), a.min(), a.max(), a.sum_micros()));
        // Empty absorbing non-empty adopts its stats.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.min(), SimDuration::from_micros(10));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.9), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn metrics_observe_roundtrip() {
        let mut m = Metrics::new();
        m.observe("lat", SimDuration::from_millis(3));
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
        assert!(m.histogram("nope").is_none());
    }

    #[test]
    fn histograms_iterate_in_name_order() {
        let mut m = Metrics::new();
        m.observe("b.lat", SimDuration::from_millis(2));
        m.observe("a.lat", SimDuration::from_millis(1));
        m.observe("a.lat", SimDuration::from_millis(3));
        let got: Vec<(String, u64)> = m
            .histograms()
            .map(|(k, h)| (k.to_string(), h.count()))
            .collect();
        assert_eq!(
            got,
            vec![("a.lat".to_string(), 2), ("b.lat".to_string(), 1)]
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn hist(values: &[u64]) -> Histogram {
            let mut h = Histogram::new();
            for &us in values {
                h.record(SimDuration::from_micros(us));
            }
            h
        }

        proptest! {
            /// `merge` must be indistinguishable from having recorded
            /// both streams into one histogram: count/sum/min/max agree
            /// exactly and quantiles stay monotone in `q`.
            #[test]
            fn merge_preserves_aggregates_and_monotonicity(
                xs in proptest::collection::vec(0u64..2_000_000, 0..64),
                ys in proptest::collection::vec(0u64..2_000_000, 0..64),
            ) {
                let mut merged = hist(&xs);
                merged.merge(&hist(&ys));
                let mut all = xs.clone();
                all.extend_from_slice(&ys);
                let direct = hist(&all);
                prop_assert_eq!(merged.count(), direct.count());
                prop_assert_eq!(merged.sum_micros(), direct.sum_micros());
                prop_assert_eq!(merged.min(), direct.min());
                prop_assert_eq!(merged.max(), direct.max());
                let mut prev = SimDuration::ZERO;
                for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                    let v = merged.quantile(q);
                    prop_assert!(v >= prev, "quantile({}) = {:?} < {:?}", q, v, prev);
                    prev = v;
                }
                if merged.count() > 0 {
                    prop_assert!(merged.quantile(0.0) >= merged.min());
                    prop_assert!(merged.quantile(1.0) <= merged.max());
                }
            }
        }
    }
}
