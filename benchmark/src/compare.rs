//! `catocs-benchmark compare A B`: per (workload, end-to-end metric)
//! verdict between two sets of runs, from the bounds in the catalogue.
//!
//! Each file holds one JSON record per line, as `--out` appends them.
//!
//! Pooled (the default): a set's value is the median of its runs. A
//! metric is `regressed` (`improved`) when B's median is worse (better)
//! than A's by more than its bound — unless the sets' own spread exceeds
//! the bound and their runs overlap, in which case the honest answer is
//! `unresolved`.
//!
//! Paired (`--paired`): run i of a workload in A and run i in B were made
//! together with one seed (`lockstep`), so what the machine was doing
//! that minute and what the seed drew are the same on both sides and
//! cancel in a pair's ratio. The verdict is read from those ratios —
//! their median against the tighter paired bound, and a sign test — not
//! from the pooled values, which on a machine that drifts by more than
//! any bound say nothing.

use crate::catalogue::{Better, END_TO_END};
use crate::outcome::{median, quartiles, range};
use crate::workload::NAMES;
use simnet::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a comparison concludes about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B better than A by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// B worse than A by more than the bound.
    Regressed,
    /// The sets' own spread exceeds the bound and their runs overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A set's spread as a share of its median: interquartile distance
/// with four or more runs, full range with fewer.
pub fn spread_share(values: &[f64]) -> f64 {
    let m = median(values).abs();
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = if values.len() >= 4 {
        quartiles(values)
    } else {
        range(values)
    };
    (hi - lo) / m
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_share(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_by(a: &[f64], b: &[f64], better: Better) -> f64 {
    worse_share(median(a), median(b), better)
}

/// The verdict for one metric on one workload.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let noisy = spread_share(a).max(spread_share(b)) > bound;
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if noisy && overlap {
        return Verdict::Unresolved;
    }
    let w = worse_by(a, b, better);
    if w > bound {
        Verdict::Regressed
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Fewest pairs `--aa` accepts: the fewest whose full range covers
/// their median nine times in ten, and with fewer pure noise puts every
/// pair on one side too often (one time in four with three pairs).
pub const MIN_AA_PAIRS: usize = 5;

/// An interval that covers the median of the distribution `values` were
/// drawn from at least nine times in ten, whatever its shape: the k-th
/// smallest to the k-th largest, k the largest rank with
/// P(Binomial(n, 1/2) < k) <= 0.05 (the sign test, inverted). That is
/// the full range from 5 values, the 2nd to the 2nd-last from 8, the 3rd
/// to the 3rd-last from 10: it narrows as pairs are added, and from 8 on
/// shrugs off a stray pair. Fewer than 5 values cannot reach that
/// coverage; their full range is returned.
pub fn median_interval(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // below = P(Binomial(n, 1/2) < k + 1), term = P(= k + 1), at k = 0.
    let mut below = 0.5f64.powi(n as i32);
    let mut term = below * n as f64;
    let mut k = 1;
    while k < n / 2 && below + term <= 0.05 {
        below += term;
        term *= (n - k) as f64 / (k + 1) as f64;
        k += 1;
    }
    (v[k - 1], v[n - k])
}

/// How the pairs of one metric on one workload read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pairs {
    /// Pairs in which B read better than A.
    pub better: usize,
    /// Pairs in which B read worse.
    pub worse: usize,
    /// [`median_interval`] of the shares by which B was worse.
    pub interval: (f64, f64),
}

/// The verdict for one metric on one workload from `shares`: by what
/// share of its A run each pair's B run is worse (negative: better).
///
/// The median share decides, against `bound`. A difference beyond the
/// bound is only called when B is on that side of A in at least nine of
/// ten pairs, ties counting for neither; a difference within it is only
/// called `unchanged` when the whole [`median_interval`] lies within the
/// bound, on both sides. Anything else is `unresolved` — and more pairs
/// resolve it.
pub fn paired_verdict(shares: &[f64], bound: f64) -> (Verdict, Pairs) {
    let pairs = Pairs {
        better: shares.iter().filter(|&&s| s < 0.0).count(),
        worse: shares.iter().filter(|&&s| s > 0.0).count(),
        interval: median_interval(shares),
    };
    let decisive = |k: usize| k > 0 && k * 10 >= (pairs.better + pairs.worse) * 9;
    let w = median(shares);
    let (lo, hi) = pairs.interval;
    let verdict = if w > bound && decisive(pairs.worse) {
        Verdict::Regressed
    } else if w < -bound && decisive(pairs.better) {
        Verdict::Improved
    } else if -bound <= lo && hi <= bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    };
    (verdict, pairs)
}

/// One set of runs: end-to-end values by (workload, metric), each with
/// the seed of the run it came from, and the failure count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSet {
    /// (workload, metric) → (seed, value) per run, in file order.
    pub values: BTreeMap<(String, String), Vec<(u64, f64)>>,
    /// (workload, metric) → per run, what each of its set-ups or
    /// repetitions alone read, for the metrics whose records say.
    pub steps: BTreeMap<(String, String), Vec<Vec<f64>>>,
    /// Σ attempted over the runs.
    pub attempted: u64,
    /// Σ failed over the runs.
    pub failed: u64,
}

impl RunSet {
    /// Parses a results file; untraced records only. `Err` names the
    /// first malformed line.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = JsonValue::parse(line).ok_or_else(|| bad("not JSON"))?;
            let field = |k: &str| v.get(k).ok_or_else(|| bad(&format!("no `{k}`")));
            if field("trace")?.as_u64() != Some(0) {
                continue;
            }
            let workload = field("workload")?.as_str().ok_or_else(|| bad("workload"))?;
            let seed = field("seed")?.as_u64().ok_or_else(|| bad("seed"))?;
            set.attempted += field("attempted")?
                .as_u64()
                .ok_or_else(|| bad("attempted"))?;
            set.failed += field("failed")?.as_u64().ok_or_else(|| bad("failed"))?;
            for (name, m) in field("metrics")?.as_obj().ok_or_else(|| bad("metrics"))? {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| bad("metric without a value"))?;
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, value));
            }
            let steps = v.get("steps").and_then(JsonValue::as_obj).unwrap_or(&[]);
            for (name, readings) in steps {
                let readings: Option<Vec<f64>> = readings
                    .as_arr()
                    .and_then(|r| r.iter().map(JsonValue::as_f64).collect());
                set.steps
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(readings.ok_or_else(|| bad("steps"))?);
            }
        }
        Ok(set)
    }

    /// Runs of the workload with the fewest.
    pub fn fewest_runs(&self) -> usize {
        self.values.values().map(Vec::len).min().unwrap_or(0)
    }

    fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// Median of set A.
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// Share by which B is worse (negative: better).
    pub worse_by: f64,
    /// The bound applied: the metric's own, or its paired one.
    pub bound: f64,
    /// Paired comparisons: how the pairs read.
    pub pairs: Option<Pairs>,
    /// The verdict.
    pub verdict: Verdict,
    /// For a metric that repeats per seed: whether every seed present
    /// in both sets read bit-identically.
    pub identical_per_seed: Option<bool>,
}

/// A whole comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// One row per (workload, metric) present in both sets.
    pub rows: Vec<Row>,
    /// Whether B failed a larger share of its checks than A.
    pub more_failures: bool,
}

/// Compares two sets, pooled or — when run i of a workload in A and in
/// B were made back to back with one seed — paired. `Err` when `paired`
/// is asked of sets that do not pair up.
pub fn compare(a: &RunSet, b: &RunSet, paired: bool) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    for workload in NAMES {
        for m in &END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(ra), Some(rb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let va: Vec<f64> = ra.iter().map(|r| r.1).collect();
            let vb: Vec<f64> = rb.iter().map(|r| r.1).collect();
            let identical_per_seed = m.det.then(|| {
                ra.iter().all(|(seed, x)| {
                    rb.iter()
                        .filter(|(s, _)| s == seed)
                        .all(|(_, y)| x.to_bits() == y.to_bits())
                })
            });
            let (worse_by, bound, verdict, pairs) = if paired {
                if ra.len() != rb.len() || ra.iter().zip(rb).any(|(x, y)| x.0 != y.0) {
                    return Err(format!(
                        "{workload}: run i of A and of B must share a seed to be paired"
                    ));
                }
                // Two lockstep runs took turns step by step, so each
                // of their set-ups and repetitions is a pair of its
                // own, made seconds apart.
                let share = |(&x, &y): (&f64, &f64)| worse_share(x, y, m.better);
                let shares: Vec<f64> = match (a.steps.get(&key), b.steps.get(&key)) {
                    (Some(sa), Some(sb)) if sa.len() == ra.len() && sb.len() == rb.len() => sa
                        .iter()
                        .zip(sb)
                        .flat_map(|(x, y)| x.iter().zip(y))
                        .map(share)
                        .collect(),
                    _ => va.iter().zip(&vb).map(share).collect(),
                };
                let (verdict, pairs) = paired_verdict(&shares, m.paired_bound);
                (median(&shares), m.paired_bound, verdict, Some(pairs))
            } else {
                (
                    worse_by(&va, &vb, m.better),
                    m.bound,
                    verdict(&va, &vb, m.better, m.bound),
                    None,
                )
            };
            rows.push(Row {
                workload,
                metric: m.name,
                a: median(&va),
                b: median(&vb),
                worse_by,
                bound,
                pairs,
                verdict,
                identical_per_seed,
            });
        }
    }
    Ok(Comparison {
        rows,
        more_failures: b.failed_share() > a.failed_share(),
    })
}

impl Comparison {
    /// Whether a change from A to B must be rejected: a regression, or a
    /// larger share of failed checks.
    pub fn rejects(&self) -> bool {
        self.more_failures || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// What two sets of the *same* build say about the benchmark:
    /// `Some(true)` when every metric is unchanged and every
    /// per-seed-repeating metric bit-identical; `Some(false)` when the
    /// benchmark reported a difference that cannot exist (a metric
    /// improved or regressed, a deterministic one differed, more checks
    /// failed); `None` when the only blemish is `unresolved` rows — the
    /// machine was too noisy during these runs to tell, so run again.
    pub fn same_build_agrees(&self) -> Option<bool> {
        let wrong = self.more_failures
            || self.rows.is_empty()
            || self.rows.iter().any(|r| {
                matches!(r.verdict, Verdict::Improved | Verdict::Regressed)
                    || r.identical_per_seed == Some(false)
            });
        if wrong {
            Some(false)
        } else if self.rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
            None
        } else {
            Some(true)
        }
    }

    /// The comparison as a table.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<16} {:<30} {:>16} {:>16} {:>9} {:>7}  {}\n",
            "workload", "metric", "median A", "median B", "worse by", "bound", "verdict"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<16} {:<30} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%  {}{}{}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.word(),
                match r.pairs {
                    Some(p) if r.identical_per_seed.is_none() => format!(
                        " (B better in {}, worse in {} pairs; median within {:+.1}% to {:+.1}%)",
                        p.better,
                        p.worse,
                        p.interval.0 * 100.0,
                        p.interval.1 * 100.0
                    ),
                    _ => String::new(),
                },
                match r.identical_per_seed {
                    Some(true) => " (identical per seed)",
                    Some(false) => " (DIFFERS for one seed)",
                    None => "",
                }
            );
        }
        if self.more_failures {
            s.push_str("B failed a larger share of its checks than A\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&a, &[102.0, 103.0, 101.0], Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Lower, 0.10),
            Verdict::Improved
        );
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Higher, 0.10),
            Verdict::Regressed
        );
        // Exactly at the bound is still unchanged.
        assert_eq!(verdict(&[100.0], &[110.0], Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn noisy_overlapping_sets_are_unresolved() {
        // Spread 30 % of the median against a 10 % bound, runs overlap:
        // neither a 15 % worse nor an equal median can be called.
        let a = [90.0, 100.0, 120.0];
        assert_eq!(
            verdict(&a, &[95.0, 115.0, 125.0], Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &[91.0, 100.0, 119.0], Lower, 0.10),
            Verdict::Unresolved
        );
        // Just as noisy, but every run of B beats every run of A.
        assert_eq!(
            verdict(&a, &[60.0, 70.0, 80.0], Lower, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &[130.0, 150.0, 170.0], Lower, 0.10),
            Verdict::Regressed
        );
        // Overlap alone does not matter while the sets are tight.
        assert_eq!(
            verdict(&[100.0, 101.0, 102.0], &[101.0, 102.0, 103.0], Lower, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_uses_quartiles_from_four_runs() {
        assert_eq!(spread_share(&[10.0]), 0.0);
        assert!((spread_share(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        // One outlier among ten barely moves the interquartile distance.
        let mut v = vec![100.0; 9];
        v.push(1000.0);
        assert_eq!(spread_share(&v), 0.0);
    }

    #[test]
    fn median_interval_narrows_with_pairs() {
        let first = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // (n, k): the k-th smallest to the k-th largest.
        for (n, k) in [
            (1, 1),
            (4, 1),
            (5, 1),
            (7, 1),
            (8, 2),
            (10, 2),
            (11, 3),
            (20, 6),
        ] {
            assert_eq!(
                median_interval(&first(n)),
                (k as f64, (n + 1 - k) as f64),
                "{n} values"
            );
        }
    }

    #[test]
    fn paired_verdicts_need_the_median_and_the_sign_test() {
        let v = |shares: &[f64], bound| paired_verdict(shares, bound).0;
        // Every pair within the bound: unchanged.
        assert_eq!(
            v(&[0.02, -0.03, 0.01, -0.01, 0.04], 0.10),
            Verdict::Unchanged
        );
        // Beyond the bound in every pair: called.
        assert_eq!(v(&[0.15, 0.22, 0.18, 0.12, 0.30], 0.10), Verdict::Regressed);
        assert_eq!(
            v(&[-0.15, -0.22, -0.18, -0.12, -0.30], 0.10),
            Verdict::Improved
        );
        // Median beyond the bound, but one pair of five says otherwise:
        // four of five is short of nine in ten.
        assert_eq!(
            v(&[0.15, 0.22, -0.02, 0.12, 0.30], 0.10),
            Verdict::Unresolved
        );
        // Ties count for neither side: nine of nine decided pairs.
        let mut nine = vec![0.2; 9];
        nine.push(0.0);
        assert_eq!(v(&nine, 0.10), Verdict::Regressed);
        // Median within the bound, one stray pair: five pairs cannot
        // tell, ten can.
        let stray = [0.25, -0.02, 0.01, 0.03, -0.04];
        assert_eq!(v(&stray, 0.10), Verdict::Unresolved);
        let ten: Vec<f64> = stray
            .iter()
            .chain(&[0.02, -0.01, 0.0, 0.05, -0.03])
            .copied()
            .collect();
        let (verdict, pairs) = paired_verdict(&ten, 0.10);
        assert_eq!(verdict, Verdict::Unchanged);
        assert_eq!(
            (pairs.better, pairs.worse, pairs.interval),
            (4, 5, (-0.03, 0.05))
        );
        // Deterministic metrics: equal everywhere.
        assert_eq!(v(&[0.0; 5], 0.01), Verdict::Unchanged);
    }

    #[test]
    fn steady_drift_cancels_in_alternating_pairs_only() {
        // One build on a machine that speeds up 5 % with every run, ten
        // runs in the order aa.sh makes them: A B, B A, A B, B A, A B.
        let speed = |k: usize| 200_000.0 * 1.05f64.powi(k as i32);
        let (mut a, mut b) = (String::new(), String::new());
        for pass in 0..5 {
            let (ka, kb) = if pass % 2 == 0 {
                (2 * pass, 2 * pass + 1)
            } else {
                (2 * pass + 1, 2 * pass)
            };
            a += &record("dense_fifo", 1, 0, &[("deliveries_per_s", speed(ka))]);
            b += &record("dense_fifo", 1, 0, &[("deliveries_per_s", speed(kb))]);
        }
        let (a, b) = (RunSet::parse(&a).unwrap(), RunSet::parse(&b).unwrap());
        let paired = compare(&a, &b, true).unwrap();
        assert_eq!(paired.rows[0].verdict, Verdict::Unchanged);
        let pairs = paired.rows[0].pairs.expect("paired");
        assert_eq!((pairs.better, pairs.worse), (3, 2));
        assert_eq!(paired.rows[0].bound, 0.10);
        assert_eq!(paired.same_build_agrees(), Some(true));
        // The pooled values span 55 %: nothing can be read from them.
        let pooled = compare(&a, &b, false).unwrap();
        assert_eq!(pooled.rows[0].verdict, Verdict::Unresolved);

        // Sets that do not pair up are refused.
        let other_seed =
            RunSet::parse(&record("dense_fifo", 2, 0, &[("deliveries_per_s", 1.0)])).unwrap();
        assert!(compare(&other_seed, &b, true).is_err());
        assert_eq!(a.fewest_runs(), 5);
    }

    #[test]
    fn lockstep_runs_pair_step_by_step() {
        let run = |setups: [f64; 3]| {
            let line = record("dense_fifo", 1, 0, &[("setup_s", setups[1])]);
            let [a, b, c] = setups;
            line.replace(
                "}}\n",
                &format!("}}, \"steps\": {{\"setup_s\": [{a}, {b}, {c}]}}}}\n"),
            )
        };
        let a = run([2.0, 2.0, 2.0]) + &run([3.0, 3.0, 3.0]);
        let b = run([2.02, 1.98, 2.0]) + &run([3.03, 2.97, 3.0]);
        let (a, b) = (RunSet::parse(&a).unwrap(), RunSet::parse(&b).unwrap());
        assert_eq!(a.steps.values().next().unwrap().len(), 2);
        // Two runs a side, but six pairs: every set-up is one.
        let c = compare(&a, &b, true).unwrap();
        let pairs = c.rows[0].pairs.expect("paired");
        assert_eq!((pairs.better, pairs.worse), (2, 2));
        assert!((pairs.interval.1 - 0.01).abs() < 1e-9, "{pairs:?}");
        assert_eq!(c.rows[0].verdict, Verdict::Unchanged);
    }

    fn record(workload: &str, seed: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
        let m: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
            failed == 0,
            m.join(", ")
        )
    }

    #[test]
    fn whole_comparison_from_result_files() {
        let a = record(
            "dense_fifo",
            1,
            0,
            &[("deliveries_per_s", 300.0), ("vlat_p50_ms", 1.5)],
        ) + &record(
            "dense_fifo",
            2,
            0,
            &[("deliveries_per_s", 310.0), ("vlat_p50_ms", 1.51)],
        );
        let same = compare(
            &RunSet::parse(&a).unwrap(),
            &RunSet::parse(&a).unwrap(),
            false,
        )
        .unwrap();
        assert_eq!(same.rows.len(), 2);
        assert!(same.same_build_agrees() == Some(true) && !same.rejects());

        // Throughput down by a third: regressed. Latency differs for
        // seed 2 only in the last digit: within bounds, not identical.
        let b = record(
            "dense_fifo",
            1,
            0,
            &[("deliveries_per_s", 200.0), ("vlat_p50_ms", 1.5)],
        ) + &record(
            "dense_fifo",
            2,
            0,
            &[("deliveries_per_s", 205.0), ("vlat_p50_ms", 1.5101)],
        );
        let c = compare(
            &RunSet::parse(&a).unwrap(),
            &RunSet::parse(&b).unwrap(),
            false,
        )
        .unwrap();
        let row = |m: &str| c.rows.iter().find(|r| r.metric == m).unwrap().clone();
        assert_eq!(row("deliveries_per_s").verdict, Verdict::Regressed);
        assert_eq!(row("vlat_p50_ms").verdict, Verdict::Unchanged);
        assert_eq!(row("vlat_p50_ms").identical_per_seed, Some(false));
        assert_eq!(row("deliveries_per_s").identical_per_seed, None);
        assert!(c.rejects() && c.same_build_agrees() == Some(false));
        assert!(c.table().contains("regressed"));

        // Noisy sets of one build: no false verdict, but no verdict either.
        let wide = |scale: f64| {
            record("dense_fifo", 1, 0, &[("deliveries_per_s", 200.0 * scale)])
                + &record("dense_fifo", 1, 0, &[("deliveries_per_s", 300.0 * scale)])
                + &record("dense_fifo", 1, 0, &[("deliveries_per_s", 260.0 * scale)])
        };
        let c = compare(
            &RunSet::parse(&wide(1.0)).unwrap(),
            &RunSet::parse(&wide(1.05)).unwrap(),
            false,
        )
        .unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert_eq!(c.same_build_agrees(), None);
        assert!(!c.rejects());

        // Same numbers but B fails checks: rejected on failures alone.
        let failing = record("dense_fifo", 1, 3, &[("deliveries_per_s", 300.0)]);
        let c = compare(
            &RunSet::parse(&a).unwrap(),
            &RunSet::parse(&failing).unwrap(),
            false,
        )
        .unwrap();
        assert!(c.more_failures && c.rejects());

        // Traced records are skipped; malformed lines are reported.
        let traced = a.replace("\"trace\": 0", "\"trace\": 1");
        assert!(RunSet::parse(&traced).unwrap().values.is_empty());
        assert!(RunSet::parse("{nope").unwrap_err().contains("line 1"));
    }
}
