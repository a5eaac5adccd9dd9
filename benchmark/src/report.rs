//! Turning a run into its report: the end-to-end metric values, the
//! human-readable listing, the one-line JSON result, and the record
//! appended to a results file for `compare`.

use crate::catalogue::{END_TO_END, PER_LAYER, RSS_CEILING_MB};
use crate::measure::{peak_rss_mb, Measured, SETUPS};
use crate::outcome::{median, quantile_sorted};
use crate::trace::Aggregate;
use simnet::json::escape;
use std::fmt::Write as _;

/// A finished run, ready to print.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// (name, value, unit) of every metric, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra lines for the human-readable listing.
    pub notes: Vec<String>,
    /// What a wall-clock metric would read from each set-up or each
    /// repetition alone, in the order they ran: the pairs a paired
    /// comparison of two lockstep runs is made of.
    pub steps: Vec<(&'static str, Vec<f64>)>,
}

/// The end-to-end report of an untraced run. Reads peak RSS now, so
/// call it last.
pub fn end_to_end(m: &Measured) -> Report {
    let o = &m.outcome;
    let setups: Vec<f64> = m.setups.iter().map(|d| d.as_secs_f64()).collect();
    let walls: Vec<f64> = m.walls.iter().map(|d| d.as_secs_f64()).collect();
    let rep_s = median(&walls);
    let quiet_s = m.quiet.as_secs_f64();
    let rss = peak_rss_mb();
    // chaos_vsync reads its 99th percentile over calm campaigns only.
    let tail_of = if o.calm_latencies_us.is_empty() {
        &o.latencies_us
    } else {
        &o.calm_latencies_us
    };
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "deliveries_per_s" => o.deliveries as f64 / quiet_s,
        "vlat_p50_ms" => f64::from(quantile_sorted(&o.latencies_us, 0.50)) / 1000.0,
        "vlat_p99_ms" => f64::from(quantile_sorted(tail_of, 0.99)) / 1000.0,
        "ordering_bytes_per_multicast" => o.ordering_bytes as f64 / o.multicasts as f64,
        "wire_msgs_per_multicast" => o.wire_msgs as f64 / o.multicasts as f64,
        "peak_rss_mb" => rss,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    // Besides the workload's own checks: every warm-up and repetition
    // must be the same run, and memory must stay under the ceiling.
    let attempted = o.attempted + (SETUPS + walls.len()) as u64 + 1;
    let failed = o.failed + m.mismatched + u64::from(rss > RSS_CEILING_MB);
    let samples = o.latencies_us.len();
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|e| (e.name, value(e.name), e.unit))
            .collect(),
        steps: vec![
            ("setup_s", setups.clone()),
            (
                "deliveries_per_s",
                walls.iter().map(|w| o.deliveries as f64 / w).collect(),
            ),
        ],
        notes: vec![
            format!(
                "repetitions: {} timed, wall {:?} s, median {:.4} s, quiet {:.4} s; set-ups {:?} s",
                walls.len(),
                walls
                    .iter()
                    .map(|w| (w * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
                rep_s,
                quiet_s,
                setups
                    .iter()
                    .map(|w| (w * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
            ),
            format!(
                "deliveries {} multicasts {} events {} digest {:016x} on-CPU {:.3}",
                o.deliveries, o.multicasts, o.events, o.digest, m.oncpu_share
            ),
            format!(
                "latency samples {samples}; p99 over {}, {} beyond it",
                tail_of.len(),
                tail_of.len() - (0.99 * tail_of.len() as f64).ceil() as usize
            ),
        ],
    }
}

/// The per-layer report of a traced run.
pub fn per_layer(run: &crate::layers::TracedRun) -> Report {
    Report {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics: run
            .metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|(&(name, value), p)| {
                debug_assert_eq!(name, p.name);
                (name, value, p.unit)
            })
            .collect(),
        notes: run
            .spans
            .iter()
            .map(|a| {
                format!(
                    "span {:<24} parent {:<18} calls {:>9} total {:>13} ns self {:>13} ns",
                    a.name,
                    a.parent.unwrap_or("-"),
                    a.calls,
                    a.total_ns,
                    a.self_ns
                )
            })
            .collect(),
        steps: Vec::new(),
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// Every metric by name with its unit, one per line, then the notes.
    pub fn listing(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("# {workload} seed {seed}\n");
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "{name:<44} {value:>18.6} {unit}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        let _ = writeln!(s, "# attempted {} failed {}", self.attempted, self.failed);
        s
    }

    fn metrics_json(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    number(*value),
                    escape(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The same result tagged with what produced it, and with the
    /// per-step readings, for results files.
    pub fn record_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|&v| number(v)).collect();
                format!("\"{}\": [{}]", escape(name), values.join(", "))
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"steps\": {{{}}}}}",
            escape(workload),
            seed,
            u8::from(trace),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(),
            steps.join(", ")
        )
    }
}

/// The trace file: per-name span aggregates of the traced repetition.
pub fn trace_file(workload: &str, seed: u64, spans: &[Aggregate]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|a| {
            format!(
                "    {{\"name\": \"{}\", \"parent\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                escape(a.name),
                a.parent
                    .map_or("null".to_string(), |p| format!("\"{}\"", escape(p))),
                a.calls,
                a.total_ns,
                a.self_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"spans\": [\n{}\n  ]\n}}\n",
        escape(workload),
        seed,
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::json::JsonValue;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 1.25, "s"), ("deliveries_per_s", 3e5, "1/s")],
            notes: vec![],
            steps: vec![("setup_s", vec![1.5, 1.25, 1.0])],
        };
        let v = JsonValue::parse(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let rec = JsonValue::parse(&r.record_line("dense_fifo", 7, false)).expect("valid JSON");
        assert_eq!(rec.get("workload").unwrap().as_str(), Some("dense_fifo"));
        assert_eq!(rec.get("seed").unwrap().as_u64(), Some(7));
        let steps = rec.get("steps").unwrap().get("setup_s").unwrap();
        assert_eq!(steps.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let spans = vec![
            Aggregate {
                name: "simnet.run_until",
                parent: None,
                calls: 1,
                total_ns: 100,
                self_ns: 40,
            },
            Aggregate {
                name: "harness.on_message",
                parent: Some("simnet.run_until"),
                calls: 3,
                total_ns: 60,
                self_ns: 60,
            },
        ];
        let v = JsonValue::parse(&trace_file("dense_fifo", 1, &spans)).expect("valid JSON");
        assert_eq!(v.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
