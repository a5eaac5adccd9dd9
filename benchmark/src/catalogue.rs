//! The one catalogue of workloads and metrics. `BENCHMARK.json` and the
//! tables in `README.md` are generated from it (`catocs-benchmark
//! catalogue --json | --markdown`) and test-checked against it, and the
//! result printer and `compare` read names, units, directions and bounds
//! from here — nowhere else.

use crate::workload::{Scale, Workload};
use std::fmt::Write;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its permanent name, the one-line reason it exists (with
/// its rate and size), and what it is built to show.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadInfo {
    /// Permanent name.
    pub name: &'static str,
    /// One line: size, offered load, and why it was chosen. `{names}`
    /// stand for the sizes and rates the workload is generated with;
    /// [`WorkloadInfo::why`] fills them in.
    pub why: &'static str,
    /// Layers that do most of its work.
    pub stresses: &'static str,
    /// Layers it bypasses: a change there must show no change here.
    pub bypasses: &'static str,
}

impl WorkloadInfo {
    /// The `why` line with its sizes and rates read from what
    /// [`Workload::generate`] builds at [`Scale::FULL`], so the text in
    /// `BENCHMARK.json` cannot drift from the code.
    pub fn why(&self) -> String {
        let s = Scale::FULL;
        let mut vars = vec![
            ("{sparse_n}", s.sparse_n as f64),
            ("{sparse_senders}", s.sparse_senders as f64),
            ("{sparse_total}", s.sparse_total as f64),
            ("{sparse_observers}", s.sparse_observers as f64),
            ("{chaos_campaigns}", s.chaos_campaigns as f64),
            ("{chaos_pool}", crate::chaos::CLEAN_POOL as f64),
        ];
        match Workload::generate(self.name, 0, &s) {
            Some(Workload::Dense(d)) => vars.extend([
                ("{n}", d.n as f64),
                ("{each}", f64::from(d.per_member)),
                ("{period_ms}", d.period.as_millis_f64()),
                ("{loss_pct}", d.loss * 100.0),
            ]),
            Some(Workload::Chaos(c)) => vars.extend([
                ("{n}", c.cfg.n as f64),
                ("{period_ms}", c.cfg.app_every.as_millis_f64()),
            ]),
            _ => {}
        }
        vars.iter().fold(self.why.to_string(), |text, (key, v)| {
            text.replace(key, &format!("{}", (v * 1e6).round() / 1e6))
        })
    }
}

/// An end-to-end metric, reported by every workload.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before the
    /// change is a regression, judged on single runs with a seed each —
    /// what `BENCHMARK.json` states and the driver applies. It has to
    /// cover what varies between such runs: the machine, and for the
    /// metrics that repeat per seed, the seed.
    pub bound: f64,
    /// The same, judged on pairs of runs of one seed made back to back
    /// (`compare --paired`), where both of those cancel: ISSUE 12's
    /// bound.
    pub paired_bound: f64,
    /// Whether it repeats bit for bit for one seed (virtual time and
    /// counts do, wall clock and memory do not).
    pub det: bool,
    /// Definition.
    pub doc: &'static str,
}

/// A per-layer metric, reported by the traced run.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Name; the part before the first dot is the layer (module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether it repeats bit for bit for one seed.
    pub det: bool,
    /// The end-to-end metric it should move, written before measuring.
    pub moves: &'static str,
    /// Definition.
    pub doc: &'static str,
}

/// The benchmark's command, as `BENCHMARK.json` states it.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Nominal measured seconds per run: the timed repetitions together.
/// Five two-second repetitions; the build box at its slowest takes half
/// as long again, and 114 runs must still fit the driver's 3420 s.
pub const RUN_SECONDS: u64 = 10;

use Better::{Higher, Lower};

/// The five workloads.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "dense_fifo",
        why: "N={n}, open loop: each member multicasts every {period_ms} virtual ms, {each} each, {loss_pct}% loss, FIFO only; no clocks or holdback, so simnet dispatch and harness glue dominate: the baseline",
        stresses: "simnet, harness, fbcast endpoint, repair",
        bypasses: "clocks, holdback, stability, membership",
    },
    WorkloadInfo {
        name: "dense_cbcast",
        why: "same {n}-member open-loop group, {each} each, causal cbcast: {n}-wide vector clocks merged, compared and cloned per recipient, matrix-clock stability and NACK repair dominate",
        stresses: "clocks, cbcast endpoint, stability, wire, repair",
        bypasses: "membership, pccast",
    },
    WorkloadInfo {
        name: "dense_pccast",
        why: "same {n}-member open-loop group, {each} each, {loss_pct}% loss, constant-metadata pccast: ring overlay, link ARQ, most events per delivery; shows a gain bought for cbcast at pccast's expense",
        stresses: "pccast endpoint, wire, simnet, harness",
        bypasses: "vector-clock wire stamps, membership",
    },
    WorkloadInfo {
        name: "reversed_sparse",
        why: "no simnet: N={sparse_n}, {sparse_senders} senders chained round-robin ({sparse_total} msgs, delta stamps), {sparse_observers} observers each fed the stream reversed; holdback, delta decode/parking and O(N) clock ops do all the work",
        stresses: "holdback, clocks (delta, wide), cbcast endpoint, repair",
        bypasses: "simnet, harness, membership",
    },
    WorkloadInfo {
        name: "chaos_vsync",
        why: "{chaos_campaigns} of {chaos_pool} fault campaigns, one per fault-load cell, drawn by the seed (N={n}; crashes, partitions, loss bursts; a multicast a member every {period_ms} virtual ms) via vsync::run_campaign + checker: view changes",
        stresses: "membership, failure, vsync checker, obs (ledger, waitgraph), simnet",
        bypasses: "wide clocks, deep holdback",
    },
];

/// The seven end-to-end metrics.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        paired_bound: 0.10,
        det: false,
        doc: "median of 3 set-ups, each: generate inputs from the seed, build everything, run one full warm-up repetition and check it (the first is timed from process start)",
    },
    EndToEnd {
        name: "deliveries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        paired_bound: 0.10,
        det: false,
        doc: "application deliveries in one repetition / its quiet wall time (the work is timed in 29 to 80 fixed parts; each part's fastest reading over the repetitions, summed), tracing, probes and allocation counting off",
    },
    EndToEnd {
        name: "vlat_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        paired_bound: 0.01,
        det: true,
        doc: "median virtual send-to-deliver latency over all remote deliveries (residence at the observer on reversed_sparse)",
    },
    EndToEnd {
        name: "vlat_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
        paired_bound: 0.01,
        det: true,
        doc: "99th percentile of the same latencies, the sample count printed with it; on chaos_vsync over the calmer half of the campaigns (those whose own 99th percentile is lowest), the others being wedged by a fault",
    },
    EndToEnd {
        name: "ordering_bytes_per_multicast",
        unit: "bytes",
        better: Lower,
        bound: 0.25,
        paired_bound: 0.01,
        det: true,
        doc: "sum over endpoints of data_overhead_bytes + control_bytes / multicasts submitted",
    },
    EndToEnd {
        name: "wire_msgs_per_multicast",
        unit: "count",
        better: Lower,
        bound: 0.12,
        paired_bound: 0.01,
        det: true,
        doc: "point-to-point wire messages sent (data, acks, NACKs, retransmissions, flush) / multicasts submitted",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        paired_bound: 0.10,
        det: false,
        doc: "VmHWM of the benchmark process at exit; hard ceiling 512 MB",
    },
];

/// Hard ceiling on `peak_rss_mb`; a run above it counts as failed.
pub const RSS_CEILING_MB: f64 = 512.0;

macro_rules! per_layer {
    ($($name:literal, $unit:literal, $better:ident, $det:literal, $moves:literal, $doc:literal;)*) => {
        [$(PerLayer { name: $name, unit: $unit, better: $better, det: $det, moves: $moves, doc: $doc }),*]
    };
}

/// The per-layer metrics of the traced run. A row reads 0 on a workload
/// whose layer does not run (or, for `endpoint.*` on chaos_vsync, cannot
/// be replayed stand-alone).
pub const PER_LAYER: [PerLayer; 69] = per_layer![
    "simnet.events", "count", Lower, true, "deliveries_per_s", "scheduler events processed in the repetition";
    "simnet.events_per_delivery", "count", Lower, true, "deliveries_per_s", "scheduler events / application deliveries";
    "simnet.dispatch.self_ns_per_event", "ns", Lower, false, "deliveries_per_s", "run_until span minus handler spans, per event: queue, RNG, latency model, metrics";
    "simnet.dispatch.self_share", "ratio", Lower, false, "deliveries_per_s", "that self time / traced repetition wall";
    "simnet.net.sent", "count", Lower, true, "wire_msgs_per_multicast", "wire messages handed to the network";
    "simnet.net.dropped", "count", Lower, true, "vlat_p99_ms", "wire messages lost to loss or partitions";
    "simnet.net.delivered", "count", Lower, true, "deliveries_per_s", "wire messages that reached a live process";
    "harness.on_message.calls", "count", Lower, true, "deliveries_per_s", "on_message handler calls over every node";
    "harness.on_message.ns_per_op", "ns", Lower, false, "deliveries_per_s", "mean handler span, endpoint time included";
    "harness.on_timer.calls", "count", Lower, true, "deliveries_per_s", "on_timer handler calls over every node";
    "harness.on_timer.ns_per_op", "ns", Lower, false, "deliveries_per_s", "mean handler span, endpoint time included";
    "harness.glue.self_ns_per_event", "ns", Lower, false, "deliveries_per_s", "(handler time - replayed endpoint time scaled by call counts) / handler calls: routing, per-recipient clones, metrics, app";
    "endpoint.multicast.calls", "count", Lower, true, "deliveries_per_s", "multicasts submitted";
    "endpoint.multicast.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::multicast alone (replay; direct spans on reversed_sparse)";
    "endpoint.on_wire.data.calls", "count", Lower, true, "deliveries_per_s", "data messages handled, duplicates and retransmissions included";
    "endpoint.on_wire.data.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::on_wire on a data message";
    "endpoint.on_wire.ack.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::on_wire on ack gossip or a link ack";
    "endpoint.on_wire.nack.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::on_wire on a NACK (serves retransmissions)";
    "endpoint.on_wire.other.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::on_wire on anything else";
    "endpoint.on_tick.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Endpoint::on_tick";
    "endpoint.self_share", "ratio", Lower, false, "deliveries_per_s", "endpoint time (ns/op x group call counts) / untraced repetition wall";
    "endpoint.replay.delivered_match", "count", Higher, true, "deliveries_per_s", "1 when the stand-alone replay (chaos: the mirrored campaigns) delivered exactly what the run did";
    "holdback.insert.ns_per_op", "ns", Lower, false, "deliveries_per_s", "HoldbackQueue::insert, reversed causal chain at the run's peak depth";
    "holdback.pop_ready.ns_per_op", "ns", Lower, false, "deliveries_per_s", "HoldbackQueue::pop_ready + note_delivered draining that chain";
    "holdback.work_per_event", "count", Lower, true, "deliveries_per_s", "holdback structural work / wire events that touched the queue";
    "holdback.peak", "count", Lower, true, "peak_rss_mb", "deepest holdback queue at any endpoint";
    "holdback.held_share", "ratio", Lower, true, "vlat_p50_ms", "deliveries that waited in holdback / deliveries";
    "clocks.vector.merge.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::merge at the run's width and sparsity";
    "clocks.vector.compare.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::compare";
    "clocks.vector.deliverable.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::deliverable";
    "clocks.vector.clone.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::clone";
    "clocks.vector.encode_delta.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::encode_delta, one component changed";
    "clocks.vector.decode_delta.ns_per_op", "ns", Lower, false, "deliveries_per_s", "VectorClock::decode_delta of that delta";
    "clocks.matrix.update_row.ns_per_op", "ns", Lower, false, "deliveries_per_s", "MatrixClock::update_row, rows of the members that send";
    "clocks.matrix.stable_frontier.ns_per_op", "ns", Lower, false, "deliveries_per_s", "MatrixClock::stable_frontier";
    "wire.clone.data.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Wire::clone of a data message stamped as the run stamps them";
    "wire.clone.ack.ns_per_op", "ns", Lower, false, "deliveries_per_s", "Wire::clone of an ack gossip at the run's width";
    "wire.data_overhead_bytes_per_msg", "bytes", Lower, true, "ordering_bytes_per_multicast", "data_overhead_bytes / multicasts";
    "wire.control_bytes_per_multicast", "bytes", Lower, true, "ordering_bytes_per_multicast", "control_bytes / multicasts";
    "wire.delta_share", "ratio", Higher, true, "ordering_bytes_per_multicast", "data messages sent delta-stamped / data messages stamped";
    "stability.update_row.ns_per_op", "ns", Lower, false, "deliveries_per_s", "StabilityTracker::update_row";
    "stability.stable_frontier.ns_per_op", "ns", Lower, false, "deliveries_per_s", "StabilityTracker::stable_frontier";
    "stability.buffered_peak", "count", Lower, true, "peak_rss_mb", "most unstable messages buffered at any endpoint";
    "stability.stabilized", "count", Higher, true, "peak_rss_mb", "messages garbage-collected as stable, over every endpoint";
    "repair.nacks_sent", "count", Lower, true, "wire_msgs_per_multicast", "NACKs sent";
    "repair.retransmits_served", "count", Lower, true, "wire_msgs_per_multicast", "retransmissions served from buffers";
    "repair.duplicates", "count", Lower, true, "wire_msgs_per_multicast", "data messages discarded as duplicates";
    "repair.useful_share", "ratio", Higher, true, "wire_msgs_per_multicast", "1 - duplicates / data messages received";
    "membership.view_changes", "count", Lower, true, "vlat_p99_ms", "views installed beyond the first, summed over nodes and campaigns";
    "membership.flush_msgs", "count", Lower, true, "wire_msgs_per_multicast", "flush-protocol messages sent";
    "membership.flush_retries", "count", Lower, true, "wire_msgs_per_multicast", "flush retransmissions fired by the retry timer";
    "membership.evicted_live", "count", Lower, true, "vlat_p99_ms", "live processes left out of their campaign's final view";
    "membership.blackout_p50_vms", "vms", Lower, true, "vlat_p99_ms", "median over nodes of mean send blackout per view change, virtual ms";
    "membership.blackout_max_vms", "vms", Lower, true, "vlat_p99_ms", "largest such blackout";
    "membership.flush_round.ns_per_op", "ns", Lower, false, "deliveries_per_s", "one crash flushed out of a 5-member group through MembershipEngine's public calls";
    "vsync.campaign.ns_per_event", "ns", Lower, false, "deliveries_per_s", "run_campaign wall / scheduler events, ledger and sampler on";
    "vsync.check.ns_per_log_event", "ns", Lower, false, "deliveries_per_s", "vsync::check wall / process-log entries";
    "vsync.check.share", "ratio", Lower, false, "deliveries_per_s", "vsync::check wall / mirrored campaign wall";
    "obs.ledger.overhead_ratio", "ratio", Lower, false, "deliveries_per_s", "run_campaign_with_opts wall, ledger on / off";
    "obs.probe.overhead_ratio", "ratio", Lower, false, "deliveries_per_s", "same, flight-recorder probe attached / none (ledger off)";
    "alloc.count_per_delivery", "count", Lower, false, "deliveries_per_s", "heap allocations in an untraced repetition / deliveries (counting allocator, traced binary only)";
    "alloc.bytes_per_delivery", "bytes", Lower, false, "peak_rss_mb", "heap bytes requested in that repetition / deliveries";
    "run.reps", "count", Higher, true, "deliveries_per_s", "untraced repetitions timed in the traced run";
    "run.rep_iqr_share", "ratio", Lower, false, "deliveries_per_s", "interquartile distance of their wall times / their median";
    "run.oncpu_share", "ratio", Higher, false, "deliveries_per_s", "on-CPU ns (/proc/self/schedstat) / wall over those repetitions";
    "run.calib_ns_per_iter", "ns", Lower, false, "deliveries_per_s", "fixed spin kernel: tells a slow machine from a slow program";
    "run.setup_first_s", "s", Lower, false, "setup_s", "the first set-up alone, from process start: lazy initialisation and first-touch page faults show here";
    "trace.overhead_ratio", "ratio", Lower, false, "deliveries_per_s", "traced repetition wall / untraced median";
    "trace.residual_share", "ratio", Lower, false, "deliveries_per_s", "|traced wall - spans x calibrated span cost - untraced median| / untraced median: how far the layer rows are from summing to the untraced whole";
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", simnet::json::escape(s))
}

/// `BENCHMARK.json`, exactly as committed.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", COMMAND.map(quoted).join(", "));
    let _ = writeln!(s, "  \"paths\": [{}],", PATHS.map(quoted).join(", "));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(
        s,
        "  \"workloads\": [\n    {}\n  ],",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    quoted(w.name),
                    quoted(&w.why())
                ))
                .collect()
        )
    );
    let _ = writeln!(
        s,
        "  \"end_to_end\": [\n    {}\n  ],",
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.word()),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        s,
        "  \"per_layer\": [\n    {}\n  ]",
        list(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.word())
                ))
                .collect()
        )
    );
    s.push_str("}\n");
    s
}

/// The README's generated section: workloads, end-to-end metrics,
/// per-layer metrics, and the interaction table derived from `moves`.
pub fn markdown() -> String {
    let mut s = String::new();
    s.push_str("### Workloads\n\n| name | why | layers that do the work | layers bypassed |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} |",
            w.name,
            w.why(),
            w.stresses,
            w.bypasses
        );
    }
    s.push_str("\n### End-to-end metrics\n\n| name | unit | better | bound | paired bound | repeats per seed | definition |\n|---|---|---|---|---|---|---|\n");
    for m in &END_TO_END {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {:.0} % | {:.0} % | {} | {} |",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.paired_bound * 100.0,
            if m.det { "yes" } else { "no" },
            m.doc
        );
    }
    s.push_str("\n### Per-layer metrics (traced run)\n\n| name | unit | better | repeats per seed | should move | definition |\n|---|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | `{}` | {} |",
            m.name,
            m.unit,
            m.better.word(),
            if m.det { "yes" } else { "no" },
            m.moves,
            m.doc
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::json::JsonValue;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        let first_ok = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            let why = w.why();
            assert!(
                why.len() <= 200 && !why.contains(['\n', '{']),
                "{}: {why}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.paired_bound > 0.0 && m.paired_bound <= m.bound,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(
                end_to_end(m.moves).is_some(),
                "{} moves {}",
                m.name,
                m.moves
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert_eq!(
            crate::workload::NAMES.to_vec(),
            WORKLOADS.map(|w| w.name).to_vec()
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let generated = benchmark_json();
        let parsed = JsonValue::parse(&generated).expect("generated JSON parses");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(generated.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed, generated,
            "regenerate with `catocs-benchmark catalogue --json`"
        );
    }

    #[test]
    fn readme_carries_the_generated_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        let begin = "<!-- catalogue:begin -->\n";
        let end = "<!-- catalogue:end -->";
        let from = readme.find(begin).expect("begin marker") + begin.len();
        let to = readme.find(end).expect("end marker");
        assert_eq!(
            &readme[from..to],
            markdown(),
            "regenerate with `catocs-benchmark catalogue --markdown`"
        );
    }
}
