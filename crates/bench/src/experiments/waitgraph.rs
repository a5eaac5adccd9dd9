//! `experiments waitgraph` — ranked stall report from the live
//! wait-graph analytics.
//!
//! Re-runs one chaos seed (optionally with an injected bug knob, in
//! either causal discipline) and prints the wait-graph analysis sampled
//! on the 50 ms telemetry cadence: every candidate stall — a genuine
//! wait cycle or a wedge head the rest of the graph drains into — ranked
//! by severity (worst wait age × blocked descendants × processes
//! involved × persistence), each with a representative path through the
//! graph. `--at MS` selects the snapshot at or before that virtual time;
//! the default is the final snapshot at the horizon.

use crate::experiments::replay::Replay;
use simnet::time::SimTime;
use std::fmt::Write as _;

/// Builds the report for one replay; `replay.at` picks the snapshot.
pub fn run(replay: &Replay) -> String {
    let r = replay.run();
    let mut out = String::new();
    let _ = writeln!(out, "WAITGRAPH — {replay}");
    if !r.violations.is_empty() {
        let _ = writeln!(out, "violations: {}", r.violations.len());
    }
    let Some((idx, (at, snap))) = (match replay.at {
        Some(ms) => {
            let want = SimTime::from_millis(ms);
            r.stall_timeline
                .iter()
                .enumerate()
                .take_while(|(_, (t, _))| *t <= want)
                .last()
                .or_else(|| r.stall_timeline.iter().enumerate().next())
        }
        None => r.stall_timeline.iter().enumerate().next_back(),
    }) else {
        let _ = writeln!(out, "no wait-graph snapshots were taken (empty run)");
        return out;
    };
    let _ = writeln!(
        out,
        "snapshot {}/{} at {} ms: {} stall candidate(s), max wait age {} ms, worst cycle {} node(s)",
        idx + 1,
        r.stall_timeline.len(),
        at.as_micros() / 1000,
        snap.stalls.len(),
        snap.max_age.as_millis_f64(),
        snap.worst_scc_size
    );
    if snap.stalls.is_empty() {
        let _ = writeln!(out, "no stalls: every blocked wait is draining");
        return out;
    }
    for (i, s) in snap.stalls.iter().enumerate() {
        let _ = writeln!(out, "#{} {}", i + 1, s.summary());
        let _ = writeln!(out, "   path: {}", s.render_path());
    }
    let persistent = snap.persistent().count();
    let _ = writeln!(
        out,
        "{persistent} persistent (seen on {}+ consecutive snapshots), {} transient",
        catocs::waitgraph::PERSIST_SNAPSHOTS,
        snap.stalls.len() - persistent
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::replay::replay_of;

    /// What `experiments waitgraph ARGS` prints.
    fn waitgraph(args: &str) -> String {
        run(&replay_of("waitgraph", args))
    }

    /// The acceptance scenario: the injected wedged flush must surface
    /// as the top-ranked stall, with a path naming the flush phase of
    /// the suspected coordinator.
    #[test]
    fn wedged_flush_ranks_the_flush_cycle_first() {
        let out = waitgraph("--seed 8 --bug no-flush-retry");
        let first = out
            .lines()
            .find(|l| l.starts_with("#1 "))
            .expect("a ranked stall");
        assert!(first.contains("cycle"), "{out}");
        let path = out
            .lines()
            .find(|l| l.trim_start().starts_with("path:"))
            .expect("a rendered path");
        assert!(path.contains("flush@P"), "{out}");
    }

    /// Clean campaigns can end with persistent *wedges* (a
    /// partition-blocked run chases messages that will never arrive) but
    /// never a genuine wait cycle.
    #[test]
    fn clean_seed_reports_no_wait_cycle() {
        let out = waitgraph("--seed 0");
        assert!(out.contains("worst cycle 0 node(s)"), "{out}");
        assert!(!out.contains("cycle ["), "{out}");
    }

    #[test]
    fn at_selects_an_earlier_snapshot() {
        let early = waitgraph("--seed 8 --bug no-flush-retry --at 0");
        assert!(early.contains("snapshot 1/"), "{early}");
        let late = waitgraph("--seed 8 --bug no-flush-retry");
        assert_ne!(early, late);
    }

    #[test]
    fn output_is_deterministic_across_reruns() {
        let wedged = "--seed 8 --bug no-flush-retry";
        assert_eq!(waitgraph(wedged), waitgraph(wedged));
    }

    #[test]
    fn pccast_discipline_is_covered() {
        let out = waitgraph("--seed 1 --discipline pccast");
        assert!(out.contains("(pccast)"), "{out}");
        assert!(out.contains("snapshot "), "{out}");
    }
}
