//! Chaos — deterministic fault-injection campaigns over the
//! virtual-synchrony stack (§5).
//!
//! Each seed derives a fault schedule (partitions, heals, crashes,
//! recoveries, loss/duplication/delay episodes) and a full simulation
//! run; afterwards every process's event log is replayed through the
//! `catocs::vsync` invariant checker. The sweep crosses the two holdback
//! implementations with the two timestamp encodings, so a bug in either
//! optimisation shows up as a violation in exactly those columns.
//!
//! `experiments chaos` runs the sweep; `experiments chaos --seed N`
//! replays one schedule verbatim and prints the plan, the per-process
//! outcome and any violations (exit code 1 if there are any).

use crate::experiments::replay::{Algo, Cell, Replay};
use crate::table::Table;
use catocs::vsync::{Campaign, Violation};
use simnet::obs::{ProbeHandle, SpanId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Flight-recorder ring capacity used for post-mortem re-runs: deep
/// enough to keep the tail of every process's message lifecycle.
const RECORDER_CAP: usize = 512;

/// Re-runs a violating replay with the flight recorder attached and
/// writes the post-mortem: `seed-N-<cell>.txt` (fault plan, violations,
/// per-process outcome, holdback wait-graphs, event diagram of the
/// recorded tail) plus `seed-N-<cell>.jsonl` (the raw span/phase events,
/// one JSON object per line). Returns the paths written.
pub fn dump_incident_to(dir: &Path, replay: &Replay) -> std::io::Result<Vec<PathBuf>> {
    let (seed, n, cell) = (replay.seed, replay.n(), replay.cell());
    let (probe, rec) = ProbeHandle::recorder(RECORDER_CAP);
    let r = Campaign {
        probe,
        ..replay.campaign()
    }
    .run();
    let rec = rec.borrow();

    let mut text = String::new();
    let _ = writeln!(text, "CHAOS INCIDENT — seed {seed}, n={n}, {cell}");
    if let Some(injected) = replay.injected() {
        let _ = writeln!(text, "{injected}");
    }
    let _ = writeln!(text, "\n{}", r.plan);
    let _ = writeln!(text, "violations ({}):", r.violations.len());
    for v in &r.violations {
        let _ = writeln!(text, "  {v}");
    }
    let _ = writeln!(text, "\nprocess outcomes:");
    for log in &r.logs {
        let _ = writeln!(
            text,
            "  P{}: alive={} frozen={} clock={:?}",
            log.who, log.alive_at_end, log.frozen, log.final_clock
        );
    }
    if !r.blocked_reports.is_empty() {
        let _ = writeln!(text, "\nblocked messages at the horizon:");
        crate::experiments::explain::render_records(&mut text, &r.blocked_reports, None);
    }
    if !r.stalls.stalls.is_empty() {
        let _ = writeln!(
            text,
            "\nranked stalls at the horizon (wait-graph analytics, most severe first):"
        );
        for (i, s) in r.stalls.stalls.iter().enumerate() {
            let _ = writeln!(text, "  #{} {}", i + 1, s.summary());
            let _ = writeln!(text, "     path: {}", s.render_path());
        }
    }
    // Per-message latency provenance for the messages implicated in the
    // incident: the ledger entry of every violating message, plus (for
    // process-level violations like a frozen survivor) the worst open
    // entry at that process. Capped like the blocked reports above.
    const MAX_LEDGER_LINES: usize = 8;
    let mut implicated: Vec<&catocs::ledger::LedgerEntry> = Vec::new();
    for v in &r.violations {
        match v {
            Violation::DuplicateDelivery { who, id }
            | Violation::FifoGap { who, id, .. }
            | Violation::CausalOrder { who, id, .. }
            | Violation::BeyondCutDelivery { who, id, .. }
            | Violation::UnknownMessage { who, id } => {
                let span = SpanId {
                    origin: id.sender,
                    seq: id.seq,
                };
                if let Some(e) = r.latency.entry(*who, span) {
                    implicated.push(e);
                }
            }
            Violation::FrozenAtEnd { who } | Violation::ParkedAtEnd { who, .. } => {
                // No single message named: show the process's worst wedge.
                if let Some(e) = r
                    .latency
                    .entries
                    .iter()
                    .filter(|e| e.receiver == *who && e.open)
                    .max_by(|a, b| a.latency().cmp(&b.latency()).then(b.span.cmp(&a.span)))
                {
                    implicated.push(e);
                }
            }
            _ => {}
        }
    }
    implicated.sort_by_key(|e| (e.receiver, e.span));
    implicated.dedup_by_key(|e| (e.receiver, e.span));
    if !implicated.is_empty() {
        let _ = writeln!(
            text,
            "\nlatency ledger for implicated messages (phase-attributed send->deliver time):"
        );
        for e in implicated.iter().take(MAX_LEDGER_LINES) {
            crate::experiments::latency::render_entry(&mut text, e);
        }
        if implicated.len() > MAX_LEDGER_LINES {
            let _ = writeln!(
                text,
                "  ... and {} more implicated messages",
                implicated.len() - MAX_LEDGER_LINES
            );
        }
    }

    let names: Vec<String> = (0..n).map(|p| format!("P{p}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let _ = writeln!(
        text,
        "\nrecorded event tail ({} events/process ring):\n{}",
        RECORDER_CAP,
        rec.render_ascii(&refs)
    );

    std::fs::create_dir_all(dir)?;
    let stem = format!("seed-{seed}-{}", cell.name());
    let txt_path = dir.join(format!("{stem}.txt"));
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&txt_path, text)?;
    std::fs::write(&jsonl_path, rec.to_json_lines())?;
    Ok(vec![txt_path, jsonl_path])
}

/// Dumps to the incident directory — `CHAOS_INCIDENT_DIR`, else
/// `target/chaos-incidents` — reporting (but swallowing) IO errors so a
/// full-disk CI box still gets the violation exit code.
fn dump_incident(replay: &Replay) {
    let dir = std::env::var_os("CHAOS_INCIDENT_DIR").map(PathBuf::from);
    let dir = dir.unwrap_or_else(|| PathBuf::from("target/chaos-incidents"));
    match dump_incident_to(&dir, replay) {
        Ok(paths) => {
            for p in paths {
                eprintln!("chaos: post-mortem dump written to {}", p.display());
            }
        }
        Err(e) => eprintln!("chaos: could not write post-mortem dump: {e}"),
    }
}

/// Runs `seeds` campaigns of `algo` in each of the four sweep cells
/// (`experiments chaos [--discipline pccast]` on the CLI). Returns the
/// table and the total violation count (the CLI turns nonzero into exit
/// code 1, so CI fails on any invariant breach).
pub fn run(seeds: u64, algo: Algo) -> (Table, u64) {
    let title = format!(
        "CHAOS — §5: seeded fault campaigns with virtual-synchrony checking ({})",
        algo.name()
    );
    let mut t = Table::new(
        &title,
        &[
            "holdback",
            "timestamps",
            "runs",
            "views",
            "evicted live",
            "crashed at end",
            "delivered",
            "blocked",
            "hold p50 ms",
            "hold p99 ms",
            "wait p50 ms",
            "wait p99 ms",
            "violations",
            "replay stable",
        ],
    );
    let mut total_violations = 0u64;
    let mut dumped = false;
    for cell in Cell::ALL {
        let mut views = 0u64;
        let mut evicted = 0u64;
        let mut crashed = 0u64;
        let mut delivered = 0u64;
        let mut blocked = 0u64;
        let mut violations = 0u64;
        let mut stable = true;
        let mut hold_hist = simnet::metrics::Histogram::new();
        let mut wait_hist = simnet::metrics::Histogram::new();
        for seed in 0..seeds {
            let replay = Replay {
                algo,
                ..Replay::of(seed).in_cell(cell)
            };
            let r = replay.run();
            views += r.views_installed;
            evicted += r.evicted_live.len() as u64;
            crashed += r.plan.crashed_at_horizon().len() as u64;
            delivered += r.delivered_total;
            blocked += r.blocked as u64;
            hold_hist.merge(&r.hold_hist);
            wait_hist.merge(&r.wait_hist);
            // A clean campaign must end free of persistent wait cycles:
            // wedging behind a partition is legitimate, deadlock is not.
            if r.violations.is_empty() && r.stalls.persistent_cycles() > 0 {
                violations += 1;
                eprintln!(
                    "chaos: seed {seed} ({}, {}) clean run ended with a persistent wait cycle:",
                    cell.holdback(),
                    cell.timestamps(),
                );
                for s in r.stalls.persistent().filter(|s| s.is_cycle) {
                    eprintln!("  {}", s.summary());
                }
            }
            if !r.violations.is_empty() {
                violations += r.violations.len() as u64;
                eprintln!(
                    "chaos: seed {seed} ({}, {}) violated:",
                    cell.holdback(),
                    cell.timestamps(),
                );
                for v in &r.violations {
                    eprintln!("  {v}");
                }
                // First violation of the sweep: re-run with the flight
                // recorder attached and dump the post-mortem.
                if !dumped {
                    dumped = true;
                    dump_incident(&replay);
                }
            }
            // Replay determinism: the first seed of every cell runs twice
            // and must produce bit-identical logs.
            if seed == 0 {
                stable &= replay.run().digest == r.digest;
            }
        }
        t.row(vec![
            cell.holdback().into(),
            cell.timestamps().into(),
            seeds.into(),
            views.into(),
            evicted.into(),
            crashed.into(),
            delivered.into(),
            blocked.into(),
            hold_hist.quantile(0.50).as_millis_f64().into(),
            hold_hist.quantile(0.99).as_millis_f64().into(),
            wait_hist.quantile(0.50).as_millis_f64().into(),
            wait_hist.quantile(0.99).as_millis_f64().into(),
            violations.into(),
            if stable { "yes" } else { "NO" }.into(),
        ]);
        total_violations += violations;
    }
    t.note("each run: seed-derived partitions/heals/crashes/recoveries/degrade episodes,");
    t.note("then every process log replayed through the vsync invariant checker;");
    t.note("hold p50/p99: holdback wait of held deliveries, merged across the cell;");
    t.note("wait p50/p99: blocked-edge ages sampled by the wait-graph every 50 ms;");
    t.note("`experiments chaos --seed N` replays one schedule and prints the plan.");
    (t, total_violations)
}

/// Replays one seed — across all four sweep cells unless the replay
/// names one — printing the schedule and any violations. The first
/// violating cell gets a flight-recorder post-mortem dump. Returns the
/// total violation count (the CLI turns nonzero into exit code 1).
pub fn replay(replay: &Replay) -> usize {
    let mut total = 0;
    for (i, cell) in replay.cells().into_iter().enumerate() {
        let in_cell = replay.in_cell(cell);
        let r = in_cell.run();
        if i == 0 {
            // The schedule depends only on the seed and the group size.
            println!("{}", r.plan);
            if let Some(injected) = replay.injected() {
                println!("{injected}");
            }
        }
        println!(
            "[{cell}] views={} survivors={:?} evicted_live={:?} delivered={} digest={:016x}",
            r.views_installed, r.survivors, r.evicted_live, r.delivered_total, r.digest,
        );
        if r.blocked {
            println!("  primary-partition block: survivors short of a majority of the final view");
        }
        if let Some(top) = r.stalls.stalls.first() {
            println!("  top stall: {}", top.summary());
            println!("    path: {}", top.render_path());
        }
        if r.violations.is_empty() {
            println!("  invariants: OK");
        } else {
            for v in &r.violations {
                println!("  VIOLATION: {v}");
            }
            if total == 0 {
                dump_incident(&in_cell);
            }
            total += r.violations.len();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::replay::parse_bug;
    use catocs::vsync::CampaignResult;

    /// Seed `seed` in the shipping cell with the named bug injected.
    fn with_bug(seed: u64, bug: &str) -> Replay {
        Replay {
            knobs: parse_bug(bug).expect("a knob name"),
            ..Replay::of(seed)
        }
    }

    fn pccast(seed: u64, cell: Cell) -> CampaignResult {
        let replay = Replay {
            algo: Algo::Pccast,
            ..Replay::of(seed).in_cell(cell)
        };
        replay.run()
    }

    #[test]
    fn smoke_sweep_is_clean() {
        // A small cut of the full 200-run campaign, kept fast for CI.
        for cell in [Cell::INDEXED_FULL, Cell::INDEXED_DELTA] {
            for seed in 0..6 {
                let r = Replay::of(seed).in_cell(cell).run();
                assert!(
                    r.violations.is_empty(),
                    "seed {seed} {cell}: {:?}\n{}",
                    r.violations,
                    r.plan
                );
            }
        }
    }

    /// The constant-metadata discipline passes the same independent
    /// invariant checker under the same fault schedules — the checker
    /// only sees event logs, so nothing about it is cbcast-shaped.
    #[test]
    fn pccast_smoke_sweep_is_clean() {
        for seed in 0..6 {
            let r = pccast(seed, Cell::INDEXED_FULL);
            assert!(
                r.violations.is_empty(),
                "pccast seed {seed}: {:?}\n{}",
                r.violations,
                r.plan
            );
        }
    }

    /// Same-seed pccast reruns are bit-identical (replay determinism is
    /// discipline-independent).
    #[test]
    fn pccast_replay_is_deterministic() {
        let (a, b) = (pccast(1, Cell::INDEXED_FULL), pccast(1, Cell::INDEXED_FULL));
        assert_eq!(a.digest, b.digest);
    }

    /// S2 regression: without the flush retransmit/backoff path, a
    /// single lost Flush or FlushOk wedges the view change and the
    /// survivors never reconverge.
    #[test]
    fn flush_retry_bug_is_caught() {
        let vanilla = Replay::of(8).run();
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = with_bug(8, "no-flush-retry").run();
        assert!(
            !buggy.violations.is_empty(),
            "seed 8 must violate without flush retries"
        );
    }

    /// S3 regression: without resetting delta-timestamp decode chains at
    /// view install, a message referencing pre-view state parks forever.
    #[test]
    fn chain_reset_bug_is_caught() {
        let vanilla = Replay::of(346).run();
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = with_bug(346, "no-chain-reset").run();
        assert!(
            !buggy.violations.is_empty(),
            "seed 346 must violate without chain reset at install"
        );
    }

    /// S1 regression: without resetting the failure detector on recover,
    /// cold-start staleness misattributes liveness and the campaign
    /// evicts a different set of live members than the vanilla run.
    #[test]
    fn detector_reset_bug_changes_evictions() {
        let vanilla = Replay::of(91).run();
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = with_bug(91, "no-detector-reset").run();
        assert_ne!(
            buggy.evicted_live, vanilla.evicted_live,
            "seed 91 must evict a different live set without detector reset"
        );
    }

    /// The S2 injected bug must auto-produce a usable flight-recorder
    /// post-mortem: violations, per-process outcomes and the recorded
    /// span tail, plus machine-readable JSON lines.
    #[test]
    fn injected_bug_replay_produces_incident_dump() {
        let dir = std::env::temp_dir().join("catocs-chaos-incident-test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = dump_incident_to(&dir, &with_bug(8, "no-flush-retry")).expect("dump written");
        assert_eq!(paths.len(), 2);
        let txt = std::fs::read_to_string(&paths[0]).expect("txt dump");
        assert!(txt.contains("CHAOS INCIDENT — seed 8"), "{txt}");
        assert!(txt.contains("injected bug knobs: no-flush-retry"), "{txt}");
        // The dump names violations and per-process outcomes.
        assert!(!txt.contains("violations (0)"), "{txt}");
        assert!(txt.contains("P0:"), "{txt}");
        // The wedged flush shows up as a ranked stall whose cycle path
        // names the flush phase of the suspected coordinator.
        assert!(txt.contains("ranked stalls at the horizon"), "{txt}");
        assert!(txt.contains("flush@P"), "{txt}");
        // The latency ledger attributes the implicated message's wedged
        // time, phase by phase, with the flush barrier on the critical
        // path.
        assert!(
            txt.contains("latency ledger for implicated messages"),
            "{txt}"
        );
        assert!(txt.contains("OPEN at horizon"), "{txt}");
        assert!(txt.contains("[  flush]"), "{txt}");
        assert!(txt.contains("critical path: flush"), "{txt}");
        // The machine-readable dump parses line by line.
        let jsonl = std::fs::read_to_string(&paths[1]).expect("jsonl dump");
        assert!(!jsonl.trim().is_empty());
        for line in jsonl.lines() {
            simnet::json::JsonValue::parse(line).expect("valid JSON line");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
