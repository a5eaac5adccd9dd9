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

use crate::table::Table;
use catocs::group::{CausalDiscipline, GroupConfig};
use catocs::vsync::{
    run_campaign, run_campaign_with, BugKnobs, CampaignConfig, CampaignResult, Violation,
};
use simnet::obs::{ProbeHandle, SpanId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Group sizes the sweep cycles through, by seed.
const SIZES: [usize; 3] = [3, 5, 7];

/// Flight-recorder ring capacity used for post-mortem re-runs: deep
/// enough to keep the tail of every process's message lifecycle.
const RECORDER_CAP: usize = 512;

/// The group size a given seed runs with (shared with `explain`).
pub fn size_for_seed(seed: u64) -> usize {
    SIZES[(seed % SIZES.len() as u64) as usize]
}

/// Parses an injected-bug knob name (`--bug` on the CLI).
pub fn parse_bug(name: &str) -> Option<BugKnobs> {
    let off = BugKnobs::default();
    match name {
        "no-detector-reset" => Some(BugKnobs {
            no_detector_reset: true,
            ..off
        }),
        // "wedged_flush" is the operator-facing alias: the symptom (a
        // flush barrier that never completes) rather than the mechanism.
        "no-flush-retry" | "wedged-flush" | "wedged_flush" => Some(BugKnobs {
            no_flush_retry: true,
            ..off
        }),
        "no-chain-reset" => Some(BugKnobs {
            no_chain_reset: true,
            ..off
        }),
        _ => None,
    }
}

/// Names of the knobs set in `knobs`, for dump headers.
fn knob_names(knobs: &BugKnobs) -> Vec<&'static str> {
    let mut v = Vec::new();
    if knobs.no_detector_reset {
        v.push("no-detector-reset");
    }
    if knobs.no_flush_retry {
        v.push("no-flush-retry");
    }
    if knobs.no_chain_reset {
        v.push("no-chain-reset");
    }
    v
}

/// Where incident dumps land: `CHAOS_INCIDENT_DIR` overrides the
/// default `target/chaos-incidents`.
pub fn incident_dir() -> PathBuf {
    std::env::var_os("CHAOS_INCIDENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/chaos-incidents"))
}

/// Re-runs a violating cell with the flight recorder attached and writes
/// the post-mortem: `seed-N-<cell>.txt` (fault plan, violations,
/// per-process outcome, holdback wait-graphs, event diagram of the
/// recorded tail) plus `seed-N-<cell>.jsonl` (the raw span/phase events,
/// one JSON object per line). Returns the paths written.
pub fn dump_incident_to(
    dir: &Path,
    seed: u64,
    indexed: bool,
    delta: bool,
    knobs: BugKnobs,
) -> std::io::Result<Vec<PathBuf>> {
    let n = size_for_seed(seed);
    let cfg = campaign_config(n, indexed, delta, knobs);
    let (probe, rec) = ProbeHandle::recorder(RECORDER_CAP);
    let r = run_campaign_with(seed, &cfg, probe);
    let rec = rec.borrow();

    let hold = if indexed { "indexed" } else { "scan" };
    let ts = if delta { "delta" } else { "full" };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "CHAOS INCIDENT — seed {seed}, n={n}, {hold} holdback, {ts} timestamps"
    );
    let injected = knob_names(&knobs);
    if !injected.is_empty() {
        let _ = writeln!(text, "injected bug knobs: {}", injected.join(", "));
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
    let stem = format!("seed-{seed}-{hold}-{ts}");
    let txt_path = dir.join(format!("{stem}.txt"));
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&txt_path, text)?;
    std::fs::write(&jsonl_path, rec.to_json_lines())?;
    Ok(vec![txt_path, jsonl_path])
}

/// Dumps to the default incident directory, reporting (but swallowing)
/// IO errors so a full-disk CI box still gets the violation exit code.
fn dump_incident(seed: u64, indexed: bool, delta: bool, knobs: BugKnobs) {
    match dump_incident_to(&incident_dir(), seed, indexed, delta, knobs) {
        Ok(paths) => {
            for p in paths {
                eprintln!("chaos: post-mortem dump written to {}", p.display());
            }
        }
        Err(e) => eprintln!("chaos: could not write post-mortem dump: {e}"),
    }
}

/// The campaign configuration for one cell of the sweep (cbcast).
pub fn campaign_config(n: usize, indexed: bool, delta: bool, knobs: BugKnobs) -> CampaignConfig {
    campaign_config_d(n, indexed, delta, knobs, CausalDiscipline::Cbcast)
}

/// The campaign configuration for one cell of the sweep, in the given
/// causal discipline. For pccast the `delta` knob is inert (its data
/// messages carry no vectors to delta-encode) but is kept in the sweep so
/// both disciplines cross the same cells.
pub fn campaign_config_d(
    n: usize,
    indexed: bool,
    delta: bool,
    knobs: BugKnobs,
    discipline: CausalDiscipline,
) -> CampaignConfig {
    CampaignConfig {
        n,
        group: GroupConfig {
            indexed_holdback: indexed,
            delta_timestamps: delta,
            discipline,
            ..GroupConfig::default()
        },
        knobs,
        ..CampaignConfig::default()
    }
}

/// Runs one seeded campaign in the given sweep cell (cbcast).
pub fn run_seed(seed: u64, indexed: bool, delta: bool, knobs: BugKnobs) -> CampaignResult {
    run_seed_d(seed, indexed, delta, knobs, CausalDiscipline::Cbcast)
}

/// Runs one seeded campaign in the given sweep cell and discipline. The
/// fault schedule depends only on the seed, so cbcast and pccast face
/// identical partitions/crashes/degrade episodes — what differs is the
/// delivery machinery under test.
pub fn run_seed_d(
    seed: u64,
    indexed: bool,
    delta: bool,
    knobs: BugKnobs,
    discipline: CausalDiscipline,
) -> CampaignResult {
    let n = SIZES[(seed % SIZES.len() as u64) as usize];
    run_campaign(
        seed,
        &campaign_config_d(n, indexed, delta, knobs, discipline),
    )
}

/// Runs `seeds` campaigns in each of the four sweep cells. Returns the
/// table and the total violation count (the CLI turns nonzero into exit
/// code 1, so CI fails on any invariant breach).
pub fn run(seeds: u64) -> (Table, u64) {
    run_discipline(seeds, CausalDiscipline::Cbcast)
}

/// [`run`], in the given causal discipline (`experiments chaos
/// --discipline pccast` on the CLI).
pub fn run_discipline(seeds: u64, discipline: CausalDiscipline) -> (Table, u64) {
    let title = format!(
        "CHAOS — §5: seeded fault campaigns with virtual-synchrony checking ({})",
        discipline.name()
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
    for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
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
            let r = run_seed_d(seed, indexed, delta, BugKnobs::default(), discipline);
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
                    if indexed { "indexed" } else { "scan" },
                    if delta { "delta" } else { "full" },
                );
                for s in r.stalls.persistent().filter(|s| s.is_cycle) {
                    eprintln!("  {}", s.summary());
                }
            }
            if !r.violations.is_empty() {
                violations += r.violations.len() as u64;
                eprintln!(
                    "chaos: seed {seed} ({}, {}) violated:",
                    if indexed { "indexed" } else { "scan" },
                    if delta { "delta" } else { "full" },
                );
                for v in &r.violations {
                    eprintln!("  {v}");
                }
                // First violation of the sweep: re-run with the flight
                // recorder attached and dump the post-mortem.
                if !dumped {
                    dumped = true;
                    dump_incident(seed, indexed, delta, BugKnobs::default());
                }
            }
            // Replay determinism: the first seed of every cell runs twice
            // and must produce bit-identical logs.
            if seed == 0 {
                let again = run_seed_d(seed, indexed, delta, BugKnobs::default(), discipline);
                stable &= again.digest == r.digest;
            }
        }
        t.row(vec![
            if indexed { "indexed" } else { "scan" }.into(),
            if delta { "delta" } else { "full" }.into(),
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

/// Replays one seed across all four sweep cells, printing the schedule
/// and any violations; `knobs` lets the CLI (`chaos --seed N --bug K`)
/// re-inject a known bug. The first violating cell gets a flight-recorder
/// post-mortem dump. Returns the total violation count (the CLI turns
/// nonzero into exit code 1).
pub fn replay(seed: u64, knobs: BugKnobs, discipline: CausalDiscipline) -> usize {
    let n = size_for_seed(seed);
    println!(
        "{}",
        run_campaign(seed, &campaign_config_d(n, true, false, knobs, discipline)).plan
    );
    let injected = knob_names(&knobs);
    if !injected.is_empty() {
        println!("injected bug knobs: {}", injected.join(", "));
    }
    let mut total = 0;
    let mut dumped = false;
    for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
        let r = run_seed_d(seed, indexed, delta, knobs, discipline);
        println!(
            "[{} holdback, {} timestamps] views={} survivors={:?} evicted_live={:?} \
             delivered={} digest={:016x}",
            if indexed { "indexed" } else { "scan" },
            if delta { "delta" } else { "full" },
            r.views_installed,
            r.survivors,
            r.evicted_live,
            r.delivered_total,
            r.digest,
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
            total += r.violations.len();
            if !dumped {
                dumped = true;
                dump_incident(seed, indexed, delta, knobs);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean() {
        // A small cut of the full 200-run campaign, kept fast for CI.
        for (indexed, delta) in [(true, false), (true, true)] {
            for seed in 0..6 {
                let r = run_seed(seed, indexed, delta, BugKnobs::default());
                assert!(
                    r.violations.is_empty(),
                    "seed {seed} indexed={indexed} delta={delta}: {:?}\n{}",
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
            let r = run_seed_d(
                seed,
                true,
                false,
                BugKnobs::default(),
                CausalDiscipline::Pccast,
            );
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
        let a = run_seed_d(
            1,
            true,
            false,
            BugKnobs::default(),
            CausalDiscipline::Pccast,
        );
        let b = run_seed_d(
            1,
            true,
            false,
            BugKnobs::default(),
            CausalDiscipline::Pccast,
        );
        assert_eq!(a.digest, b.digest);
    }

    /// S2 regression: without the flush retransmit/backoff path, a
    /// single lost Flush or FlushOk wedges the view change and the
    /// survivors never reconverge.
    #[test]
    fn flush_retry_bug_is_caught() {
        let vanilla = run_seed(2, true, true, BugKnobs::default());
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = run_seed(
            2,
            true,
            true,
            BugKnobs {
                no_flush_retry: true,
                ..BugKnobs::default()
            },
        );
        assert!(
            !buggy.violations.is_empty(),
            "seed 2 must violate without flush retries"
        );
    }

    /// S3 regression: without resetting delta-timestamp decode chains at
    /// view install, a message referencing pre-view state parks forever.
    #[test]
    fn chain_reset_bug_is_caught() {
        let vanilla = run_seed(137, true, true, BugKnobs::default());
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = run_seed(
            137,
            true,
            true,
            BugKnobs {
                no_chain_reset: true,
                ..BugKnobs::default()
            },
        );
        assert!(
            !buggy.violations.is_empty(),
            "seed 137 must violate without chain reset at install"
        );
    }

    /// S1 regression: without resetting the failure detector on recover,
    /// cold-start staleness misattributes liveness and the campaign
    /// evicts a different set of live members than the vanilla run.
    #[test]
    fn detector_reset_bug_changes_evictions() {
        let vanilla = run_seed(23, true, true, BugKnobs::default());
        assert!(vanilla.violations.is_empty(), "{:?}", vanilla.violations);
        let buggy = run_seed(
            23,
            true,
            true,
            BugKnobs {
                no_detector_reset: true,
                ..BugKnobs::default()
            },
        );
        assert_ne!(
            buggy.evicted_live, vanilla.evicted_live,
            "seed 23 must evict a different live set without detector reset"
        );
    }

    /// The S2 injected bug must auto-produce a usable flight-recorder
    /// post-mortem: violations, per-process outcomes and the recorded
    /// span tail, plus machine-readable JSON lines.
    #[test]
    fn injected_bug_replay_produces_incident_dump() {
        let dir = std::env::temp_dir().join("catocs-chaos-incident-test");
        let _ = std::fs::remove_dir_all(&dir);
        let knobs = BugKnobs {
            no_flush_retry: true,
            ..BugKnobs::default()
        };
        let paths = dump_incident_to(&dir, 2, true, true, knobs).expect("dump written");
        assert_eq!(paths.len(), 2);
        let txt = std::fs::read_to_string(&paths[0]).expect("txt dump");
        assert!(txt.contains("CHAOS INCIDENT — seed 2"), "{txt}");
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

    #[test]
    fn bug_knob_names_parse() {
        assert!(parse_bug("no-detector-reset").unwrap().no_detector_reset);
        assert!(parse_bug("no-flush-retry").unwrap().no_flush_retry);
        // The symptom-named alias used by `experiments latency`.
        assert!(parse_bug("wedged-flush").unwrap().no_flush_retry);
        assert!(parse_bug("wedged_flush").unwrap().no_flush_retry);
        assert!(parse_bug("no-chain-reset").unwrap().no_chain_reset);
        assert!(parse_bug("frobnicate").is_none());
    }
}
