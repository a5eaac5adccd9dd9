//! `experiments latency` — the latency-provenance report.
//!
//! For every message a run delivered, the ledger (see `catocs::ledger`)
//! decomposes send→deliver virtual time into attributed phases: wire
//! transit, NACK repair, causal/FIFO holdback, pccast link-reorder wait,
//! abcast order-watermark wait, token hold/rotation wait, and the
//! view-change flush barrier. This module renders the aggregate — a
//! per-phase table plus the headline **ordering tax** (delivered latency
//! minus the FIFO-only floor for the same arrivals) — and, with `--msg`,
//! a per-receiver drill-down of one message's exact phase tiling.
//!
//! The causal disciplines (`cbcast`, `pccast`) replay a chaos campaign
//! seed, so `--bug` knobs apply and wedged flushes show up as open
//! entries charged to the flush barrier. The remaining disciplines
//! (`abcast`, `token`, `fifo`) run a deterministic group workload on the
//! harness — no fault plan, so the flag parser refuses `--bug` there and
//! the report says why. `--compare` runs cbcast, pccast and abcast side
//! by side at N=64 and tabulates what each ordering guarantee costs over
//! FIFO.

use crate::experiments::replay::{Algo, Replay};
use crate::table::Table;
use catocs::harness::{spawn_group, Chatter, GroupNode};
use catocs::ledger::{LatencySummary, LedgerEntry, LedgerProbe};
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::obs::{LatencyPhase, Probe, ProbeHandle, SpanId};
use simnet::process::ProcessId;
use simnet::sim::{Sim, SimBuilder};
use simnet::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Caps that keep a large ledger readable, mirroring the explainer's:
/// a run delivers thousands of messages; the report summarizes rather
/// than enumerates.
const MAX_OPEN_SHOWN: usize = 8;
const MAX_RECEIVERS_PER_MSG: usize = 8;
const MAX_SEGMENTS_PER_ENTRY: usize = 10;

/// Horizon of the harness-group workloads (abcast/token/fifo).
pub(crate) const GROUP_HORIZON: SimTime = SimTime::from_secs(5);
/// Messages each member multicasts in those workloads.
const GROUP_MSGS: u32 = 20;
/// How many of them go out per app tick (see [`Chatter`] on why bursts).
const GROUP_BURST: u32 = 4;
/// Loss rate of those workloads (enough to exercise repair phases).
const GROUP_DROP: f64 = 0.02;

/// Builds the deterministic harness-group workload under `algo`: every
/// member a [`Chatter`] on a 20 ms application tick, over a LAN that
/// loses [`GROUP_DROP`] of its messages.
pub(crate) fn chatter_group(seed: u64, n: usize, algo: Algo) -> (Sim<Wire<u64>>, Vec<ProcessId>) {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(GROUP_DROP))
        .build::<Wire<u64>>();
    let (discipline, cfg) = algo.endpoint();
    let tick = Some(SimDuration::from_millis(20));
    let members = spawn_group(&mut sim, n, discipline, cfg, tick, |_| Chatter {
        remaining: GROUP_MSGS,
        burst: GROUP_BURST,
    });
    (sim, members)
}

/// Runs that workload with a ledger probe cloned onto every member, and
/// finalizes the ledger at the horizon. This is how the non-chaos
/// disciplines (abcast, token, fifo) get their provenance, how
/// `--compare` puts all of them on one workload, and how BENCH collects
/// its `latency.*` rows for them.
pub(crate) fn run_group_ledger(seed: u64, n: usize, algo: Algo) -> LatencySummary {
    let (mut sim, members) = chatter_group(seed, n, algo);
    let ledger = Rc::new(RefCell::new(LedgerProbe::new()));
    let probe = ProbeHandle::new(Rc::clone(&ledger) as Rc<RefCell<dyn Probe>>);
    for &member in &members {
        let node: &mut GroupNode<u64, Chatter> = sim.process_mut(member).expect("just spawned");
        node.set_probe(probe.clone());
    }
    sim.run_until(GROUP_HORIZON);
    let mut records = Vec::new();
    for &member in &members {
        let node: &GroupNode<u64, Chatter> = sim.process(member).expect("just spawned");
        node.endpoint()
            .wait_records(true, &mut |r| records.push(r.clone()));
    }
    let summary = ledger.borrow().finalize(GROUP_HORIZON, &records);
    summary
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

/// The share of `e`'s latency spent in `phase`, in `[0, 1]`.
fn phase_share(e: &LedgerEntry, phase: LatencyPhase) -> f64 {
    let spent = e
        .phase_totals()
        .get(&phase)
        .copied()
        .unwrap_or(SimDuration::ZERO);
    spent.as_micros() as f64 / e.latency().as_micros().max(1) as f64
}

/// Renders one ledger entry's full phase tiling — the drill-down line
/// format shared by `--msg` and the chaos incident dump.
pub(crate) fn render_entry(out: &mut String, e: &LedgerEntry) {
    let state = if e.open {
        "OPEN at horizon"
    } else {
        "delivered"
    };
    let _ = writeln!(
        out,
        "  P{} {} {}: sent {}us, end {}us, latency {} (tax {})",
        e.receiver,
        state,
        e.span,
        e.send_at.as_micros(),
        e.end.as_micros(),
        e.latency(),
        e.tax,
    );
    for s in e.segments.iter().take(MAX_SEGMENTS_PER_ENTRY) {
        let blocker = match s.blocker {
            Some(b) => format!(" on {b}"),
            None => String::new(),
        };
        let note = if s.note.is_empty() {
            String::new()
        } else {
            format!(" — {}", s.note)
        };
        let _ = writeln!(
            out,
            "    [{:>7}] {:>10} ({:5.1}%){}{}",
            s.phase.name(),
            s.dur().to_string(),
            100.0 * s.dur().as_micros() as f64 / e.latency().as_micros().max(1) as f64,
            blocker,
            note,
        );
    }
    if e.segments.len() > MAX_SEGMENTS_PER_ENTRY {
        let _ = writeln!(
            out,
            "    ... and {} more segments",
            e.segments.len() - MAX_SEGMENTS_PER_ENTRY
        );
    }
    if let Some(p) = e.critical_path() {
        let _ = writeln!(
            out,
            "    critical path: {} ({:.1}% of the latency)",
            p,
            100.0 * phase_share(e, p)
        );
    }
}

/// Builds the latency-provenance report for one replay. `replay.msg`
/// drills into a single message across receivers.
pub fn run(replay: &Replay) -> String {
    let (seed, msg, d) = (replay.seed, replay.msg, replay.algo);
    // A chaos campaign's ledger for the causal disciplines, a harness
    // group's for the rest.
    let s = if d.is_chaos() {
        replay.run().latency
    } else {
        run_group_ledger(seed, replay.n(), d)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "LATENCY — per-message ordering-tax attribution, seed {seed} ({})",
        d.name()
    );
    if !d.is_chaos() {
        let _ = writeln!(
            out,
            "harness group (n={}, no fault plan; --bug knobs apply only to cbcast/pccast)",
            replay.n()
        );
    } else if replay.n.is_some() || replay.cell.is_some() {
        let _ = writeln!(out, "campaign: n={}, {}", replay.n(), replay.cell());
    }
    let delivered = s.entries.iter().filter(|e| !e.open).count();
    let _ = writeln!(
        out,
        "entries: {} delivered, {} open at the horizon",
        delivered, s.open
    );
    let _ = writeln!(
        out,
        "delivered latency: p50 {} p99 {}; ordering tax: mean {:.0}us p99 {}",
        s.latency.quantile(0.50),
        s.latency.quantile(0.99),
        s.tax_mean_us(),
        s.tax.quantile(0.99),
    );

    let mut t = Table::new(
        "where the time went (delivered entries)",
        &[
            "phase",
            "entries",
            "total ms",
            "p50 ms",
            "p99 ms",
            "critical path of",
        ],
    );
    for (phase, h) in &s.per_phase {
        t.row(vec![
            phase.name().into(),
            h.count().into(),
            (h.sum_micros() as f64 / 1_000.0).into(),
            ms(h.quantile(0.50)).into(),
            ms(h.quantile(0.99)).into(),
            s.critical.get(phase).copied().unwrap_or(0).into(),
        ]);
    }
    t.note("phases tile each message's send->deliver time exactly (no gaps,");
    t.note("no double-counting); the ordering tax is delivered latency minus");
    t.note("the FIFO-only floor for the same arrival order.");
    let _ = writeln!(out, "\n{t}");

    // Open entries are where a wedge shows: report the worst, with the
    // phase holding them.
    let mut open: Vec<&LedgerEntry> = s.entries.iter().filter(|e| e.open).collect();
    open.sort_by(|a, b| {
        b.latency()
            .cmp(&a.latency())
            .then(a.span.cmp(&b.span))
            .then(a.receiver.cmp(&b.receiver))
    });
    if !open.is_empty() {
        let _ = writeln!(out, "undelivered at the horizon (worst first):");
        for e in open.iter().take(MAX_OPEN_SHOWN) {
            let critical = e.critical_path();
            let _ = writeln!(
                out,
                "  P{} {}: open for {}, critical path {} ({:.1}% of its latency)",
                e.receiver,
                e.span,
                e.latency(),
                critical.map(|p| p.name()).unwrap_or("-"),
                100.0 * critical.map(|p| phase_share(e, p)).unwrap_or(0.0),
            );
        }
        if open.len() > MAX_OPEN_SHOWN {
            let _ = writeln!(
                out,
                "  ... and {} more open entries",
                open.len() - MAX_OPEN_SHOWN
            );
        }
        // The wedge itself: the open entry most of whose latency is the
        // flush barrier. When a view change cannot finish (e.g. the
        // injected wedged_flush bug), this is the message that names it.
        let wedged = open.iter().copied().max_by(|a, b| {
            phase_share(a, LatencyPhase::Flush)
                .total_cmp(&phase_share(b, LatencyPhase::Flush))
                .then(b.span.cmp(&a.span))
                .then(b.receiver.cmp(&a.receiver))
        });
        if let Some(e) = wedged {
            let share = phase_share(e, LatencyPhase::Flush);
            if share > 0.0 {
                let _ = writeln!(
                    out,
                    "\nwedged on the flush barrier (largest flush share among open entries):"
                );
                let _ = writeln!(
                    out,
                    "  P{} {}: {:.1}% of its {} latency is the flush barrier",
                    e.receiver,
                    e.span,
                    100.0 * share,
                    e.latency()
                );
                render_entry(&mut out, e);
            }
        }
    }

    if let Some(want) = msg {
        let span = SpanId {
            origin: want.sender,
            seq: want.seq,
        };
        let entries: Vec<&LedgerEntry> = s.for_span(span).collect();
        let _ = writeln!(out, "\ndrill-down m{}.{}:", want.sender, want.seq);
        if entries.is_empty() {
            let _ = writeln!(out, "  no ledger entry — never sent, or delivered nowhere");
        }
        for e in entries.iter().take(MAX_RECEIVERS_PER_MSG) {
            render_entry(&mut out, e);
        }
        if entries.len() > MAX_RECEIVERS_PER_MSG {
            let _ = writeln!(
                out,
                "  ... and {} more receivers",
                entries.len() - MAX_RECEIVERS_PER_MSG
            );
        }
    }
    out
}

/// Group size for the `--compare` sweep — large enough that the ordering
/// disciplines' extra hops separate cleanly from wire transit.
pub(crate) const COMPARE_N: usize = 64;

/// `experiments latency --compare`: cbcast vs pccast vs abcast (plus the
/// fifo floor) on the same workload at N=64 — what each ordering
/// guarantee costs per delivery over FIFO. This is the worked table in
/// EXPERIMENTS.md §"Latency provenance".
pub fn compare(seed: u64) -> Table {
    let mut t = Table::new(
        format!("LATENCY — ordering tax by discipline (N={COMPARE_N}, seed {seed})"),
        &[
            "discipline",
            "delivered",
            "e2e p50 ms",
            "e2e p99 ms",
            "tax mean us",
            "tax p99 ms",
            "signature phase",
            "sig p99 ms",
        ],
    );
    for algo in [Algo::Fifo, Algo::Cbcast, Algo::Abcast, Algo::Pccast] {
        let s = run_group_ledger(seed, COMPARE_N, algo);
        let sig = algo.signature_phase();
        let delivered = s.entries.iter().filter(|e| !e.open).count() as u64;
        t.row(vec![
            algo.name().into(),
            delivered.into(),
            ms(s.latency.quantile(0.50)).into(),
            ms(s.latency.quantile(0.99)).into(),
            s.tax_mean_us().into(),
            ms(s.tax.quantile(0.99)).into(),
            sig.name().into(),
            s.per_phase
                .get(&sig)
                .map(|h| ms(h.quantile(0.99)))
                .unwrap_or(0.0)
                .into(),
        ]);
    }
    t.note("same seed, workload and loss rate for every row; the tax is the");
    t.note("per-delivery cost of the ordering guarantee over per-sender FIFO.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::replay::replay_of;

    #[test]
    fn output_is_deterministic_across_reruns() {
        assert_eq!(run(&Replay::of(0)), run(&Replay::of(0)));
    }

    /// The acceptance check: seed 2 with the wedged flush injected must
    /// attribute >=90% of the wedged message's latency to the flush
    /// barrier and name it as the critical path.
    #[test]
    fn wedged_flush_attributes_to_the_flush_barrier() {
        let out = run(&replay_of("latency", "--seed 2 --bug wedged_flush"));
        assert!(out.contains("undelivered at the horizon"), "{out}");
        assert!(out.contains("wedged on the flush barrier"), "{out}");
        // The highlighted message carries >=90% flush attribution and
        // names the flush barrier as its critical path.
        let share = out
            .lines()
            .find(|l| l.contains("% of its") && l.contains("is the flush barrier"))
            .and_then(|l| l.split_whitespace().find(|w| w.ends_with('%')))
            .and_then(|w| w.trim_end_matches('%').parse::<f64>().ok())
            .expect("no wedged-share line");
        assert!(share >= 90.0, "flush share {share} < 90:\n{out}");
        let tail = out
            .split("wedged on the flush barrier")
            .nth(1)
            .expect("no wedged section");
        assert!(tail.contains("critical path: flush"), "{out}");
    }

    /// Every discipline's report covers its signature phase: the
    /// guarantee being paid for shows up as an attributed phase row.
    #[test]
    fn signature_phases_appear_per_discipline() {
        for d in [Algo::Abcast, Algo::Token, Algo::Fifo] {
            let s = run_group_ledger(0, Replay::of(0).n(), d);
            assert!(!s.entries.is_empty(), "{}: empty ledger", d.name());
            assert!(
                s.per_phase.contains_key(&LatencyPhase::Wire),
                "{}: no wire phase",
                d.name()
            );
            assert!(
                s.per_phase.contains_key(&d.signature_phase()),
                "{}: signature phase {} never attributed",
                d.name(),
                d.signature_phase()
            );
        }
    }

    #[test]
    fn drilldown_renders_phase_tiling() {
        let out = run(&replay_of("latency", "--seed 0 --msg m0.1"));
        assert!(out.contains("drill-down m0.1:"), "{out}");
        assert!(out.contains("[   wire]"), "{out}");
        assert!(out.contains("critical path:"), "{out}");
    }

    #[test]
    fn compare_covers_all_four_disciplines() {
        let t = compare(0).to_string();
        for d in ["fifo", "cbcast", "pccast", "abcast"] {
            assert!(t.contains(d), "missing {d} in\n{t}");
        }
    }
}
