//! `experiments explain` — the blocked-on explainer.
//!
//! Re-runs one chaos seed (optionally with an injected bug knob) and
//! renders the wait records of every surviving process
//! (`catocs::waitgraph::WaitRecord`, the same records the wait-graph
//! sampler turns into edges): for each message still buffered at the
//! horizon, which causal predecessors it waits on and why each is absent
//! — still held itself, parked behind a broken delta decode chain, being
//! chased via NACK, or never deliverable because its sender was removed
//! beyond the flush cut. The output is deterministic for a given
//! seed/knob combination.
//!
//! Under `--discipline pccast` the records also cover the per-link
//! reorder buffers: a blocked copy additionally reports which link
//! *position* its cursor waits for and why that slot is unfilled (ARQ
//! gap, pending skip marker, or a severed link). When `--msg` names a
//! message that sits in a detected stall component, the report names
//! that component and its representative cycle path.

use crate::experiments::latency::{chatter_group, GROUP_HORIZON};
use crate::experiments::replay::{Algo, Replay};
use catocs::endpoint::Endpoint;
use catocs::group::MsgId;
use catocs::harness::{Chatter, GroupNode};
use catocs::waitgraph::{WaitNode, WaitReason, WaitRecord};
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Caps that keep a deeply wedged queue readable: a message missing a
/// long run of predecessors, or a process holding dozens of messages,
/// is summarized rather than enumerated.
const MAX_MSGS_PER_PROC: usize = 8;
const MAX_WAITS_PER_MSG: usize = 6;

/// Renders wait records into `out`, process by process: every message a
/// process holds (restricted to `only` when given) with the long sentence
/// of each wait, then the process's own waits. Returns how many held
/// messages matched the filter, and how many there were.
///
/// A message can be held more than once at a process (pccast: a repair
/// copy in the holdback queue and a copy on each link), so its records
/// are folded into one entry: the first arrival and the union of their
/// waits. Entries print in total-order slot order where slots are
/// assigned, else in id order. The flush freeze and the pccast barrier
/// are not lines of their own: a message with missing predecessors is
/// blocked on those, and one with none prints the gate as the reason it
/// is still queued. Records of a protocol phase (an unacknowledged token
/// pass) are not rendered.
pub(crate) fn render_records(
    out: &mut String,
    records: &[WaitRecord],
    only: Option<MsgId>,
) -> (usize, usize) {
    type Held = (SimTime, Option<u64>, Vec<(WaitNode, WaitReason)>);
    let mut procs: BTreeMap<usize, (BTreeMap<MsgId, Held>, Vec<&WaitRecord>)> = BTreeMap::new();
    for rec in records {
        let (held, own) = procs.entry(rec.who).or_default();
        match rec.blocked {
            WaitNode::Msg(id) => {
                let (_, _, waits) = held.entry(id).or_insert((rec.since, rec.slot, Vec::new()));
                let fresh: Vec<_> = rec.waits.iter().filter(|w| !waits.contains(w)).collect();
                waits.extend(fresh);
            }
            WaitNode::Proc(_) => own.push(rec),
            _ => {}
        }
    }
    let (mut matched, mut total) = (0, 0);
    for (who, (held, own)) in procs {
        total += held.len();
        let mut selected: Vec<(MsgId, Held)> = held
            .into_iter()
            .filter(|(id, _)| only.is_none_or(|want| *id == want))
            .collect();
        selected.sort_by_key(|(id, (_, slot, _))| (slot.unwrap_or(u64::MAX), *id));
        matched += selected.len();
        for (id, (arrived, slot, waits)) in selected.iter().take(MAX_MSGS_PER_PROC) {
            let assigned = slot.map_or(String::new(), |g| format!(", assigned order slot {g}"));
            let _ = writeln!(
                out,
                "P{who} holds m{}.{} (arrived {}us{assigned}); it waits on:",
                id.sender,
                id.seq,
                arrived.as_micros(),
            );
            let blocked = WaitNode::Msg(*id);
            let is_gate = |why| matches!(why, WaitReason::Frozen | WaitReason::FastPathBarred);
            let is_link = |on| matches!(on, WaitNode::LinkSlot { .. });
            let (links, preds): (Vec<_>, Vec<_>) = waits
                .iter()
                .filter(|w| !is_gate(w.1))
                .partition(|w| is_link(w.0));
            if preds.is_empty() && links.is_empty() {
                let frozen = waits.iter().find(|w| w.1 == WaitReason::Frozen);
                let gate =
                    frozen.map_or("queued for delivery".into(), |w| w.1.sentence(blocked, w.0));
                let _ = writeln!(out, "  nothing — all causal predecessors present; {gate}");
            }
            for (list, what) in [
                (preds, "missing predecessors"),
                (links, "blocked link cursors"),
            ] {
                for (on, why) in list.iter().take(MAX_WAITS_PER_MSG) {
                    let _ = writeln!(out, "  {}", why.sentence(blocked, *on));
                }
                if list.len() > MAX_WAITS_PER_MSG {
                    let _ = writeln!(
                        out,
                        "  ... and {} more {what}",
                        list.len() - MAX_WAITS_PER_MSG
                    );
                }
            }
        }
        if selected.len() > MAX_MSGS_PER_PROC {
            let _ = writeln!(
                out,
                "P{who}: ... and {} more blocked messages",
                selected.len() - MAX_MSGS_PER_PROC
            );
        }
        for rec in own {
            for (on, why) in rec.waits.iter().filter(|w| w.1 == WaitReason::TokenQueued) {
                let _ = writeln!(
                    out,
                    "P{who} has {} since {}us [{}]",
                    why.sentence(rec.blocked, *on),
                    rec.since.as_micros(),
                    why.phase(rec.blocked, *on)
                );
            }
        }
    }
    (matched, total)
}

/// Builds the explainer report for one replay: the campaign's wait
/// records at the horizon for the causal algorithms, the endpoints'
/// wait records in a harness-group run for the total-order ones. `replay.msg` restricts the output to a single
/// blocked message.
pub fn run(replay: &Replay) -> String {
    if !replay.algo.is_chaos() {
        return run_total(replay);
    }
    let msg = replay.msg;
    let r = replay.run();
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN — {replay}");
    if r.violations.is_empty() {
        let _ = writeln!(out, "invariants: OK");
    } else {
        let _ = writeln!(out, "violations ({}):", r.violations.len());
        for v in &r.violations {
            let _ = writeln!(out, "  {v}");
        }
    }
    for log in &r.logs {
        if log.alive_at_end && log.frozen {
            let _ = writeln!(
                out,
                "P{} ended frozen: delivery blackout, its flush never completed",
                log.who
            );
        }
    }
    if r.blocked_reports.is_empty() {
        let _ = writeln!(
            out,
            "no messages were still blocked in any holdback queue at the horizon"
        );
        return out;
    }
    let (matched, _) = render_records(&mut out, &r.blocked_reports, msg);
    if let Some(want) = msg {
        if matched == 0 {
            let _ = writeln!(
                out,
                "m{}.{} is not blocked in any surviving holdback queue at the horizon",
                want.sender, want.seq
            );
        } else if let Some((rank, stall)) = r.stalls.stalls.iter().enumerate().find(|(_, s)| {
            // If a process holding the queried message is itself a member
            // of a stall component (frozen mid-flush, say), everything it
            // holds is blocked behind that stall.
            let held_by_member = |rec: &WaitRecord| {
                rec.blocked == WaitNode::Msg(want) && s.nodes.contains(&WaitNode::Proc(rec.who))
            };
            s.nodes.contains(&WaitNode::Msg(want))
                || s.path.iter().any(|st| st.node == WaitNode::Msg(want))
                || r.blocked_reports.iter().any(held_by_member)
        }) {
            let in_component = stall.nodes.contains(&WaitNode::Msg(want));
            let _ = writeln!(
                out,
                "m{}.{} is {} stall component #{} (of {} ranked):",
                want.sender,
                want.seq,
                if in_component {
                    "part of"
                } else {
                    "blocked behind"
                },
                rank + 1,
                r.stalls.stalls.len()
            );
            let _ = writeln!(out, "  {}", stall.summary());
            let _ = writeln!(out, "  path: {}", stall.render_path());
        } else {
            let _ = writeln!(
                out,
                "m{}.{} is blocked but not part of any ranked stall component \
                 (its waits resolve once upstream traffic drains)",
                want.sender, want.seq
            );
        }
    }
    out
}

/// The explainer for the total-order disciplines: runs the same
/// deterministic harness-group workload the latency report uses, stops
/// at the horizon, and renders each endpoint's wait records — the
/// missing order slot (abcast, plus whatever its causal substrate still
/// holds back) or the rotation/token holder that fills the gap (token).
/// The causes are the ledger's `order` and `token` phases, read from
/// live endpoint state.
///
/// `replay.at` picks the snapshot time (`--at MS`); by default the
/// full-horizon state is shown, where a healthy group has usually
/// drained — pick a mid-run instant to watch the order forming.
fn run_total(replay: &Replay) -> String {
    let (seed, n, msg, algo) = (replay.seed, replay.n(), replay.msg, replay.algo);
    let horizon = replay.at.map_or(GROUP_HORIZON, SimTime::from_millis);
    let (mut sim, pids) = chatter_group(seed, n, algo);
    sim.run_until(horizon);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN — seed {seed}, n={n}, harness group at {}ms ({})",
        horizon.as_millis(),
        match algo {
            Algo::Abcast => "abcast, sequencer P0",
            Algo::Token => "token total order",
            other => other.name(),
        }
    );
    if algo == Algo::Token {
        // Where the token is tells the reader who everyone else queues
        // behind.
        let holder = pids.iter().enumerate().find_map(|(i, pid)| {
            let node: &GroupNode<u64, Chatter> = sim.process(*pid)?;
            match node.endpoint() {
                Endpoint::TotalToken(e) if e.holding_token() => Some(i),
                _ => None,
            }
        });
        match holder {
            Some(p) => {
                let _ = writeln!(out, "token holder at the snapshot: P{p}");
            }
            None => {
                let _ = writeln!(out, "token in flight at the snapshot (no member holds it)");
            }
        }
    }
    let mut records = Vec::new();
    for pid in &pids {
        if let Some(node) = sim.process::<GroupNode<u64, Chatter>>(*pid) {
            let keep = &mut |record: &WaitRecord| records.push(record.clone());
            node.endpoint().wait_records(true, keep);
        }
    }
    let (matched, blocked_total) = render_records(&mut out, &records, msg);
    if blocked_total == 0 {
        let _ = writeln!(
            out,
            "no messages were awaiting a total-order slot at the snapshot"
        );
    } else if msg.is_some() && matched == 0 {
        let want = msg.unwrap();
        let _ = writeln!(
            out,
            "m{}.{} is not awaiting a total-order slot at the snapshot",
            want.sender, want.seq
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::replay::replay_of;

    /// What `experiments explain ARGS` prints.
    fn explain(args: &str) -> String {
        run(&replay_of("explain", args))
    }

    #[test]
    fn clean_seed_reports_ok_invariants() {
        let out = explain("--seed 0");
        assert!(out.contains("invariants: OK"), "{out}");
    }

    /// The S2 injected bug wedges every survivor's flush; the explainer
    /// must name the exact message each blocked message waits on.
    #[test]
    fn wedged_flush_names_the_blocking_chain() {
        let out = explain("--seed 8 --bug no-flush-retry");
        assert!(out.contains("violations ("), "{out}");
        assert!(out.contains("ended frozen"), "{out}");
        // P0's chain root is deliverable but frozen; its successor names
        // the exact predecessor it waits on.
        assert!(out.contains("P0 holds m2.77"), "{out}");
        assert!(out.contains("m2.76 — held here"), "{out}");
        assert!(
            out.contains("delivery frozen by an in-progress flush"),
            "{out}"
        );
    }

    #[test]
    fn msg_filter_restricts_output() {
        let out = explain("--seed 8 --bug no-flush-retry --msg m2.77");
        assert!(out.contains("holds m2.77"), "{out}");
        assert!(!out.contains("holds m2.78"), "{out}");
        let missing = explain("--seed 8 --bug no-flush-retry --msg m0.999");
        assert!(
            missing.contains("not blocked in any surviving holdback queue"),
            "{missing}"
        );
    }

    #[test]
    fn link_waits_render_positionally() {
        let slot = WaitNode::LinkSlot {
            to: 0,
            from: 2,
            seq: 7,
        };
        let rec = WaitRecord {
            blocked: WaitNode::Msg(MsgId { sender: 1, seq: 3 }),
            who: 0,
            since: SimTime::ZERO,
            slot: None,
            waits: vec![(slot, WaitReason::Severed)],
        };
        let mut out = String::new();
        assert_eq!(render_records(&mut out, &[rec], None), (1, 1));
        assert!(out.contains("link p2 pos 7 — link severed"), "{out}");
        // A positional wait is a wait: the "nothing blocks it" line must
        // not appear.
        assert!(!out.contains("nothing —"), "{out}");
    }

    #[test]
    fn pccast_explainer_runs_and_is_deterministic() {
        let out = explain("--seed 2 --discipline pccast");
        assert!(out.contains("(pccast)"), "{out}");
        assert_eq!(out, explain("--seed 2 --discipline pccast"));
    }

    /// With the wedged flush injected, asking about a message frozen at
    /// the stalled member names the stall component it is tied to and
    /// renders its path.
    #[test]
    fn wedged_flush_msg_is_tied_to_its_stall_component() {
        let out = explain("--seed 8 --bug no-flush-retry --msg m2.80");
        assert!(out.contains("stall component #"), "{out}");
        assert!(out.contains("flush@P"), "{out}");
    }

    /// Mid-run, the abcast explainer names the exact order slot a held
    /// message waits on and who should have assigned it.
    #[test]
    fn abcast_explainer_names_the_missing_order_slot() {
        let out = explain("--seed 0 --discipline abcast --at 105");
        assert!(out.contains("(abcast, sequencer P0)"), "{out}");
        assert!(out.contains("assigned order slot 51"), "{out}");
        assert!(
            out.contains("order slot 50 — no assignment for that slot has arrived"),
            "{out}"
        );
        assert!(out.contains("[order]"), "{out}");
        assert_eq!(out, explain("--seed 0 --discipline abcast --at 105"));
    }

    /// The token explainer names the current holder and what blocked
    /// members queue behind.
    #[test]
    fn token_explainer_names_the_holder_and_the_gap() {
        let out = explain("--seed 0 --discipline token --at 25");
        assert!(out.contains("token holder at the snapshot: P2"), "{out}");
        assert!(
            out.contains("P0 has submissions queued awaiting the token"),
            "{out}"
        );
        let out = explain("--seed 0 --discipline token --at 45");
        assert!(
            out.contains("order slot 13 — awaiting the rotation"),
            "{out}"
        );
        assert!(out.contains("[token]"), "{out}");
    }

    /// By the full horizon a healthy group has drained; the report says
    /// so instead of showing stale state.
    #[test]
    fn total_explainer_reports_a_drained_group() {
        let out = explain("--seed 0 --discipline abcast");
        assert!(
            out.contains("no messages were awaiting a total-order slot"),
            "{out}"
        );
    }

    #[test]
    fn output_is_deterministic() {
        let wedged = "--seed 8 --bug no-flush-retry";
        assert_eq!(explain(wedged), explain(wedged));
    }
}
