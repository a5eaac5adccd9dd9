//! `experiments chaos --seed N --shrink` — the smallest fault plan that
//! still violates.
//!
//! A generated plan holds a dozen faults, of which a violation usually
//! needs two or three. This is delta debugging over the plan's
//! *episodes* (`FaultPlan::episodes`: a crash with its recovery, a
//! partition with its heal, a degradation with its restore), never over
//! single events: dropping a lone recovery leaves a process down to the
//! horizon, steps outside the generator's concurrent-crash envelope and
//! turns a safety bug into a legitimate primary-partition block. The
//! simulator's seed, and so every loss and latency draw it makes for a
//! given sequence of sends, stays the replay's; only the schedule
//! shrinks. Chunks of episodes are removed in halving sizes down to one;
//! the loop ends with a pass in which no single episode could be removed,
//! so the result is 1-minimal. A candidate still fails when it shows a
//! violation of a kind the original showed — not necessarily the same
//! message or process, which move with the schedule.

use crate::experiments::replay::Replay;
use catocs::vsync::{Campaign, CampaignResult};
use simnet::fault::FaultPlan;
use std::fmt::Write as _;
use std::mem::discriminant;

/// A shrunk replay.
pub(crate) struct Shrunk {
    /// The replay, pinned to the cell that was shrunk.
    pub replay: Replay,
    /// The generated plan.
    pub original: FaultPlan,
    /// The run under the 1-minimal plan (`result.plan`).
    pub result: CampaignResult,
    /// Campaigns run, the original's included.
    pub campaigns: usize,
}

/// Shrinks the fault plan of the replay's first violating cell. `None`
/// when no cell violates: there is nothing to shrink.
pub(crate) fn shrink(replay: &Replay) -> Option<Shrunk> {
    let mut campaigns = 0;
    let (replay, original) = replay.cells().into_iter().find_map(|cell| {
        campaigns += 1;
        let replay = replay.in_cell(cell);
        let r = replay.run();
        (!r.violations.is_empty()).then_some((replay, r))
    })?;
    let kinds: Vec<_> = original.violations.iter().map(discriminant).collect();
    let plan = original.plan.clone();
    let mut attempt = |episodes: &[Vec<usize>]| {
        let mut events: Vec<usize> = episodes.iter().flatten().copied().collect();
        events.sort_unstable();
        let candidate = FaultPlan {
            events: events.iter().map(|&i| plan.events[i].clone()).collect(),
            ..plan.clone()
        };
        campaigns += 1;
        let campaign = Campaign {
            plan: Some(candidate),
            ..replay.campaign()
        };
        let r = campaign.run();
        let fails = r
            .violations
            .iter()
            .any(|v| kinds.contains(&discriminant(v)));
        fails.then_some(r)
    };

    let mut kept = plan.episodes();
    let mut result = original;
    let mut size = kept.len().div_ceil(2).max(1);
    loop {
        let (mut at, mut removed) = (0, false);
        while at < kept.len() {
            let mut without = kept.clone();
            without.drain(at..(at + size).min(kept.len()));
            match attempt(&without) {
                Some(r) => (kept, result, removed) = (without, r, true),
                None => at += size,
            }
        }
        if size == 1 && !removed {
            break;
        }
        size = size.div_ceil(2);
    }
    Some(Shrunk {
        replay,
        original: plan,
        result,
        campaigns,
    })
}

/// What `chaos --shrink` prints.
pub fn report(replay: &Replay) -> Option<String> {
    let s = shrink(replay)?;
    let (replay, plan) = (&s.replay, &s.result.plan);
    let mut out = String::new();
    let _ = writeln!(out, "SHRINK — {replay}");
    if let Some(injected) = replay.injected() {
        let _ = writeln!(out, "{injected}");
    }
    let _ = writeln!(
        out,
        "{} events in {} episodes shrunk to {} in {} after {} campaigns; \
         no single episode can be removed\n\n{plan}",
        s.original.events.len(),
        s.original.episodes().len(),
        plan.events.len(),
        plan.episodes().len(),
        s.campaigns
    );
    let _ = writeln!(out, "violations ({}):", s.result.violations.len());
    for v in &s.result.violations {
        let _ = writeln!(out, "  {v}");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::replay::replay_of;
    use catocs::vsync::Violation;

    /// Seed 2 with flush retries off shrinks, the same way every time,
    /// to a plan that still freezes a survivor and from which no single
    /// episode can be removed.
    #[test]
    fn wedged_flush_shrinks_to_a_one_minimal_plan() {
        let replay = replay_of("chaos", "--seed 2 --bug no-flush-retry --shrink");
        let s = shrink(&replay).expect("seed 2 violates without flush retries");
        let frozen = |r: &CampaignResult| {
            let mut kinds = r.violations.iter();
            kinds.any(|v| matches!(v, Violation::FrozenAtEnd { .. }))
        };
        assert!(frozen(&s.result), "{:?}", s.result.violations);
        assert!(s.result.plan.events.len() < s.original.events.len());
        let again = shrink(&replay).expect("deterministic");
        assert_eq!(again.result.plan.events, s.result.plan.events);
        assert_eq!(again.campaigns, s.campaigns);

        let original = s.replay.run().violations;
        let kinds: Vec<_> = original.iter().map(discriminant).collect();
        let events = &s.result.plan.events;
        for dropped in s.result.plan.episodes() {
            let kept = (0..events.len()).filter(|i| !dropped.contains(i));
            let plan = FaultPlan {
                events: kept.map(|i| events[i].clone()).collect(),
                ..s.result.plan.clone()
            };
            let campaign = Campaign {
                plan: Some(plan),
                ..s.replay.campaign()
            };
            let r = campaign.run();
            assert!(
                !r.violations
                    .iter()
                    .any(|v| kinds.contains(&discriminant(v))),
                "episode {dropped:?} was removable: {:?}",
                r.violations
            );
        }
        let text = report(&replay).expect("a report");
        assert!(
            text.contains("fault plan") && text.contains("frozen"),
            "{text}"
        );
    }

    #[test]
    fn a_clean_seed_has_nothing_to_shrink() {
        assert!(shrink(&replay_of("chaos", "--seed 2 --shrink")).is_none());
        assert!(report(&replay_of(
            "chaos",
            "--seed 0 --cell indexed-delta --shrink"
        ))
        .is_none());
    }
}
