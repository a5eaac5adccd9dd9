//! Seed-derived fault-injection campaigns.
//!
//! A [`FaultPlan`] is a deterministic schedule of network and process
//! faults — partitions, heals, crashes, recoveries, and degradation
//! episodes (burst loss, duplication, delay inflation) — generated from a
//! seed and applied to a [`Sim`] before the run starts.
//! The generator enforces the safety rules the virtual-synchrony checker
//! relies on:
//!
//! - at most one partition is active at a time, and its minority side
//!   holds at most `(n - 1) / 2` processes, so a majority component
//!   always exists;
//!
//! - every currently-crashed process is placed on the minority side of a
//!   new partition, and while a partition is active only minority-side
//!   processes crash — the majority component stays fully connected;
//!
//! - concurrent crashes never exceed `(n - 1) / 2`, so a flush quorum
//!   survives;
//!
//! - every partition is healed and every degradation episode restored by
//!   `horizon - settle`, leaving a quiet tail in which the protocol can
//!   converge before invariants are checked.
//!
//! Determinism: the plan's RNG is separate from the simulator's, so the
//! same `(seed, n, config)` yields the same schedule regardless of what
//! the simulation itself does with randomness.

use crate::process::ProcessId;
use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One kind of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Bidirectional partition between components `a` and `b`.
    Partition { a: Vec<usize>, b: Vec<usize> },
    /// All partitions heal.
    Heal,
    /// Process crashes (stops receiving anything).
    Crash(usize),
    /// Process recovers (`on_recover` fires).
    Recover(usize),
    /// Network degradation episode starts.
    Degrade {
        extra_drop: f64,
        dup_probability: f64,
        delay_factor: f64,
    },
    /// Degradation episode ends.
    Restore,
}

/// A fault with its scheduled injection time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// Tunables for [`FaultPlan::generate`].
#[derive(Clone, Debug)]
pub struct FaultPlanConfig {
    /// End of the simulated run.
    pub horizon: SimTime,
    /// Quiet tail before `horizon` with no active faults.
    pub settle: SimDuration,
}

/// Earliest fault injection time.
const FIRST_FAULT: SimTime = SimTime::from_millis(200);
/// Minimum gap between consecutive fault events.
const MIN_GAP: SimDuration = SimDuration::from_millis(80);
/// Maximum gap between consecutive fault events.
const MAX_GAP: SimDuration = SimDuration::from_millis(400);

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon: SimTime::from_secs(4),
            settle: SimDuration::from_millis(1200),
        }
    }
}

/// A deterministic, seed-derived schedule of faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed the schedule was derived from.
    pub seed: u64,
    /// Group size the schedule was generated for.
    pub n: usize,
    /// End of the simulated run (copy of the config horizon).
    pub horizon: SimTime,
    /// Events in non-decreasing time order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Derives a schedule for a group of `n` from `seed`.
    pub fn generate(seed: u64, n: usize, cfg: &FaultPlanConfig) -> FaultPlan {
        assert!(n >= 2, "fault plans need at least two processes");
        // Offset the seed so the plan RNG never mirrors the sim RNG.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_fa17_0000_0001);
        let max_down = (n - 1) / 2;
        let deadline = cfg.horizon - cfg.settle;

        let mut events = Vec::new();
        let mut crashed: Vec<usize> = Vec::new();
        let mut minority: Option<Vec<usize>> = None;
        let mut degraded = false;

        let mut t = FIRST_FAULT;
        while t < deadline {
            // Candidate actions that keep the schedule within the safety
            // envelope at this instant.
            let mut actions: Vec<u8> = Vec::new();
            let can_crash = crashed.len() < max_down
                && match &minority {
                    // During a partition only minority-side members crash.
                    Some(side) => side.iter().any(|p| !crashed.contains(p)),
                    None => true,
                };
            if can_crash {
                actions.push(0);
            }
            if !crashed.is_empty() {
                actions.push(1); // recover
            }
            if minority.is_none() && max_down >= 1 && crashed.len() <= max_down {
                actions.push(2); // partition
            }
            if minority.is_some() {
                actions.push(3); // heal
            }
            if degraded {
                actions.push(5); // restore
            } else {
                actions.push(4); // degrade
            }
            let action = actions[rng.gen_range(0..actions.len())];
            match action {
                0 => {
                    let pool: Vec<usize> = match &minority {
                        Some(side) => side
                            .iter()
                            .copied()
                            .filter(|p| !crashed.contains(p))
                            .collect(),
                        None => (0..n).filter(|p| !crashed.contains(p)).collect(),
                    };
                    let victim = pool[rng.gen_range(0..pool.len())];
                    crashed.push(victim);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Crash(victim),
                    });
                }
                1 => {
                    let i = rng.gen_range(0..crashed.len());
                    let back = crashed.swap_remove(i);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Recover(back),
                    });
                }
                2 => {
                    // Minority = all crashed processes plus random extras,
                    // capped at (n - 1) / 2.
                    let want = rng.gen_range(crashed.len().max(1)..=max_down);
                    let mut side = crashed.clone();
                    let mut pool: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();
                    while side.len() < want {
                        let i = rng.gen_range(0..pool.len());
                        side.push(pool.swap_remove(i));
                    }
                    side.sort_unstable();
                    let other: Vec<usize> = (0..n).filter(|p| !side.contains(p)).collect();
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Partition {
                            a: side.clone(),
                            b: other,
                        },
                    });
                    minority = Some(side);
                }
                3 => {
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Heal,
                    });
                    minority = None;
                }
                4 => {
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Degrade {
                            extra_drop: rng.gen_range(0.02..0.25),
                            dup_probability: rng.gen_range(0.0..0.2),
                            delay_factor: rng.gen_range(1.0..4.0),
                        },
                    });
                    degraded = true;
                }
                _ => {
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::Restore,
                    });
                    degraded = false;
                }
            }
            let gap = rng.gen_range(MIN_GAP.as_micros()..=MAX_GAP.as_micros());
            t += SimDuration::from_micros(gap);
        }

        // Close every open episode before the settle window.
        if minority.is_some() {
            events.push(FaultEvent {
                at: deadline,
                kind: FaultKind::Heal,
            });
        }
        if degraded {
            events.push(FaultEvent {
                at: deadline,
                kind: FaultKind::Restore,
            });
        }

        FaultPlan {
            seed,
            n,
            horizon: cfg.horizon,
            events,
        }
    }

    /// Schedules every event of the plan on `sim`.
    pub fn apply<M: std::fmt::Debug + Clone + 'static>(&self, sim: &mut Sim<M>) {
        for ev in &self.events {
            match &ev.kind {
                FaultKind::Partition { a, b } => {
                    let a: Vec<ProcessId> = a.iter().map(|&p| ProcessId(p)).collect();
                    let b: Vec<ProcessId> = b.iter().map(|&p| ProcessId(p)).collect();
                    sim.partition_at(&a, &b, ev.at);
                }
                FaultKind::Heal => sim.heal_at(ev.at),
                FaultKind::Crash(p) => sim.crash_at(ProcessId(*p), ev.at),
                FaultKind::Recover(p) => sim.recover_at(ProcessId(*p), ev.at),
                FaultKind::Degrade {
                    extra_drop,
                    dup_probability,
                    delay_factor,
                } => sim.degrade_at(ev.at, *extra_drop, *dup_probability, *delay_factor),
                FaultKind::Restore => sim.restore_at(ev.at),
            }
        }
    }

    /// The plan's events grouped into episodes, as indices into
    /// [`Self::events`]: a crash with the recovery that ends it, a
    /// partition with its heal, a degradation with its restore (an
    /// episode still open at the horizon has no closing event). Removing
    /// whole episodes keeps a plan inside the generator's envelope —
    /// fewer concurrent crashes, every partition healed — where removing
    /// a lone `Recover` would leave a process down to the horizon.
    pub fn episodes(&self) -> Vec<Vec<usize>> {
        let mut episodes: Vec<Vec<usize>> = Vec::new();
        // Episode of the open partition, the open degradation, and of
        // each process that is down.
        let (mut split, mut degraded) = (None, None);
        let mut down: Vec<(usize, usize)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            let closes = match &ev.kind {
                FaultKind::Heal => split.take(),
                FaultKind::Restore => degraded.take(),
                FaultKind::Recover(p) => {
                    let at = down.iter().position(|(q, _)| q == p);
                    at.map(|at| down.swap_remove(at).1)
                }
                _ => None,
            };
            let episode = closes.unwrap_or_else(|| {
                episodes.push(Vec::new());
                episodes.len() - 1
            });
            episodes[episode].push(i);
            match &ev.kind {
                FaultKind::Partition { .. } => split = Some(episode),
                FaultKind::Degrade { .. } => degraded = Some(episode),
                FaultKind::Crash(p) => down.push((*p, episode)),
                _ => {}
            }
        }
        episodes
    }

    /// Processes that are crashed (and not recovered) at the horizon.
    pub fn crashed_at_horizon(&self) -> Vec<usize> {
        let mut down: Vec<usize> = Vec::new();
        for ev in &self.events {
            match &ev.kind {
                FaultKind::Crash(p) => down.push(*p),
                FaultKind::Recover(p) => down.retain(|q| q != p),
                _ => {}
            }
        }
        down.sort_unstable();
        down
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault plan seed={} n={} horizon={}ms ({} events)",
            self.seed,
            self.n,
            self.horizon.as_micros() / 1000,
            self.events.len()
        )?;
        for ev in &self.events {
            let ms = ev.at.as_micros() as f64 / 1000.0;
            match &ev.kind {
                FaultKind::Partition { a, b } => {
                    writeln!(f, "  {ms:>8.1}ms  partition {a:?} | {b:?}")?
                }
                FaultKind::Heal => writeln!(f, "  {ms:>8.1}ms  heal")?,
                FaultKind::Crash(p) => writeln!(f, "  {ms:>8.1}ms  crash p{p}")?,
                FaultKind::Recover(p) => writeln!(f, "  {ms:>8.1}ms  recover p{p}")?,
                FaultKind::Degrade {
                    extra_drop,
                    dup_probability,
                    delay_factor,
                } => writeln!(
                    f,
                    "  {ms:>8.1}ms  degrade drop+{extra_drop:.2} dup={dup_probability:.2} delay×{delay_factor:.1}"
                )?,
                FaultKind::Restore => writeln!(f, "  {ms:>8.1}ms  restore")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(7, 5, &cfg);
        let b = FaultPlan::generate(7, 5, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultPlanConfig::default();
        let plans: Vec<FaultPlan> = (0..20).map(|s| FaultPlan::generate(s, 5, &cfg)).collect();
        let distinct = plans
            .iter()
            .map(|p| format!("{p}"))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(distinct > 15, "only {distinct} distinct plans out of 20");
    }

    #[test]
    fn safety_envelope_holds() {
        let cfg = FaultPlanConfig::default();
        for seed in 0..200 {
            for n in [3, 5, 8] {
                let plan = FaultPlan::generate(seed, n, &cfg);
                let max_down = (n - 1) / 2;
                let deadline = cfg.horizon - cfg.settle;
                let mut crashed: Vec<usize> = Vec::new();
                let mut minority: Option<Vec<usize>> = None;
                let mut degraded = false;
                let mut last = SimTime::ZERO;
                for ev in &plan.events {
                    assert!(ev.at >= last, "events out of order: {plan}");
                    assert!(ev.at <= deadline, "fault after settle cut: {plan}");
                    last = ev.at;
                    match &ev.kind {
                        FaultKind::Crash(p) => {
                            if let Some(side) = &minority {
                                assert!(
                                    side.contains(p),
                                    "crash outside minority during partition: {plan}"
                                );
                            }
                            crashed.push(*p);
                            assert!(
                                crashed.len() <= max_down,
                                "too many concurrent crashes: {plan}"
                            );
                        }
                        FaultKind::Recover(p) => {
                            assert!(crashed.contains(p), "recover of live process: {plan}");
                            crashed.retain(|q| q != p);
                        }
                        FaultKind::Partition { a, b } => {
                            assert!(minority.is_none(), "nested partition: {plan}");
                            assert!(a.len() <= max_down, "minority too big: {plan}");
                            assert_eq!(a.len() + b.len(), n, "partition not a cover: {plan}");
                            for p in &crashed {
                                assert!(a.contains(p), "crashed p{p} outside minority: {plan}");
                            }
                            minority = Some(a.clone());
                        }
                        FaultKind::Heal => {
                            assert!(minority.is_some(), "heal without partition: {plan}");
                            minority = None;
                        }
                        FaultKind::Degrade { .. } => {
                            assert!(!degraded, "nested degrade: {plan}");
                            degraded = true;
                        }
                        FaultKind::Restore => {
                            assert!(degraded, "restore without degrade: {plan}");
                            degraded = false;
                        }
                    }
                }
                assert!(minority.is_none(), "partition never healed: {plan}");
                assert!(!degraded, "degrade never restored: {plan}");
                assert!(crashed.len() <= max_down);
            }
        }
    }

    #[test]
    fn applies_to_a_sim() {
        let cfg = FaultPlanConfig::default();
        let plan = FaultPlan::generate(3, 5, &cfg);
        let mut sim = crate::sim::SimBuilder::new(3).build::<()>();
        plan.apply(&mut sim);
        // Faults alone (no processes) run to completion deterministically.
        sim.run_until(cfg.horizon);
    }

    #[test]
    fn episodes_pair_every_fault_with_what_ends_it() {
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, 5, &FaultPlanConfig::default());
            let episodes = plan.episodes();
            // Every event is in exactly one episode.
            let mut all: Vec<usize> = episodes.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..plan.events.len()).collect::<Vec<_>>());
            for episode in &episodes {
                let kinds: Vec<&FaultKind> =
                    episode.iter().map(|&i| &plan.events[i].kind).collect();
                match kinds[..] {
                    [FaultKind::Partition { .. }, FaultKind::Heal]
                    | [FaultKind::Degrade { .. }, FaultKind::Restore]
                    | [FaultKind::Crash(_)] => {}
                    [FaultKind::Crash(p), FaultKind::Recover(q)] => assert_eq!(p, q),
                    _ => panic!("seed {seed}: episode {kinds:?}"),
                }
            }
        }
    }
}
