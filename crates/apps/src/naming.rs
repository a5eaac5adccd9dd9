//! Replication in the large — §4.5, Lampson's global name service.
//!
//! "Lampson's design suggests that duplicate name binding can be resolved
//! by undoing one of the name bindings. In the scale of multi-national
//! directory service that this design addresses, tolerating the
//! occasional 'undo' of this nature seems far preferable in practice than
//! having directory operations significantly delayed by message losses or
//! reorderings."
//!
//! The model: directory replicas accept name bindings *locally* (high
//! availability — a bind never waits on remote replicas) and propagate
//! them lazily by anti-entropy gossip. Two replicas may concurrently bind
//! the same name; the conflict is resolved deterministically by an
//! **undo rule** (lowest `(timestamp, origin)` wins), and every replica
//! converges to the same directory without any ordered multicast.
//!
//! Experiment T15 measures: bind latency (always local), convergence
//! time, number of undos, and contrasts the communication state with the
//! CATOCS equivalent (a wide-area causal group over every replica).

use clocks::lamport::TotalStamp;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A name binding: name → value, stamped for conflict resolution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Binding {
    /// The bound name.
    pub name: u64,
    /// The bound value.
    pub value: u64,
    /// Conflict-resolution stamp: earliest `(time, origin)` wins — the
    /// deterministic "undo one of the bindings" rule.
    pub stamp: TotalStamp,
}

/// Anti-entropy messages.
#[derive(Clone, Debug)]
pub(crate) enum DirMsg {
    /// A gossip digest: a batch of bindings known at the sender.
    Gossip(Vec<Binding>),
}

/// A directory replica.
pub(crate) struct DirReplica {
    me: usize,
    n: usize,
    clock: clocks::lamport::LamportClock,
    /// The directory: name → winning binding.
    pub directory: BTreeMap<u64, Binding>,
    /// Bindings undone by the conflict rule (the §4.5 "occasional undo").
    pub undos: u64,
    /// Locally originated binds (all accepted instantly).
    pub local_binds: u64,
    /// Names to bind, drained one per app tick.
    to_bind: Vec<(u64, u64)>,
    gossip_every: SimDuration,
}

const GOSSIP: TimerId = TimerId(0);
const BIND: TimerId = TimerId(1);

impl DirReplica {
    /// Creates replica `me` of `n`, which will bind the given
    /// (name, value) pairs locally over time.
    pub(crate) fn new(
        me: usize,
        n: usize,
        to_bind: Vec<(u64, u64)>,
        gossip_every: SimDuration,
    ) -> Self {
        DirReplica {
            me,
            n,
            clock: clocks::lamport::LamportClock::new(),
            directory: BTreeMap::new(),
            undos: 0,
            local_binds: 0,
            to_bind,
            gossip_every,
        }
    }

    /// Applies a binding under the undo rule; returns true if it won.
    fn apply(&mut self, b: Binding) -> bool {
        self.clock.observe(b.stamp.time);
        match self.directory.get(&b.name) {
            None => {
                self.directory.insert(b.name, b);
                true
            }
            Some(existing) if b.stamp < existing.stamp => {
                // The newcomer is older: the existing binding is undone.
                self.undos += 1;
                self.directory.insert(b.name, b);
                true
            }
            Some(existing) if existing.stamp == b.stamp => true, // same
            Some(_) => {
                // The newcomer loses: it is the one undone (if it was
                // ever visible here, it never was — count only real
                // reversals above).
                false
            }
        }
    }
}

impl Process<DirMsg> for DirReplica {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DirMsg>) {
        ctx.set_timer(GOSSIP, self.gossip_every);
        ctx.set_timer(BIND, SimDuration::from_millis(7));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, DirMsg>, _f: ProcessId, msg: DirMsg) {
        let DirMsg::Gossip(bindings) = msg;
        for b in bindings {
            self.apply(b);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DirMsg>, t: TimerId) {
        match t {
            BIND => {
                if let Some((name, value)) = self.to_bind.pop() {
                    // Bind locally, instantly — availability first.
                    let stamp = self.clock.total_stamp(self.me);
                    self.local_binds += 1;
                    self.apply(Binding { name, value, stamp });
                    ctx.set_timer(BIND, SimDuration::from_millis(7));
                }
            }
            GOSSIP => {
                // Push anti-entropy to one random peer.
                let peer = loop {
                    let p = ctx.rng().gen_range(0..self.n);
                    if p != self.me {
                        break p;
                    }
                };
                let batch: Vec<Binding> = self.directory.values().cloned().collect();
                ctx.send(ProcessId(peer), DirMsg::Gossip(batch));
                ctx.set_timer(GOSSIP, self.gossip_every);
            }
            _ => {}
        }
    }
}

/// Results of one naming run.
#[derive(Clone, Debug)]
pub struct NamingResult {
    /// All replicas ended with identical directories.
    pub converged: bool,
    /// Distinct names bound.
    pub names: usize,
    /// Bindings undone by the conflict rule, summed over replicas.
    pub undos: u64,
    /// Local binds (all served without waiting on the network).
    pub local_binds: u64,
    /// Messages on the wire.
    pub msgs: u64,
}

/// Runs `n` replicas binding `names` names (with deliberate conflicts:
/// every name is bound at two replicas).
pub fn run_naming(seed: u64, n: usize, names: u64, loss: f64) -> NamingResult {
    let net = NetConfig {
        drop_probability: loss,
        ..NetConfig::lossy_lan(loss)
    };
    let mut sim = SimBuilder::new(seed).net(net).build::<DirMsg>();
    for me in 0..n {
        // Each replica binds a share of the names; every name is also
        // bound (with a different value) at the next replica → conflicts.
        let mut mine = Vec::new();
        for name in 0..names {
            if name as usize % n == me {
                mine.push((name, 1000 + me as u64));
            }
            if (name as usize + 1) % n == me {
                mine.push((name, 2000 + me as u64));
            }
        }
        sim.add_process(DirReplica::new(me, n, mine, SimDuration::from_millis(25)));
    }
    sim.run_until(SimTime::from_secs(20));
    let dirs: Vec<BTreeMap<u64, Binding>> = (0..n)
        .map(|p| {
            sim.process::<DirReplica>(ProcessId(p))
                .expect("replica")
                .directory
                .clone()
        })
        .collect();
    let converged = dirs.windows(2).all(|w| w[0] == w[1]);
    let mut undos = 0;
    let mut local_binds = 0;
    for p in 0..n {
        let r: &DirReplica = sim.process(ProcessId(p)).expect("replica");
        undos += r.undos;
        local_binds += r.local_binds;
    }
    NamingResult {
        converged,
        names: dirs[0].len(),
        undos,
        local_binds,
        msgs: sim.metrics().counter("net.sent"),
    }
}

/// §4.5's analytic cost of running the same directory over a CATOCS
/// group: per-replica communication state (vector clock over all
/// replicas plus unstable buffers for in-flight traffic).
pub fn catocs_directory_state(replicas: usize, outstanding: usize, msg_bytes: usize) -> usize {
    replicas * (8 * replicas) + replicas * outstanding * msg_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_converge_despite_conflicts() {
        let r = run_naming(1, 5, 40, 0.05);
        assert!(r.converged, "{r:?}");
        assert_eq!(r.names, 40);
    }

    #[test]
    fn conflicts_are_resolved_by_undo() {
        let r = run_naming(2, 5, 40, 0.0);
        assert!(r.undos > 0, "duplicate bindings must be undone: {r:?}");
    }

    #[test]
    fn binds_are_always_local() {
        // 40 names, each bound twice = 80 local binds, none delayed.
        let r = run_naming(3, 5, 40, 0.1);
        assert_eq!(r.local_binds, 80);
    }

    #[test]
    fn undo_rule_is_deterministic() {
        let a = run_naming(7, 4, 30, 0.05);
        let b = run_naming(7, 4, 30, 0.05);
        assert_eq!(a.undos, b.undos);
        assert!(a.converged && b.converged);
    }

    #[test]
    fn catocs_state_grows_quadratically_with_replicas() {
        let small = catocs_directory_state(10, 8, 512);
        let big = catocs_directory_state(100, 8, 512);
        assert!(big > 10 * small);
    }
}
