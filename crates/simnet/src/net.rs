//! The network model: latency, jitter, loss, reordering and partitions.
//!
//! The model is deliberately adversarial toward ordering protocols, in the
//! way real datagram networks are: unless per-link FIFO is requested,
//! messages between the same pair of processes may be reordered by jitter.
//! CATOCS protocols must therefore do real work to provide their
//! guarantees, and the state-level alternatives must survive the same
//! conditions.

use crate::process::ProcessId;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// How the one-way latency of a message is sampled.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum LatencyModel {
    /// A constant one-way delay.
    Fixed(SimDuration),
    /// Uniform in `[min, max]`.
    Uniform { min: SimDuration, max: SimDuration },
    /// `base` plus exponentially-distributed jitter with the given mean —
    /// a standard heavy-ish tail model for queueing delay.
    ExpJitter {
        base: SimDuration,
        mean_jitter: SimDuration,
    },
    /// Distance-derived: `per_unit` times the topology distance, plus
    /// uniform jitter in `[0, jitter × distance]` — longer paths cross
    /// more queues, so their delay variance grows with distance. Used by
    /// the §5 scaling experiments and the clustered-LAN scenarios.
    Spatial {
        per_unit: SimDuration,
        jitter: SimDuration,
    },
}

impl LatencyModel {
    /// A convenient LAN-ish default: 1ms ± exponential 300us jitter.
    pub(crate) fn lan() -> Self {
        LatencyModel::ExpJitter {
            base: SimDuration::from_micros(1_000),
            mean_jitter: SimDuration::from_micros(300),
        }
    }

    /// Samples a one-way delay for a message from `a` to `b`.
    pub(crate) fn sample(
        &self,
        rng: &mut SmallRng,
        topo: &Topology,
        a: ProcessId,
        b: ProcessId,
    ) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { min, max } => {
                let lo = min.as_micros();
                let hi = max.as_micros().max(lo);
                SimDuration::from_micros(rng.gen_range(lo..=hi))
            }
            LatencyModel::ExpJitter { base, mean_jitter } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let jitter = -(u.ln()) * mean_jitter.as_micros() as f64;
                *base + SimDuration::from_micros(jitter.round() as u64)
            }
            LatencyModel::Spatial { per_unit, jitter } => {
                let dist = topo.distance(a, b);
                let prop = topo.propagation(a, b, *per_unit);
                let jitter_cap = (jitter.as_micros() as f64 * dist).round() as u64;
                let j = if jitter_cap == 0 {
                    0
                } else {
                    rng.gen_range(0..=jitter_cap)
                };
                prop + SimDuration::from_micros(j)
            }
        }
    }
}

/// Full configuration of the simulated network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetConfig {
    /// Latency model applied to every message.
    pub latency: LatencyModel,
    /// Spatial arrangement used by `LatencyModel::Spatial`.
    pub topology: Topology,
    /// Probability in `[0,1]` that any given message is silently dropped.
    pub drop_probability: f64,
    /// When true, messages between each ordered pair of processes are
    /// delivered in the order sent (per-link FIFO). When false the network
    /// may reorder, as UDP/IP-multicast does.
    pub fifo_links: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: LatencyModel::lan(),
            topology: Topology::Flat,
            drop_probability: 0.0,
            fifo_links: false,
        }
    }
}

impl NetConfig {
    /// A lossless, fixed-latency, FIFO network — useful in unit tests where
    /// protocol behaviour should be isolated from network nondeterminism.
    pub fn ideal(latency: SimDuration) -> Self {
        NetConfig {
            latency: LatencyModel::Fixed(latency),
            topology: Topology::Flat,
            drop_probability: 0.0,
            fifo_links: true,
        }
    }

    /// A jittery, reordering LAN.
    pub fn lossy_lan(drop_probability: f64) -> Self {
        NetConfig {
            latency: LatencyModel::lan(),
            topology: Topology::Flat,
            drop_probability,
            fifo_links: false,
        }
    }
}

/// Runtime network state: partitions, per-link FIFO clocks, and temporary
/// degradation (burst loss, duplication, delay inflation) installed by
/// fault schedules.
#[derive(Debug)]
pub(crate) struct NetState {
    /// Pairs (a,b) that cannot currently communicate (stored both ways).
    blocked: HashSet<(ProcessId, ProcessId)>,
    /// For FIFO links: the earliest time the next message on (from,to) may
    /// arrive, ensuring non-decreasing arrival times per link.
    link_clock: HashMap<(ProcessId, ProcessId), SimTime>,
    /// Drop probability added to the config's while degraded (burst loss).
    extra_drop: f64,
    /// Probability a delivered message is duplicated while degraded.
    dup_probability: f64,
    /// Multiplier applied to sampled one-way delays while degraded.
    delay_factor: f64,
}

impl Default for NetState {
    fn default() -> Self {
        NetState {
            blocked: HashSet::new(),
            link_clock: HashMap::new(),
            extra_drop: 0.0,
            dup_probability: 0.0,
            delay_factor: 1.0,
        }
    }
}

impl NetState {
    /// Creates an unpartitioned network state.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Installs a network-degradation episode: `extra_drop` is added to
    /// the configured drop probability, `dup_probability` duplicates
    /// delivered messages, and sampled delays are multiplied by
    /// `delay_factor`.
    pub(crate) fn degrade(&mut self, extra_drop: f64, dup_probability: f64, delay_factor: f64) {
        self.extra_drop = extra_drop.clamp(0.0, 1.0);
        self.dup_probability = dup_probability.clamp(0.0, 1.0);
        self.delay_factor = delay_factor.max(0.0);
    }

    /// Ends any degradation episode.
    pub(crate) fn restore(&mut self) {
        self.extra_drop = 0.0;
        self.dup_probability = 0.0;
        self.delay_factor = 1.0;
    }

    /// Extra drop probability currently in force.
    pub(crate) fn extra_drop(&self) -> f64 {
        self.extra_drop
    }

    /// Duplication probability currently in force.
    pub(crate) fn dup_probability(&self) -> f64 {
        self.dup_probability
    }

    /// Delay multiplier currently in force.
    pub(crate) fn delay_factor(&self) -> f64 {
        self.delay_factor
    }

    /// Installs a bidirectional partition between groups `a` and `b`.
    pub(crate) fn partition(&mut self, a: &[ProcessId], b: &[ProcessId]) {
        for &x in a {
            for &y in b {
                self.blocked.insert((x, y));
                self.blocked.insert((y, x));
            }
        }
    }

    /// Removes all partitions.
    pub(crate) fn heal(&mut self) {
        self.blocked.clear();
    }

    /// Whether `from` can currently reach `to`.
    pub(crate) fn reachable(&self, from: ProcessId, to: ProcessId) -> bool {
        !self.blocked.contains(&(from, to))
    }

    /// Computes the arrival time for a message sent at `now` with sampled
    /// one-way `delay`, enforcing per-link FIFO when configured.
    pub(crate) fn arrival_time(
        &mut self,
        cfg: &NetConfig,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        delay: SimDuration,
    ) -> SimTime {
        let mut at = now + delay;
        if cfg.fifo_links {
            let clock = self.link_clock.entry((from, to)).or_insert(SimTime::ZERO);
            if at < *clock {
                at = *clock;
            }
            *clock = at;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn fixed_latency_is_fixed() {
        let m = LatencyModel::Fixed(SimDuration::from_millis(2));
        let d = m.sample(&mut rng(), &Topology::Flat, ProcessId(0), ProcessId(1));
        assert_eq!(d, SimDuration::from_millis(2));
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(200),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r, &Topology::Flat, ProcessId(0), ProcessId(1));
            assert!((100..=200).contains(&d.as_micros()));
        }
    }

    #[test]
    fn exp_jitter_at_least_base() {
        let m = LatencyModel::ExpJitter {
            base: SimDuration::from_micros(500),
            mean_jitter: SimDuration::from_micros(100),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r, &Topology::Flat, ProcessId(0), ProcessId(1));
            assert!(d.as_micros() >= 500);
        }
    }

    #[test]
    fn spatial_latency_reflects_distance() {
        let m = LatencyModel::Spatial {
            per_unit: SimDuration::from_micros(100),
            jitter: SimDuration::ZERO,
        };
        let topo = Topology::Clustered {
            cluster_size: 2,
            wan_factor: 10.0,
        };
        let near = m.sample(&mut rng(), &topo, ProcessId(0), ProcessId(1));
        let far = m.sample(&mut rng(), &topo, ProcessId(0), ProcessId(2));
        assert_eq!(near.as_micros() * 10, far.as_micros());
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut st = NetState::new();
        st.partition(&[ProcessId(0)], &[ProcessId(1), ProcessId(2)]);
        let blocked: Vec<_> = (0..3)
            .flat_map(|a| (0..3).map(move |b| (a, b)))
            .filter(|&(a, b)| !st.reachable(ProcessId(a), ProcessId(b)))
            .collect();
        assert_eq!(blocked, [(0, 1), (0, 2), (1, 0), (2, 0)]);
        st.heal();
        assert!(st.reachable(ProcessId(0), ProcessId(1)));
    }

    #[test]
    fn degrade_and_restore() {
        let mut st = NetState::new();
        assert_eq!(st.extra_drop(), 0.0);
        assert_eq!(st.delay_factor(), 1.0);
        st.degrade(1.5, 0.2, 3.0); // extra_drop clamps to 1.0
        assert_eq!(st.extra_drop(), 1.0);
        assert_eq!(st.dup_probability(), 0.2);
        assert_eq!(st.delay_factor(), 3.0);
        st.restore();
        assert_eq!(st.extra_drop(), 0.0);
        assert_eq!(st.dup_probability(), 0.0);
        assert_eq!(st.delay_factor(), 1.0);
    }

    #[test]
    fn fifo_links_never_reorder() {
        let cfg = NetConfig {
            fifo_links: true,
            ..NetConfig::default()
        };
        let mut st = NetState::new();
        let t1 = st.arrival_time(
            &cfg,
            ProcessId(0),
            ProcessId(1),
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        // A later send with a much smaller sampled delay must not overtake.
        let t2 = st.arrival_time(
            &cfg,
            ProcessId(0),
            ProcessId(1),
            SimTime::from_millis(1),
            SimDuration::from_micros(10),
        );
        assert!(t2 >= t1);
    }

    #[test]
    fn non_fifo_links_can_reorder() {
        let cfg = NetConfig::default();
        let mut st = NetState::new();
        let t1 = st.arrival_time(
            &cfg,
            ProcessId(0),
            ProcessId(1),
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        let t2 = st.arrival_time(
            &cfg,
            ProcessId(0),
            ProcessId(1),
            SimTime::from_millis(1),
            SimDuration::from_micros(10),
        );
        assert!(t2 < t1, "non-FIFO link should allow overtaking");
    }
}
