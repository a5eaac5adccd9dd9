//! Spatial topologies used to derive propagation delay from distance.
//!
//! Section 5 of the paper argues that the system "diameter" — the time to
//! propagate a message across the system — grows roughly with the square
//! root of the number of processes ("a uniform world of nodes packed into a
//! circle"), and that wide-area links add a further step increase. Both
//! models are provided here so experiment T5 can measure buffering under
//! exactly the paper's assumptions.

use crate::process::ProcessId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How processes are arranged in space for distance-derived latency.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Topology {
    /// No spatial structure; distance is 1 between distinct processes.
    Flat,
    /// Nodes packed uniformly into a disk (the paper's §5 model): node `i`
    /// of `n` sits on a sunflower-spiral layout, so the expected pairwise
    /// distance — and thus the diameter — grows as `sqrt(n)`.
    UniformDisk { n: usize },
    /// `clusters` LANs connected by a WAN: intra-cluster distance is 1,
    /// inter-cluster distance is `wan_factor`. Models the paper's remark
    /// that "there is a significantly higher delay for wide-area
    /// communication compared to local-area communication".
    Clustered {
        cluster_size: usize,
        wan_factor: f64,
    },
    /// An explicit pairwise distance matrix (row-major, `n × n`). Pairs
    /// outside the matrix default to distance 1. Used by scenarios where
    /// some channels (a colocated database, a local client) are fast
    /// while the multicast substrate between sites is slow — the shape of
    /// the paper's Figure 2.
    Explicit { n: usize, dist: Vec<f64> },
}

impl Topology {
    /// The unit-less distance between two processes.
    pub(crate) fn distance(&self, a: ProcessId, b: ProcessId) -> f64 {
        if a == b {
            return 0.0;
        }
        match self {
            Topology::Flat => 1.0,
            Topology::UniformDisk { n } => {
                let (ax, ay) = Self::sunflower(a.0, *n);
                let (bx, by) = Self::sunflower(b.0, *n);
                let (dx, dy) = (ax - bx, ay - by);
                (dx * dx + dy * dy).sqrt().max(0.05)
            }
            Topology::Clustered {
                cluster_size,
                wan_factor,
            } => {
                let size = (*cluster_size).max(1);
                if a.0 / size == b.0 / size {
                    1.0
                } else {
                    wan_factor.max(1.0)
                }
            }
            Topology::Explicit { n, dist } => {
                if a.0 < *n && b.0 < *n {
                    dist.get(a.0 * n + b.0).copied().unwrap_or(1.0)
                } else {
                    1.0
                }
            }
        }
    }

    /// Builds an explicit topology from a square matrix of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix.
    pub fn explicit(rows: Vec<Vec<f64>>) -> Topology {
        let n = rows.len();
        assert!(
            rows.iter().all(|r| r.len() == n),
            "explicit topology requires a square matrix"
        );
        Topology::Explicit {
            n,
            dist: rows.into_iter().flatten().collect(),
        }
    }

    /// Deterministic sunflower-spiral placement of node `i` out of `n`,
    /// filling a disk of radius `sqrt(n)` with ~unit density.
    fn sunflower(i: usize, n: usize) -> (f64, f64) {
        // Golden-angle spiral: radius sqrt(i+0.5), angle i * 2.39996...
        let _ = n;
        let r = ((i as f64) + 0.5).sqrt();
        let theta = (i as f64) * 2.399_963_229_728_653;
        (r * theta.cos(), r * theta.sin())
    }

    /// Converts a distance into a propagation delay given a per-unit cost.
    pub(crate) fn propagation(
        &self,
        a: ProcessId,
        b: ProcessId,
        per_unit: SimDuration,
    ) -> SimDuration {
        let d = self.distance(a, b);
        SimDuration::from_micros((d * per_unit.as_micros() as f64).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The maximum distance between any pair in a system of `n` processes.
    fn diameter(t: &Topology, n: usize) -> f64 {
        let mut max = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                max = max.max(t.distance(ProcessId(i), ProcessId(j)));
            }
        }
        max
    }

    #[test]
    fn flat_is_unit_distance() {
        let t = Topology::Flat;
        assert_eq!(t.distance(ProcessId(0), ProcessId(1)), 1.0);
        assert_eq!(t.distance(ProcessId(2), ProcessId(2)), 0.0);
    }

    #[test]
    fn disk_diameter_grows_like_sqrt_n() {
        // The paper's §5 assumption: diameter ~ sqrt(N).
        let d16 = diameter(&Topology::UniformDisk { n: 16 }, 16);
        let d64 = diameter(&Topology::UniformDisk { n: 64 }, 64);
        let d256 = diameter(&Topology::UniformDisk { n: 256 }, 256);
        let r1 = d64 / d16;
        let r2 = d256 / d64;
        // Quadrupling N should roughly double the diameter.
        assert!((1.5..3.0).contains(&r1), "ratio 64/16 = {r1}");
        assert!((1.5..3.0).contains(&r2), "ratio 256/64 = {r2}");
    }

    #[test]
    fn clustered_distances() {
        let t = Topology::Clustered {
            cluster_size: 4,
            wan_factor: 20.0,
        };
        assert_eq!(t.distance(ProcessId(0), ProcessId(3)), 1.0);
        assert_eq!(t.distance(ProcessId(0), ProcessId(4)), 20.0);
    }

    #[test]
    fn propagation_scales_with_distance() {
        let t = Topology::Clustered {
            cluster_size: 2,
            wan_factor: 10.0,
        };
        let unit = SimDuration::from_micros(100);
        assert_eq!(
            t.propagation(ProcessId(0), ProcessId(1), unit),
            SimDuration::from_micros(100)
        );
        assert_eq!(
            t.propagation(ProcessId(0), ProcessId(2), unit),
            SimDuration::from_micros(1_000)
        );
    }

    #[test]
    fn explicit_matrix_distances() {
        let t = Topology::explicit(vec![
            vec![0.0, 30.0, 1.0],
            vec![30.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ]);
        assert_eq!(t.distance(ProcessId(0), ProcessId(1)), 30.0);
        assert_eq!(t.distance(ProcessId(0), ProcessId(2)), 1.0);
        // Out-of-matrix pairs default to 1 (but same process is 0).
        assert_eq!(t.distance(ProcessId(0), ProcessId(9)), 1.0);
        assert_eq!(t.distance(ProcessId(9), ProcessId(9)), 0.0);
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn explicit_rejects_ragged() {
        let _ = Topology::explicit(vec![vec![0.0, 1.0], vec![1.0]]);
    }

    #[test]
    fn distance_is_symmetric() {
        let t = Topology::UniformDisk { n: 32 };
        for i in 0..8 {
            for j in 0..8 {
                let d1 = t.distance(ProcessId(i), ProcessId(j));
                let d2 = t.distance(ProcessId(j), ProcessId(i));
                assert!((d1 - d2).abs() < 1e-12);
            }
        }
    }
}
