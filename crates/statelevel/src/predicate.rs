//! Locally-stable predicate detection without CATOCS (§4.2).
//!
//! The paper's deadlock-detection argument: for 2-phase-locked
//! transactions, "the set is deadlocked if and only if each of the
//! following is independently true at some time during their execution —
//! t1 waits-for t2, ... tn waits-for t1". Wait-for edges can therefore be
//! collected incrementally, in any order, over plain FIFO channels, and a
//! cycle in the accumulated graph is *exactly* a deadlock: no false
//! positives, no ordered multicast needed.
//!
//! [`WaitForGraph`] is the monitor-side structure: nodes are generic so
//! the same graph serves transaction deadlock (nodes = transaction ids)
//! and RPC deadlock (nodes = `(process, rpc-instance)` pairs, the
//! appendix 9.2 formulation that also handles multi-threaded servers).
//! [`TerminationDetector`] covers the other locally-stable example the
//! paper cites (message-counting termination detection on a cut).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// A wait-for graph with exact cycle detection.
///
/// # Examples
///
/// ```
/// use statelevel::predicate::WaitForGraph;
///
/// let mut g = WaitForGraph::new();
/// g.add_wait(1, 2); // t1 waits for t2
/// g.add_wait(2, 3);
/// assert!(g.find_cycle().is_none());
/// g.add_wait(3, 1); // closes the loop — a real deadlock
/// let cycle = g.find_cycle().unwrap();
/// assert_eq!(cycle.len(), 3);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WaitForGraph<N: Ord> {
    edges: BTreeMap<N, BTreeSet<N>>,
}

impl<N: Ord + Copy + Hash> Default for WaitForGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Ord + Copy + Hash> WaitForGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        WaitForGraph {
            edges: BTreeMap::new(),
        }
    }

    /// Adds the edge `a waits-for b`. Returns true if it is new.
    pub fn add_wait(&mut self, a: N, b: N) -> bool {
        self.edges.entry(a).or_default().insert(b)
    }

    /// Removes the edge `a waits-for b` (the wait resolved).
    pub fn remove_wait(&mut self, a: N, b: N) {
        if let Some(s) = self.edges.get_mut(&a) {
            s.remove(&b);
            if s.is_empty() {
                self.edges.remove(&a);
            }
        }
    }

    /// Finds one cycle, if any, as the list of nodes along it.
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<N, Color> = self
            .edges
            .keys()
            .copied()
            .chain(self.edges.values().flatten().copied())
            .map(|n| (n, Color::White))
            .collect();
        let nodes: Vec<N> = color.keys().copied().collect();
        let mut stack_path: Vec<N> = Vec::new();

        fn dfs<N: Ord + Copy>(
            n: N,
            edges: &BTreeMap<N, BTreeSet<N>>,
            color: &mut BTreeMap<N, Color>,
            path: &mut Vec<N>,
        ) -> Option<Vec<N>> {
            color.insert(n, Color::Gray);
            path.push(n);
            if let Some(succs) = edges.get(&n) {
                for &m in succs {
                    match color.get(&m).copied().unwrap_or(Color::White) {
                        Color::Gray => {
                            // Cycle: slice of path from m to end.
                            let pos = path.iter().position(|&x| x == m).expect("on path");
                            return Some(path[pos..].to_vec());
                        }
                        Color::White => {
                            if let Some(c) = dfs(m, edges, color, path) {
                                return Some(c);
                            }
                        }
                        Color::Black => {}
                    }
                }
            }
            path.pop();
            color.insert(n, Color::Black);
            None
        }

        for n in nodes {
            if color.get(&n).copied() == Some(Color::White) {
                if let Some(c) = dfs(n, &self.edges, &mut color, &mut stack_path) {
                    return Some(c);
                }
                stack_path.clear();
            }
        }
        None
    }

    /// Merges another node's reported local wait-for edges ("each node
    /// multicast its local wait-for graph to all nodes running the
    /// detection algorithm").
    pub fn merge_edges(&mut self, edges: impl IntoIterator<Item = (N, N)>) -> usize {
        let mut added = 0;
        for (a, b) in edges {
            if self.add_wait(a, b) {
                added += 1;
            }
        }
        added
    }
}

/// A k-of-n (OR-model) wait graph: each waiter needs any `k` of its
/// targets to release before it can proceed — the "k-of-n deadlock"
/// class the paper lists among locally-stable detection problems (§4.2).
///
/// Detection is a least fixpoint: non-waiters can finish; a waiter can
/// finish once `k` of its targets are known to finish; waiters never
/// promoted are exactly the deadlocked set (sound and complete for the
/// OR model — optimism here would miss cyclic deadlocks).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KofnWaitGraph<N: Ord> {
    /// waiter → (k, targets).
    waits: BTreeMap<N, (usize, BTreeSet<N>)>,
}

impl<N: Ord + Copy> Default for KofnWaitGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Ord + Copy> KofnWaitGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        KofnWaitGraph {
            waits: BTreeMap::new(),
        }
    }

    /// Records that `waiter` needs any `k` of `targets`.
    pub fn add_wait(&mut self, waiter: N, k: usize, targets: impl IntoIterator<Item = N>) {
        let set: BTreeSet<N> = targets.into_iter().collect();
        let k = k.min(set.len());
        self.waits.insert(waiter, (k, set));
    }

    /// The wait resolved (the waiter proceeded or gave up).
    pub fn remove_wait(&mut self, waiter: N) {
        self.waits.remove(&waiter);
    }

    /// Returns the set of deadlocked nodes (cannot ever proceed).
    pub fn deadlocked(&self) -> BTreeSet<N> {
        // Least fixpoint: non-waiters can finish; a waiter can finish
        // once at least `k` of its targets are known to finish. Waiters
        // never promoted are deadlocked.
        let mut can_finish: BTreeMap<N, bool> = BTreeMap::new();
        for (&w, (_, targets)) in &self.waits {
            can_finish.insert(w, false);
            for &t in targets {
                can_finish.entry(t).or_insert(true);
            }
        }
        for &w in self.waits.keys() {
            can_finish.insert(w, false);
        }
        loop {
            let mut changed = false;
            for (&w, (k, targets)) in &self.waits {
                if can_finish[&w] {
                    continue;
                }
                let available = targets
                    .iter()
                    .filter(|t| *can_finish.get(t).unwrap_or(&true))
                    .count();
                if available >= *k {
                    can_finish.insert(w, true);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.waits
            .keys()
            .filter(|w| !can_finish[w])
            .copied()
            .collect()
    }
}

/// Orphan detection (§4.2): calls whose ancestor computation has died or
/// aborted but which are still running.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OrphanDetector<N: Ord> {
    parent: BTreeMap<N, Option<N>>,
    running: BTreeSet<N>,
    dead: BTreeSet<N>,
}

impl<N: Ord + Copy> OrphanDetector<N> {
    /// An empty detector.
    pub fn new() -> Self {
        OrphanDetector {
            parent: BTreeMap::new(),
            running: BTreeSet::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Records a call: `id` spawned by `parent` (None = root).
    pub fn call_started(&mut self, id: N, parent: Option<N>) {
        self.parent.insert(id, parent);
        self.running.insert(id);
    }

    /// The call completed normally.
    pub fn call_finished(&mut self, id: N) {
        self.running.remove(&id);
    }

    /// The call (or its process) died/aborted.
    pub fn call_died(&mut self, id: N) {
        self.dead.insert(id);
        self.running.remove(&id);
    }

    /// Whether `id` has a dead ancestor.
    fn has_dead_ancestor(&self, id: N) -> bool {
        let mut cur = self.parent.get(&id).copied().flatten();
        while let Some(p) = cur {
            if self.dead.contains(&p) {
                return true;
            }
            cur = self.parent.get(&p).copied().flatten();
        }
        false
    }

    /// Running calls whose ancestry is dead — the orphans to terminate.
    pub fn orphans(&self) -> Vec<N> {
        self.running
            .iter()
            .copied()
            .filter(|&id| self.has_dead_ancestor(id))
            .collect()
    }
}

/// Message-counting termination detection over a consistent cut: the
/// computation has terminated iff every process is passive and the
/// per-channel send and receive counts match.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TerminationDetector {
    /// (active?, sent, received) per process, as sampled on the cut.
    reports: BTreeMap<usize, (bool, u64, u64)>,
    expected: usize,
}

impl TerminationDetector {
    /// Creates a detector expecting reports from `n` processes.
    pub fn new(n: usize) -> Self {
        TerminationDetector {
            reports: BTreeMap::new(),
            expected: n,
        }
    }

    /// Records process `who`'s cut-local report.
    pub fn report(&mut self, who: usize, active: bool, sent: u64, received: u64) {
        self.reports.insert(who, (active, sent, received));
    }

    /// Evaluates the predicate; `None` until all reports are in.
    pub fn terminated(&self) -> Option<bool> {
        if self.reports.len() < self.expected {
            return None;
        }
        let all_passive = self.reports.values().all(|&(a, _, _)| !a);
        let sent: u64 = self.reports.values().map(|&(_, s, _)| s).sum();
        let recv: u64 = self.reports.values().map(|&(_, _, r)| r).sum();
        Some(all_passive && sent == recv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_cycle_in_a_chain() {
        let mut g = WaitForGraph::new();
        g.add_wait(1, 2);
        g.add_wait(2, 3);
        assert!(g.find_cycle().is_none());
        assert_eq!(g.edges.values().map(|s| s.len()).sum::<usize>(), 2);
    }

    #[test]
    fn simple_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_wait(1, 2);
        g.add_wait(2, 1);
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn long_cycle_detected_exactly() {
        let mut g = WaitForGraph::new();
        for i in 0..5 {
            g.add_wait(i, (i + 1) % 5);
        }
        // A dangling branch should not appear in the cycle.
        g.add_wait(9, 0);
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 5);
        assert!(!c.contains(&9));
    }

    #[test]
    fn resolving_a_wait_clears_deadlock() {
        let mut g = WaitForGraph::new();
        g.add_wait(1, 2);
        g.add_wait(2, 1);
        assert!(g.find_cycle().is_some());
        g.remove_wait(2, 1);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn merge_edges_counts_new_only() {
        let mut g = WaitForGraph::new();
        assert_eq!(g.merge_edges([(1, 2), (2, 3)]), 2);
        assert_eq!(g.merge_edges([(1, 2), (3, 4)]), 1);
    }

    #[test]
    fn rpc_instance_nodes() {
        // Appendix 9.2: nodes are (process, instance) — a multi-threaded
        // process can appear in several waits without a false deadlock.
        let mut g: WaitForGraph<(usize, u32)> = WaitForGraph::new();
        g.add_wait((0, 15), (1, 37)); // A15 → B37
        g.add_wait((0, 16), (2, 8)); // A16 → C8 (another thread of A)
        g.add_wait((1, 37), (2, 9));
        assert!(
            g.find_cycle().is_none(),
            "no false deadlock from sharing process A"
        );
        g.add_wait((2, 9), (0, 15));
        assert!(g.find_cycle().is_some());
    }

    #[test]
    fn kofn_simple_or_wait_is_not_deadlocked() {
        // Waiter 1 needs any 1 of {2, 3}; 2 is free → no deadlock.
        let mut g = KofnWaitGraph::new();
        g.add_wait(1, 1, [2, 3]);
        assert!(g.deadlocked().is_empty());
    }

    #[test]
    fn kofn_mutual_full_waits_deadlock() {
        // 1 needs both of {2}, 2 needs both of {1}: classic cycle.
        let mut g = KofnWaitGraph::new();
        g.add_wait(1, 1, [2]);
        g.add_wait(2, 1, [1]);
        let d = g.deadlocked();
        assert!(d.contains(&1) && d.contains(&2));
    }

    #[test]
    fn kofn_or_wait_escapes_partial_cycle() {
        // 1 needs any 1 of {2, 9}; 2 waits on 1. 9 is free, so 1 can
        // proceed and then 2 can — no deadlock despite the 1↔2 cycle.
        let mut g = KofnWaitGraph::new();
        g.add_wait(1, 1, [2, 9]);
        g.add_wait(2, 1, [1]);
        assert!(g.deadlocked().is_empty());
    }

    #[test]
    fn kofn_threshold_two_deadlocks_when_only_cycle_remains() {
        // 1 needs 2 of {2, 3}; 2 waits on 1; 3 waits on 1.
        let mut g = KofnWaitGraph::new();
        g.add_wait(1, 2, [2, 3]);
        g.add_wait(2, 1, [1]);
        g.add_wait(3, 1, [1]);
        let d = g.deadlocked();
        assert_eq!(d.len(), 3, "{d:?}");
        // Removing 3's wait frees 3, but 1 still needs BOTH 2 and 3,
        // and 2 still waits on 1 — the {1, 2} deadlock persists.
        g.remove_wait(3);
        let d = g.deadlocked();
        assert!(d.contains(&1) && d.contains(&2) && !d.contains(&3), "{d:?}");
        // Only when 1's threshold drops to 1-of-2 does the system free.
        g.add_wait(1, 1, [2, 3]);
        assert!(g.deadlocked().is_empty());
    }

    #[test]
    fn orphan_detection_walks_ancestry() {
        let mut o = OrphanDetector::new();
        o.call_started(1, None); // root
        o.call_started(2, Some(1));
        o.call_started(3, Some(2));
        o.call_started(9, None); // unrelated root
        assert!(o.orphans().is_empty());
        // The root dies: its running descendants are orphans.
        o.call_died(1);
        let orphans = o.orphans();
        assert!(orphans.contains(&2) && orphans.contains(&3));
        assert!(!orphans.contains(&9));
        // A finished descendant is not an orphan.
        o.call_finished(2);
        assert_eq!(o.orphans(), vec![3]);
    }

    #[test]
    fn termination_detector_counts() {
        let mut t = TerminationDetector::new(2);
        t.report(0, false, 5, 3);
        assert_eq!(t.terminated(), None);
        t.report(1, false, 1, 3);
        assert_eq!(t.terminated(), Some(true));
        // An in-flight message (sent > received) blocks termination.
        let mut t2 = TerminationDetector::new(2);
        t2.report(0, false, 5, 3);
        t2.report(1, false, 1, 2);
        assert_eq!(t2.terminated(), Some(false));
        // An active process blocks termination.
        let mut t3 = TerminationDetector::new(1);
        t3.report(0, true, 0, 0);
        assert_eq!(t3.terminated(), Some(false));
    }

    proptest! {
        /// Soundness on random graphs: find_cycle returns a real cycle
        /// (every consecutive pair is an edge, and it wraps).
        #[test]
        fn found_cycles_are_real(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..30)) {
            let mut g = WaitForGraph::new();
            for (a, b) in edges {
                if a != b {
                    g.add_wait(a, b);
                }
            }
            if let Some(c) = g.find_cycle() {
                prop_assert!(c.len() >= 2);
                for i in 0..c.len() {
                    let a = c[i];
                    let b = c[(i + 1) % c.len()];
                    prop_assert!(g.edges.get(&a).map(|s| s.contains(&b)).unwrap_or(false),
                        "edge {a}->{b} missing from reported cycle");
                }
            }
        }

        /// Completeness on ring graphs: a known planted cycle is found.
        #[test]
        fn planted_cycles_are_found(n in 2usize..10, extra in proptest::collection::vec((10usize..20, 0usize..20), 0..10)) {
            let mut g = WaitForGraph::new();
            for i in 0..n {
                g.add_wait(i, (i + 1) % n);
            }
            for (a, b) in extra {
                if a != b {
                    g.add_wait(a, b);
                }
            }
            prop_assert!(g.find_cycle().is_some());
        }
    }
}
