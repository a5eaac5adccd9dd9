//! Online wait-graph analytics: live stall detection over every blocking
//! structure in the stack.
//!
//! The paper's §3–§5 critique is that CATOCS hides *why* delivery stalls:
//! a message can sit in a holdback queue (cbcast), behind a per-link
//! reorder cursor (pccast), behind an order watermark (abcast), behind a
//! token rotation, or behind a flush/install barrier (virtual synchrony)
//! — and the application sees only silence. This module turns those
//! hidden waits into one typed graph and analyses it *while the run is in
//! progress*, at each of a campaign's 50 ms looks:
//!
//! - **Nodes** are messages, processes, per-link positions and protocol
//!   phases ([`WaitNode`]).
//! - **Edges** point from the blocked thing to what it is blocked on,
//!   stamped with the virtual time the wait began ([`WaitEdge`]).
//! - **Analysis** ([`analyze`]) runs an iterative Tarjan SCC pass, finds
//!   the *terminal* components of the condensation (cycles, or wedge
//!   heads nothing is unblocking), and ranks them by severity:
//!
//!   ```text
//!   severity = worst wait age (µs)
//!            × (1 + blocked descendants)
//!            × distinct processes involved
//!            × persistence (consecutive snapshots seen)
//!   ```
//!
//!   Each ranked stall carries a representative path — the oldest chain
//!   of waits leading into the component, plus the cycle itself — so a
//!   post-mortem can print *who* is wedged on *what* and for how long.
//!
//! Everything here is pure and deterministic: same edges in, same ranking
//! out, byte-identical across reruns.
//!
//! # One walk, one vocabulary
//!
//! Every layer that can block answers "who waits on what" from one
//! function, `wait_records`: the causal core's holdback, pccast's link
//! buffers, fbcast's per-sender gaps, abcast's unreleased set, the token
//! ring's queue, pass and gaps, [`crate::vsync`]'s flush barrier. Each
//! hands `emit` a [`WaitRecord`] per blocked thing (borrowed: the hot
//! walkers refill one record, so a reader that keeps it clones it); the
//! 50 ms sampler, `experiments explain` and the incident dump all read
//! those. A walker
//!
//! - is read-only and work-counter-neutral: `&self`, and holdback
//!   membership through `peek`, never the counted `contains`, so looking
//!   cannot move a digest or a `holdback_work` figure;
//! - takes one parameter, `every_gap`: whether a lagging sender is
//!   enumerated to its first missing message (the sampler: that is the
//!   blocker everything deeper queues behind, and every gap would square
//!   the edge count on the hot path) or to all of them (the horizon
//!   post-mortem);
//! - emits a record even when nothing is missing: the renderer, not a
//!   second walker, decides how a message only the freeze holds prints.
//!
//! [`WaitReason`] is the one reason type, rendered two ways: the short
//! [`WaitReason::phrase`] of stall paths and the long
//! [`WaitReason::sentence`] of `explain` (EXPERIMENTS.md tabulates both).
//!
//! # What an analysis costs
//!
//! [`analyze`] runs at every 50 ms look of every fault campaign, on
//! graphs that grow for as long as a partition lasts, so its cost is a
//! contract: proportional to the graph it is handed, never to its square.
//! With `E` edges over `n` nodes,
//!
//! - every endpoint is resolved to a node index **once**, in one pass
//!   (expected O(E); most edges find theirs by looking back at the
//!   previous source's edges, the rest in a hash map), and nothing after
//!   that pass compares or looks up a [`WaitNode`] except to sort a
//!   candidate's own members;
//! - adjacency (edges by source, edges by target) and component
//!   membership are counting sorts into one flat array each, O(n + E),
//!   and the SCC pass is O(n + E);
//! - size, self-loop, terminal, fed-from-outside and worst in-edge age of
//!   every component come from one pass over the edges;
//! - each candidate stall then costs what lies behind it: one reverse
//!   reachability walk, and a path walk over the in-edges of the nodes
//!   on the path. O(candidates · (n + E)) at worst.
//!
//! **Nodes are numbered in order of first appearance** (an edge's `from`
//! before its `to`, edge by edge) and each adjacency bucket lists its
//! edges in input order. Output depends on both, so neither may change:
//! the SCC pass visits nodes in numbering order; a representative path
//! enters a component at the *last* member, in numbering order, among
//! those with the oldest external in-edge; among in-edges of one age it
//! follows the one from the lowest-numbered node, and of those the last
//! listed; inside a component it follows each node's first listed
//! in-component edge. The analysis this replaced — which re-filtered all
//! nodes per component and looked both endpoints of every edge up in a
//! `BTreeMap` per candidate — is kept under `#[cfg(test)]` as the oracle
//! a proptest compares every field of every snapshot against.

use crate::group::MsgId;
use simnet::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A stall is only *persistent* — and only counted by the gated
/// `stall.count` metric — once its component has survived this many
/// consecutive snapshots. At a campaign's 50 ms looks that is
/// 150 ms: far longer than any healthy holdback, order-release or flush
/// round-trip, far shorter than a wedged flush.
pub const PERSIST_SNAPSHOTS: u32 = 3;

/// Protocol phases that can block progress. A waitgraph-local tag (not
/// [`simnet::obs::PhaseKind`]) because graph nodes need total order for
/// deterministic analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseTag {
    /// A view-change flush in progress (delivery blackout until install).
    Flush,
    /// The total-order token making its way around the ring.
    TokenRotation,
    /// The abcast sequencer's order assignment / watermark.
    OrderAssign,
}

impl PhaseTag {
    /// Short name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            PhaseTag::Flush => "flush",
            PhaseTag::TokenRotation => "token",
            PhaseTag::OrderAssign => "order",
        }
    }
}

/// One vertex of the wait graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitNode {
    /// A message (delivered nowhere it is needed, or not yet arrived).
    Msg(MsgId),
    /// A process as a whole (frozen, or sitting on an unacked token).
    Proc(usize),
    /// A position on a pccast link `from -> to` that has not arrived —
    /// the copy's identity is unknown until it does (constant metadata!),
    /// so the wait can only name the slot. Resolved to [`WaitNode::Msg`]
    /// when the sender's link log is reachable (see
    /// [`crate::vsync`]'s collector).
    LinkSlot {
        /// The waiting receiver.
        to: usize,
        /// The link's sender.
        from: usize,
        /// The per-link sequence position waited for.
        seq: u64,
    },
    /// A protocol phase anchored at a process (`flush@P2` is the flush
    /// coordinated by P2).
    Phase {
        /// Which phase.
        kind: PhaseTag,
        /// The process the phase is anchored at (coordinator, sequencer,
        /// token holder).
        at: usize,
    },
}

impl fmt::Display for WaitNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitNode::Msg(id) => write!(f, "m{}.{}", id.sender, id.seq),
            WaitNode::Proc(p) => write!(f, "P{p}"),
            WaitNode::LinkSlot { to, from, seq } => {
                write!(f, "link p{from}->p{to} pos {seq}")
            }
            WaitNode::Phase { kind, at } => write!(f, "{}@P{at}", kind.name()),
        }
    }
}

/// Why one thing waits on another: the one reason type behind stall
/// paths, `experiments explain` and the incident dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitReason {
    /// The predecessor sits in this holdback queue too; its own missing
    /// predecessors are the real blockers — follow the chain.
    HeldHere,
    /// A delta-stamped copy of the predecessor arrived but cannot decode
    /// until its chain base is re-seeded.
    Parked,
    /// The predecessor is known missing and chased via NACK;
    /// `referenced_by` is the member whose message first referenced it.
    Chased { referenced_by: usize },
    /// The predecessor's sender was removed by a view change and the id
    /// lies beyond the agreed `cut`: no survivor may ever deliver it.
    NeverDeliverable { cut: u64 },
    /// Nothing references the predecessor yet from this process's view.
    Unknown,
    /// Nothing has arrived at the pccast link position the cursor waits
    /// for (the link sender owes a retransmission).
    LinkGap,
    /// A skip marker holds the link position, not yet consumed; the copy
    /// will arrive by another route.
    SkipPending,
    /// The link's sender is dead or evicted: only a view change clears
    /// the position.
    Severed,
    /// Delivery at this process is frozen by a flush in progress.
    Frozen,
    /// A pccast link head after a view install: fast-path delivery is
    /// barred until the delivered clock reaches the flush cut.
    FastPathBarred,
    /// The process is mid-flush: delivery blacked out until the install.
    MidFlush,
    /// At the flush coordinator: this member's `FlushOk` is missing.
    FlushOkMissing,
    /// An fbcast arrival ahead of its sender's next undelivered sequence.
    FifoGap,
    /// Causally delivered, but its order assignment has not arrived.
    OrderUnassigned,
    /// Release is stuck on `slot`, whose assignment is here and whose
    /// message is not.
    SlotDataMissing { slot: u64 },
    /// Release is stuck on `slot`, of which nothing is known here (no
    /// assignment from the sequencer; no data from the token rotation).
    OrderGap { slot: u64 },
    /// Submissions queued at a member that does not hold the token.
    TokenQueued,
    /// A token pass the receiver has not acknowledged (a lost token
    /// halts the whole order).
    PassUnacked,
}

impl WaitReason {
    /// The short phrase a stall path carries. Specifics (cuts, slots,
    /// referencing members) live in the nodes and in [`Self::sentence`].
    pub fn phrase(self) -> &'static str {
        match self {
            WaitReason::HeldHere => "predecessor held here too",
            WaitReason::Parked => "predecessor parked (delta undecodable)",
            WaitReason::Chased { .. } => "predecessor missing, chased via NACK",
            WaitReason::NeverDeliverable { .. } => "predecessor never deliverable (beyond cut)",
            WaitReason::Unknown => "predecessor not yet observed",
            WaitReason::LinkGap | WaitReason::SkipPending | WaitReason::Severed => {
                "link reorder gap"
            }
            WaitReason::Frozen => "delivery frozen by flush",
            WaitReason::FastPathBarred => "fast path barred until flush cut reached",
            WaitReason::MidFlush => "mid-flush, delivery blacked out until install",
            WaitReason::FlushOkMissing => "FlushOk not received",
            WaitReason::FifoGap => "FIFO gap, awaiting retransmit",
            WaitReason::OrderUnassigned => "awaiting order assignment",
            WaitReason::SlotDataMissing { .. } => "next total-order slot's data not arrived",
            WaitReason::OrderGap { .. } => "total-order gap before this slot",
            WaitReason::TokenQueued => "submits queued awaiting token",
            WaitReason::PassUnacked => "token pass unacknowledged",
        }
    }

    /// The long sentence `experiments explain` prints for a wait on `on`:
    /// what is waited for, a dash, and why it is absent. `Frozen` and
    /// `TokenQueued` are bare clauses the renderer fits into a line of
    /// its own; total-order waits end in the latency ledger's name for
    /// the phase. Reasons no tool prints in long form yet fall back to
    /// the phrase.
    pub fn sentence(self, on: WaitNode) -> String {
        // A link wait names the incoming link and position: the receiver
        // is the process the line is printed under.
        let what = match on {
            WaitNode::LinkSlot { from, seq, .. } => format!("link p{from} pos {seq}"),
            _ => on.to_string(),
        };
        // The process a phase is anchored at: `order@P0`'s sequencer.
        let (by, token) = match on {
            WaitNode::Phase { kind, at } => (format!("P{at}"), kind == PhaseTag::TokenRotation),
            _ => (what.clone(), false),
        };
        let why = match self {
            WaitReason::HeldHere => "held here (waiting on its own predecessors)".into(),
            WaitReason::Parked => "parked (delta undecodable until chain re-seeds)".into(),
            WaitReason::Chased { referenced_by } => {
                format!("missing; chased via NACK (referenced by P{referenced_by})")
            }
            WaitReason::NeverDeliverable { cut } => {
                format!("never deliverable (sender removed, beyond cut {cut})")
            }
            WaitReason::Unknown => "not yet observed".into(),
            WaitReason::LinkGap => "nothing arrived (ARQ gap, awaiting retransmit)".into(),
            WaitReason::SkipPending => "skip marker pending consumption".into(),
            WaitReason::Severed => "link severed (sender dead or evicted)".into(),
            WaitReason::Frozen => return "delivery frozen by an in-progress flush".into(),
            WaitReason::TokenQueued => return "submissions queued awaiting the token".into(),
            WaitReason::OrderUnassigned => {
                return format!("its own order assignment — not yet arrived from sequencer {by} [order]")
            }
            WaitReason::SlotDataMissing { slot } => {
                return format!("order slot {slot} = {what} — slot's data not arrived here [order]")
            }
            WaitReason::OrderGap { slot } if token => {
                return format!("order slot {slot} — awaiting the rotation (or NACK repair) that fills it [token]")
            }
            WaitReason::OrderGap { slot } => {
                return format!("order slot {slot} — no assignment for that slot has arrived from sequencer {by} [order]")
            }
            other => other.phrase().to_string(),
        };
        format!("{what} — {why}")
    }
}

/// One blocked thing at one process and everything it waits on — what
/// every layer's `wait_records` walker emits (see the module docs for
/// the contract). `waits` may be empty: the thing is held but nothing it
/// needs is missing (queued for delivery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitRecord {
    /// The blocked thing.
    pub blocked: WaitNode,
    /// The process at which it is blocked.
    pub who: usize,
    /// Virtual time the wait began (for a message, its arrival).
    pub since: SimTime,
    /// A blocked message's own slot in the total order, once assigned.
    pub slot: Option<u64>,
    /// What it waits on, and why each is absent.
    pub waits: Vec<(WaitNode, WaitReason)>,
}

impl WaitRecord {
    /// The record as wait-graph edges, one per wait.
    pub fn edges(&self) -> impl Iterator<Item = WaitEdge> + '_ {
        self.waits.iter().map(|&(to, reason)| WaitEdge {
            from: self.blocked,
            to,
            who: self.who,
            since: self.since,
            reason,
        })
    }
}

/// One "blocked on" edge, observed at a single process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked thing.
    pub from: WaitNode,
    /// What it is blocked on.
    pub to: WaitNode,
    /// The process at which this wait was observed.
    pub who: usize,
    /// Virtual time the wait began (edge age = now − since).
    pub since: SimTime,
    /// Why (specifics beyond the nodes live in the reason's fields).
    pub reason: WaitReason,
}

/// One step of a representative stall path: a node, the reason for the
/// edge it takes to the next step (empty on the last step), and that
/// edge's wait age.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The node at this step.
    pub node: WaitNode,
    /// Reason on the edge to the next step ("" on the final node).
    pub reason: &'static str,
    /// Age of that edge at snapshot time (zero on the final node).
    pub age: SimDuration,
}

/// A ranked stall: a terminal component of the wait graph's condensation
/// — either a genuine cycle (deadlock) or a wedge head that nothing is
/// unblocking — plus everything stuck behind it.
#[derive(Clone, Debug)]
pub struct RankedStall {
    /// The component's nodes, sorted (the stall's identity).
    pub nodes: Vec<WaitNode>,
    /// Whether the component is a real cycle (≥ 2 nodes, or a self-loop).
    pub is_cycle: bool,
    /// Oldest wait age on any edge into or inside the component.
    pub worst_age: SimDuration,
    /// Nodes transitively blocked behind the component (excluded from it).
    pub blocked_descendants: usize,
    /// Distinct process indices involved (component + everything behind).
    pub procs_involved: usize,
    /// Consecutive snapshots this component has been observed.
    pub persistence: u32,
    /// The ranking key (see the module docs for the formula).
    pub severity: u128,
    /// Oldest chain of waits into the component, then the cycle itself.
    pub path: Vec<PathStep>,
}

impl RankedStall {
    /// Whether this stall has survived long enough to count as
    /// persistent (the gated invariant).
    pub fn is_persistent(&self) -> bool {
        self.persistence >= PERSIST_SNAPSHOTS
    }

    /// One-line summary: severity, shape, ages, involvement.
    pub fn summary(&self) -> String {
        let shape = if self.is_cycle { "cycle" } else { "wedge" };
        format!(
            "{shape} [{}] age {} ms, {} blocked behind, {} procs, seen {}x",
            self.nodes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.worst_age.as_millis(),
            self.blocked_descendants,
            self.procs_involved,
            self.persistence,
        )
    }

    /// Multi-line rendering of the representative path:
    /// `m4.34 ──(frozen by flush)──> P0 ──(awaiting install)──> flush@P2`.
    pub fn render_path(&self) -> String {
        let mut s = String::new();
        for (i, step) in self.path.iter().enumerate() {
            if i > 0 {
                s.push_str(" -> ");
            }
            s.push_str(&step.node.to_string());
            if !step.reason.is_empty() {
                s.push_str(&format!(
                    " --({}, {} ms)--",
                    step.reason,
                    step.age.as_millis()
                ));
            }
        }
        s
    }
}

/// One full analysis pass over a snapshot's edges.
#[derive(Clone, Debug, Default)]
pub struct StallSnapshot {
    /// Ranked stalls, most severe first.
    pub stalls: Vec<RankedStall>,
    /// Oldest wait age across *all* edges (not just stall components).
    pub max_age: SimDuration,
    /// Size of the largest genuine cycle (0 when none).
    pub worst_scc_size: usize,
}

impl StallSnapshot {
    /// Stalls that have persisted across [`PERSIST_SNAPSHOTS`] snapshots.
    pub fn persistent(&self) -> impl Iterator<Item = &RankedStall> {
        self.stalls.iter().filter(|s| s.is_persistent())
    }

    /// Persistent genuine cycles — the invariant clean runs must keep at
    /// zero once their quiescent tail is reached.
    pub fn persistent_cycles(&self) -> usize {
        self.persistent().filter(|s| s.is_cycle).count()
    }
}

/// Persistence tracking across consecutive snapshots, keyed by the stall
/// component's sorted node set. A component seen at snapshot *k* but not
/// at *k+1* is forgotten; reappearing restarts the count — "persistent"
/// means continuously wedged, not intermittently unlucky.
#[derive(Clone, Debug, Default)]
pub struct StallTracker {
    seen: BTreeMap<Vec<WaitNode>, u32>,
}

impl StallTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one snapshot's component signatures (distinct: components
    /// share no node) in, returning each signature's consecutive-snapshot
    /// count. A signature seen last time moves over with its key; only
    /// one seen for the first time is copied.
    fn observe<'a>(&mut self, sigs: impl Iterator<Item = &'a Vec<WaitNode>>) -> Vec<u32> {
        let mut next = BTreeMap::new();
        let mut counts = Vec::with_capacity(sigs.size_hint().0);
        for sig in sigs {
            let (sig, c) = match self.seen.remove_entry(sig) {
                Some((sig, c)) => (sig, c + 1),
                None => (sig.clone(), 1),
            };
            next.insert(sig, c);
            counts.push(c);
        }
        self.seen = next;
        counts
    }
}

/// Iterative Tarjan SCC over nodes `0..n`, where `succ(v, i)` is `v`'s
/// `i`-th successor (`None` past the last). Returns each node's component
/// id; components are numbered in reverse topological order (a
/// component's successors always have *smaller* ids).
fn tarjan_scc(n: usize, succ: impl Fn(usize, usize) -> Option<usize>) -> (Vec<usize>, usize) {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSET; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut n_comps = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = succ(v, *ci) {
                *ci += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = n_comps;
                        if w == v {
                            break;
                        }
                    }
                    n_comps += 1;
                }
            }
        }
    }
    (comp, n_comps)
}

/// `0..keys.len()` sorted into buckets by key — a counting sort into one
/// flat array, so each bucket lists its items in ascending order. Edges
/// by source, edges by target and nodes by component are all this.
struct Buckets {
    /// Bucket `b` is `items[start[b]..start[b + 1]]`.
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Buckets {
    fn new(buckets: usize, keys: impl Iterator<Item = usize> + Clone) -> Self {
        // Counted two slots up, so that after the running sum `start[b +
        // 1]` is where bucket `b` begins; filling advances it to where
        // `b` ends, which is where `b + 1` begins: `start` is then right
        // as it stands, less the spare last slot.
        let mut start = vec![0usize; buckets + 2];
        for k in keys.clone() {
            start[k + 2] += 1;
        }
        for b in 2..start.len() {
            start[b] += start[b - 1];
        }
        let mut items = vec![0usize; start[buckets + 1]];
        for (i, k) in keys.enumerate() {
            items[start[k + 1]] = i;
            start[k + 1] += 1;
        }
        start.pop();
        Buckets { start, items }
    }

    fn of(&self, b: usize) -> &[usize] {
        &self.items[self.start[b]..self.start[b + 1]]
    }
}

/// A set of node indices emptied in O(1): a node is in while its mark is
/// the current stamp.
struct Visited {
    mark: Vec<usize>,
    stamp: usize,
}

impl Visited {
    fn new(n: usize) -> Self {
        Visited {
            mark: vec![0; n],
            stamp: 1,
        }
    }

    fn clear(&mut self) {
        self.stamp += 1;
    }

    fn contains(&self, v: usize) -> bool {
        self.mark[v] == self.stamp
    }

    /// Whether `v` was not yet in.
    fn insert(&mut self, v: usize) -> bool {
        let fresh = self.mark[v] != self.stamp;
        self.mark[v] = self.stamp;
        fresh
    }
}

/// Distinct process indices: a bit each for those a word has room for,
/// a list for any beyond.
#[derive(Default)]
struct ProcSet {
    low: u128,
    high: Vec<usize>,
}

impl ProcSet {
    fn insert(&mut self, p: usize) {
        if p < 128 {
            self.low |= 1 << p;
        } else {
            self.high.push(p);
        }
    }

    fn len(mut self) -> usize {
        self.high.sort_unstable();
        self.high.dedup();
        self.low.count_ones() as usize + self.high.len()
    }
}

/// What one pass over the edges learns of a component.
#[derive(Clone)]
struct Component {
    size: usize,
    /// No edge leaves it.
    terminal: bool,
    /// An edge enters it from outside.
    fed: bool,
    self_loop: bool,
    /// Oldest wait age on any edge into or inside it.
    worst_age: SimDuration,
}

impl Component {
    fn is_cycle(&self) -> bool {
        self.size > 1 || self.self_loop
    }
}

/// A snapshot's edges with their endpoints resolved to node indices.
struct Graph<'a> {
    edges: &'a [WaitEdge],
    now: SimTime,
    /// Numbered in order of first appearance, an edge's `from` before its
    /// `to` (see the module docs for what depends on it).
    nodes: Vec<WaitNode>,
    /// Each edge's `(from, to)` as indices into `nodes`.
    ends: Vec<(usize, usize)>,
    /// Edge indices by source node, and by target node.
    out: Buckets,
    inc: Buckets,
    /// Each node's component, of `n_comps`.
    comp: Vec<usize>,
    n_comps: usize,
}

impl<'a> Graph<'a> {
    /// Resolves every endpoint once — the only place a [`WaitNode`] is
    /// looked up — and runs the SCC pass.
    fn new(edges: &'a [WaitEdge], now: SimTime) -> Self {
        // Hashed, not ordered: nothing reads the map but the loop below,
        // and held messages arrive in ascending order, the slowest an
        // ordered map can be filled in. About one edge in four brings a
        // new node.
        let mut ids: HashMap<WaitNode, usize> = HashMap::with_capacity(edges.len() / 4);
        let mut nodes = Vec::with_capacity(edges.len() / 4);
        let mut intern = |node: WaitNode| {
            *ids.entry(node).or_insert_with(|| {
                nodes.push(node);
                nodes.len() - 1
            })
        };
        let mut ends: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
        // Looking back saves most lookups. A record's edges share their
        // source and arrive together; and messages held side by side
        // wait on the same few gaps, so an edge's target is most often
        // the target of the edge in its place under the previous source.
        let (mut group, mut prev_group) = (0, 0);
        for (ei, e) in edges.iter().enumerate() {
            let a = if ei > 0 && edges[ei - 1].from == e.from {
                ends[ei - 1].0
            } else {
                (prev_group, group) = (group, ei);
                intern(e.from)
            };
            let twin = prev_group + (ei - group);
            let b = if twin < group && edges[twin].to == e.to {
                ends[twin].1
            } else {
                intern(e.to)
            };
            ends.push((a, b));
        }
        let n = nodes.len();
        let out = Buckets::new(n, ends.iter().map(|&(a, _)| a));
        let inc = Buckets::new(n, ends.iter().map(|&(_, b)| b));
        let (comp, n_comps) = tarjan_scc(n, |v, i| out.of(v).get(i).map(|&ei| ends[ei].1));
        Graph {
            edges,
            now,
            nodes,
            ends,
            out,
            inc,
            comp,
            n_comps,
        }
    }

    fn age(&self, ei: usize) -> SimDuration {
        self.now.saturating_since(self.edges[ei].since)
    }

    /// Every component's facts and the oldest wait age on any edge.
    fn components(&self) -> (Vec<Component>, SimDuration) {
        let blank = Component {
            size: 0,
            terminal: true,
            fed: false,
            self_loop: false,
            worst_age: SimDuration::ZERO,
        };
        let mut comps = vec![blank; self.n_comps];
        for &c in &self.comp {
            comps[c].size += 1;
        }
        let mut max_age = SimDuration::ZERO;
        for (ei, &(a, b)) in self.ends.iter().enumerate() {
            let (ca, cb) = (self.comp[a], self.comp[b]);
            if ca != cb {
                comps[ca].terminal = false;
                comps[cb].fed = true;
            }
            comps[ca].self_loop |= a == b;
            let age = self.age(ei);
            comps[cb].worst_age = comps[cb].worst_age.max(age);
            max_age = max_age.max(age);
        }
        (comps, max_age)
    }

    /// The oldest chain of waits leading into component `c`, then the
    /// cycle itself (when there is one): at each backward step pick the
    /// incoming edge with the greatest age, stopping at a node with no
    /// external predecessors or one already on the path.
    fn representative_path(
        &self,
        c: usize,
        members: &[usize],
        visited: &mut Visited,
    ) -> Vec<PathStep> {
        let (ends, comp) = (&self.ends, &self.comp);
        // The oldest external in-edge of `v`; of several as old, the one
        // from the lowest-numbered node, and of those the last listed.
        let oldest_in = |v: usize| -> Option<usize> {
            let external = self.inc.of(v).iter().filter(|&&ei| comp[ends[ei].0] != c);
            external
                .max_by_key(|&&ei| (self.age(ei), Reverse(ends[ei].0)))
                .copied()
        };
        // Entry: the component node with the oldest incoming external
        // edge (failing that — a pure cycle — the last member).
        let fed = members.iter().map(|&v| (v, oldest_in(v)));
        let (entry, mut oldest) = fed
            .max_by_key(|&(_, ei)| ei.map_or(SimDuration::ZERO, |ei| self.age(ei)))
            .unwrap_or((members[0], None));

        // Walk backwards from the entry along the oldest external in-edges.
        let mut chain: Vec<usize> = Vec::new();
        visited.clear();
        visited.insert(entry);
        while let Some(ei) = oldest {
            let cur = ends[ei].0;
            if !visited.insert(cur) {
                break;
            }
            chain.push(ei);
            oldest = oldest_in(cur);
        }
        let step = |ei: usize| PathStep {
            node: self.nodes[ends[ei].0],
            reason: self.edges[ei].reason.phrase(),
            age: self.age(ei),
        };
        let end = |v: usize| PathStep {
            node: self.nodes[v],
            reason: "",
            age: SimDuration::ZERO,
        };
        let mut path: Vec<PathStep> = chain.into_iter().rev().map(step).collect();

        // Then the component itself: from the entry, follow the first
        // in-component edge of each node until a repeat (covers both
        // single wedge heads and cycles).
        visited.clear();
        let mut cur = entry;
        loop {
            visited.insert(cur);
            let inside = |&&ei: &&usize| comp[ends[ei].1] == c;
            let Some(&ei) = self.out.of(cur).iter().find(inside) else {
                path.push(end(cur));
                break;
            };
            path.push(step(ei));
            cur = ends[ei].1;
            if visited.contains(cur) {
                // Close the cycle visually by naming the repeat.
                path.push(end(cur));
                break;
            }
        }
        path
    }
}

/// Analyses one snapshot of wait edges: SCCs, terminal stall components,
/// severity ranking and representative paths. `tracker` carries the
/// persistence counts between consecutive snapshots. Cost contract in the
/// module docs.
pub fn analyze(edges: &[WaitEdge], now: SimTime, tracker: &mut StallTracker) -> StallSnapshot {
    if edges.is_empty() {
        tracker.observe(std::iter::empty());
        return StallSnapshot::default();
    }
    let g = Graph::new(edges, now);
    let (comps, max_age) = g.components();
    let members = Buckets::new(g.n_comps, g.comp.iter().copied());
    let cycles = comps.iter().filter(|c| c.is_cycle());
    let worst_scc_size = cycles.map(|c| c.size).max().unwrap_or(0);

    // Candidate stalls: terminal components something is blocked behind.
    let mut candidates: Vec<(usize, Vec<WaitNode>)> = Vec::new();
    for (c, facts) in comps.iter().enumerate() {
        if facts.terminal && (facts.fed || facts.is_cycle()) {
            let mut sig: Vec<WaitNode> = members.of(c).iter().map(|&v| g.nodes[v]).collect();
            sig.sort();
            candidates.push((c, sig));
        }
    }
    candidates.sort_by(|a, b| a.1.cmp(&b.1));
    let persistence = tracker.observe(candidates.iter().map(|(_, sig)| sig));

    let mut stalls = Vec::with_capacity(candidates.len());
    let mut visited = Visited::new(g.nodes.len());
    let mut reached = Vec::new();
    for ((c, sig), persist) in candidates.into_iter().zip(persistence) {
        // Reverse reachability from the component = everything blocked
        // behind it.
        visited.clear();
        reached.clear();
        for &v in members.of(c) {
            visited.insert(v);
            reached.push(v);
        }
        let mut next = 0;
        while let Some(&v) = reached.get(next) {
            next += 1;
            let preds = g.inc.of(v).iter().map(|&ei| g.ends[ei].0);
            reached.extend(preds.filter(|&p| visited.insert(p)));
        }
        let blocked_descendants = reached.len() - comps[c].size;
        let mut procs = ProcSet::default();
        for &v in &reached {
            match g.nodes[v] {
                WaitNode::Msg(id) => procs.insert(id.sender),
                WaitNode::Proc(p) => procs.insert(p),
                WaitNode::LinkSlot { to, from, .. } => {
                    procs.insert(to);
                    procs.insert(from);
                }
                WaitNode::Phase { at, .. } => procs.insert(at),
            }
        }
        let procs_involved = procs.len();

        let worst_age = comps[c].worst_age;
        let severity = (worst_age.as_micros() as u128)
            .saturating_mul(1 + blocked_descendants as u128)
            .saturating_mul(procs_involved.max(1) as u128)
            .saturating_mul(persist as u128);

        stalls.push(RankedStall {
            nodes: sig,
            is_cycle: comps[c].is_cycle(),
            worst_age,
            blocked_descendants,
            procs_involved,
            persistence: persist,
            severity,
            path: g.representative_path(c, members.of(c), &mut visited),
        });
    }

    // Most severe first; the sorted node set breaks ties deterministically.
    stalls.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.nodes.cmp(&b.nodes)));

    StallSnapshot {
        stalls,
        max_age,
        worst_scc_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The analysis this module shipped with, kept to check the rewrite
    /// against.
    mod oracle {
        use super::super::*;

        impl StallTracker {
            /// `observe` as it was: every signature looked up, and copied.
            fn observe_by_lookup(&mut self, sigs: &[Vec<WaitNode>]) -> Vec<u32> {
                let mut next = BTreeMap::new();
                let mut counts = Vec::with_capacity(sigs.len());
                for sig in sigs {
                    let c = self.seen.get(sig).copied().unwrap_or(0) + 1;
                    next.insert(sig.clone(), c);
                    counts.push(c);
                }
                self.seen = next;
                counts
            }
        }

        /// `analyze` as it was before its endpoints were resolved once: every
        /// per-component figure re-derived by filtering all nodes or all
        /// edges, nodes looked up in the map wherever an index was needed.
        pub fn analyze(
            edges: &[WaitEdge],
            now: SimTime,
            tracker: &mut StallTracker,
        ) -> StallSnapshot {
            if edges.is_empty() {
                tracker.observe_by_lookup(&[]);
                return StallSnapshot::default();
            }

            // Intern nodes; BTreeMap gives a deterministic numbering.
            let mut ids: BTreeMap<WaitNode, usize> = BTreeMap::new();
            for e in edges {
                let n = ids.len();
                ids.entry(e.from).or_insert(n);
                let n = ids.len();
                ids.entry(e.to).or_insert(n);
            }
            let n = ids.len();
            let mut nodes = vec![edges[0].from; n];
            for (node, &i) in &ids {
                nodes[i] = *node;
            }
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut radj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (pred, edge idx)
            let mut self_loop = vec![false; n];
            for (ei, e) in edges.iter().enumerate() {
                let (a, b) = (ids[&e.from], ids[&e.to]);
                if a == b {
                    self_loop[a] = true;
                }
                adj[a].push(b);
                radj[b].push((a, ei));
            }

            let (comp, n_comps) = tarjan_scc(n, |v, i| adj[v].get(i).copied());
            let mut comp_size = vec![0usize; n_comps];
            for v in 0..n {
                comp_size[comp[v]] += 1;
            }
            // Terminal components: no edge leaves them.
            let mut terminal = vec![true; n_comps];
            for v in 0..n {
                for &w in &adj[v] {
                    if comp[v] != comp[w] {
                        terminal[comp[v]] = false;
                    }
                }
            }

            let max_age = edges
                .iter()
                .map(|e| now.saturating_since(e.since))
                .max()
                .unwrap_or(SimDuration::ZERO);
            let worst_scc_size = (0..n_comps)
                .map(|c| {
                    let cyclic = comp_size[c] > 1 || (0..n).any(|v| comp[v] == c && self_loop[v]);
                    if cyclic {
                        comp_size[c]
                    } else {
                        0
                    }
                })
                .max()
                .unwrap_or(0);

            // Candidate stalls: terminal components something is blocked behind.
            let mut candidates: Vec<(usize, Vec<WaitNode>)> = Vec::new();
            for (c, &is_terminal) in terminal.iter().enumerate() {
                if !is_terminal {
                    continue;
                }
                let members: Vec<usize> = (0..n).filter(|&v| comp[v] == c).collect();
                let has_in = members
                    .iter()
                    .any(|&v| radj[v].iter().any(|&(p, _)| comp[p] != c))
                    || members.len() > 1
                    || members.iter().any(|&v| self_loop[v]);
                if !has_in {
                    continue;
                }
                let mut sig: Vec<WaitNode> = members.iter().map(|&v| nodes[v]).collect();
                sig.sort();
                candidates.push((c, sig));
            }
            candidates.sort_by(|a, b| a.1.cmp(&b.1));
            let sigs: Vec<Vec<WaitNode>> = candidates.iter().map(|(_, s)| s.clone()).collect();
            let persistence = tracker.observe_by_lookup(&sigs);

            let mut stalls = Vec::with_capacity(candidates.len());
            for ((c, sig), persist) in candidates.into_iter().zip(persistence) {
                let members: Vec<usize> = (0..n).filter(|&v| comp[v] == c).collect();
                let is_cycle = members.len() > 1 || members.iter().any(|&v| self_loop[v]);

                // Reverse reachability from the component = everything blocked
                // behind it.
                let mut reach = vec![false; n];
                let mut work: Vec<usize> = members.clone();
                for &m in &members {
                    reach[m] = true;
                }
                while let Some(v) = work.pop() {
                    for &(p, _) in &radj[v] {
                        if !reach[p] {
                            reach[p] = true;
                            work.push(p);
                        }
                    }
                }
                let blocked_descendants = (0..n).filter(|&v| reach[v] && comp[v] != c).count();
                let mut procs: Vec<usize> = (0..n)
                    .filter(|&v| reach[v])
                    .flat_map(|v| match nodes[v] {
                        WaitNode::Msg(id) => vec![id.sender],
                        WaitNode::Proc(p) => vec![p],
                        WaitNode::LinkSlot { to, from, .. } => vec![to, from],
                        WaitNode::Phase { at, .. } => vec![at],
                    })
                    .collect();
                procs.sort_unstable();
                procs.dedup();
                let procs_involved = procs.len();

                // Worst age on any edge into or inside the component.
                let worst_age = edges
                    .iter()
                    .filter(|e| comp[ids[&e.to]] == c)
                    .map(|e| now.saturating_since(e.since))
                    .max()
                    .unwrap_or(SimDuration::ZERO);

                let severity = (worst_age.as_micros() as u128)
                    .saturating_mul(1 + blocked_descendants as u128)
                    .saturating_mul(procs_involved.max(1) as u128)
                    .saturating_mul(persist as u128);

                let path =
                    representative_path(&members, c, &comp, &nodes, &ids, &radj, &adj, edges, now);

                stalls.push(RankedStall {
                    nodes: sig,
                    is_cycle,
                    worst_age,
                    blocked_descendants,
                    procs_involved,
                    persistence: persist,
                    severity,
                    path,
                });
            }

            // Most severe first; the sorted node set breaks ties deterministically.
            stalls.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.nodes.cmp(&b.nodes)));

            StallSnapshot {
                stalls,
                max_age,
                worst_scc_size,
            }
        }

        /// The oldest chain of waits leading into component `c`, then the cycle
        /// itself (when there is one): at each backward step pick the incoming
        /// edge with the greatest age, stopping at a node with no external
        /// predecessors or one already on the path.
        #[allow(clippy::too_many_arguments)]
        fn representative_path(
            members: &[usize],
            c: usize,
            comp: &[usize],
            nodes: &[WaitNode],
            ids: &BTreeMap<WaitNode, usize>,
            radj: &[Vec<(usize, usize)>],
            adj: &[Vec<usize>],
            edges: &[WaitEdge],
            now: SimTime,
        ) -> Vec<PathStep> {
            // Entry: the component node with the oldest incoming external edge
            // (or, failing that, the smallest member — a pure cycle).
            let oldest_in = |v: usize| -> Option<(usize, usize)> {
                // (edge idx, pred) of the oldest external in-edge of v.
                radj[v]
                    .iter()
                    .filter(|&&(p, _)| comp[p] != c)
                    .max_by_key(|&&(p, ei)| {
                        (now.saturating_since(edges[ei].since), std::cmp::Reverse(p))
                    })
                    .map(|&(p, ei)| (ei, p))
            };
            let entry = members
                .iter()
                .copied()
                .max_by_key(|&v| {
                    oldest_in(v)
                        .map(|(ei, _)| now.saturating_since(edges[ei].since))
                        .unwrap_or(SimDuration::ZERO)
                })
                .unwrap_or(members[0]);

            // Walk backwards from the entry along the oldest external in-edges.
            let mut chain: Vec<(usize, usize)> = Vec::new(); // (node, edge to successor)
            let mut seen = vec![false; nodes.len()];
            seen[entry] = true;
            let mut cur = entry;
            while let Some((ei, p)) = oldest_in(cur) {
                if seen[p] {
                    break;
                }
                seen[p] = true;
                chain.push((p, ei));
                cur = p;
            }
            chain.reverse();

            let mut path: Vec<PathStep> = chain
                .into_iter()
                .map(|(v, ei)| PathStep {
                    node: nodes[v],
                    reason: edges[ei].reason.phrase(),
                    age: now.saturating_since(edges[ei].since),
                })
                .collect();

            // Then the component itself: from the entry, follow in-component
            // edges until a repeat (covers both single wedge heads and cycles).
            let mut cur = entry;
            let mut in_comp_seen = vec![false; nodes.len()];
            loop {
                if in_comp_seen[cur] {
                    break;
                }
                in_comp_seen[cur] = true;
                let next = adj[cur].iter().copied().find(|&w| comp[w] == c);
                match next {
                    Some(w) => {
                        // The concrete edge cur -> w, for its reason and age.
                        let ei = edges
                            .iter()
                            .position(|e| ids[&e.from] == cur && ids[&e.to] == w)
                            .expect("adjacency implies an edge");
                        path.push(PathStep {
                            node: nodes[cur],
                            reason: edges[ei].reason.phrase(),
                            age: now.saturating_since(edges[ei].since),
                        });
                        if in_comp_seen[w] {
                            // Close the cycle visually by naming the repeat.
                            path.push(PathStep {
                                node: nodes[w],
                                reason: "",
                                age: SimDuration::ZERO,
                            });
                            break;
                        }
                        cur = w;
                    }
                    None => {
                        path.push(PathStep {
                            node: nodes[cur],
                            reason: "",
                            age: SimDuration::ZERO,
                        });
                        break;
                    }
                }
            }
            path
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn msg(sender: usize, seq: u64) -> WaitNode {
        WaitNode::Msg(MsgId { sender, seq })
    }

    fn edge(from: WaitNode, to: WaitNode, since_ms: u64, reason: WaitReason) -> WaitEdge {
        WaitEdge {
            from,
            to,
            who: 0,
            since: t(since_ms),
            reason,
        }
    }

    /// A campaign's horizon report holds tens of thousands of waits.
    #[test]
    fn a_wait_stays_small() {
        assert!(std::mem::size_of::<(WaitNode, WaitReason)>() <= 48);
    }

    #[test]
    fn empty_graph_has_no_stalls() {
        let mut tr = StallTracker::new();
        let s = analyze(&[], t(100), &mut tr);
        assert!(s.stalls.is_empty());
        assert_eq!(s.worst_scc_size, 0);
        assert_eq!(s.max_age, SimDuration::ZERO);
    }

    #[test]
    fn chain_yields_single_wedge_head() {
        // m0.1 -> m1.1 -> m2.1: the terminal wedge head is m2.1.
        let edges = vec![
            edge(msg(0, 1), msg(1, 1), 10, WaitReason::Unknown),
            edge(msg(1, 1), msg(2, 1), 5, WaitReason::Unknown),
        ];
        let mut tr = StallTracker::new();
        let s = analyze(&edges, t(100), &mut tr);
        assert_eq!(s.stalls.len(), 1);
        let st = &s.stalls[0];
        assert!(!st.is_cycle);
        assert_eq!(st.nodes, vec![msg(2, 1)]);
        assert_eq!(st.blocked_descendants, 2);
        assert_eq!(st.worst_age, SimDuration::from_millis(95));
        assert_eq!(s.worst_scc_size, 0);
        // Path walks the whole chain into the head.
        let names: Vec<String> = st.path.iter().map(|p| p.node.to_string()).collect();
        assert_eq!(names, vec!["m0.1", "m1.1", "m2.1"]);
    }

    #[test]
    fn cycle_is_detected_and_ranked_above_wedge() {
        let flush = WaitNode::Phase {
            kind: PhaseTag::Flush,
            at: 2,
        };
        let edges = vec![
            // A 2-cycle: P0 waits on the flush, the flush waits on P0's ack.
            edge(WaitNode::Proc(0), flush, 10, WaitReason::MidFlush),
            edge(flush, WaitNode::Proc(0), 10, WaitReason::FlushOkMissing),
            // Messages wedged behind it.
            edge(msg(4, 34), WaitNode::Proc(0), 20, WaitReason::Frozen),
            // An unrelated small wedge.
            edge(msg(3, 1), msg(3, 0), 90, WaitReason::Unknown),
        ];
        let mut tr = StallTracker::new();
        let s = analyze(&edges, t(100), &mut tr);
        assert_eq!(s.worst_scc_size, 2);
        assert_eq!(s.stalls.len(), 2);
        let top = &s.stalls[0];
        assert!(top.is_cycle);
        assert_eq!(top.nodes, vec![WaitNode::Proc(0), flush]);
        assert_eq!(top.blocked_descendants, 1);
        // The path names the coordinator's flush phase.
        assert!(
            top.render_path().contains("flush@P2"),
            "{}",
            top.render_path()
        );
        assert!(
            top.render_path().starts_with("m4.34"),
            "{}",
            top.render_path()
        );
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let edges = vec![edge(
            WaitNode::Proc(1),
            WaitNode::Proc(1),
            0,
            WaitReason::Unknown,
        )];
        let mut tr = StallTracker::new();
        let s = analyze(&edges, t(50), &mut tr);
        assert_eq!(s.stalls.len(), 1);
        assert!(s.stalls[0].is_cycle);
        assert_eq!(s.worst_scc_size, 1);
    }

    #[test]
    fn persistence_counts_consecutive_snapshots_only() {
        let edges = vec![edge(msg(0, 2), msg(0, 1), 0, WaitReason::Unknown)];
        let mut tr = StallTracker::new();
        let s1 = analyze(&edges, t(50), &mut tr);
        assert_eq!(s1.stalls[0].persistence, 1);
        assert!(!s1.stalls[0].is_persistent());
        let s2 = analyze(&edges, t(100), &mut tr);
        assert_eq!(s2.stalls[0].persistence, 2);
        let s3 = analyze(&edges, t(150), &mut tr);
        assert_eq!(s3.stalls[0].persistence, 3);
        assert!(s3.stalls[0].is_persistent());
        // The component vanishes for one snapshot: the count resets.
        let s4 = analyze(&[], t(200), &mut tr);
        assert!(s4.stalls.is_empty());
        let s5 = analyze(&edges, t(250), &mut tr);
        assert_eq!(s5.stalls[0].persistence, 1);
    }

    #[test]
    fn severity_scales_with_blocked_descendants() {
        // Same head age, one head with two ancestors vs one with none... a
        // lone head with no in-edges is not even a candidate, so compare
        // one-ancestor vs three-ancestor wedges.
        let head_a = msg(9, 1);
        let head_b = msg(9, 2);
        let edges = vec![
            edge(msg(0, 1), head_a, 0, WaitReason::Unknown),
            edge(msg(1, 1), head_b, 0, WaitReason::Unknown),
            edge(msg(2, 1), head_b, 0, WaitReason::Unknown),
            edge(msg(3, 1), head_b, 0, WaitReason::Unknown),
        ];
        let mut tr = StallTracker::new();
        let s = analyze(&edges, t(100), &mut tr);
        assert_eq!(s.stalls.len(), 2);
        assert_eq!(s.stalls[0].nodes, vec![head_b]);
        assert!(s.stalls[0].severity > s.stalls[1].severity);
    }

    #[test]
    fn analysis_is_deterministic() {
        let flush = WaitNode::Phase {
            kind: PhaseTag::Flush,
            at: 0,
        };
        let edges = vec![
            edge(WaitNode::Proc(3), flush, 7, WaitReason::MidFlush),
            edge(flush, WaitNode::Proc(3), 9, WaitReason::FlushOkMissing),
            edge(msg(1, 5), WaitNode::Proc(3), 11, WaitReason::Frozen),
            edge(msg(2, 2), msg(1, 5), 13, WaitReason::Unknown),
        ];
        let run = || {
            let mut tr = StallTracker::new();
            let s = analyze(&edges, t(500), &mut tr);
            s.stalls
                .iter()
                .map(|st| (st.summary(), st.render_path(), st.severity))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Node `i` of the random graphs: the four kinds interleaved, with
    /// fields chosen so that sorted order is not numbering order and
    /// process indices lie on both sides of 128.
    fn pool_node(i: usize) -> WaitNode {
        let kinds = [
            PhaseTag::OrderAssign,
            PhaseTag::Flush,
            PhaseTag::TokenRotation,
        ];
        match i % 4 {
            0 => msg((i / 4) % 3, 100 - i as u64),
            1 => WaitNode::Proc(150 - 4 * i),
            2 => WaitNode::LinkSlot {
                to: i % 3,
                from: (i / 3) % 3,
                seq: i as u64,
            },
            _ => WaitNode::Phase {
                kind: kinds[(i / 4) % 3],
                at: 45 - i,
            },
        }
    }

    /// A stall with every field in view (`RankedStall` is not `Eq`).
    fn fields(s: &RankedStall) -> impl PartialEq + fmt::Debug + '_ {
        let counts = (s.blocked_descendants, s.procs_involved, s.persistence);
        let ranked = (s.is_cycle, s.worst_age.as_micros(), s.severity);
        (&s.nodes, counts, ranked, &s.path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `analyze` against the analysis it replaced, over three
        /// consecutive snapshots of one random graph through one tracker
        /// each: up to 40 nodes of all four kinds, input unsorted or
        /// sorted, ages that tie, parallel edges, self-loops and short
        /// cycles planted, each snapshot leaving a different few edges
        /// out so that components persist, vanish and return.
        #[test]
        fn analysis_matches_the_quadratic_oracle(
            n_nodes in 1usize..=40,
            random in collection::vec((0usize..40, 0usize..40, 0u64..6, 0usize..4, 0u8..5), 0..60),
            cycles in collection::vec((0usize..40, 1usize..=3, 0u64..6), 0..4),
            sorted in bool::ANY,
        ) {
            let reasons = [
                WaitReason::HeldHere,
                WaitReason::Unknown,
                WaitReason::Frozen,
                WaitReason::LinkGap,
            ];
            let node = |i: usize| pool_node(i % n_nodes);
            // (edge, the snapshot it is left out of, if any)
            let mut all: Vec<(WaitEdge, u8)> = random
                .iter()
                .map(|&(a, b, since, why, skip)| {
                    (edge(node(a), node(b), since * 10, reasons[why]), skip)
                })
                .collect();
            for &(start, len, since) in &cycles {
                for step in 0..len {
                    let (a, b) = (node(start + step), node(start + (step + 1) % len));
                    all.push((edge(a, b, since * 10, WaitReason::MidFlush), 3));
                }
            }
            if sorted {
                // As the sampler hands them over: each source's edges
                // together, targets in the same order under each.
                all.sort_by_key(|(e, _)| (e.from, e.to, e.since));
            }
            let (mut tracker, mut oracle_tracker) = (StallTracker::new(), StallTracker::new());
            for snapshot in 0..3u8 {
                let edges: Vec<WaitEdge> = all
                    .iter()
                    .filter(|&&(_, skip)| skip != snapshot)
                    .map(|&(e, _)| e)
                    .collect();
                let now = t(100 + 50 * u64::from(snapshot));
                let got = analyze(&edges, now, &mut tracker);
                let want = oracle::analyze(&edges, now, &mut oracle_tracker);
                prop_assert_eq!(got.max_age, want.max_age);
                prop_assert_eq!(got.worst_scc_size, want.worst_scc_size);
                prop_assert_eq!(got.stalls.len(), want.stalls.len());
                for (g, w) in got.stalls.iter().zip(&want.stalls) {
                    prop_assert_eq!(fields(g), fields(w), "snapshot {}", snapshot);
                }
                prop_assert_eq!(&tracker.seen, &oracle_tracker.seen);
            }
        }
    }
}
