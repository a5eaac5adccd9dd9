//! Holdback-queue implementations for the causal delivery hot path.
//!
//! The holdback queue is where cbcast pays (or avoids paying) the paper's
//! §3.4 per-message overhead on the *receive* side: every wire event asks
//! "is anything deliverable now?" and "have I already got this message?".
//!
//! Two implementations share one interface so experiments can compare
//! them directly (T7+) and tests can assert behavioural equivalence:
//!
//! - [`HoldbackQueue::Scan`] — the naive structure: a `Vec` of pending
//!   messages, membership by linear scan, and a rescan-from-scratch drain.
//!   O(H) per event, O(H²) per cascade drain.
//! - [`HoldbackQueue::Indexed`] — a `HashMap` by id plus a wait-count /
//!   ready-queue scheme: each pending message counts how many of its
//!   direct causal predecessors are undelivered; delivering a message
//!   decrements exactly the messages waiting on it and promotes the newly
//!   ready ones. Amortized O(deps) per event, independent of H.
//!
//! Both deliver in *arrival order among deliverable messages* (the scan
//! picks the earliest-arrived deliverable; the index pops a min-heap keyed
//! by arrival number), so their delivery sequences are identical — a
//! property the `cbcast` proptests pin down.
//!
//! Every structural step (entries examined, registrations, promotions,
//! heap operations) is counted in `HoldbackQueue::work`; the T7+
//! experiment reads the counter through `simnet::metrics` to show the
//! scan's per-event work growing linearly with holdback size while the
//! index stays flat.
//!
//! Which ids are held is asked of the causal core's sender windows
//! (`causal_core::window`), never of the queue: `work` counts inserts,
//! pops, releases and purges, and nothing a caller merely wants to know.

use crate::causal_core::lagging_refs;
use crate::group::MsgId;
use crate::wire::DataMsg;
use clocks::vector::VectorClock;
use simnet::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A message sitting in the holdback queue.
#[derive(Debug)]
pub struct Pending<P> {
    /// The data message awaiting its causal predecessors.
    pub msg: DataMsg<P>,
    /// When it physically arrived.
    pub arrived_at: SimTime,
}

/// A holdback queue: either the naive scan structure or the indexed
/// wait-count scheme. See the module docs for the comparison.
#[derive(Debug)]
pub enum HoldbackQueue<P> {
    /// Linear-scan baseline.
    Scan(ScanHoldback<P>),
    /// HashMap + wait-count/ready-heap.
    Indexed(IndexedHoldback<P>),
}

impl<P> HoldbackQueue<P> {
    /// Creates a queue of the requested kind for a group of `n`.
    pub fn new(indexed: bool, n: usize) -> Self {
        if indexed {
            HoldbackQueue::Indexed(IndexedHoldback::new(n))
        } else {
            HoldbackQueue::Scan(ScanHoldback::new(n))
        }
    }

    /// Number of messages currently held.
    pub(crate) fn len(&self) -> usize {
        match self {
            HoldbackQueue::Scan(q) => q.items.len(),
            HoldbackQueue::Indexed(q) => q.entries.len(),
        }
    }

    /// Whether `id` is currently held, not counted as work.
    fn peek(&self, id: MsgId) -> bool {
        match self {
            HoldbackQueue::Scan(q) => q.items.iter().any(|p| p.msg.id == id),
            HoldbackQueue::Indexed(q) => q.entries.contains_key(&id),
        }
    }

    /// Iterates the held messages, in no particular order (the indexed
    /// structure is hash-ordered — callers wanting determinism must sort).
    /// Read-only: does not count toward [`Self::work`].
    pub(crate) fn pending(&self) -> Box<dyn Iterator<Item = &Pending<P>> + '_> {
        match self {
            HoldbackQueue::Scan(q) => Box::new(q.items.iter()),
            HoldbackQueue::Indexed(q) => Box::new(q.entries.values().map(|e| &e.pending)),
        }
    }

    /// Inserts a newly arrived message. `local_vt` is the receiver's
    /// delivered clock, used by the indexed structure to compute how many
    /// direct predecessors are still undelivered.
    ///
    /// Returns whether the message was accepted: a copy already delivered or
    /// held is refused, whatever the caller checked (the indexed queue would
    /// pop it as ready again, or count its waits twice).
    pub fn insert(&mut self, pending: Pending<P>, local_vt: &VectorClock) -> bool {
        let id = pending.msg.id;
        if id.seq <= local_vt.get(id.sender) || self.peek(id) {
            return false;
        }
        match self {
            HoldbackQueue::Scan(q) => {
                q.work += 1;
                q.items.push(pending);
            }
            HoldbackQueue::Indexed(q) => q.insert(pending, local_vt),
        }
        true
    }

    /// Removes and returns the earliest-arrived deliverable message, if
    /// any. After delivering it (and advancing the local clock) the caller
    /// must invoke [`Self::note_delivered`] so dependents are released.
    pub fn pop_ready(&mut self, local_vt: &VectorClock) -> Option<Pending<P>> {
        match self {
            HoldbackQueue::Scan(q) => {
                let pos = q
                    .items
                    .iter()
                    .position(|p| local_vt.deliverable(&p.msg.vt, p.msg.id.sender));
                q.work += pos.map_or(q.items.len(), |i| i + 1) as u64;
                // `remove`, not `swap_remove`: arrival order among the
                // still-held messages is what makes the two
                // implementations deliver identically.
                pos.map(|i| q.items.remove(i))
            }
            HoldbackQueue::Indexed(q) => q.pop_ready(local_vt),
        }
    }

    /// Tells the queue that message (`sender`, `seq`) was delivered (the
    /// local clock component for `sender` advanced to `seq`). This is what
    /// releases dependents in the indexed scheme; the scan rescans anyway.
    pub fn note_delivered(&mut self, sender: usize, seq: u64) {
        match self {
            HoldbackQueue::Scan(_) => {}
            HoldbackQueue::Indexed(q) => q.note_delivered(sender, seq),
        }
    }

    /// Cumulative structural work: holdback entries examined (scan) or
    /// index registrations/promotions/heap operations (indexed).
    pub(crate) fn work(&self) -> u64 {
        match self {
            HoldbackQueue::Scan(q) => q.work,
            HoldbackQueue::Indexed(q) => q.work,
        }
    }

    /// Drops every held message from `sender` with `seq > keep_le` — used
    /// at view installs to discard a removed member's messages beyond the
    /// flush cut (they can never become deliverable: their FIFO
    /// predecessors beyond the cut are rejected, so they would otherwise
    /// sit in the queue forever). Returns how many were purged.
    pub(crate) fn purge_sender(&mut self, sender: usize, keep_le: u64) -> usize {
        match self {
            HoldbackQueue::Scan(q) => {
                let before = q.items.len();
                q.work += before as u64;
                q.items
                    .retain(|p| p.msg.id.sender != sender || p.msg.id.seq <= keep_le);
                before - q.items.len()
            }
            HoldbackQueue::Indexed(q) => q.purge_sender(sender, keep_le),
        }
    }
}

/// The naive `Vec`-of-pending structure. Every membership test and every
/// drain pass walks the queue from the front.
#[derive(Debug)]
pub struct ScanHoldback<P> {
    items: Vec<Pending<P>>,
    work: u64,
}

impl<P> ScanHoldback<P> {
    fn new(_n: usize) -> Self {
        ScanHoldback {
            items: Vec::new(),
            work: 0,
        }
    }
}

/// The indexed structure: entries by id, a waiter index keyed by the
/// exact (sender, seq) delivery that will satisfy each outstanding wait,
/// and a ready min-heap ordered by arrival so delivery order matches the
/// scan baseline.
///
/// Correctness hinges on one invariant of the cbcast deliverability rule:
/// the local clock component for any sender advances by exactly one per
/// delivery, so the wait threshold `(k, need)` registered at insert time
/// is crossed precisely when message `(k, need)` is delivered — and
/// `note_delivered(k, need)` releases exactly the messages whose last
/// obstacle that was. A message's wait count therefore reaches zero iff
/// it is deliverable.
#[derive(Debug)]
pub struct IndexedHoldback<P> {
    n: usize,
    entries: HashMap<MsgId, IndexedEntry<P>>,
    /// `(sender, seq)` → ids of held messages waiting on that delivery.
    waiters: HashMap<(usize, u64), Vec<MsgId>>,
    /// Wait-count-zero messages, ordered by arrival number.
    ready: BinaryHeap<Reverse<(u64, MsgId)>>,
    next_arrival: u64,
    work: u64,
}

#[derive(Debug)]
struct IndexedEntry<P> {
    pending: Pending<P>,
    waits: usize,
    arrival_no: u64,
}

impl<P> IndexedHoldback<P> {
    fn new(n: usize) -> Self {
        IndexedHoldback {
            n,
            entries: HashMap::new(),
            waiters: HashMap::new(),
            ready: BinaryHeap::new(),
            next_arrival: 0,
            work: 0,
        }
    }

    fn insert(&mut self, pending: Pending<P>, local_vt: &VectorClock) {
        let id = pending.msg.id;
        let arrival_no = self.next_arrival;
        self.next_arrival += 1;
        let mut waits = 0usize;
        // One wait per member `k` whose direct predecessor of this
        // message — its own previous message (FIFO) or the latest message
        // from `k` visible in its timestamp — is still undelivered.
        for (k, _, need) in lagging_refs(&pending.msg, local_vt, self.n) {
            self.waiters.entry((k, need)).or_default().push(id);
            waits += 1;
            self.work += 1;
        }
        self.work += 1;
        if waits == 0 {
            self.ready.push(Reverse((arrival_no, id)));
        }
        self.entries.insert(
            id,
            IndexedEntry {
                pending,
                waits,
                arrival_no,
            },
        );
    }

    fn pop_ready(&mut self, local_vt: &VectorClock) -> Option<Pending<P>> {
        // Lazy deletion: `purge_sender` removes entries without sweeping
        // the heap or the waiter lists, so a popped ready id may no longer
        // be in the index — skip such tombstones.
        while let Some(Reverse((_, id))) = self.ready.pop() {
            self.work += 1;
            let Some(entry) = self.entries.remove(&id) else {
                continue;
            };
            debug_assert!(
                local_vt.deliverable(&entry.pending.msg.vt, id.sender),
                "ready-queue invariant: zero waits implies deliverable"
            );
            return Some(entry.pending);
        }
        None
    }

    fn purge_sender(&mut self, sender: usize, keep_le: u64) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|id, _| id.sender != sender || id.seq <= keep_le);
        let purged = before - self.entries.len();
        // Nothing of `sender` beyond the cut will be delivered, so no
        // `note_delivered` would ever take the lists waiting on it.
        self.waiters
            .retain(|&(s, seq), _| s != sender || seq <= keep_le);
        // Stale references to the purged ids in the remaining waiter
        // lists and the ready heap are tolerated: `note_delivered` skips
        // ids missing from the index, and `pop_ready` skips tombstones.
        self.work += purged as u64;
        purged
    }

    fn note_delivered(&mut self, sender: usize, seq: u64) {
        let Some(list) = self.waiters.remove(&(sender, seq)) else {
            return;
        };
        for id in list {
            self.work += 1;
            if let Some(e) = self.entries.get_mut(&id) {
                debug_assert!(e.waits > 0, "waiter registered for {id} with zero waits");
                e.waits = e.waits.saturating_sub(1);
                if e.waits == 0 {
                    self.ready.push(Reverse((e.arrival_no, id)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::VtWire;

    fn msg(sender: usize, seq: u64, vt: &[u64]) -> DataMsg<u32> {
        let vt = VectorClock::from_entries(vt.to_vec());
        DataMsg {
            id: MsgId { sender, seq },
            vt_wire: VtWire::Full(vt.encode()),
            vt,
            payload: 0,
            retransmit: false,
            appended: Vec::new(),
        }
    }

    fn pend(sender: usize, seq: u64, vt: &[u64]) -> Pending<u32> {
        Pending {
            msg: msg(sender, seq, vt),
            arrived_at: SimTime::ZERO,
        }
    }

    /// Drives both implementations through the same out-of-order arrival
    /// pattern and checks identical delivery sequences.
    fn drain_all(q: &mut HoldbackQueue<u32>, vt: &mut VectorClock) -> Vec<MsgId> {
        let mut order = Vec::new();
        while let Some(p) = q.pop_ready(vt) {
            let MsgId { sender, seq } = p.msg.id;
            vt.set(sender, seq);
            q.note_delivered(sender, seq);
            order.push(p.msg.id);
        }
        order
    }

    #[test]
    fn both_impls_release_chain_in_causal_order() {
        // m0.1 → m1.1 → m2.1, arriving fully reversed.
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 3);
            let mut vt = VectorClock::new(3);
            q.insert(pend(2, 1, &[1, 1, 1]), &vt);
            q.insert(pend(1, 1, &[1, 1, 0]), &vt);
            assert!(drain_all(&mut q, &mut vt).is_empty());
            q.insert(pend(0, 1, &[1, 0, 0]), &vt);
            let order = drain_all(&mut q, &mut vt);
            assert_eq!(
                order,
                vec![
                    MsgId { sender: 0, seq: 1 },
                    MsgId { sender: 1, seq: 1 },
                    MsgId { sender: 2, seq: 1 },
                ],
                "indexed={indexed}"
            );
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn concurrent_ready_messages_pop_in_arrival_order() {
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 3);
            let vt = VectorClock::new(3);
            // Two concurrent, immediately deliverable messages.
            q.insert(pend(1, 1, &[0, 1, 0]), &vt);
            q.insert(pend(0, 1, &[1, 0, 0]), &vt);
            let mut local = VectorClock::new(3);
            let order = drain_all(&mut q, &mut local);
            assert_eq!(order[0], MsgId { sender: 1, seq: 1 }, "indexed={indexed}");
            assert_eq!(order[1], MsgId { sender: 0, seq: 1 });
        }
    }

    #[test]
    fn peek_and_len_agree() {
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 2);
            let vt = VectorClock::new(2);
            assert_eq!(q.len(), 0);
            q.insert(pend(1, 2, &[0, 2]), &vt);
            assert_eq!(q.len(), 1);
            assert!(q.peek(MsgId { sender: 1, seq: 2 }));
            assert!(!q.peek(MsgId { sender: 1, seq: 1 }));
        }
    }

    #[test]
    fn purge_sender_drops_beyond_cut_only() {
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 3);
            let vt = VectorClock::new(3);
            // Sender 1 held at seqs 2..=4 (FIFO gap at 1); sender 0's
            // message must survive the purge untouched.
            q.insert(pend(1, 2, &[0, 2, 0]), &vt);
            q.insert(pend(1, 3, &[0, 3, 0]), &vt);
            q.insert(pend(1, 4, &[0, 4, 0]), &vt);
            q.insert(pend(0, 1, &[1, 0, 0]), &vt);
            // Cut at 2: seqs 3 and 4 go, seq 2 stays.
            assert_eq!(q.purge_sender(1, 2), 2, "indexed={indexed}");
            assert_eq!(q.len(), 2);
            assert!(q.peek(MsgId { sender: 1, seq: 2 }));
            assert!(!q.peek(MsgId { sender: 1, seq: 3 }));
            // The survivors still drain correctly (tombstoned heap/waiter
            // references must not break delivery).
            let mut local = VectorClock::new(3);
            local.set(1, 1); // seq 1 delivered out of band
            q.note_delivered(1, 1);
            let order = drain_all(&mut q, &mut local);
            assert_eq!(
                order,
                vec![MsgId { sender: 1, seq: 2 }, MsgId { sender: 0, seq: 1 }],
                "indexed={indexed}"
            );
        }
    }

    /// A purge also drops the waiter lists keyed on the sender's ids
    /// beyond the cut: those deliveries never happen, so nothing else
    /// would ever remove them — one stale list per purged message, at
    /// every view change.
    #[test]
    fn purge_sender_drops_the_waiter_lists_beyond_the_cut() {
        let mut q: HoldbackQueue<u32> = HoldbackQueue::new(true, 2);
        let vt = VectorClock::new(2);
        for seq in 2..=4 {
            q.insert(pend(1, seq, &[0, seq]), &vt);
        }
        q.purge_sender(1, 2);
        let HoldbackQueue::Indexed(q) = &q else {
            unreachable!("an indexed queue was asked for")
        };
        let mut keys: Vec<_> = q.waiters.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, [(1, 1), (1, 2)]);
    }

    /// Regression (dup-after-deliver): a duplicated wire copy arriving
    /// after its original was delivered must be rejected, not requeued.
    /// Before the insert guard, the indexed path computed zero waits for
    /// the dup against the advanced clock and popped it as ready again —
    /// a double delivery (and a tripped deliverability debug-assert) —
    /// while the scan path parked it forever, diverging between modes.
    #[test]
    fn dup_after_deliver_is_not_resurrected() {
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 2);
            let mut vt = VectorClock::new(2);
            assert!(q.insert(pend(1, 1, &[0, 1]), &vt));
            let order = drain_all(&mut q, &mut vt);
            assert_eq!(
                order,
                vec![MsgId { sender: 1, seq: 1 }],
                "indexed={indexed}"
            );
            // The late duplicate: same id, same timestamp, original long
            // delivered. The queue must refuse it and stay empty.
            assert!(!q.insert(pend(1, 1, &[0, 1]), &vt), "indexed={indexed}");
            assert_eq!(q.len(), 0, "indexed={indexed}");
            assert!(drain_all(&mut q, &mut vt).is_empty(), "indexed={indexed}");
        }
    }

    /// Regression (dup-while-held): re-inserting a message that is still
    /// in the queue must not double-register its waiters. Before the
    /// guard, `note_delivered` walked the doubled waiter list and
    /// decremented the single wait twice — a usize underflow panic in the
    /// indexed path.
    #[test]
    fn dup_while_held_does_not_double_count_waits() {
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 3);
            let vt = VectorClock::new(3);
            // (2,1) waits on exactly one predecessor, (1,1).
            assert!(q.insert(pend(2, 1, &[0, 1, 1]), &vt));
            assert!(!q.insert(pend(2, 1, &[0, 1, 1]), &vt), "indexed={indexed}");
            assert_eq!(q.len(), 1);
            let mut local = VectorClock::new(3);
            local.set(1, 1);
            // Pre-fix indexed: the doubled waiter registration underflows
            // the wait count right here.
            q.note_delivered(1, 1);
            let order = drain_all(&mut q, &mut local);
            assert_eq!(
                order,
                vec![MsgId { sender: 2, seq: 1 }],
                "indexed={indexed}"
            );
        }
    }

    #[test]
    fn peek_and_pending_do_not_count_work() {
        // The observability paths must not perturb the work counters the
        // T7+ experiment (and the chaos digests) are built on.
        for indexed in [false, true] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 2);
            let vt = VectorClock::new(2);
            q.insert(pend(1, 2, &[0, 2]), &vt);
            let before = q.work();
            assert!(q.peek(MsgId { sender: 1, seq: 2 }));
            assert!(!q.peek(MsgId { sender: 1, seq: 1 }));
            assert_eq!(q.pending().count(), 1);
            assert_eq!(q.work(), before, "indexed={indexed}");
        }
    }

    #[test]
    fn indexed_work_stays_flat_as_queue_grows() {
        // Hold H messages from one sender, arriving in reverse; asked
        // whether anything is ready, the scan pays O(H) while the index
        // pays nothing.
        let h = 64u64;
        let mut asked_scan = 0u64;
        let mut asked_idx = 0u64;
        for (indexed, asked) in [(false, &mut asked_scan), (true, &mut asked_idx)] {
            let mut q: HoldbackQueue<u32> = HoldbackQueue::new(indexed, 2);
            let vt = VectorClock::new(2);
            for seq in (2..=h).rev() {
                q.insert(pend(1, seq, &[0, seq]), &vt);
            }
            let before = q.work();
            assert!(q.pop_ready(&vt).is_none());
            *asked = q.work() - before;
        }
        assert!(asked_scan >= h - 1, "scan walks the queue");
        assert_eq!(asked_idx, 0, "indexed pops an empty ready heap");
    }
}
