//! The event queue at the heart of the discrete-event scheduler.
//!
//! The queue is two structures. A binary heap orders small `Copy` keys
//! `(time, seq, slot, to)`: one key per *arrival*, i.e. per thing that
//! will happen to one process at one instant. A slab holds the event
//! *bodies* the keys point at, each with a count of the arrivals still
//! pending on it. Sifting the heap therefore moves 24 bytes a level
//! whatever the message type, and a multicast to N recipients is one
//! body with N keys: [`EventQueue::push_shared`] moves the body in once,
//! [`EventQueue::pop`] clones it for every arrival but the last, which
//! takes it, and [`EventQueue::skip`] retires an arrival nobody will
//! look at without cloning anything. A copy thus exists from dispatch to
//! the end of its handler instead of from send to delivery, and a copy
//! that is dropped on the wire or addressed to a dead process never
//! exists at all.
//!
//! Order is `(time, seq)` where `seq` is a monotonically increasing
//! insertion number, drawn per key in push order. The sequence number
//! makes the simulation fully deterministic: two arrivals scheduled for
//! the same instant always pop in the order they were pushed, independent
//! of heap internals — and independent of whether their bodies are shared,
//! since a shared body's keys take the same consecutive numbers that
//! pushing a private copy per recipient would have.

use crate::process::{ProcessId, TimerId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when an arrival comes due. Whom it happens to is the
/// arrival's `to`, not part of the body, so one body serves every
/// recipient of a multicast.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// Start of the process: `on_start` is invoked.
    Start,
    /// A message arrives on the wire.
    Deliver {
        from: ProcessId,
        msg: M,
        sent_at: SimTime,
    },
    /// A timer set by the process fires.
    Timer(TimerId),
    /// The process crashes (stops receiving anything).
    Crash,
    /// The process recovers and `on_recover` is invoked.
    Recover,
    /// Two network blocks separate (bidirectional partition).
    PartitionStart {
        a: Vec<ProcessId>,
        b: Vec<ProcessId>,
    },
    /// All partitions heal.
    PartitionHeal,
    /// A network-degradation episode begins: burst loss, message
    /// duplication, and/or inflated delays (see `NetState::degrade`).
    NetDegrade {
        extra_drop: f64,
        dup_probability: f64,
        delay_factor: f64,
    },
    /// Degradation ends; the network returns to its configured behaviour.
    NetRestore,
}

/// What the heap sifts. `seq` is unique, so the derived lexicographic
/// order never looks past it: keys order by `(at, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    to: u32,
}

/// A body and how many keys in the heap still point at it. The body is
/// `None` only while the slot sits on the free list.
#[derive(Debug)]
struct Slot<B> {
    body: Option<B>,
    pending: u32,
}

/// One popped arrival: `body` happens to `to` at `at`.
#[derive(Debug)]
pub struct Arrival<B> {
    pub at: SimTime,
    pub seq: u64,
    pub to: ProcessId,
    pub body: B,
}

/// A deterministic min-priority queue of arrivals over shared bodies.
#[derive(Debug)]
pub struct EventQueue<B> {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Slot<B>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<B> Default for EventQueue<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> EventQueue<B> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `body` to happen to `to` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, to: ProcessId, body: B) {
        self.push_shared(body, &[(at, to)]);
    }

    /// Schedules one `body` for every `(time, recipient)` in `arrivals`,
    /// numbering them in slice order. With no arrivals the body is
    /// dropped here and no slot is taken.
    pub fn push_shared(&mut self, body: B, arrivals: &[(SimTime, ProcessId)]) {
        if arrivals.is_empty() {
            return;
        }
        let filled = Slot {
            body: Some(body),
            pending: u32::try_from(arrivals.len()).expect("fewer than 2^32 arrivals per body"),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = filled;
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("fewer than 2^32 bodies pending at once");
                self.slab.push(filled);
                slot
            }
        };
        self.heap.reserve(arrivals.len());
        for &(at, to) in arrivals {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Key {
                at,
                seq,
                slot,
                // No process has an id this large; clamping keeps such an
                // id naming no process.
                to: u32::try_from(to.0).unwrap_or(u32::MAX),
            }));
        }
    }

    /// The earliest arrival — its time, recipient and body — without
    /// removing it.
    pub fn peek(&self) -> Option<(SimTime, ProcessId, &B)> {
        let Reverse(key) = self.heap.peek()?;
        let body = self.slab[key.slot as usize].body.as_ref();
        Some((
            key.at,
            ProcessId(key.to as usize),
            body.expect("a pending key's slot holds its body"),
        ))
    }

    /// Removes the earliest key; `true` if it was the last one pending on
    /// its body (whose slot the caller must then empty).
    fn pop_key(&mut self) -> Option<(Key, bool)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = &mut self.slab[key.slot as usize];
        slot.pending -= 1;
        let last = slot.pending == 0;
        if last {
            self.free.push(key.slot);
        }
        Some((key, last))
    }

    /// Removes and returns the earliest arrival, if any. Its body is a
    /// clone unless this was the last arrival pending on it.
    pub fn pop(&mut self) -> Option<Arrival<B>>
    where
        B: Clone,
    {
        let (key, last) = self.pop_key()?;
        let slot = &mut self.slab[key.slot as usize];
        let body = if last {
            slot.body.take()
        } else {
            slot.body.clone()
        };
        Some(Arrival {
            at: key.at,
            seq: key.seq,
            to: ProcessId(key.to as usize),
            body: body.expect("a pending key's slot holds its body"),
        })
    }

    /// Removes the earliest arrival without materialising its body: no
    /// clone, and the body is dropped if this was the last arrival
    /// pending on it.
    pub fn skip(&mut self) {
        if let Some((key, true)) = self.pop_key() {
            self.slab[key.slot as usize].body = None;
        }
    }

    /// Number of pending arrivals.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(us(30), ProcessId(3), ());
        q.push(us(10), ProcessId(1), ());
        q.push(us(20), ProcessId(2), ());
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.as_micros(), e.to.0))
            .collect();
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(us(5), ProcessId(i), ());
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(seqs, sorted, "ties must break by insertion order");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(us(7), ProcessId(0), 'a');
        q.push(us(3), ProcessId(1), 'b');
        assert_eq!(q.peek(), Some((us(3), ProcessId(1), &'b')));
        assert_eq!(q.pop().unwrap().at, us(3));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn oversized_recipient_stays_nonexistent() {
        let mut q = EventQueue::new();
        q.push(us(1), ProcessId(usize::MAX), ());
        assert_eq!(q.pop().unwrap().to, ProcessId(u32::MAX as usize));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::cell::Cell;
        use std::collections::BTreeMap;
        use std::rc::Rc;

        /// A body that knows its payload and counts how many of it exist.
        struct Body {
            payload: u32,
            live: Rc<Cell<i64>>,
        }

        impl Body {
            fn new(payload: u32, live: &Rc<Cell<i64>>) -> Self {
                live.set(live.get() + 1);
                Body {
                    payload,
                    live: Rc::clone(live),
                }
            }
        }

        impl Clone for Body {
            fn clone(&self) -> Self {
                Body::new(self.payload, &self.live)
            }
        }

        impl Drop for Body {
            fn drop(&mut self) {
                self.live.set(self.live.get() - 1);
            }
        }

        /// One step of a random history.
        enum Op {
            /// One body arriving at these `(µs, process)`s.
            Push(Vec<(u64, usize)>),
            Pop,
            Skip,
        }

        fn op() -> impl Strategy<Value = Op> {
            (
                0u8..6,
                // Few distinct times, so ties are the common case.
                collection::vec((0u64..6, 0usize..8), 0..5),
                bool::ANY,
            )
                .prop_map(|(kind, mut arrivals, same_time)| match kind {
                    0 | 1 => Op::Pop,
                    2 => Op::Skip,
                    3 => {
                        arrivals.truncate(1);
                        Op::Push(arrivals)
                    }
                    _ => {
                        if same_time {
                            let t = arrivals.first().map_or(0, |a| a.0);
                            arrivals.iter_mut().for_each(|a| a.0 = t);
                        }
                        Op::Push(arrivals)
                    }
                })
        }

        proptest! {
            /// Against a `BTreeMap<(at, seq), _>` model: pop order is
            /// (time, insertion); every arrival carries its body's payload
            /// and its own recipient; a body lives exactly as long as an
            /// arrival is pending on it; slots are reused before the slab
            /// grows.
            #[test]
            fn matches_an_ordered_map_model(ops in collection::vec(op(), 0..120)) {
                let live = Rc::new(Cell::new(0i64));
                let mut q: EventQueue<Body> = EventQueue::new();
                // (at, seq) -> (body number, payload, to)
                let mut model: BTreeMap<(u64, u64), (usize, u32, usize)> = BTreeMap::new();
                let mut pending_on: Vec<usize> = Vec::new();
                let mut next_seq = 0u64;
                let mut peak_bodies = 0usize;
                for op in ops {
                    if let Op::Push(arrivals) = &op {
                        let body = pending_on.len();
                        let payload = body as u32 * 7 + 1;
                        pending_on.push(arrivals.len());
                        for &(at, to) in arrivals {
                            model.insert((at, next_seq), (body, payload, to));
                            next_seq += 1;
                        }
                        let arrivals: Vec<(SimTime, ProcessId)> =
                            arrivals.iter().map(|&(at, to)| (us(at), ProcessId(to))).collect();
                        q.push_shared(Body::new(payload, &live), &arrivals);
                    } else {
                        let want = model.pop_first().map(|((at, seq), (body, payload, to))| {
                            pending_on[body] -= 1;
                            (us(at), seq, ProcessId(to), payload)
                        });
                        let peeked = q.peek().map(|(at, to, body)| (at, to, body.payload));
                        prop_assert_eq!(peeked, want.map(|(at, _, to, payload)| (at, to, payload)));
                        if let Op::Skip = op {
                            q.skip();
                        } else {
                            let got = q.pop().map(|a| (a.at, a.seq, a.to, a.body.payload));
                            prop_assert_eq!(got, want);
                        }
                    }
                    let bodies = pending_on.iter().filter(|&&n| n > 0).count();
                    peak_bodies = peak_bodies.max(bodies);
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(live.get(), bodies as i64, "a body outlived its last arrival");
                    prop_assert_eq!(q.slab.len() - q.free.len(), bodies);
                    prop_assert!(q.slab.len() <= peak_bodies, "slab outgrew the peak of live bodies");
                }
            }
        }
    }
}
