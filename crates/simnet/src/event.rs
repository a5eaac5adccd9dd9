//! The event queue at the heart of the discrete-event scheduler.
//!
//! The queue is three structures. A *front* (a `VecDeque`) and 64
//! *buckets* (`Vec`s) hold small `Copy` keys `(time, slot, to)`: one
//! key per *arrival*, i.e. per thing that will happen to one process at
//! one instant. A slab holds the event *bodies* the keys point at, each
//! with a count of the arrivals still pending on it. A multicast to N
//! recipients is one body with N keys: `EventQueue::push_shared` moves
//! the body in once, `EventQueue::pop` clones it for every arrival but
//! the last, which takes it, and `EventQueue::skip` retires an arrival
//! nobody will look at without cloning anything. A copy thus exists from
//! dispatch to the end of its handler instead of from send to delivery,
//! and a copy that is dropped on the wire or addressed to a dead process
//! never exists at all.
//!
//! # Order without comparing
//!
//! Pop order is `(time, insertion)`: two arrivals scheduled for the same
//! instant always pop in the order they were pushed — and independent of
//! whether their bodies are shared, since a shared body's keys are pushed
//! one after the other, in the order a private copy per recipient would
//! have been. That makes the simulation deterministic.
//!
//! A simulator never schedules into its past, so the keys form a
//! *monotone* priority queue, and a radix queue keeps one without ever
//! comparing two keys. `last` is a time no pending key is earlier than.
//! The front holds the keys due exactly at `last`; bucket `i` holds the
//! keys whose time first differs from `last` at bit `i` (counting from
//! the least significant), so every key in a lower bucket is earlier than
//! every key in a higher one. A push appends to one of the 65 places; a
//! pop takes the front's first key. When the front is empty, the lowest
//! non-empty bucket is *redistributed*: `last` becomes its earliest time,
//! the keys due then move to the front and the others spread over the
//! buckets below — all of them empty, or this would not be the lowest.
//!
//! Ties need no insertion number. The keys of one instant always share a
//! place, since the place is a function of their time and `last`. A push
//! appends, a redistribution walks its bucket front to back into empty
//! places, and whatever is pushed to those places afterwards was pushed
//! later than anything moved there: one instant's keys stay in push order
//! wherever they sit, so the front pops in insertion order by
//! construction.
//!
//! # Lazy refill
//!
//! An empty front is refilled by the next `EventQueue::peek`, `pop` or
//! `skip`, not by the pop that emptied it. Refilling moves `last` on to
//! the next pending time; done eagerly it would run ahead of the handler
//! just dispatched, and each of that handler's sends due between the two
//! would be a late push (below) and pay for a rewind.
//!
//! # Late pushes
//!
//! A `peek` may still move `last` past the time of the last pop — the
//! simulator peeks at an event beyond its deadline and stops — and the
//! next push may fall between the two. The queue then *rewinds*: the
//! front and the buckets below the first bit in which the two times
//! differ are emptied, one after the other, into that bit's bucket —
//! itself empty, because nothing pending is earlier than `last` — and
//! `last` steps back. A push earlier than the last pop itself is a
//! schedule into the past: it is moved up to that pop's time, so it fires
//! after everything already due then and virtual time never runs
//! backwards.

use crate::process::{ProcessId, TimerId};
use crate::time::SimTime;
use std::collections::VecDeque;

/// What happens when an arrival comes due. Whom it happens to is the
/// arrival's `to`, not part of the body, so one body serves every
/// recipient of a multicast.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
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

/// What the queue files.
#[derive(Clone, Copy, Debug)]
struct Key {
    at: SimTime,
    slot: u32,
    to: u32,
}

/// A body and how many keys in the queue still point at it. The body is
/// `None` only while the slot sits on the free list.
#[derive(Debug)]
struct Slot<B> {
    body: Option<B>,
    pending: u32,
}

/// One popped arrival: `body` happens to `to` (at the time `peek`
/// showed).
#[derive(Debug)]
pub(crate) struct Arrival<B> {
    pub to: ProcessId,
    pub body: B,
}

/// The bucket of a key due at `at` when `last` is `last`: the highest
/// bit in which the two (distinct) times differ.
fn level(at: SimTime, last: SimTime) -> usize {
    (at.0 ^ last.0).ilog2() as usize
}

/// A deterministic min-priority queue of arrivals over shared bodies.
#[derive(Debug)]
pub(crate) struct EventQueue<B> {
    /// The keys due at `last`, in push order.
    front: VecDeque<Key>,
    /// `buckets[i]`: the keys whose time first differs from `last` at
    /// bit `i`, each instant's in push order. A bucket keeps its
    /// capacity when it is redistributed.
    buckets: [Vec<Key>; 64],
    /// Bit `i` is set when `buckets[i]` holds a key.
    occupied: u64,
    /// No pending key is earlier than this.
    last: SimTime,
    /// Time of the last arrival popped or skipped; never after `last`.
    popped: SimTime,
    slab: Vec<Slot<B>>,
    free: Vec<u32>,
}

impl<B> Default for EventQueue<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> EventQueue<B> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            front: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            popped: SimTime::ZERO,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Schedules `body` to happen to `to` at absolute time `at`.
    pub(crate) fn push(&mut self, at: SimTime, to: ProcessId, body: B) {
        self.push_shared(body, &[(at, to)]);
    }

    /// Schedules one `body` for every `(time, recipient)` in `arrivals`,
    /// numbering them in slice order. With no arrivals the body is
    /// dropped here and no slot is taken. A time earlier than the last
    /// arrival popped is moved up to it.
    pub(crate) fn push_shared(&mut self, body: B, arrivals: &[(SimTime, ProcessId)]) {
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
        for &(at, to) in arrivals {
            let at = if at < self.last { self.rewind(at) } else { at };
            self.place(Key {
                at,
                slot,
                // No process has an id this large; clamping keeps such an
                // id naming no process.
                to: u32::try_from(to.0).unwrap_or(u32::MAX),
            });
        }
    }

    /// Files a key not earlier than `last` where its time puts it.
    fn place(&mut self, key: Key) {
        if key.at == self.last {
            self.front.push_back(key);
        } else {
            let i = level(key.at, self.last);
            self.buckets[i].push(key);
            self.occupied |= 1 << i;
        }
    }

    /// Makes room for a push earlier than `last` and returns the time it
    /// is due: `at`, or the time of the last pop if that is later. `last`
    /// steps back to that time. Every pending key is due at `last` or
    /// later, so it has a one where the new `last` has a zero in the
    /// first bit `d` in which the two differ: bucket `d` is empty, the
    /// buckets above it keep their keys, the front and the buckets below
    /// all belong in it (no two of them hold keys of one instant, so
    /// emptying them in turn keeps every instant's keys in push order).
    #[cold]
    fn rewind(&mut self, at: SimTime) -> SimTime {
        let at = at.max(self.popped);
        if at < self.last {
            let d = level(self.last, at);
            let (below, rest) = self.buckets.split_at_mut(d);
            let merged = &mut rest[0];
            merged.extend(self.front.drain(..));
            below.iter_mut().for_each(|b| merged.append(b));
            self.occupied &= !0 << d;
            self.occupied |= u64::from(!merged.is_empty()) << d;
            self.last = at;
        }
        at
    }

    /// Refills an empty front: `last` moves on to the earliest time in
    /// the lowest bucket that holds a key, and that bucket's keys are
    /// filed again, in order, in the front and the (empty) buckets below.
    fn settle(&mut self) {
        if !self.front.is_empty() || self.occupied == 0 {
            return;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= self.occupied - 1;
        // A lone key needs no filing: in a sparse queue (a group of five)
        // most refills are this.
        if let [only] = self.buckets[i][..] {
            self.buckets[i].clear();
            self.last = only.at;
            self.front.push_back(only);
            return;
        }
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        let earliest = bucket.iter().map(|k| k.at).min();
        self.last = earliest.expect("an occupied bucket holds a key");
        bucket.drain(..).for_each(|key| self.place(key));
        self.buckets[i] = bucket;
    }

    /// The earliest arrival — its time, recipient and body — without
    /// removing it.
    pub(crate) fn peek(&mut self) -> Option<(SimTime, ProcessId, &B)> {
        self.settle();
        let key = self.front.front()?;
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
        self.settle();
        let key = self.front.pop_front()?;
        self.popped = key.at;
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
    pub(crate) fn pop(&mut self) -> Option<Arrival<B>>
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
            to: ProcessId(key.to as usize),
            body: body.expect("a pending key's slot holds its body"),
        })
    }

    /// Removes the earliest arrival without materialising its body: no
    /// clone, and the body is dropped if this was the last arrival
    /// pending on it.
    pub(crate) fn skip(&mut self) {
        if let Some((key, true)) = self.pop_key() {
            self.slab[key.slot as usize].body = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// Number of pending arrivals.
    fn pending<B>(q: &EventQueue<B>) -> usize {
        q.front.len() + q.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Pops everything, as `(µs, recipient)`: the time is the one `peek`
    /// shows just before the pop.
    fn drain<B: Clone>(q: &mut EventQueue<B>) -> Vec<(u64, usize)> {
        std::iter::from_fn(|| {
            let at = q.peek()?.0;
            Some((at.as_micros(), q.pop()?.to.0))
        })
        .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(us(30), ProcessId(3), ());
        q.push(us(10), ProcessId(1), ());
        q.push(us(20), ProcessId(2), ());
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(us(5), ProcessId(i), ());
        }
        let want: Vec<(u64, usize)> = (0..100).map(|i| (5, i)).collect();
        assert_eq!(drain(&mut q), want, "ties must break by insertion order");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(us(7), ProcessId(0), 'a');
        q.push(us(3), ProcessId(1), 'b');
        assert_eq!(q.peek(), Some((us(3), ProcessId(1), &'b')));
        assert_eq!(q.pop().unwrap().body, 'b');
        assert_eq!(q.peek(), Some((us(7), ProcessId(0), &'a')));
    }

    #[test]
    fn oversized_recipient_stays_nonexistent() {
        let mut q = EventQueue::new();
        q.push(us(1), ProcessId(usize::MAX), ());
        assert_eq!(q.pop().unwrap().to, ProcessId(u32::MAX as usize));
    }

    /// Two keys for one instant reach the front by different roads — one
    /// filed far ahead in a high bucket, the other filed in the front
    /// itself once `last` has caught up — and still pop in push order.
    #[test]
    fn ties_filed_under_different_lasts_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = 0b1_0110;
        q.push(us(t), ProcessId(0), ());
        q.push(us(0b1_0000), ProcessId(1), ());
        q.push(us(0b1_0100), ProcessId(2), ());
        // Bucket 4 spreads around 0b1_0000, then bucket 2 around 0b1_0100:
        // only the third refill brings `t`'s first key to the front.
        assert_eq!(q.pop().unwrap().to, ProcessId(1));
        assert_eq!(q.pop().unwrap().to, ProcessId(2));
        assert_eq!(
            q.peek().map(|(at, to, _)| (at, to)),
            Some((us(t), ProcessId(0)))
        );
        q.push(us(t), ProcessId(3), ());
        q.push(us(t + 1), ProcessId(4), ());
        q.push(us(t), ProcessId(5), ());
        assert_eq!(drain(&mut q), [(t, 0), (t, 3), (t, 5), (t + 1, 4)]);
    }

    /// `peek` may move `last` past the last pop; a push between the two
    /// is on time and pops where its time puts it, one before the last
    /// pop is late and pops next in line.
    #[test]
    fn a_push_behind_a_peek_is_on_time_and_one_behind_a_pop_is_clamped() {
        let mut q = EventQueue::new();
        q.push(us(10), ProcessId(0), ());
        q.push(us(300), ProcessId(1), ());
        q.push(us(300), ProcessId(2), ());
        q.push(us(301), ProcessId(3), ());
        assert_eq!(q.pop().unwrap().to, ProcessId(0));
        assert_eq!(q.peek().map(|(at, ..)| at), Some(us(300)));
        q.push(us(200), ProcessId(4), ());
        q.push(us(300), ProcessId(5), ());
        q.push(us(3), ProcessId(6), ());
        assert_eq!(
            drain(&mut q),
            [(10, 6), (200, 4), (300, 1), (300, 2), (300, 5), (301, 3)]
        );
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

        /// When an arrival is due.
        #[derive(Clone, Copy, Debug)]
        enum When {
            /// At this many µs.
            At(u64),
            /// This long after the last arrival popped or skipped.
            After(u64),
            /// When the push this many before it was due, once clamped
            /// (now, if there was none).
            Again(usize),
        }

        /// One step of a random history.
        #[derive(Debug)]
        enum Op {
            /// One body arriving at these `(when, process)`s.
            Push(Vec<(When, usize)>),
            Peek,
            Pop,
            Skip,
        }

        /// Histories over `when`, a body reaching at most `fanout - 1`
        /// processes.
        fn op(when: impl Strategy<Value = When>, fanout: usize) -> impl Strategy<Value = Op> {
            (
                0u8..7,
                collection::vec((when, 0usize..8), 0..fanout),
                bool::ANY,
            )
                .prop_map(|(kind, mut arrivals, same_time)| match kind {
                    0 | 1 => Op::Pop,
                    2 => Op::Skip,
                    3 => Op::Peek,
                    4 => {
                        arrivals.truncate(1);
                        Op::Push(arrivals)
                    }
                    _ => {
                        if same_time {
                            let t = arrivals.first().map_or(When::At(0), |a| a.0);
                            arrivals.iter_mut().for_each(|a| a.0 = t);
                        }
                        Op::Push(arrivals)
                    }
                })
        }

        /// Few distinct times, so ties — and pushes into the past — are
        /// the common case. Never leaves bucket 2.
        fn near() -> impl Strategy<Value = When> {
            (0u64..6).prop_map(When::At)
        }

        /// Times that land in every bucket and on both sides of each
        /// boundary: the last pop's time plus 0, 1, 2^k - 1, 2^k, 2^k + 1,
        /// "never", and times used before (ties filed under different
        /// `last`s, and the past).
        fn far() -> impl Strategy<Value = When> {
            (0u8..12, 1u32..=40, 0usize..6).prop_map(|(kind, k, back)| match kind {
                0..=2 => When::After(0),
                3 => When::After(1),
                4 => When::After((1 << k) - 1),
                5 | 6 => When::After(1 << k),
                7 => When::After((1 << k) + 1),
                8 => When::At(u64::MAX),
                _ => When::Again(back),
            })
        }

        /// Against a `BTreeMap<(at, seq), _>` model: pop order is (time,
        /// insertion), a time before the last pop counting as that pop's;
        /// every arrival carries its body's payload and its own
        /// recipient; a body lives exactly as long as an arrival is
        /// pending on it; slots are reused before the slab grows.
        fn check_against_an_ordered_map(ops: Vec<Op>) {
            let live = Rc::new(Cell::new(0i64));
            let mut q: EventQueue<Body> = EventQueue::new();
            // (at, seq) -> (body number, payload, to)
            let mut model: BTreeMap<(u64, u64), (usize, u32, usize)> = BTreeMap::new();
            let mut pending_on: Vec<usize> = Vec::new();
            let mut next_seq = 0u64;
            let mut peak_bodies = 0usize;
            let mut popped = 0u64;
            let mut pushed_at: Vec<u64> = Vec::new();
            for op in ops {
                if let Op::Push(arrivals) = &op {
                    let body = pending_on.len();
                    let payload = body as u32 * 7 + 1;
                    pending_on.push(arrivals.len());
                    let mut due = Vec::new();
                    for &(when, to) in arrivals {
                        let at = match when {
                            When::At(at) => at,
                            When::After(d) => popped.saturating_add(d),
                            When::Again(back) => pushed_at
                                .len()
                                .checked_sub(back + 1)
                                .map_or(popped, |i| pushed_at[i]),
                        };
                        due.push((us(at), ProcessId(to)));
                        let at = at.max(popped);
                        pushed_at.push(at);
                        model.insert((at, next_seq), (body, payload, to));
                        next_seq += 1;
                    }
                    q.push_shared(Body::new(payload, &live), &due);
                } else {
                    let want = model
                        .first_key_value()
                        .map(|(&(at, seq), &(_, payload, to))| {
                            (us(at), seq, ProcessId(to), payload)
                        });
                    let peeked = q.peek().map(|(at, to, body)| (at, to, body.payload));
                    prop_assert_eq!(peeked, want.map(|(at, _, to, payload)| (at, to, payload)));
                    if let Op::Peek = op {
                        continue;
                    }
                    if let Some(((at, _), (body, ..))) = model.pop_first() {
                        pending_on[body] -= 1;
                        popped = at;
                    }
                    if let Op::Skip = op {
                        q.skip();
                    } else {
                        // The peek above fixed the time; the pop must
                        // hand over the same arrival.
                        let got = q.pop().map(|a| (a.to, a.body.payload));
                        prop_assert_eq!(got, want.map(|(_, _, to, payload)| (to, payload)));
                    }
                }
                let bodies = pending_on.iter().filter(|&&n| n > 0).count();
                peak_bodies = peak_bodies.max(bodies);
                prop_assert_eq!(pending(&q), model.len());
                prop_assert_eq!(
                    live.get(),
                    bodies as i64,
                    "a body outlived its last arrival"
                );
                prop_assert_eq!(q.slab.len() - q.free.len(), bodies);
                prop_assert!(
                    q.slab.len() <= peak_bodies,
                    "slab outgrew the peak of live bodies"
                );
            }
        }

        proptest! {
            #[test]
            fn matches_an_ordered_map_model(ops in collection::vec(op(near(), 5), 0..120)) {
                check_against_an_ordered_map(ops);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// The same model over times that reach every radix level,
            /// with runs of up to a dozen ties.
            #[test]
            fn matches_the_model_across_the_radix_levels(
                ops in collection::vec(op(far(), 13), 0..160),
            ) {
                check_against_an_ordered_map(ops);
            }
        }
    }
}
