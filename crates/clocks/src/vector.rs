//! Vector clocks: the timestamp CATOCS causal multicast rides on.
//!
//! A vector clock over `n` processes characterizes happens-before exactly:
//! `VT(a) < VT(b)` iff event `a` causally precedes event `b`. The
//! `catocs::cbcast` protocol stamps every multicast with the sender's
//! vector time and delays delivery until the causal predecessors have been
//! delivered (the ISIS "lightweight causal multicast" rule).
//!
//! The paper's §3.4/§5 overhead argument is partly about these timestamps:
//! they grow linearly with group size and ride on *every* message. The
//! [`VectorClock::encode`]/[`VectorClock::encode_delta`] pair exists so
//! experiment T7 can measure exactly that growth, including the standard
//! delta-compression mitigation.
//!
//! # Sharing
//!
//! A clock's components sit in blocks of 64, each a reference-counted
//! copy-on-write slice. A clock of at most 64 components is its one
//! block; a wider one is a reference-counted table of them. What a
//! receiver pays is proportional to what changed, not to the group's
//! width:
//!
//! - `clone` is a count bump, O(1) at any width. The copies a message's
//!   timestamp makes on its way through an endpoint — the decode chain,
//!   the holdback queue, the unstable buffer, the wire handed to each
//!   recipient — are handles on one block or one table.
//! - The first write that *changes* a component of a shared clock copies
//!   the block that component lies in and, in a wide clock, the table
//!   (one pointer a block); every other block stays shared with the
//!   clock it came from. A delta decoded against its sender's previous
//!   timestamp, or a tick of a clock just stamped on a message, costs a
//!   block, not the width. A `set` to the value already there, a `merge`
//!   that raises nothing, a `decode_delta` whose pairs repeat the base,
//!   and any operation between two handles on one storage copy nothing.
//! - A `merge` that raises a block the other clock's block covers
//!   component for component takes that block over rather than writing
//!   into its own, so the two clocks share it from then on.
//! - An all-zero block is no block at all: a fresh clock, a full decode
//!   and the padding of a widened clock hold nothing where they hold
//!   zeros. In a wide group where a few members send, a clock owns a few
//!   blocks, and a copy of its table counts references for those alone.
//! - Equality and [`VectorClock::compare`] are by value. Sharing is never
//!   observable through them — only through the allocator.
//!
//! # One scan
//!
//! Two clocks a message apart differ in a handful of components however
//! wide they are. Every two-clock operation here walks the pair block by
//! block, and passes over a pair that is one allocation, or absent on
//! both sides, without reading it. The other pairs go through one kernel
//! that tests sixteen components at a time — `xor` each pair, `or` the
//! sixteen results, compare the one word with zero — and only when that
//! word is non-zero looks inside the run, for a bit mask of the
//! components the caller is after. That form is chosen because baseline
//! x86-64 has no 64-bit integer compare in its vector unit: `a < b` per
//! component stays scalar, while `xor`/`or` compile to eight 128-bit
//! operations a run with no feature flag. [`VectorClock::lagging`] is
//! that kernel's public face: where, and by how much, one clock is behind
//! another.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::repeat_n;
use std::slice;
use std::sync::Arc;

/// Result of comparing two vector clocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockOrd {
    /// Strictly causally before.
    Before,
    /// Strictly causally after.
    After,
    /// Identical.
    Equal,
    /// Neither precedes the other — the paper's "concurrent" messages.
    Concurrent,
}

/// Components tested per step of the scan (see the module docs).
const CHUNK: usize = 16;

/// Components per block (see the module docs): a write to a shared clock
/// copies 512 bytes, and a 4096-wide clock is a table of 64 blocks.
const BLOCK: usize = 64;

/// What an absent block reads as.
static ZEROS: [u64; BLOCK] = [0; BLOCK];

/// [`BLOCK`] components, or fewer in a clock's last block. `None` in a
/// slot is a block of zeros.
type Block = Arc<[u64]>;

/// The slot for `words`: no block if they are all zero.
fn block_of(words: &[u64]) -> Option<Block> {
    (words.iter().fold(0, |acc, w| acc | w) != 0).then(|| words.into())
}

/// Whether two slots are one storage: both absent, or one allocation.
fn same_slot(x: &Option<Block>, y: &Option<Block>) -> bool {
    match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// Component `i` of `s`, zero past its end.
#[inline]
fn get(s: &[u64], i: usize) -> u64 {
    s.get(i).copied().unwrap_or(0)
}

/// The run of [`CHUNK`] components of `s` from `k` where it lies wholly
/// inside `s` or wholly past its end (all zeros); `None` where `s` ends
/// inside the run.
fn whole_run(s: &[u64], k: usize) -> Option<&[u64; CHUNK]> {
    if k >= s.len() {
        ZEROS.first_chunk()
    } else {
        s[k..].first_chunk()
    }
}

/// Bit `i` set where `hit(x[i], y[i])`. Kept out of line: inlined beside
/// the `xor`/`or` test it follows, it keeps that loop from vectorising,
/// and the test is what all but a few runs of a wide clock end at.
#[inline(never)]
fn run_hits(x: &[u64; CHUNK], y: &[u64; CHUNK], hit: impl Fn(u64, u64) -> bool) -> u16 {
    let pairs = x.iter().zip(y).enumerate();
    pairs.fold(0, |bits, (i, (&x, &y))| bits | (u16::from(hit(x, y)) << i))
}

/// Which of the [`CHUNK`] components from `k` on are hits: bit `i` set
/// where `hit(a[k + i], b[k + i])`, a component past its block's end
/// reading as zero. `hit` must be false of equal components: a run whose
/// `xor`/`or` reduction is zero is not looked into.
fn hits_at(a: &[u64], b: &[u64], k: usize, hit: impl Fn(u64, u64) -> bool) -> u16 {
    match (whole_run(a, k), whole_run(b, k)) {
        (Some(x), Some(y)) => {
            if x.iter().zip(y).fold(0, |acc, (x, y)| acc | (x ^ y)) == 0 {
                0
            } else {
                run_hits(x, y, hit)
            }
        }
        // A block ends inside this run: component by component.
        _ => {
            let end = (k + CHUNK).min(a.len().max(b.len()));
            (k..end).fold(0, |bits, i| {
                bits | (u16::from(hit(get(a, i), get(b, i))) << (i - k))
            })
        }
    }
}

/// The positions of the set bits, ascending.
fn bits(mut set: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

/// The runs of one block pair that hold a hit: `(k, bits)` for the run
/// from component `k`, ascending (see [`hits_at`]).
fn block_runs<'a>(
    x: &'a [u64],
    y: &'a [u64],
    hit: impl Fn(u64, u64) -> bool + Copy + 'a,
) -> impl Iterator<Item = (usize, u16)> + 'a {
    let runs = (0..x.len().max(y.len())).step_by(CHUNK);
    runs.map(move |k| (k, hits_at(x, y, k, hit)))
        .filter(|&(_, set)| set != 0)
}

/// Ascending `(k, a[k], b[k])` for every component that is a hit (see
/// [`hits_at`]), over the wider of the two clocks. Written out rather
/// than composed from adaptors: callers pull from it one `next` at a
/// time, and the walk from one run with a hit to the next has to stay
/// one tight loop.
struct Hits<'a, F> {
    a: &'a [Option<Block>],
    b: &'a [Option<Block>],
    hit: F,
    /// Index of the next block pair to open.
    next_block: usize,
    /// First component of the open pair, and its two blocks.
    base: usize,
    x: &'a [u64],
    y: &'a [u64],
    /// Start of the open pair's next run to test.
    next_run: usize,
    /// Hits of the run before it not yet yielded.
    found: u16,
}

impl<F> Hits<'_, F> {
    /// Opens the next block pair that may hold a hit; `None` past the
    /// end of both clocks.
    #[inline]
    fn open_next_pair(&mut self) -> Option<()> {
        loop {
            let at = self.next_block;
            let (x, y) = (self.a.get(at), self.b.get(at));
            if x.is_none() && y.is_none() {
                return None;
            }
            self.next_block += 1;
            // A clock's end reads as an absent block.
            let (x, y) = (x.unwrap_or(&None), y.unwrap_or(&None));
            if !same_slot(x, y) {
                self.base = at * BLOCK;
                self.x = x.as_deref().unwrap_or(&[]);
                self.y = y.as_deref().unwrap_or(&[]);
                self.next_run = 0;
                return Some(());
            }
        }
    }
}

impl<F: Fn(u64, u64) -> bool + Copy> Iterator for Hits<'_, F> {
    type Item = (usize, u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.found == 0 {
            if self.next_run >= self.x.len().max(self.y.len()) {
                self.open_next_pair()?;
            }
            self.found = hits_at(self.x, self.y, self.next_run, self.hit);
            self.next_run += CHUNK;
        }
        let i = self.next_run - CHUNK + self.found.trailing_zeros() as usize;
        self.found &= self.found - 1;
        Some((self.base + i, get(self.x, i), get(self.y, i)))
    }
}

/// [`Hits`] from the first component on. One table seen through two
/// handles has no hits, and is not read to find that out.
fn hits<'a, F: Fn(u64, u64) -> bool + Copy>(
    a: &'a [Option<Block>],
    b: &'a [Option<Block>],
    hit: F,
) -> Hits<'a, F> {
    Hits {
        a,
        b,
        hit,
        next_block: if std::ptr::eq(a, b) { a.len() } else { 0 },
        base: 0,
        x: &[],
        y: &[],
        next_run: 0,
        found: 0,
    }
}

/// The second clock is ahead in this component.
fn lags(mine: u64, theirs: u64) -> bool {
    theirs > mine
}

/// Where a clock's blocks are held (see the module docs).
#[derive(Clone)]
enum Slots {
    /// A clock of at most [`BLOCK`] components: its block, no table.
    One(Option<Block>),
    /// A wider clock: block `b` holds the components from `64 b` on.
    Table(Arc<[Option<Block>]>),
}

/// A dense vector clock over processes `0..n`. Cloning shares the
/// components; see the module docs for the copy-on-write contract.
/// (`Arc`, not `Rc`: `examples/live_threads.rs` sends wires, and the
/// clocks in them, across threads.)
#[derive(Clone, Serialize, Deserialize)]
pub struct VectorClock {
    /// Number of components: 64 in every block but the last, which
    /// holds the rest.
    len: usize,
    slots: Slots,
}

impl VectorClock {
    /// A zero clock for `n` processes. Nothing is allocated up to 64
    /// components, and one table of empty slots past that.
    pub fn new(n: usize) -> Self {
        Self::from_slots(n, repeat_n(None, n.div_ceil(BLOCK)))
    }

    /// Builds a clock directly from entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        Self::from_slots(entries.len(), entries.chunks(BLOCK).map(block_of))
    }

    /// The clock of `len` components held in `slots`, one a block.
    fn from_slots(len: usize, mut slots: impl Iterator<Item = Option<Block>>) -> Self {
        let slots = if len <= BLOCK {
            Slots::One(slots.next().flatten())
        } else {
            Slots::Table(slots.collect())
        };
        VectorClock { len, slots }
    }

    /// The block slots, one per 64 components.
    fn slots(&self) -> &[Option<Block>] {
        match &self.slots {
            Slots::One(_) if self.len == 0 => &[],
            Slots::One(block) => slice::from_ref(block),
            Slots::Table(table) => table,
        }
    }

    /// The block slots, to write: a shared table is copied first.
    fn slots_mut(&mut self) -> &mut [Option<Block>] {
        match &mut self.slots {
            Slots::One(block) => slice::from_mut(block),
            Slots::Table(table) => Arc::make_mut(table),
        }
    }

    /// Components in block `b`.
    fn block_len(&self, b: usize) -> usize {
        (self.len - b * BLOCK).min(BLOCK)
    }

    /// Number of processes the clock covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the clock covers zero processes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The component for process `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        let (slot, k) = match &self.slots {
            Slots::One(slot) => (slot, i),
            Slots::Table(table) => match table.get(i / BLOCK) {
                Some(slot) => (slot, i % BLOCK),
                None => return 0,
            },
        };
        slot.as_deref().map_or(0, |block| get(block, k))
    }

    /// The components in order, a block at a time: 64 to a block, the
    /// last block the rest. For a caller that walks them all against a
    /// slice of its own, which a block is zipped with as two slices.
    pub fn blocks(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let slots = self.slots().iter().enumerate();
        slots.map(|(b, slot)| slot.as_deref().unwrap_or(&ZEROS[..self.block_len(b)]))
    }

    /// The components in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks().flatten().copied()
    }

    /// Whether `self` and `other` are handles on one storage — what the
    /// tests of the sharing contract observe. Nothing else may depend on
    /// it.
    #[doc(hidden)]
    pub fn shares_storage_with(&self, other: &VectorClock) -> bool {
        self.len == other.len
            && match (&self.slots, &other.slots) {
                (Slots::One(x), Slots::One(y)) => same_slot(x, y),
                (Slots::Table(x), Slots::Table(y)) => Arc::ptr_eq(x, y),
                _ => false,
            }
    }

    /// The components cut or zero-extended to `width`, sharing every
    /// block the cut leaves whole.
    fn resized(&self, width: usize) -> Self {
        let slot = |b: usize| {
            let len = (width - b * BLOCK).min(BLOCK);
            match self.slots().get(b) {
                Some(Some(old)) if old.len() != len => {
                    let mut words = [0; BLOCK];
                    let kept = old.len().min(len);
                    words[..kept].copy_from_slice(&old[..kept]);
                    block_of(&words[..len])
                }
                Some(slot) => slot.clone(),
                None => None,
            }
        };
        Self::from_slots(width, (0..width.div_ceil(BLOCK)).map(slot))
    }

    /// Component `i`, to write in place: its block, and a table over it,
    /// are unshared first.
    fn component_mut(&mut self, i: usize) -> &mut u64 {
        let (b, len) = (i / BLOCK, self.block_len(i / BLOCK));
        let slot = &mut self.slots_mut()[b];
        let block = slot.get_or_insert_with(|| repeat_n(0, len).collect());
        &mut Arc::make_mut(block)[i % BLOCK]
    }

    /// Sets the component for process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: u64) {
        assert!(i < self.len, "component {i} of a {}-wide clock", self.len);
        if self.get(i) != v {
            *self.component_mut(i) = v;
        }
    }

    /// Increments own component `i` (send/local event rule) and returns
    /// the new value.
    pub fn tick(&mut self, i: usize) -> u64 {
        let own = self.component_mut(i);
        *own += 1;
        *own
    }

    /// Component-wise maximum (receive rule). Widens to `other`'s length.
    pub fn merge(&mut self, other: &VectorClock) {
        if other.len > self.len {
            *self = self.resized(other.len);
        }
        self.merge_advancing(other, |_, _| {});
    }

    /// Component-wise maximum that reports what it raises: `on_advance(i,
    /// old)` runs for each component `i` lifted above its value `old`, in
    /// ascending `i`. Returns whether any component rose.
    /// Like [`VectorClock::merge`] it widens to `other`'s length, but only
    /// when a component beyond the current width is non-zero, so a stale
    /// row leaves a lazily allocated clock narrow.
    pub(crate) fn merge_advancing(
        &mut self,
        other: &VectorClock,
        mut on_advance: impl FnMut(usize, u64),
    ) -> bool {
        let Some((first, ..)) = self.lagging(other).next() else {
            return false;
        };
        // Something rises, so the storage is about to be written: widen
        // it if the rise is past the end, then unshare the table, once.
        if self.len < other.len && other.iter().skip(self.len).any(|v| v > 0) {
            *self = self.resized(other.len);
        }
        let width = self.len;
        let pairs = self.slots_mut().iter_mut().zip(other.slots());
        for (b, (mine, theirs)) in pairs.enumerate().skip(first / BLOCK) {
            // An absent block raises nothing.
            let Some(theirs) = theirs else { continue };
            let words = mine.as_deref().unwrap_or(&[]);
            let mut rose = false;
            for (k, set) in block_runs(words, theirs, lags) {
                for i in bits(set) {
                    on_advance(b * BLOCK + k + i, get(words, k + i));
                }
                rose = true;
            }
            if !rose {
                continue;
            }
            let len = (width - b * BLOCK).min(BLOCK);
            if theirs.len() == len && block_runs(words, theirs, |m, t| m > t).next().is_none() {
                // `theirs` covers it: taken over, not copied into.
                *mine = Some(theirs.clone());
            } else {
                // Whatever `theirs` holds past the end of `mine` is zero.
                let mine = Arc::make_mut(mine.get_or_insert_with(|| repeat_n(0, len).collect()));
                for k in (0..mine.len()).step_by(CHUNK) {
                    for i in bits(hits_at(mine, theirs, k, lags)) {
                        mine[k + i] = theirs[k + i];
                    }
                }
            }
        }
        true
    }

    /// Where `self` is behind `other`: ascending `(k, mine, theirs)` for
    /// every component with `theirs > mine`. The narrower clock reads as
    /// zero past its end. This is the scan every "what does this
    /// timestamp still wait for" loop runs on: its cost follows the
    /// blocks the two clocks do not share and, within those, the
    /// sixteen-component runs that differ at all — not the width (see the
    /// module docs).
    pub fn lagging<'a>(
        &'a self,
        other: &'a VectorClock,
    ) -> impl Iterator<Item = (usize, u64, u64)> + 'a {
        hits(self.slots(), other.slots(), lags)
    }

    /// Compares two clocks under the causal partial order.
    pub fn compare(&self, other: &VectorClock) -> ClockOrd {
        let less = self.lagging(other).next().is_some();
        let greater = other.lagging(self).next().is_some();
        match (less, greater) {
            (false, false) => ClockOrd::Equal,
            (true, false) => ClockOrd::Before,
            (false, true) => ClockOrd::After,
            (true, true) => ClockOrd::Concurrent,
        }
    }

    /// The ISIS cbcast deliverability test: a message stamped `msg_vt`
    /// from `sender` is deliverable at a process whose delivered-clock is
    /// `self` iff
    ///
    /// 1. `msg_vt[sender] == self[sender] + 1` (next message from sender),
    /// 2. `msg_vt[k] <= self[k]` for all `k != sender` (all causal
    ///    predecessors from other processes already delivered).
    pub fn deliverable(&self, msg_vt: &VectorClock, sender: usize) -> bool {
        msg_vt.get(sender) == self.get(sender) + 1
            && self.lagging(msg_vt).all(|(k, ..)| k == sender)
    }

    /// Full binary encoding: `n` little-endian `u64`s plus a 4-byte count.
    /// This is the per-message ordering overhead measured by T7.
    ///
    /// The bytes are built once, in one allocation, and shared: every
    /// copy of the message that carries them — one per recipient, and one
    /// per retransmission served from the unstable buffer — holds a
    /// handle on them, not a copy.
    pub fn encode(&self) -> Arc<[u8]> {
        let mut out: Arc<[u8]> = repeat_n(0, self.encoded_len()).collect();
        let fresh = Arc::get_mut(&mut out).expect("a fresh allocation has one handle");
        let (count, words) = fresh.split_at_mut(4);
        count.copy_from_slice(&(self.len as u32).to_le_bytes());
        // The buffer starts zeroed: an absent block has nothing to add.
        for (bytes, block) in words.chunks_mut(8 * BLOCK).zip(self.slots()) {
            let Some(block) = block else { continue };
            for (word, e) in bytes.chunks_exact_mut(8).zip(&block[..]) {
                word.copy_from_slice(&e.to_le_bytes());
            }
        }
        out
    }

    /// Length of [`VectorClock::encode`]'s output, without building it.
    pub fn encoded_len(&self) -> usize {
        4 + 8 * self.len
    }

    /// Decodes a full encoding.
    ///
    /// Returns `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let (count, words) = buf.split_first_chunk::<4>()?;
        let (words, rest) = words.as_chunks::<8>();
        if !rest.is_empty() || words.len() != u32::from_le_bytes(*count) as usize {
            return None;
        }
        let block = |words: &[[u8; 8]]| {
            let any = words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) != 0;
            any.then(|| words.iter().map(|w| u64::from_le_bytes(*w)).collect())
        };
        Some(Self::from_slots(
            words.len(),
            words.chunks(BLOCK).map(block),
        ))
    }

    /// Delta encoding relative to `base`: only changed components are sent
    /// as `(u32 index, u64 value)` pairs. This is the ablation in T7 —
    /// cheaper when few components change between consecutive messages,
    /// degrading to worse-than-full under all-to-all traffic. Shared like
    /// [`VectorClock::encode`]'s bytes; a delta is a few pairs, so it is
    /// gathered first and copied once into its shared allocation.
    pub fn encode_delta(&self, base: &VectorClock) -> Arc<[u8]> {
        // Header, and room for the few pairs of a sparse delta.
        let mut out = Vec::with_capacity(8 + 12 * 4);
        out.resize(8, 0);
        let mut pairs = 0u32;
        for (i, _, v) in hits(base.slots(), self.slots(), |old, new| old != new) {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            pairs += 1;
        }
        out[..4].copy_from_slice(&(self.len as u32).to_le_bytes());
        out[4..8].copy_from_slice(&pairs.to_le_bytes());
        out.into()
    }

    /// Widest clock [`VectorClock::decode_delta`] will materialize. The
    /// delta header declares the decoded width explicitly (the full
    /// encoding's width is bounded by the buffer itself), so without a
    /// cap a hostile 8-byte header with `k = 0` passes every structural
    /// check and demands an allocation of up to `u32::MAX` entries
    /// (~32 GiB) before a single pair is validated. Any group this
    /// codebase simulates is orders of magnitude below this bound.
    /// (The same argument for the *values* a decoded clock may carry is
    /// `catocs::causal_core::MAX_CHASE_AHEAD`.)
    pub(crate) const MAX_DELTA_WIDTH: usize = 1 << 16;

    /// Decodes a delta encoding against `base`. The result shares every
    /// block of `base`'s that no pair changes.
    ///
    /// Returns `None` on malformed input: short or trailing bytes, a
    /// declared width past `VectorClock::MAX_DELTA_WIDTH`, more pairs
    /// than components (`k > n`), duplicate or non-increasing indices
    /// (the encoder emits them strictly increasing), or an index out of
    /// range. Nothing is copied or allocated for input that is rejected.
    pub fn decode_delta(buf: &[u8], base: &VectorClock) -> Option<Self> {
        let (&[a, b, c, d, k @ ..], pairs) = buf.split_first_chunk::<8>()?;
        let n = u32::from_le_bytes([a, b, c, d]) as usize;
        let k = u32::from_le_bytes(k) as usize;
        let (pairs, rest) = pairs.as_chunks::<12>();
        if n > Self::MAX_DELTA_WIDTH || k > n || !rest.is_empty() || pairs.len() != k {
            return None;
        }
        let pair = |p: &[u8; 12]| {
            let [a, b, c, d, value @ ..] = *p;
            (
                u32::from_le_bytes([a, b, c, d]) as usize,
                u64::from_le_bytes(value),
            )
        };
        // Strictly increasing, so the last index bounds them all.
        let indices = pairs.iter().map(|p| pair(p).0);
        let in_range = pairs.last().is_none_or(|p| pair(p).0 < n);
        if !in_range || !indices.is_sorted_by(|i, j| i < j) {
            return None;
        }
        let mut clock = if n == base.len {
            base.clone()
        } else {
            base.resized(n)
        };
        for (i, v) in pairs.iter().map(pair) {
            clock.set(i, v);
        }
        Some(clock)
    }

    /// Whether some component exceeds `bound`. Made for sanity bounds,
    /// which honest clocks sit far inside: the `or` of a block's
    /// components is at least the largest of them, so one pass with no
    /// comparison in it clears every such block, and an absent block is
    /// not read at all.
    pub fn any_above(&self, bound: u64) -> bool {
        self.slots()
            .iter()
            .flatten()
            .any(|b| b.iter().fold(0, |acc, v| acc | v) > bound && b.iter().any(|&v| v > bound))
    }

    /// Sum of all components — a crude size of the causal past, used by
    /// the false-causality metrics.
    pub fn total_events(&self) -> u64 {
        self.slots().iter().flatten().flat_map(|b| b.iter()).sum()
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        let differ = |a: u64, b: u64| a != b;
        self.len == other.len && hits(self.slots(), other.slots(), differ).next().is_none()
    }
}

impl Eq for VectorClock {}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("VT")?;
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vc(e: &[u64]) -> VectorClock {
        VectorClock::from_entries(e.to_vec())
    }

    /// The per-element definitions the slice kernels replaced, over a
    /// plain `Vec`: what every operation must still compute, callback for
    /// callback and byte for byte.
    mod oracle {
        use super::super::{ClockOrd, VectorClock};
        use std::cmp::Ordering;

        pub fn get(e: &[u64], i: usize) -> u64 {
            e.get(i).copied().unwrap_or(0)
        }

        pub fn merge(mine: &mut Vec<u64>, other: &[u64]) {
            if other.len() > mine.len() {
                mine.resize(other.len(), 0);
            }
            for (i, &v) in other.iter().enumerate() {
                if v > mine[i] {
                    mine[i] = v;
                }
            }
        }

        pub fn merge_advancing(
            mine: &mut Vec<u64>,
            other: &[u64],
            mut on_advance: impl FnMut(usize, u64),
        ) -> bool {
            let shared = mine.len().min(other.len());
            let (head, tail) = other.split_at(shared);
            let mut advanced = false;
            for (i, (mine, &v)) in mine.iter_mut().zip(head).enumerate() {
                if v > *mine {
                    on_advance(i, *mine);
                    *mine = v;
                    advanced = true;
                }
            }
            if tail.iter().any(|&v| v > 0) {
                mine.extend_from_slice(tail);
                for (i, _) in tail.iter().enumerate().filter(|(_, &v)| v > 0) {
                    on_advance(shared + i, 0);
                }
                advanced = true;
            }
            advanced
        }

        pub fn compare(a: &[u64], b: &[u64]) -> ClockOrd {
            let (mut less, mut greater) = (false, false);
            for i in 0..a.len().max(b.len()) {
                match get(a, i).cmp(&get(b, i)) {
                    Ordering::Less => less = true,
                    Ordering::Greater => greater = true,
                    Ordering::Equal => {}
                }
            }
            match (less, greater) {
                (false, false) => ClockOrd::Equal,
                (true, false) => ClockOrd::Before,
                (false, true) => ClockOrd::After,
                (true, true) => ClockOrd::Concurrent,
            }
        }

        pub fn deliverable(mine: &[u64], msg: &[u64], sender: usize) -> bool {
            get(msg, sender) == get(mine, sender) + 1
                && (0..mine.len().max(msg.len()))
                    .all(|k| k == sender || get(msg, k) <= get(mine, k))
        }

        pub fn lagging(mine: &[u64], theirs: &[u64]) -> Vec<(usize, u64, u64)> {
            (0..mine.len().max(theirs.len()))
                .map(|k| (k, get(mine, k), get(theirs, k)))
                .filter(|&(_, mine, theirs)| theirs > mine)
                .collect()
        }

        pub fn encode(e: &[u64]) -> Vec<u8> {
            let mut out = (e.len() as u32).to_le_bytes().to_vec();
            for v in e {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }

        pub fn decode(buf: &[u8]) -> Option<Vec<u64>> {
            let n = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
            if buf.len() != 4 + 8 * n {
                return None;
            }
            (0..n)
                .map(|i| {
                    Some(u64::from_le_bytes(
                        buf[4 + 8 * i..12 + 8 * i].try_into().ok()?,
                    ))
                })
                .collect()
        }

        pub fn encode_delta(e: &[u64], base: &[u64]) -> Vec<u8> {
            let pairs: Vec<(u32, u64)> = (0..e.len().max(base.len()))
                .filter(|&i| get(e, i) != get(base, i))
                .map(|i| (i as u32, get(e, i)))
                .collect();
            let mut out = (e.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (i, v) in pairs {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }

        pub fn decode_delta(buf: &[u8], base: &[u64]) -> Option<Vec<u64>> {
            let n = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
            let k = u32::from_le_bytes(buf.get(4..8)?.try_into().ok()?) as usize;
            if n > VectorClock::MAX_DELTA_WIDTH || k > n || buf.len() != 8 + 12 * k {
                return None;
            }
            let mut clock = base.to_vec();
            clock.resize(n, 0);
            let mut prev: Option<usize> = None;
            for j in 0..k {
                let s = 8 + 12 * j;
                let i = u32::from_le_bytes(buf[s..s + 4].try_into().ok()?) as usize;
                if i >= n || prev.is_some_and(|p| i <= p) {
                    return None;
                }
                prev = Some(i);
                clock[i] = u64::from_le_bytes(buf[s + 4..s + 12].try_into().ok()?);
            }
            Some(clock)
        }
    }

    fn entries(c: VectorClock) -> Vec<u64> {
        c.iter().collect()
    }

    /// How many blocks `a` and `b` hold as one storage.
    fn shared_blocks(a: &VectorClock, b: &VectorClock) -> usize {
        let pairs = a.slots().iter().zip(b.slots());
        pairs.filter(|(x, y)| same_slot(x, y)).count()
    }

    #[test]
    fn compare_basic() {
        assert_eq!(vc(&[1, 0]).compare(&vc(&[1, 0])), ClockOrd::Equal);
        assert_eq!(vc(&[1, 0]).compare(&vc(&[1, 1])), ClockOrd::Before);
        assert_eq!(vc(&[2, 1]).compare(&vc(&[1, 1])), ClockOrd::After);
        assert_eq!(vc(&[1, 0]).compare(&vc(&[0, 1])), ClockOrd::Concurrent);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = vc(&[1, 5, 0]);
        a.merge(&vc(&[3, 2, 0]));
        assert_eq!(a, vc(&[3, 5, 0]));
    }

    #[test]
    fn merge_handles_length_mismatch() {
        let mut a = vc(&[1]);
        a.merge(&vc(&[0, 7]));
        assert_eq!(a, vc(&[1, 7]));
    }

    #[test]
    fn merge_advancing_reports_each_raised_component() {
        let mut a = vc(&[1, 5, 0]);
        let mut seen = Vec::new();
        assert!(a.merge_advancing(&vc(&[3, 2, 0, 0, 7]), |i, old| seen.push((i, old))));
        assert_eq!(a, vc(&[3, 5, 0, 0, 7]));
        assert_eq!(seen, vec![(0, 1), (4, 0)]);
        // Stale input: nothing reported, and no widening for zeros.
        let mut narrow = VectorClock::new(0);
        assert!(!narrow.merge_advancing(&vc(&[0, 0]), |_, _| panic!("nothing rose")));
        assert!(narrow.is_empty());
        assert!(!a.merge_advancing(&vc(&[3]), |_, _| panic!("nothing rose")));
    }

    #[test]
    fn deliverability_next_from_sender() {
        // Delivered state: seen 2 msgs from P0, 1 from P1.
        let state = vc(&[2, 1, 0]);
        // Next message from P0 is deliverable.
        assert!(state.deliverable(&vc(&[3, 1, 0]), 0));
        // A gap from the sender is not.
        assert!(!state.deliverable(&vc(&[4, 1, 0]), 0));
        // A causal dependency on an undelivered message is not.
        assert!(!state.deliverable(&vc(&[3, 2, 0]), 0));
        // A redelivery (old message) is not.
        assert!(!state.deliverable(&vc(&[2, 1, 0]), 0));
    }

    #[test]
    fn encode_roundtrip() {
        let c = vc(&[1, 2, 3, u64::MAX]);
        assert_eq!(VectorClock::decode(&c.encode()), Some(c.clone()));
        assert_eq!(c.encode().len(), 4 + 8 * 4);
        for n in [0, 1, 64] {
            let c = VectorClock::new(n);
            assert_eq!(c.encoded_len(), c.encode().len());
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(VectorClock::decode(&[]), None);
        assert_eq!(VectorClock::decode(&[9, 0, 0, 0]), None);
        let mut good = vc(&[1, 2]).encode().to_vec();
        good.pop();
        assert_eq!(VectorClock::decode(&good), None);
    }

    #[test]
    fn delta_roundtrip_and_size() {
        let base = vc(&[5, 5, 5, 5, 5, 5, 5, 5]);
        let mut next = base.clone();
        next.tick(3);
        let delta = next.encode_delta(&base);
        assert_eq!(VectorClock::decode_delta(&delta, &base), Some(next.clone()));
        // One changed component: 8 header + 12 payload, vs 4 + 64 full.
        assert_eq!(delta.len(), 20);
        assert!(delta.len() < next.encode().len());
    }

    #[test]
    fn delta_decode_rejects_malformed() {
        let base = vc(&[1, 2]);
        assert_eq!(VectorClock::decode_delta(&[], &base), None);
        // Trailing garbage byte.
        let mut d = vc(&[1, 3]).encode_delta(&base).to_vec();
        d.push(0);
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // Truncated mid-pair.
        let mut d = vc(&[1, 3]).encode_delta(&base).to_vec();
        d.truncate(d.len() - 5);
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // Pair index out of declared range (n = 2, index = 2).
        let mut d = Vec::new();
        d.extend_from_slice(&2u32.to_le_bytes());
        d.extend_from_slice(&1u32.to_le_bytes());
        d.extend_from_slice(&2u32.to_le_bytes());
        d.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // Duplicate index (encoder emits strictly increasing indices).
        let mut d = Vec::new();
        d.extend_from_slice(&2u32.to_le_bytes());
        d.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            d.extend_from_slice(&0u32.to_le_bytes());
            d.extend_from_slice(&7u64.to_le_bytes());
        }
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // More pairs than components (k > n) — also caps the resize
        // allocation a hostile length prefix could otherwise demand.
        let mut d = Vec::new();
        d.extend_from_slice(&1u32.to_le_bytes());
        d.extend_from_slice(&2u32.to_le_bytes());
        for i in 0..2u32 {
            d.extend_from_slice(&i.to_le_bytes());
            d.extend_from_slice(&7u64.to_le_bytes());
        }
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
    }

    #[test]
    fn delta_decode_bounds_hostile_width() {
        let base = vc(&[1, 2]);
        // Regression: a bare 8-byte header declaring n = u32::MAX with
        // zero pairs passes the structural checks (`buf.len() == 8 + 12k`,
        // `k <= n`) and used to demand a ~32 GiB `resize` before any
        // further validation.
        let mut d = Vec::new();
        d.extend_from_slice(&u32::MAX.to_le_bytes());
        d.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // One past the cap is rejected; the cap itself is representable.
        let mut d = Vec::new();
        d.extend_from_slice(&((VectorClock::MAX_DELTA_WIDTH + 1) as u32).to_le_bytes());
        d.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        let mut d = Vec::new();
        d.extend_from_slice(&(VectorClock::MAX_DELTA_WIDTH as u32).to_le_bytes());
        d.extend_from_slice(&0u32.to_le_bytes());
        let wide = VectorClock::decode_delta(&d, &base).expect("cap width decodes");
        assert_eq!(wide.len(), VectorClock::MAX_DELTA_WIDTH);
        assert_eq!(wide.get(1), 2);
        assert_eq!(wide.get(VectorClock::MAX_DELTA_WIDTH - 1), 0);
    }

    /// Sharing contract, isolation: no write through one handle is ever
    /// seen through another.
    #[test]
    fn writes_through_a_clone_leave_the_original_alone() {
        let a = vc(&[1, 5, 0, 2]);
        let kept = entries(a.clone());
        let bigger = vc(&[0, 9, 0, 2, 4]);
        let mut b = a.clone();
        b.set(2, 7);
        let mut c = a.clone();
        assert_eq!(c.tick(0), 2);
        let mut d = a.clone();
        d.merge(&bigger);
        let mut e = a.clone();
        assert!(e.merge_advancing(&bigger, |_, _| {}));
        let f = VectorClock::decode_delta(&bigger.encode_delta(&a), &a).expect("decodes");
        assert_eq!(f, bigger);
        for (what, written) in [
            ("set", b),
            ("tick", c),
            ("merge", d),
            ("advance", e),
            ("delta", f),
        ] {
            assert_ne!(written, a, "{what} did write");
            assert!(
                !written.shares_storage_with(&a),
                "{what} wrote shared storage"
            );
        }
        assert_eq!(entries(a), kept);
    }

    /// Sharing contract, economy: a write that changes nothing copies
    /// nothing.
    #[test]
    fn writes_that_change_nothing_keep_sharing() {
        let a = vc(&[3, 0, 8]);
        let mut b = a.clone();
        assert!(b.shares_storage_with(&a));
        b.set(2, 8);
        assert!(b.shares_storage_with(&a), "set to the value already there");
        b.merge(&vc(&[3, 0, 1]));
        b.merge(&vc(&[2]));
        b.merge(&a);
        assert!(b.shares_storage_with(&a), "merge that raises nothing");
        assert!(!b.merge_advancing(&vc(&[1, 0, 8, 0, 0]), |_, _| panic!("nothing rose")));
        assert!(b.shares_storage_with(&a), "stale row, wider but all zeros");
        let empty_delta = a.encode_delta(&a.clone());
        assert_eq!(empty_delta.len(), 8);
        let c = VectorClock::decode_delta(&empty_delta, &a).expect("decodes");
        assert!(c.shares_storage_with(&a), "empty delta at the base's width");
        let same = VectorClock::decode_delta(&a.encode_delta(&VectorClock::new(3)), &a);
        assert!(
            same.expect("decodes").shares_storage_with(&a),
            "pairs that repeat the base"
        );
        // A narrower or wider declared width is a different clock.
        let wider = VectorClock::decode_delta(&vc(&[3, 0, 8, 0]).encode_delta(&a), &a);
        assert_eq!(wider, Some(vc(&[3, 0, 8, 0])));
        // Zero clocks of at most 64 components hold no storage at all.
        assert!(VectorClock::new(0).shares_storage_with(&VectorClock::new(0)));
        assert!(VectorClock::new(64).shares_storage_with(&VectorClock::new(64)));
    }

    /// Sharing contract, granularity: a write to a shared clock copies
    /// the one block it lands in, a delta decode shares every block no
    /// pair touches, zeros are no block, a merge takes over a block that
    /// covers its own, and widening keeps every whole block.
    #[test]
    fn a_write_copies_only_the_block_it_lands_in() {
        let mut a = VectorClock::new(4096);
        assert_eq!(shared_blocks(&a, &VectorClock::new(4096)), 64);
        a.set(70, 3);
        a.set(4000, 9);
        assert_eq!(shared_blocks(&a, &VectorClock::new(4096)), 62);
        let mut b = a.clone();
        b.tick(100);
        assert!(!b.shares_storage_with(&a));
        assert_eq!(shared_blocks(&a, &b), 63, "a tick copies block 1 alone");
        let decoded = VectorClock::decode_delta(&b.encode_delta(&a), &a).expect("decodes");
        assert_eq!(decoded, b);
        assert_eq!(shared_blocks(&a, &decoded), 63, "so does a one-pair delta");
        let full = VectorClock::decode(&a.encode()).expect("decodes");
        assert_eq!(full, a);
        assert_eq!(shared_blocks(&full, &VectorClock::new(4096)), 62);
        // `b` covers `a` in block 1: the merge takes `b`'s block over.
        let mut c = a.clone();
        c.merge(&b);
        assert_eq!(c, b);
        assert!(same_slot(&c.slots()[1], &b.slots()[1]));
        // `a` is ahead of `d` at 70 and behind it at 100: the merge
        // writes a copy of its own, shared with neither.
        let mut d = VectorClock::new(4096);
        d.set(100, 5);
        let mut e = a.clone();
        e.merge(&d);
        assert_eq!((e.get(70), e.get(100)), (3, 5));
        assert!(!same_slot(&e.slots()[1], &a.slots()[1]));
        assert!(!same_slot(&e.slots()[1], &d.slots()[1]));
        assert_eq!(shared_blocks(&e, &a), 63);
        // 70 wide to 200: block 0 kept, the rest absent.
        let mut narrow = vc(&[0; 70]);
        narrow.set(3, 1);
        let mut widened = narrow.clone();
        widened.merge(&VectorClock::new(200));
        assert_eq!((widened.len(), widened.get(3)), (200, 1));
        assert!(same_slot(&widened.slots()[0], &narrow.slots()[0]));
        assert_eq!(shared_blocks(&widened, &VectorClock::new(200)), 3);
    }

    #[test]
    fn any_above_is_exact() {
        assert!(!VectorClock::new(0).any_above(0));
        assert!(!vc(&[4, 7, 0]).any_above(7));
        assert!(vc(&[4, 7, 0]).any_above(6));
        // The `or` of the components passes the bound; none of them does.
        assert!(!vc(&[4, 3]).any_above(6));
        assert!(vc(&[0, u64::MAX]).any_above(u64::MAX - 1));
        let mut wide = VectorClock::new(4096);
        assert!(!wide.any_above(0));
        wide.set(4095, 1);
        assert!(wide.any_above(0));
        assert!(!wide.any_above(1));
    }

    #[test]
    fn helpers() {
        assert_eq!(vc(&[0, 1]).compare(&vc(&[1, 1])), ClockOrd::Before);
        assert_eq!(vc(&[1, 0]).compare(&vc(&[0, 1])), ClockOrd::Concurrent);
        assert_eq!(vc(&[2, 3]).total_events(), 5);
        assert!(!vc(&[1]).is_empty());
        assert!(VectorClock::new(0).is_empty());
        assert_eq!(format!("{:?}", vc(&[2, 0, 7])), "VT[2, 0, 7]");
    }

    fn arb_clock(n: usize) -> impl Strategy<Value = VectorClock> {
        proptest::collection::vec(0u64..50, n).prop_map(VectorClock::from_entries)
    }

    /// Two operands shaped to reach every branch of the scan: widths on
    /// and around the sixteen-component run and the 64-component block
    /// (and zero, and 4096), equal, narrower or wider than each other;
    /// mostly-zero or dense; the second a copy of the first that differs
    /// in a few places, the first and the last component favoured.
    fn arb_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
        const WIDTHS: [usize; 14] = [0, 1, 15, 16, 17, 32, 40, 63, 64, 65, 130, 200, 4096, 4100];
        (0usize..14, 0usize..20).prop_perturb(|(wa, wb), mut rng| {
            let wa = WIDTHS[wa];
            let wb = WIDTHS.get(wb).copied().unwrap_or(wa);
            let dense = rng.gen_bool(0.3);
            let a: Vec<u64> = (0..wa)
                .map(|_| {
                    if dense || rng.gen_bool(0.02) {
                        rng.gen_range(0u64..5)
                    } else {
                        0
                    }
                })
                .collect();
            let mut b = a.clone();
            b.resize(wb, 0);
            for _ in 0..rng.gen_range(0..5) {
                if let Some(last) = wb.checked_sub(1) {
                    let at = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => last,
                        _ => rng.gen_range(0..wb),
                    };
                    b[at] = rng.gen_range(0u64..7);
                }
            }
            (a, b)
        })
    }

    /// Every operation on `ca`, `cb` agrees with its per-element
    /// definition over `a`, `b`, and leaves both operands untouched.
    fn agrees_with_the_oracle(
        (a, b): (&[u64], &[u64]),
        (ca, cb): (&VectorClock, &VectorClock),
        sender: usize,
    ) {
        let mut merged = ca.clone();
        merged.merge(cb);
        let mut want = a.to_vec();
        oracle::merge(&mut want, b);
        assert_eq!(entries(merged), want);

        let (mut seen, mut want_seen) = (Vec::new(), Vec::new());
        let mut advanced = ca.clone();
        let rose = advanced.merge_advancing(cb, |i, old| seen.push((i, old)));
        let mut want = a.to_vec();
        let want_rose = oracle::merge_advancing(&mut want, b, |i, old| want_seen.push((i, old)));
        assert_eq!(
            (rose, seen, entries(advanced)),
            (want_rose, want_seen, want)
        );

        assert_eq!(ca.compare(cb), oracle::compare(a, b));
        assert_eq!(cb.compare(ca), oracle::compare(b, a));
        assert_eq!(ca == cb, a == b);
        for s in [
            0,
            a.len().saturating_sub(1),
            b.len().saturating_sub(1),
            sender,
        ] {
            assert_eq!(ca.deliverable(cb, s), oracle::deliverable(a, b, s));
        }
        assert_eq!(ca.lagging(cb).collect::<Vec<_>>(), oracle::lagging(a, b));
        assert_eq!(cb.lagging(ca).collect::<Vec<_>>(), oracle::lagging(b, a));

        let full = cb.encode();
        assert_eq!(full[..], oracle::encode(b));
        assert_eq!(full.len(), cb.encoded_len());
        assert_eq!(
            VectorClock::decode(&full).map(entries),
            oracle::decode(&full)
        );
        assert_eq!(VectorClock::decode(&full).as_ref(), Some(cb));

        // Against a wider base the encoder emits pairs past its own
        // width, which the decoder then refuses: both as before.
        let delta = cb.encode_delta(ca);
        assert_eq!(delta[..], oracle::encode_delta(b, a));
        let decoded = VectorClock::decode_delta(&delta, ca);
        assert_eq!(
            decoded.clone().map(entries),
            oracle::decode_delta(&delta, a)
        );
        assert!(a.len() > b.len() || decoded.as_ref() == Some(cb));

        assert_eq!(ca.total_events(), a.iter().sum::<u64>());
        for bound in [0, 2, 4] {
            assert_eq!(cb.any_above(bound), b.iter().any(|&v| v > bound));
        }
        assert_eq!(
            (entries(ca.clone()), entries(cb.clone())),
            (a.to_vec(), b.to_vec())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every operation agrees with its per-element definition, and
        /// leaves a clone of its operand untouched — on operands built
        /// apart, and on operands that share every block they agree in.
        #[test]
        fn slice_kernels_match_the_per_element_definitions(
            (a, b) in arb_pair(),
            sender in 0usize..4200,
        ) {
            let (ca, cb) = (vc(&a), vc(&b));
            agrees_with_the_oracle((&a, &b), (&ca, &cb), sender);
            if a.len() <= b.len() {
                let shared = VectorClock::decode_delta(&cb.encode_delta(&ca), &ca)
                    .expect("a delta against a base no wider decodes");
                agrees_with_the_oracle((&a, &b), (&ca, &shared), sender);
                agrees_with_the_oracle((&b, &a), (&shared, &ca), sender);
            }

            // Operands on one table.
            let mut same = ca.clone();
            same.merge(&ca.clone());
            prop_assert!(same.shares_storage_with(&ca));
            prop_assert!(!same.merge_advancing(&ca.clone(), |_, _| panic!("nothing rose")));
            prop_assert_eq!(ca.lagging(&ca.clone()).count(), 0);
            prop_assert_eq!(ca.compare(&ca.clone()), ClockOrd::Equal);
            prop_assert_eq!(cb.encode_delta(&cb.clone())[..], oracle::encode_delta(&b, &b));
        }
    }

    proptest! {
        /// Antisymmetry: a < b implies !(b < a).
        #[test]
        fn partial_order_antisymmetric(a in arb_clock(6), b in arb_clock(6)) {
            if a.compare(&b) == ClockOrd::Before {
                prop_assert_eq!(b.compare(&a), ClockOrd::After);
            }
        }

        /// Transitivity: a < b and b < c implies a < c.
        #[test]
        fn partial_order_transitive(a in arb_clock(5), b in arb_clock(5), c in arb_clock(5)) {
            if a.compare(&b) == ClockOrd::Before && b.compare(&c) == ClockOrd::Before {
                prop_assert_eq!(a.compare(&c), ClockOrd::Before);
            }
        }

        /// Merge is an upper bound of both operands.
        #[test]
        fn merge_is_upper_bound(a in arb_clock(6), b in arb_clock(6)) {
            let mut m = a.clone();
            m.merge(&b);
            prop_assert!(matches!(a.compare(&m), ClockOrd::Before | ClockOrd::Equal));
            prop_assert!(matches!(b.compare(&m), ClockOrd::Before | ClockOrd::Equal));
        }

        /// Merge is commutative and idempotent.
        #[test]
        fn merge_lattice_laws(a in arb_clock(6), b in arb_clock(6)) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut aa = a.clone();
            aa.merge(&a);
            prop_assert_eq!(aa, a);
        }

        /// Full encoding roundtrips for any clock.
        #[test]
        fn encode_roundtrip_prop(a in arb_clock(10)) {
            prop_assert_eq!(VectorClock::decode(&a.encode()), Some(a));
        }

        /// Delta encoding roundtrips against any base of equal length.
        #[test]
        fn delta_roundtrip_prop(a in arb_clock(10), b in arb_clock(10)) {
            let d = a.encode_delta(&b);
            prop_assert_eq!(VectorClock::decode_delta(&d, &b), Some(a));
        }

        /// Fuzz: `decode_delta` over arbitrary byte strings must never
        /// panic, overflow, or allocate past the width cap — it either
        /// rejects the input or produces a clock of the declared width
        /// extending `base`.
        #[test]
        fn delta_decode_survives_arbitrary_bytes(
            bytes in collection::vec(0u8..=255, 0..64),
            base in arb_clock(6),
        ) {
            let decoded = VectorClock::decode_delta(&bytes, &base);
            if let Some(c) = &decoded {
                prop_assert!(c.len() <= VectorClock::MAX_DELTA_WIDTH);
                let declared = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
                prop_assert_eq!(c.len(), declared);
            }
            prop_assert_eq!(decoded.map(entries), oracle::decode_delta(&bytes, &entries(base)));
        }

        /// Fuzz: corrupting a valid delta encoding (byte flips,
        /// truncation, appended garbage) never panics; the decoder
        /// either rejects it or returns some structurally sound clock.
        #[test]
        fn delta_decode_survives_corrupted_encodings(
            a in arb_clock(8),
            b in arb_clock(8),
            flip_at in 0usize..32,
            flip_to in 0u8..=255,
            cut in 0usize..32,
        ) {
            let mut d = a.encode_delta(&b).to_vec();
            let len = d.len().max(1);
            if let Some(byte) = d.get_mut(flip_at % len) {
                *byte = flip_to;
            }
            let base = entries(b.clone());
            let agrees = |d: &[u8]| {
                VectorClock::decode_delta(d, &b).map(entries) == oracle::decode_delta(d, &base)
            };
            prop_assert!(agrees(&d));
            d.truncate(cut.min(d.len()));
            prop_assert!(agrees(&d));
            d.extend_from_slice(&[flip_to; 3]);
            prop_assert!(agrees(&d));
        }

        /// Comparison is consistent with per-component dominance.
        #[test]
        fn compare_matches_dominance(a in arb_clock(6), b in arb_clock(6)) {
            let all_le = (0..6).all(|i| a.get(i) <= b.get(i));
            let all_ge = (0..6).all(|i| a.get(i) >= b.get(i));
            let expected = match (all_le, all_ge) {
                (true, true) => ClockOrd::Equal,
                (true, false) => ClockOrd::Before,
                (false, true) => ClockOrd::After,
                (false, false) => ClockOrd::Concurrent,
            };
            prop_assert_eq!(a.compare(&b), expected);
        }
    }
}
