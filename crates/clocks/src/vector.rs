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

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

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

/// A dense vector clock over processes `0..n`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// A zero clock for `n` processes.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Builds a clock directly from entries (tests and decoding).
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes the clock covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the clock covers zero processes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The component for process `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.entries.get(i).copied().unwrap_or(0)
    }

    /// Sets the component for process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: u64) {
        self.entries[i] = v;
    }

    /// Increments own component `i` (send/local event rule) and returns
    /// the new value.
    pub fn tick(&mut self, i: usize) -> u64 {
        self.entries[i] += 1;
        self.entries[i]
    }

    /// Component-wise maximum (receive rule).
    pub fn merge(&mut self, other: &VectorClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (i, &v) in other.entries.iter().enumerate() {
            if v > self.entries[i] {
                self.entries[i] = v;
            }
        }
    }

    /// Component-wise maximum that reports what it raises: `on_advance(i,
    /// old)` runs for each component `i` lifted above its value `old`, in
    /// one pass over the two slices. Returns whether any component rose.
    /// Like [`VectorClock::merge`] it widens to `other`'s length, but only
    /// when a component beyond the current width is non-zero, so a stale
    /// row leaves a lazily allocated clock narrow.
    pub fn merge_advancing(
        &mut self,
        other: &VectorClock,
        mut on_advance: impl FnMut(usize, u64),
    ) -> bool {
        let shared = self.entries.len().min(other.entries.len());
        let (head, tail) = other.entries.split_at(shared);
        let mut advanced = false;
        for (i, (mine, &v)) in self.entries.iter_mut().zip(head).enumerate() {
            if v > *mine {
                on_advance(i, *mine);
                *mine = v;
                advanced = true;
            }
        }
        if tail.iter().any(|&v| v > 0) {
            self.entries.extend_from_slice(tail);
            for (i, _) in tail.iter().enumerate().filter(|(_, &v)| v > 0) {
                on_advance(shared + i, 0);
            }
            advanced = true;
        }
        advanced
    }

    /// Compares two clocks under the causal partial order.
    pub fn compare(&self, other: &VectorClock) -> ClockOrd {
        let n = self.entries.len().max(other.entries.len());
        let mut less = false;
        let mut greater = false;
        for i in 0..n {
            match self.get(i).cmp(&other.get(i)) {
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

    /// `self` happens-before `other` (strictly).
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrd::Before
    }

    /// `self` and `other` are concurrent.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrd::Concurrent
    }

    /// The ISIS cbcast deliverability test: a message stamped `msg_vt`
    /// from `sender` is deliverable at a process whose delivered-clock is
    /// `self` iff
    ///
    /// 1. `msg_vt[sender] == self[sender] + 1` (next message from sender),
    /// 2. `msg_vt[k] <= self[k]` for all `k != sender` (all causal
    ///    predecessors from other processes already delivered).
    pub fn deliverable(&self, msg_vt: &VectorClock, sender: usize) -> bool {
        if msg_vt.get(sender) != self.get(sender) + 1 {
            return false;
        }
        let n = self.entries.len().max(msg_vt.entries.len());
        for k in 0..n {
            if k != sender && msg_vt.get(k) > self.get(k) {
                return false;
            }
        }
        true
    }

    /// Full binary encoding: `n` little-endian `u64`s plus a 4-byte count.
    /// This is the per-message ordering overhead measured by T7.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for &e in &self.entries {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out
    }

    /// Length of [`VectorClock::encode`]'s output, without building it.
    pub fn encoded_len(&self) -> usize {
        4 + 8 * self.entries.len()
    }

    /// Decodes a full encoding.
    ///
    /// Returns `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(buf[0..4].try_into().ok()?) as usize;
        if buf.len() != 4 + 8 * n {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let s = 4 + 8 * i;
            entries.push(u64::from_le_bytes(buf[s..s + 8].try_into().ok()?));
        }
        Some(VectorClock { entries })
    }

    /// Delta encoding relative to `base`: only changed components are sent
    /// as `(u32 index, u64 value)` pairs. This is the ablation in T7 —
    /// cheaper when few components change between consecutive messages,
    /// degrading to worse-than-full under all-to-all traffic.
    pub fn encode_delta(&self, base: &VectorClock) -> Vec<u8> {
        let mut pairs = Vec::new();
        let n = self.entries.len().max(base.entries.len());
        for i in 0..n {
            if self.get(i) != base.get(i) {
                pairs.push((i as u32, self.get(i)));
            }
        }
        let mut out = Vec::with_capacity(8 + 12 * pairs.len());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (i, v) in pairs {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Widest clock [`VectorClock::decode_delta`] will materialize. The
    /// delta header declares the decoded width explicitly (the full
    /// encoding's width is bounded by the buffer itself), so without a
    /// cap a hostile 8-byte header with `k = 0` passes every structural
    /// check and demands an allocation of up to `u32::MAX` entries
    /// (~32 GiB) before a single pair is validated. Any group this
    /// codebase simulates is orders of magnitude below this bound.
    pub const MAX_DELTA_WIDTH: usize = 1 << 16;

    /// Decodes a delta encoding against `base`.
    ///
    /// Returns `None` on malformed input: short or trailing bytes, a
    /// declared width past [`VectorClock::MAX_DELTA_WIDTH`], more pairs
    /// than components (`k > n`), duplicate or non-increasing indices
    /// (the encoder emits them strictly increasing), or an index out of
    /// range.
    pub fn decode_delta(buf: &[u8], base: &VectorClock) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        let n = u32::from_le_bytes(buf[0..4].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        if n > Self::MAX_DELTA_WIDTH || k > n {
            return None;
        }
        // `k <= n <= MAX_DELTA_WIDTH`, so this arithmetic cannot
        // overflow even on 32-bit targets.
        if buf.len() != 8 + 12 * k {
            return None;
        }
        let mut clock = base.clone();
        clock.entries.resize(n, 0);
        let mut prev: Option<usize> = None;
        for j in 0..k {
            let s = 8 + 12 * j;
            let i = u32::from_le_bytes(buf[s..s + 4].try_into().ok()?) as usize;
            let v = u64::from_le_bytes(buf[s + 4..s + 12].try_into().ok()?);
            if i >= n || prev.is_some_and(|p| i <= p) {
                return None;
            }
            prev = Some(i);
            clock.entries[i] = v;
        }
        Some(clock)
    }

    /// Sum of all components — a crude size of the causal past, used by
    /// the false-causality metrics.
    pub fn total_events(&self) -> u64 {
        self.entries.iter().sum()
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VT{:?}", self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vc(e: &[u64]) -> VectorClock {
        VectorClock::from_entries(e.to_vec())
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
        let mut good = vc(&[1, 2]).encode();
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
        let mut d = vc(&[1, 3]).encode_delta(&base);
        d.push(0);
        assert_eq!(VectorClock::decode_delta(&d, &base), None);
        // Truncated mid-pair.
        let mut d = vc(&[1, 3]).encode_delta(&base);
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

    #[test]
    fn helpers() {
        assert!(vc(&[0, 1]).happens_before(&vc(&[1, 1])));
        assert!(vc(&[1, 0]).concurrent_with(&vc(&[0, 1])));
        assert_eq!(vc(&[2, 3]).total_events(), 5);
        assert!(!vc(&[1]).is_empty());
        assert!(VectorClock::new(0).is_empty());
    }

    fn arb_clock(n: usize) -> impl Strategy<Value = VectorClock> {
        proptest::collection::vec(0u64..50, n).prop_map(VectorClock::from_entries)
    }

    proptest! {
        /// Antisymmetry: a < b implies !(b < a).
        #[test]
        fn partial_order_antisymmetric(a in arb_clock(6), b in arb_clock(6)) {
            if a.happens_before(&b) {
                prop_assert!(!b.happens_before(&a));
                prop_assert_eq!(b.compare(&a), ClockOrd::After);
            }
        }

        /// Transitivity: a < b and b < c implies a < c.
        #[test]
        fn partial_order_transitive(a in arb_clock(5), b in arb_clock(5), c in arb_clock(5)) {
            if a.happens_before(&b) && b.happens_before(&c) {
                prop_assert!(a.happens_before(&c));
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
            if let Some(c) = VectorClock::decode_delta(&bytes, &base) {
                prop_assert!(c.len() <= VectorClock::MAX_DELTA_WIDTH);
                let declared = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
                prop_assert_eq!(c.len(), declared);
            }
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
            let mut d = a.encode_delta(&b);
            let len = d.len().max(1);
            if let Some(byte) = d.get_mut(flip_at % len) {
                *byte = flip_to;
            }
            let _ = VectorClock::decode_delta(&d, &b);
            d.truncate(cut.min(d.len()));
            let _ = VectorClock::decode_delta(&d, &b);
            d.extend_from_slice(&[flip_to; 3]);
            let _ = VectorClock::decode_delta(&d, &b);
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
