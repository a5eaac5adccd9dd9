//! The unstable-message buffer: every message a member delivered (its own
//! sends count) that the group is not yet known to have, kept to serve
//! retransmissions from — the §5 "buffered until stable" cost.

use crate::group::MsgId;
use crate::wire::DataMsg;
use clocks::vector::VectorClock;
use std::collections::VecDeque;

/// Unstable messages retained for retransmission, one window a sender.
///
/// Sender `s`'s window holds, in sequence order, the messages of `s`
/// delivered here that the stable frontier has not passed: seqs
/// `(stable[s], delivered[s]]`. Only deliveries and own sends are
/// retained, and causal delivery is FIFO per sender, so each window is
/// contiguous: a lookup indexes it from its front, a delivery is pushed
/// at its back, and what goes stable is popped from its front.
#[derive(Debug)]
pub(crate) struct SenderWindows<P> {
    windows: Vec<VecDeque<DataMsg<P>>>,
    /// The senders whose window is non-empty, ascending: the only ones a
    /// reclaim visits, so a wide group pays nothing per idle sender.
    held: Vec<usize>,
    /// Messages over all windows.
    len: usize,
}

impl<P> SenderWindows<P> {
    /// Empty windows for a group of `n`.
    pub(crate) fn new(n: usize) -> Self {
        SenderWindows {
            windows: (0..n).map(|_| VecDeque::new()).collect(),
            held: Vec::new(),
            len: 0,
        }
    }

    /// Number of messages retained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Where `id` sits: its sender's window and its index in it. Any id —
    /// a NACK names whatever it likes — is looked up without panicking.
    fn position(&self, id: MsgId) -> Option<(usize, usize)> {
        let window = self.windows.get(id.sender)?;
        let front = window.front()?.id.seq;
        let i = usize::try_from(id.seq.checked_sub(front)?).ok()?;
        (i < window.len()).then_some((id.sender, i))
    }

    /// The retained message `id`, if any.
    pub(crate) fn get(&self, id: MsgId) -> Option<&DataMsg<P>> {
        let (s, i) = self.position(id)?;
        Some(&self.windows[s][i])
    }

    /// The retained message `id`, if any, to update in place.
    pub(crate) fn get_mut(&mut self, id: MsgId) -> Option<&mut DataMsg<P>> {
        let (s, i) = self.position(id)?;
        Some(&mut self.windows[s][i])
    }

    /// Retains `msg`, the next message of its sender after the last one
    /// retained (or the first since its window emptied).
    pub(crate) fn push(&mut self, msg: DataMsg<P>) {
        let s = msg.id.sender;
        let window = &mut self.windows[s];
        match window.back() {
            Some(last) => debug_assert_eq!(
                last.id.seq + 1,
                msg.id.seq,
                "{} retained out of order behind {}",
                msg.id,
                last.id
            ),
            None => {
                let at = self.held.partition_point(|&h| h < s);
                self.held.insert(at, s);
            }
        }
        window.push_back(msg);
        self.len += 1;
    }

    /// Every retained message, by sender and then sequence number.
    pub(crate) fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut DataMsg<P>> {
        self.windows.iter_mut().flatten()
    }

    /// Drops every message of sender `s` at or below `stable[s]`; returns
    /// how many went.
    pub(crate) fn reclaim(&mut self, stable: &VectorClock) -> usize {
        let before = self.len;
        let (windows, len) = (&mut self.windows, &mut self.len);
        self.held.retain(|&s| {
            let window = &mut windows[s];
            let stable = stable.get(s);
            while window.front().is_some_and(|m| m.id.seq <= stable) {
                window.pop_front();
                *len -= 1;
            }
            !window.is_empty()
        });
        before - self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const N: usize = 5;

    fn ids<'a>(it: impl Iterator<Item = &'a mut DataMsg<u32>>) -> Vec<MsgId> {
        it.map(|m| m.id).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The windows against the id-keyed map they replaced. Each step
        /// either delivers the next message of a sender (retained in
        /// both) or reclaims at a random frontier — below, at or past
        /// what was delivered, as after an eviction — and then every
        /// lookup, the count and the walk in both directions agree, for
        /// ids retained, reclaimed, not yet sent and of no member.
        #[test]
        fn the_windows_match_an_ordered_map_model(
            script in collection::vec((bool::ANY, 0usize..N, collection::vec(0u64..12, N)), 0..80),
        ) {
            let mut windows = SenderWindows::new(N);
            let mut model: BTreeMap<MsgId, DataMsg<u32>> = BTreeMap::new();
            let mut delivered = [0u64; N];
            for (step, (deliver, s, frontier)) in script.into_iter().enumerate() {
                if deliver {
                    delivered[s] += 1;
                    let id = MsgId { sender: s, seq: delivered[s] };
                    let msg = DataMsg::new(id, VectorClock::new(N), step as u32);
                    windows.push(msg.clone());
                    model.insert(id, msg);
                } else {
                    let stable = VectorClock::from_entries(frontier);
                    let before = model.len();
                    model.retain(|id, _| id.seq > stable.get(id.sender));
                    prop_assert_eq!(windows.reclaim(&stable), before - model.len());
                }
                prop_assert_eq!(windows.len(), model.len());
                for sender in 0..=N {
                    let last = delivered.get(sender).copied().unwrap_or(0);
                    for seq in 0..=last + 1 {
                        let id = MsgId { sender, seq };
                        let want = model.get(&id).map(|m| (m.id, m.payload));
                        let got = windows.get(id).map(|m| (m.id, m.payload));
                        prop_assert_eq!(got, want);
                        let got = windows.get_mut(id).map(|m| (m.id, m.payload));
                        prop_assert_eq!(got, want);
                    }
                }
                let want: Vec<MsgId> = model.keys().copied().collect();
                prop_assert_eq!(ids(windows.values_mut()), want.clone());
                let back: Vec<MsgId> = want.into_iter().rev().collect();
                prop_assert_eq!(ids(windows.values_mut().rev()), back);
            }
        }
    }

    /// A NACK names whatever ids it likes: around a window, of an empty
    /// window, of no member.
    #[test]
    fn a_lookup_of_any_id_is_refused_without_panicking() {
        let id = |sender, seq| MsgId { sender, seq };
        let mut windows = SenderWindows::new(2);
        windows.push(DataMsg::new(id(1, 3), VectorClock::new(2), ()));
        let absent = [
            (1, 2),
            (1, 4),
            (1, u64::MAX),
            (0, 3),
            (2, 3),
            (usize::MAX, 3),
        ];
        for (sender, seq) in absent {
            assert!(windows.get(id(sender, seq)).is_none(), "{sender}.{seq}");
        }
        assert!(windows.get(id(1, 3)).is_some());
    }
}
